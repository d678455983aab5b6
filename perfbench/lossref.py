"""An independent reference for the contrastive losses.

Every logit of a fixed small batch is built one at a time in Python
floats (double precision) and each row's cross-entropy is a plain
log-sum-exp, so the reference shares no code with the library's
vectorised kernels.  It is compared with ``symile_loss`` ("on" with
explicit permutations, and "on2") and with ``pairwise_clip_loss``.
"""

from __future__ import annotations

import math

import numpy as np

N, D, M = 7, 4, 3
SCALES = (1.0, 12.0)  # the larger scale exercises the max-shift
# Stated tolerances on |library - reference|: double-precision inputs
# agree to rounding; single-precision inputs carry float32 rounding of
# logits whose magnitude is at most the scale.
TOL = {"float64": 1e-10, "float32": 1e-5}


def _lse(row: list[float]) -> float:
    top = max(row)
    return top + math.log(math.fsum(math.exp(x - top) for x in row))


def _ce(rows: list[list[float]], targets: list[int]) -> float:
    return math.fsum(_lse(r) - r[t] for r, t in zip(rows, targets)) / len(rows)


def _mip(*vectors: list[float]) -> float:
    return math.fsum(math.prod(v[d] for v in vectors) for d in range(len(vectors[0])))


def ref_symile_on(reps: dict[str, list[list[float]]], scale: float, perms: dict) -> float:
    """Mean over anchors of the row CE; column j of row i scores the
    non-anchors at their permuted rows, except the diagonal, which scores
    the matched tuple."""
    names = list(reps)
    losses = []
    for anchor in names:
        others = [m for m in names if m != anchor]
        a = reps[anchor]
        rows = []
        for i in range(N):
            row = []
            for j in range(N):
                if j == i:
                    tup = [reps[m][i] for m in others]
                else:
                    tup = [reps[m][perms[anchor][k][j]] for k, m in enumerate(others)]
                row.append(scale * _mip(a[i], *tup))
            rows.append(row)
        losses.append(_ce(rows, list(range(N))))
    return math.fsum(losses) / len(names)


def ref_symile_on2(reps: dict[str, list[list[float]]], scale: float) -> float:
    """Column j*N + k of row i scores (anchor_i, first_j, second_k)."""
    names = list(reps)
    losses = []
    for anchor in names:
        first, second = (reps[m] for m in names if m != anchor)
        a = reps[anchor]
        rows = [
            [scale * _mip(a[i], first[j], second[k]) for j in range(N) for k in range(N)]
            for i in range(N)
        ]
        losses.append(_ce(rows, [i * N + i for i in range(N)]))
    return math.fsum(losses) / len(names)


def ref_pairwise_clip(reps: dict[str, list[list[float]]], scale: float) -> float:
    """Sum over modality pairs of the mean of the row and column CE."""
    names = list(reps)
    total = []
    for p in range(len(names)):
        for q in range(p + 1, len(names)):
            x, y = reps[names[p]], reps[names[q]]
            rows = [[scale * _mip(x[i], y[j]) for j in range(N)] for i in range(N)]
            cols = [[rows[i][j] for i in range(N)] for j in range(N)]
            total.append(0.5 * (_ce(rows, list(range(N))) + _ce(cols, list(range(N)))))
    return math.fsum(total)


def fixed_batch(dtype: str) -> tuple[dict[str, np.ndarray], dict[str, list[np.ndarray]]]:
    """Unit-norm representations and explicit permutations of one fixed
    batch (independent of the workload seed: it checks the kernel)."""
    rng = np.random.default_rng(20241101)
    reps = {}
    for name in ("a", "b", "c")[:M]:
        z = rng.standard_normal((N, D))
        reps[name] = (z / np.linalg.norm(z, axis=1, keepdims=True)).astype(dtype)
    perms = {
        anchor: [rng.permutation(N) for _ in range(M - 1)] for anchor in reps
    }
    return reps, perms


def check_losses() -> list[tuple[str, bool, str]]:
    """(check name, passed, detail) for every loss, dtype and scale."""
    from symile.objectives import pairwise_clip_loss, symile_loss

    results = []
    for dtype, tol in TOL.items():
        reps, perms = fixed_batch(dtype)
        as_lists = {m: r.astype(np.float64).tolist() for m, r in reps.items()}
        plain_perms = {a: [p.tolist() for p in ps] for a, ps in perms.items()}
        for scale in SCALES:
            cases = {
                "symile_on": (
                    symile_loss(reps, scale, "on", perms=perms)[0],
                    ref_symile_on(as_lists, scale, plain_perms),
                ),
                "symile_on2": (
                    symile_loss(reps, scale, "on2")[0],
                    ref_symile_on2(as_lists, scale),
                ),
                "pairwise_clip": (
                    pairwise_clip_loss(reps, scale),
                    ref_pairwise_clip(as_lists, scale),
                ),
            }
            for loss, (got, want) in cases.items():
                err = abs(float(got) - want)
                results.append(
                    (
                        f"lossref.{loss}.{dtype}.scale{scale:g}",
                        err <= tol,
                        f"library {float(got)!r} reference {want!r} |diff| {err:.3g} tol {tol:g}",
                    )
                )
    return results
