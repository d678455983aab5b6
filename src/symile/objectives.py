"""Contrastive objectives built on the multilinear inner product (MIP).

The MIP of M equal-length vectors is the coordinate-wise sum of their
element-wise product, sum_d prod_m v[m][d] -- the natural generalization
of the dot product used to score tuples of modality representations.

Two families of losses are provided, with analytic gradients:

* the classic two-modality contrastive loss (and its pairwise sum over
  all modality pairs), whose logits are temperature-scaled dot products
  with full in-batch denominators;
* the any-M loss, where each modality in turn anchors a batch of one
  positive tuple and in-batch negatives formed either by randomly
  permuting the non-anchor modalities (K = N candidates per row, "on")
  or, for M = 3, by taking all combinations of the two non-anchor
  modalities (K = N^2 candidates per row, "on2").

The "on" construction follows the reference recipe exactly: negatives are
anchor @ (prod of permuted non-anchors).T with the diagonal overwritten by
the positive-tuple MIPs, and permutations are *not* fixed-point-excluded,
so a "negative" can collide with its positive.  The two-modality
directional loss is computed through the same code path, which makes the
M = 2 reduction of the any-M loss bitwise exact.

Both anchored losses are computed one block of anchor rows at a time
(about 2^20 logits per block), forward and backward together, so the full
score matrix never exists.  For "on2" the working memory is one block
plus O(N*D): no (N^2, D) grid of non-anchor pairs is formed either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .nn import row_softmax_cross_entropy
from .rng import substream

STRATEGIES = ("on", "on2")


def mip(vectors: Sequence[np.ndarray]) -> float:
    """Multilinear inner product: sum_d prod_m vectors[m][d]."""
    if len(vectors) < 2:
        raise ValueError("the multilinear inner product needs at least 2 vectors")
    arrs = [np.asarray(v).reshape(-1) for v in vectors]
    size = arrs[0].size
    if any(a.size != size for a in arrs):
        raise ValueError(f"vector lengths disagree: {[a.size for a in arrs]}")
    prod = arrs[0].copy()
    for a in arrs[1:]:
        prod *= a
    return float(prod.sum())


@dataclass(frozen=True)
class LogitsMatrix:
    """Per-anchor score matrix; row i's target column holds sample i's
    positive-tuple MIP (column i for "on", column i*N+i for "on2")."""

    values: np.ndarray  # (N, K)
    targets: np.ndarray  # (N,)
    anchor: str


def _validate_perm(perm: np.ndarray, n: int) -> np.ndarray:
    perm = np.asarray(perm)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm is not a permutation of 0..N-1")
    return perm


def _rows_product(mats: Sequence[np.ndarray]) -> np.ndarray:
    prod = mats[0].copy()
    for m in mats[1:]:
        prod *= m
    return prod


def _on_products(
    others: Sequence[np.ndarray], perms: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(permuted, matched) row products of the non-anchor modalities."""
    permuted = _rows_product([o[p] for o, p in zip(others, perms)])
    matched = _rows_product(list(others))
    return permuted, matched


def _on_scores(
    a: np.ndarray,
    start: int,
    permuted: np.ndarray,
    matched: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Raw (unscaled) O(N) logits of the anchor rows ``start:start+len(a)``:
    <a_i, permuted non-anchors at j> off the diagonal and
    <a_i, matched non-anchors at i> on it."""
    raw = np.matmul(a, permuted.T, out=out)
    local = np.arange(a.shape[0])
    raw[local, start + local] = (a * matched[start : start + a.shape[0]]).sum(axis=1)
    return raw


def _on2_scores(
    a: np.ndarray, first: np.ndarray, second: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Raw (unscaled) O(N^2) logits of the anchor rows ``a``: column
    j*N + k holds <a_i, first_j, second_k>."""
    n = first.shape[0]
    if out is None:
        out = np.empty((a.shape[0], n * n), np.result_type(a, first, second))
    np.matmul(a[:, None, :] * first, second.T, out=out.reshape(-1, n, n))
    return out


def build_logits_on(
    anchor_idx: int,
    reps: Mapping[str, np.ndarray],
    perms: Sequence[np.ndarray],
    scale: float,
) -> LogitsMatrix:
    """O(N) logits for one anchor: permuted-tuple negatives, matched diagonal.

    ``perms`` holds one permutation per non-anchor modality, in modality
    order.  Identity permutations replicate the collision behaviour of the
    in-batch construction: column j of row i holds the *matched* tuple j.
    """
    names = list(reps)
    anchor_name = names[anchor_idx]
    anchor = reps[anchor_name]
    n = anchor.shape[0]
    others = [reps[m] for m in names if m != anchor_name]
    perms = [_validate_perm(p, n) for p in perms]
    if len(perms) != len(others):
        raise ValueError(f"expected {len(others)} permutations, got {len(perms)}")
    raw = _on_scores(anchor, 0, *_on_products(others, perms))
    return LogitsMatrix(scale * raw, np.arange(n), anchor_name)


def build_logits_on2(
    anchor_idx: int, reps: Mapping[str, np.ndarray], scale: float
) -> LogitsMatrix:
    """O(N^2) logits for one anchor (M = 3 only).

    Row i scores every combination of the two non-anchor modalities:
    column j*N + k holds scale * <anchor_i, first_j, second_k>, so the
    positive sits at column i*N + i and each row has N^2 - 1 negatives.
    """
    names = list(reps)
    if len(names) != 3:
        raise ValueError("the exhaustive-negatives strategy is defined for M = 3")
    anchor_name = names[anchor_idx]
    anchor = reps[anchor_name]
    n = anchor.shape[0]
    first, second = (reps[m] for m in names if m != anchor_name)
    raw = _on2_scores(anchor, first, second)
    return LogitsMatrix(scale * raw, np.arange(n) * (n + 1), anchor_name)


# ---------------------------------------------------------------------------
# Losses with gradients
# ---------------------------------------------------------------------------

# Logits per row block of an anchored loss.  A block holds at least one
# row, so it is larger only when a single row is.  The loss's working
# memory is one block plus O(N*D).
_BLOCK_LOGITS = 1 << 20


def _block_buffer(n: int, k: int, *operands: np.ndarray) -> np.ndarray:
    """Scratch for one block of rows of an (N, K) anchored score matrix.

    The anchored losses own it for their whole run, so it is freed after
    their last temporaries.  Freed earlier, those temporaries split the
    freed block and the next anchor's block grew the heap instead: peak
    RSS of the N=1000 recipe rose by 2.5 MB.
    """
    rows = min(n, max(1, _BLOCK_LOGITS // k))
    return np.empty((rows, k), np.result_type(*operands))


def _blocked_ce(
    anchor: np.ndarray,
    block: np.ndarray,
    scale: float,
    scores: Callable[[slice, np.ndarray], np.ndarray],
    backward: Callable[[slice, np.ndarray], np.ndarray],
) -> tuple[float, np.ndarray, float]:
    """Mean-over-rows CE of an (N, K) anchored score matrix, built and
    differentiated one ``block`` of anchor rows at a time.

    ``scores(rows, out)`` writes the raw (unscaled) logits of anchor rows
    ``rows`` into ``out`` and returns their target columns.
    ``backward(rows, g)`` receives d loss / d raw for those rows (scale
    and 1/N folded in; it may overwrite ``g``), accumulates the non-anchor
    gradients itself and returns the rows of d_anchor.
    Returns (loss, d_anchor, d_scale).
    """
    n = anchor.shape[0]
    losses: list[np.ndarray] = []
    d_anchor: list[np.ndarray] = []
    for start in range(0, n, block.shape[0]):
        rows = slice(start, min(start + block.shape[0], n))
        raw = block[: rows.stop - start]
        targets = scores(rows, raw)
        raw *= scale
        block_losses, g = row_softmax_cross_entropy(raw, targets, overwrite=True)
        g *= scale / n
        losses.append(block_losses)
        d_anchor.append(backward(rows, g))
    d_anchor_all = np.concatenate(d_anchor)
    # Every logit is linear in its anchor row, so sum(dL/draw * raw) equals
    # sum(d_anchor * anchor) / scale; this avoids keeping an unscaled copy.
    d_scale = float((d_anchor_all * anchor).sum()) / scale
    return float(np.concatenate(losses).mean()), d_anchor_all, d_scale


def _anchored_on_loss(
    anchor: np.ndarray,
    others: Sequence[np.ndarray],
    perms: Sequence[np.ndarray],
    scale: float,
) -> tuple[float, np.ndarray, list[np.ndarray], float]:
    """Mean-over-rows CE of the O(N) logits, with gradients.

    Returns (loss, d_anchor, d_others, d_scale).
    """
    n = anchor.shape[0]
    permuted, matched = _on_products(others, perms)
    block = _block_buffer(n, n, anchor, permuted)
    d_permuted = np.zeros_like(permuted)
    d_matched = np.empty_like(matched)

    def scores(rows: slice, out: np.ndarray) -> np.ndarray:
        _on_scores(anchor[rows], rows.start, permuted, matched, out=out)
        return np.arange(rows.start, rows.stop)

    def backward(rows: slice, g: np.ndarray) -> np.ndarray:
        a = anchor[rows]
        local = np.arange(g.shape[0])
        diag = g[local, rows.start + local]
        g[local, rows.start + local] = 0.0
        d_permuted[...] += g.T @ a
        d_matched[rows] = diag[:, None] * a
        return g @ permuted + diag[:, None] * matched[rows]

    loss, d_anchor, d_scale = _blocked_ce(anchor, block, scale, scores, backward)
    d_others: list[np.ndarray] = []
    for m in range(len(others)):
        perm_rest = [others[j][perms[j]] for j in range(len(others)) if j != m]
        match_rest = [others[j] for j in range(len(others)) if j != m]
        d_o = np.empty_like(others[m])
        d_o[perms[m]] = d_permuted * _rows_product(perm_rest) if perm_rest else d_permuted
        d_o += d_matched * _rows_product(match_rest) if match_rest else d_matched
        d_others.append(d_o)
    return loss, d_anchor, d_others, d_scale


def _anchored_on2_loss(
    anchor: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    scale: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """Mean-over-rows CE of the O(N^2) logits, with gradients.

    No (N^2, D) pair grid is formed: each block's logits and its backward
    pass contract one non-anchor modality at a time.
    """
    n = anchor.shape[0]
    block = _block_buffer(n, n * n, anchor, first, second)
    d_first = np.zeros_like(first)
    d_second = np.zeros_like(second)

    def scores(rows: slice, out: np.ndarray) -> np.ndarray:
        _on2_scores(anchor[rows], first, second, out=out)
        return np.arange(rows.start, rows.stop) * (n + 1)

    def backward(rows: slice, g: np.ndarray) -> np.ndarray:
        a = anchor[rows]
        g = g.reshape(-1, n, n)  # [b, j, k]
        h = g @ second  # [b, j, d] = sum_k g[b, j, k] second[k, d]
        d_first[...] += np.einsum("bjd,bd->jd", h, a)
        d_second[...] += np.einsum("bkd,bd->kd", g.transpose(0, 2, 1) @ first, a)
        return np.einsum("bjd,jd->bd", h, first)

    loss, d_anchor, d_scale = _blocked_ce(anchor, block, scale, scores, backward)
    return loss, d_anchor, d_first, d_second, d_scale


def clip_directional_loss(rx: np.ndarray, ry: np.ndarray, scale: float) -> float:
    """One direction of the two-modality loss: CE of classifying each
    matched pair (x_i, y_i) against all in-batch candidates y_j."""
    identity = np.arange(rx.shape[0])
    loss, _, _, _ = _anchored_on_loss(rx, [ry], [identity], scale)
    return loss


def clip_pair_loss(rx: np.ndarray, ry: np.ndarray, scale: float) -> float:
    """Two-modality contrastive loss: mean of the two directional CE terms,
    each classifying the matched pair against full in-batch candidates."""
    loss, _, _, _ = clip_pair_loss_grads(rx, ry, scale)
    return loss


def clip_pair_loss_grads(
    rx: np.ndarray, ry: np.ndarray, scale: float
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """(loss, d_rx, d_ry, d_scale) for the two-modality loss.

    The two directional terms share one score matrix: the y-anchored
    logits are the transpose of the x-anchored ones.
    """
    if rx.shape != ry.shape or rx.ndim != 2 or rx.shape[0] < 1:
        raise ValueError(f"bad representation shapes {rx.shape}, {ry.shape}")
    n = rx.shape[0]
    raw = rx @ ry.T
    np.fill_diagonal(raw, (rx * ry).sum(axis=1))
    raw_t = np.ascontiguousarray(raw.T)
    raw *= scale
    raw_t *= scale
    targets = np.arange(n)
    losses_xy, g1 = row_softmax_cross_entropy(raw, targets, overwrite=True)
    losses_yx, g2 = row_softmax_cross_entropy(raw_t, targets, overwrite=True)
    loss = 0.5 * float(losses_xy.mean() + losses_yx.mean())

    g1 += g2.T
    g1 *= scale / (2.0 * n)
    d_rx = g1 @ ry
    d_ry = g1.T @ rx
    d_scale = float((d_rx * rx).sum()) / scale
    return loss, d_rx, d_ry, d_scale


def modality_pairs(names: Sequence[str]) -> list[tuple[str, str]]:
    """Unordered modality pairs, in a fixed canonical order."""
    return list(itertools.combinations(names, 2))


def pairwise_clip_loss(
    reps: Mapping[str, np.ndarray], scale: float | Sequence[float]
) -> float:
    """Sum of the two-modality loss over all unordered modality pairs."""
    loss, _, _ = pairwise_clip_loss_grads(reps, scale)
    return loss


def pairwise_clip_loss_grads(
    reps: Mapping[str, np.ndarray], scale: float | Sequence[float]
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """(loss, d_reps, d_scales) for the pairwise sum.

    ``scale`` is either one shared value or one value per pair (pairs in
    ``modality_pairs`` order); ``d_scales`` matches that shape.
    """
    names = list(reps)
    if len(names) < 2:
        raise ValueError("need at least two modalities")
    pairs = modality_pairs(names)
    scales = np.asarray(scale, dtype=np.float64).reshape(-1)
    if scales.size == 1:
        pair_scale = {p: (0, float(scales[0])) for p in pairs}
    elif scales.size == len(pairs):
        pair_scale = {p: (i, float(scales[i])) for i, p in enumerate(pairs)}
    else:
        raise ValueError(f"expected 1 or {len(pairs)} scales, got {scales.size}")

    total = 0.0
    d_reps = {m: np.zeros_like(reps[m]) for m in names}
    d_scales = np.zeros_like(scales)
    for pair in pairs:
        x, y = pair
        idx, s = pair_scale[pair]
        loss, dx, dy, ds = clip_pair_loss_grads(reps[x], reps[y], s)
        total += loss
        d_reps[x] += dx
        d_reps[y] += dy
        d_scales[idx] += ds
    return total, d_reps, d_scales


def draw_anchor_perms(
    seed: int, names: Sequence[str], anchor: str, n: int
) -> list[np.ndarray]:
    """One fresh permutation per non-anchor modality, keyed by the
    (anchor, other) name pair so relabeling modalities relabels draws."""
    return [
        substream(seed, "perm", anchor, other).permutation(n)
        for other in names
        if other != anchor
    ]


def symile_loss(
    reps: Mapping[str, np.ndarray],
    scale: float,
    strategy: str = "on",
    seed: int | None = None,
    perms: Mapping[str, Sequence[np.ndarray]] | None = None,
) -> tuple[float, dict[str, float]]:
    """Anchor-averaged contrastive loss over all modalities.

    Each modality anchors one CE term against its own candidate set; the
    loss is the mean over anchors, and the per-anchor breakdown is also
    returned.  With the "on" strategy, permutations are drawn fresh per
    anchor from name-keyed substreams of ``seed`` unless ``perms``
    supplies them explicitly ({anchor: [perm per non-anchor, in order]}).
    """
    loss, breakdown, _, _ = symile_loss_grads(
        reps, scale, strategy, seed=seed, perms=perms
    )
    return loss, breakdown


def symile_loss_grads(
    reps: Mapping[str, np.ndarray],
    scale: float,
    strategy: str = "on",
    seed: int | None = None,
    perms: Mapping[str, Sequence[np.ndarray]] | None = None,
) -> tuple[float, dict[str, float], dict[str, np.ndarray], float]:
    """(loss, per-anchor breakdown, d_reps, d_scale)."""
    names = list(reps)
    if len(names) < 2:
        raise ValueError("need at least two modalities")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "on2" and len(names) != 3:
        raise ValueError("strategy 'on2' is only defined for M = 3")
    n = next(iter(reps.values())).shape[0]
    shapes = {m: reps[m].shape for m in names}
    if len(set(shapes.values())) != 1:
        raise ValueError(f"representations disagree on shape: {shapes}")

    breakdown: dict[str, float] = {}
    d_reps = {m: np.zeros_like(reps[m]) for m in names}
    d_scale = 0.0
    for anchor in names:
        others = [m for m in names if m != anchor]
        if strategy == "on":
            if perms is not None:
                anchor_perms = [_validate_perm(p, n) for p in perms[anchor]]
            elif seed is not None:
                anchor_perms = draw_anchor_perms(seed, names, anchor, n)
            else:
                raise ValueError("strategy 'on' needs either a seed or perms")
            loss, d_anchor, d_others, ds = _anchored_on_loss(
                reps[anchor], [reps[m] for m in others], anchor_perms, scale
            )
        else:
            loss, d_anchor, d_first, d_second, ds = _anchored_on2_loss(
                reps[anchor], reps[others[0]], reps[others[1]], scale
            )
            d_others = [d_first, d_second]
        breakdown[anchor] = loss
        d_reps[anchor] += d_anchor
        for m, d_o in zip(others, d_others):
            d_reps[m] += d_o
        d_scale += ds

    m_count = len(names)
    loss = sum(breakdown.values()) / m_count
    for m in names:
        d_reps[m] /= m_count
    return loss, breakdown, d_reps, d_scale / m_count
