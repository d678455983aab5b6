"""Contrastive objectives built on the multilinear inner product (MIP).

The MIP of M equal-length vectors is the coordinate-wise sum of their
element-wise product, sum_d prod_m v[m][d] -- the natural generalization
of the dot product used to score tuples of modality representations.

Two families of losses are provided, with analytic gradients: the
two-modality contrastive loss (and its sum over modality pairs), and the
any-M loss, where each modality in turn anchors one positive tuple and
in-batch negatives made by permuting the non-anchor modalities (K = N
candidates per row, "on") or, for M = 3, by taking all combinations of
the two non-anchor modalities (K = N^2 candidates per row, "on2").

The "on" construction follows the reference recipe exactly: negatives are
anchor @ (prod of permuted non-anchors).T with the diagonal overwritten by
the positive-tuple MIPs, and permutations are *not* fixed-point-excluded,
so a "negative" can collide with its positive.  The two-modality loss is
the mean of two anchored "on" terms with identity permutations, so the
M = 2 reduction of the any-M loss is bitwise exact.

One state-grouped kernel computes every loss.  A logit depends only on
the states of its row and its column, so rows are grouped into distinct
anchor states and columns into distinct candidate states with counts:
the N x K scores shrink to U x Q.  The optional ``rows`` index maps every
batch row to its state; ``None`` gives every row its own state (the
continuous case, same code).  The model groups rows whose raw encoder
inputs are equal byte for byte, which can split rows equal in value (0.0
and -0.0) but never merges rows that differ, so grouping is exact; it
finds a split's states once and each batch's by lookup.  The distinct
non-anchor state tuples are numbered by a lookup over the product of the
state counts when that range is small next to the batch, and sorted
otherwise, in the same order either way.  For "on", row i drops one copy
of its column's tuple and gains its positive.  The positive is a column
of the tuple table, of count 0 when no column holds its tuple, so its
score and gradient ride in the block's matmuls; a count-0 column never
sets a shift.  The dropped term is subtracted only where it is at most
half its state's sum; a row whose column holds more is computed alone
by ``nn.row_softmax_cross_entropy``, with its positive as a column of
one copy and its own shift, so nothing cancels.  Blocks of anchor
states of about 2^18 scores bound the working memory to a few blocks
plus O((N + Q) D), also when every state is distinct; "on2" forms no
(Q, D) grid of the non-anchor pairs.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NonFiniteError
from .nn import row_softmax_cross_entropy
from .rng import substream

STRATEGIES = ("on", "on2")

Rows = Mapping[str, np.ndarray]


def _validate_perm(perm: np.ndarray, n: int) -> np.ndarray:
    perm = np.asarray(perm)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm is not a permutation of 0..N-1")
    return perm


def _state_rows(reps: Mapping[str, np.ndarray], rows: Rows | None) -> dict[str, np.ndarray]:
    """Each modality's state index per batch row (identity when ``rows`` is None)."""
    shapes = {m: r.shape for m, r in reps.items()}
    if rows is None:
        if len(set(shapes.values())) != 1:
            raise ValueError(f"representations disagree on shape: {shapes}")
        rows = dict.fromkeys(reps, np.arange(next(iter(shapes.values()))[0]))
    out = {m: np.asarray(rows[m]) for m in reps}
    for m, idx in out.items():
        if idx.ndim != 1 or idx.dtype.kind not in "iu" or (
            idx.size and (idx.min() < 0 or idx.max() >= shapes[m][0])
        ):
            raise ValueError(f"rows[{m!r}] is not a vector of state indices")
    if len({i.size for i in out.values()}) != 1 or len({s[1:] for s in shapes.values()}) != 1:
        raise ValueError(f"batch sizes or representation shapes disagree: {shapes}")
    if next(iter(out.values())).size < 1:
        raise ValueError("the batch is empty")
    return out


# ---------------------------------------------------------------------------
# The state-grouped kernel
# ---------------------------------------------------------------------------

# Scores (anchor states x candidate states) per block; a block holds at
# least one anchor state, so it is larger only when one row of scores is.
_BLOCK_SCORES = 1 << 18


def _scatter_rows(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[s] = sum of values[t] over t with index[t] == s (float64)."""
    d = values.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, values.ravel(), size * d).reshape(size, d)


def _unique_inverse(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of integer keys in [0, size).

    A key range no larger than 8x the key count is numbered by a flag and
    a cumulative sum over its slots, in O(keys + size) and in the same
    sorted order; a wider range is sorted.
    """
    if size > 8 * keys.size:
        return np.unique(keys, return_inverse=True)
    present = np.zeros(size, bool)
    present[keys] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


def _shifted_logits(raw: np.ndarray, scale: float, unused: np.ndarray | None) -> tuple:
    """(scale * raw less each row's max over the used columns, that max),
    in place; unused columns read -inf."""
    raw *= scale
    if not (np.isfinite(raw.max()) and np.isfinite(raw.min())):  # NaN reaches both
        raise NonFiniteError("logits must be finite")
    if unused is not None:
        raw[:, unused] = -np.inf
    top = raw.max(axis=1)
    raw -= top[:, None]
    return raw, top


def _grouped_ce(
    anchor: np.ndarray, a_rows: np.ndarray, counts: np.ndarray, positive: np.ndarray,
    swap: np.ndarray | None, scale: float, scores: Callable, backward: Callable,
) -> tuple[float, np.ndarray, float]:
    """Mean-over-rows CE with rows grouped into anchor states and columns
    into candidate states, one block of anchor states at a time.

    Row i scores anchor state ``a_rows[i]`` against ``counts[q]`` copies of
    each candidate state q.  Without ``swap`` its positive is one of the
    copies of column ``positive[i]``.  With ``swap``, row i drops one copy
    of column ``swap[i]`` and gains a positive: column ``positive[i]``,
    whose count may be 0.  A positive's logit is read before count-0
    columns are masked, so it never sets its state's shift.
    ``scores(states)`` returns the raw scores of those anchor states (a
    slice or an index array); ``backward(states, g)`` receives d loss /
    d raw, positives included, accumulates the candidate gradients and
    returns the rows of d_anchor.  Returns (loss, d_anchor, d_scale).
    """
    n, u, q = a_rows.size, anchor.shape[0], counts.size
    step = max(1, _BLOCK_SCORES // q)
    unused = None if counts.all() else counts == 0
    weights = counts.astype(anchor.dtype)
    total, d_anchor = 0.0, np.empty_like(anchor)
    for start in range(0, u, step):
        states = slice(start, min(start + step, u))
        rows = slice(None)  # one block holds every state
        if step < u:
            rows = np.flatnonzero((a_rows >= start) & (a_rows < states.stop))
        lu, raw, p = a_rows[rows] - start, scores(states), positive[rows]
        pos_raw = raw[lu, p]  # read before count-0 columns are masked
        e, top = _shifted_logits(raw, scale, unused)
        pos_logit = scale * pos_raw - top[lu]
        np.exp(e, out=e)
        if swap is not None:
            w = swap[rows]
            e_w = e[lu, w]
        e *= weights
        s = e.sum(axis=1)[lu]  # >= 1: each state's max column has a copy
        if swap is None:
            losses, inv_z, g_pos = np.log(s) - pos_logit, 1.0 / s, e.dtype.type(-1.0)
        else:
            # Row i is shifted by the larger of its state's max and its
            # positive, which scales its columns by keep.  s - e_w keeps half
            # of s or more unless e_w holds the rest; such a row, at most one
            # per state (its column has one copy), is computed on its own.
            lift = np.maximum(pos_logit, 0.0)
            keep, e_pos = np.exp(-lift), np.exp(pos_logit - lift)
            exact = np.flatnonzero(e_w > 0.5 * s)
            z = (s - e_w) * keep + e_pos
            z[exact] = 1.0
            losses, inv_z, g_pos = np.log(z) + lift - pos_logit, keep / z, e_pos / z - 1.0
            inv_z[exact] = 0.0

        # d loss / d logit[s, c] = E[s, c] * sum over rows i of state s of
        # n_i(c) * keep_i / z_i, plus g_pos_i at each positive column; n_i(c),
        # the copies of c in row i, is counts[c], one fewer at swap[i].
        r = np.bincount(lu, inv_z, e.shape[0]).astype(e.dtype)  # float64 would slow e *= r
        e *= r[:, None]
        flat = e.ravel()  # a view: the block is C-contiguous
        if swap is not None:
            np.add.at(flat, lu * q + w, -e_w * inv_z)
            if exact.size:  # column 0 is the positive, with one copy
                k = exact.size
                copies = np.tile(np.insert(weights, 0, 1), (k, 1))
                copies[np.arange(k), 1 + w[exact]] -= 1
                logits = scale * np.hstack([pos_raw[exact, None], scores(lu[exact] + start)])
                losses[exact], g = row_softmax_cross_entropy(logits, np.zeros(k, np.intp), copies)
                g_pos[exact] = g[:, 0]
                np.add.at(e, lu[exact], g[:, 1:])
        np.add.at(flat, lu * q + p, g_pos)
        total += float(losses.sum())
        e *= scale / n
        d_anchor[states] = backward(states, e)
    # Every score is linear in its anchor state, so sum(dL/draw * raw)
    # equals sum(d_anchor * anchor) / scale.
    return total / n, d_anchor, float(np.vdot(d_anchor, anchor)) / scale


def _anchored_on_loss(
    anchor: np.ndarray, others: Sequence[np.ndarray], a_rows: np.ndarray,
    o_rows: Sequence[np.ndarray], perms: Sequence[np.ndarray], scale: float,
) -> tuple[float, np.ndarray, list[np.ndarray], float]:
    """Mean-over-rows CE of the O(N) logits, with gradients.

    The distinct non-anchor state tuples at the permuted rows (one per
    column) and at the matched rows form a table.  Each table tuple is a
    candidate with the count of columns that hold it, and each row's
    positive is its matched tuple's candidate, of count 0 when no column
    holds that tuple.
    Returns (loss, d_anchor, d_others, d_scale).
    """
    n = a_rows.size
    # tuples[k][t]: modality k's state in column t < n, or in row t - n's positive
    tuples = [np.concatenate([r[p], r]) for r, p in zip(o_rows, perms)]
    ids, table = tuples[0], others[0]
    if len(others) > 1:
        size = others[0].shape[0]
        for t, o in zip(tuples[1:], others[1:]):
            distinct, ids = _unique_inverse(ids * o.shape[0] + t, size * o.shape[0])
            size = distinct.size
        # a row of each tuple: any occurrence holds the same states
        first = np.zeros(size, np.intp)
        first[ids] = np.arange(ids.size)
        states = [t[first] for t in tuples]
        parts = [o[s] for o, s in zip(others, states)]
        table = functools.reduce(np.multiply, parts)
    cols, matched = ids[:n], ids[n:]
    counts = np.bincount(cols, minlength=table.shape[0])
    # Identity permutations put each row's positive in its own column.
    swap = None if (cols == matched).all() else cols
    d_table = np.zeros_like(table)

    def scores(blk: slice | np.ndarray) -> np.ndarray:
        return anchor[blk] @ table.T

    def backward(blk: slice, g: np.ndarray) -> np.ndarray:
        d_table[...] += g.T @ anchor[blk]
        return g @ table

    loss, d_anchor, d_scale = _grouped_ce(
        anchor, a_rows, counts, matched, swap, scale, scores, backward
    )
    if len(others) == 1:
        return loss, d_anchor, [d_table], d_scale
    d_others = []
    for k, (o, s) in enumerate(zip(others, states)):
        grad = functools.reduce(np.multiply, [p for j, p in enumerate(parts) if j != k], d_table)
        d_others.append(_scatter_rows(s, grad, o.shape[0]).astype(o.dtype))
    return loss, d_anchor, d_others, d_scale


def _anchored_on2_loss(
    anchor: np.ndarray, others: Sequence[np.ndarray], a_rows: np.ndarray,
    o_rows: Sequence[np.ndarray], scale: float,
) -> tuple[float, np.ndarray, list[np.ndarray], float]:
    """Mean-over-rows CE of the O(N^2) logits, with gradients.

    Candidate state (j, k) pairs first-state j with second-state k and
    has count cnt_first[j] * cnt_second[k]; each positive is among them.
    Each block's scores and its backward pass contract one non-anchor
    modality at a time.
    """
    (first, second), (f_rows, s_rows) = others, o_rows
    vf, vs = first.shape[0], second.shape[0]
    d_first, d_second = np.zeros_like(first), np.zeros_like(second)

    def scores(blk: slice) -> np.ndarray:
        return ((anchor[blk, None, :] * first) @ second.T).reshape(-1, vf * vs)

    def backward(blk: slice, g: np.ndarray) -> np.ndarray:
        a = anchor[blk]
        g = g.reshape(-1, vf, vs)  # [b, j, k]
        h = g @ second  # [b, j, d] = sum_k g[b, j, k] second[k, d]
        d_first[...] += np.einsum("bjd,bd->jd", h, a)
        d_second[...] += np.einsum("bkd,bd->kd", g.transpose(0, 2, 1) @ first, a)
        return np.einsum("bjd,jd->bd", h, first)

    counts = np.outer(np.bincount(f_rows, minlength=vf), np.bincount(s_rows, minlength=vs))
    loss, d_anchor, d_scale = _grouped_ce(
        anchor, a_rows, counts.ravel(), f_rows * vs + s_rows, None, scale, scores, backward
    )
    return loss, d_anchor, [d_first, d_second], d_scale


def clip_directional_loss(rx: np.ndarray, ry: np.ndarray, scale: float) -> float:
    """One direction of the two-modality loss: CE of classifying each
    matched pair (x_i, y_i) against all in-batch candidates y_j."""
    identity = np.arange(rx.shape[0])
    loss, _, _, _ = _anchored_on_loss(rx, [ry], identity, [identity], [identity], scale)
    return loss


def pairwise_clip_loss(reps: Mapping[str, np.ndarray], scale: float) -> float:
    """Sum of the two-modality loss over all unordered modality pairs."""
    loss, _, _ = pairwise_clip_loss_grads(reps, scale)
    return loss


def pairwise_clip_loss_grads(
    reps: Mapping[str, np.ndarray],
    scale: float,
    rows: Rows | None = None,
) -> tuple[float, dict[str, np.ndarray], float]:
    """(loss, d_reps, d_scale) for the pairwise sum, every pair at ``scale``."""
    names = list(reps)
    if len(names) < 2:
        raise ValueError("need at least two modalities")
    rows = _state_rows(reps, rows)
    identity = [np.arange(rows[names[0]].size)]

    total, d_scale = 0.0, 0.0
    d_reps = {m: np.zeros_like(reps[m]) for m in names}
    for x, y in itertools.combinations(names, 2):
        for a, b in ((x, y), (y, x)):  # the mean of the two anchored terms
            loss, d_a, (d_b,), ds = _anchored_on_loss(
                reps[a], [reps[b]], rows[a], [rows[b]], identity, scale
            )
            total += 0.5 * loss
            d_reps[a] += 0.5 * d_a
            d_reps[b] += 0.5 * d_b
            d_scale += 0.5 * ds
    return total, d_reps, d_scale


def draw_anchor_perms(seed: int, names: Sequence[str], anchor: str, n: int) -> list[np.ndarray]:
    """One fresh permutation per non-anchor modality, keyed by the
    (anchor, other) name pair so relabeling modalities relabels draws."""
    return [substream(seed, "perm", anchor, o).permutation(n) for o in names if o != anchor]


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
    loss, breakdown, _, _ = symile_loss_grads(reps, scale, strategy, seed=seed, perms=perms)
    return loss, breakdown


def symile_loss_grads(
    reps: Mapping[str, np.ndarray],
    scale: float,
    strategy: str = "on",
    seed: int | None = None,
    perms: Mapping[str, Sequence[np.ndarray]] | None = None,
    rows: Rows | None = None,
) -> tuple[float, dict[str, float], dict[str, np.ndarray], float]:
    """(loss, per-anchor breakdown, d_reps, d_scale).

    With ``rows``, ``reps[m]`` holds one row per state of modality m and
    ``rows[m]`` the state of every batch row; ``d_reps`` is then per state.
    """
    names = list(reps)
    if len(names) < 2:
        raise ValueError("need at least two modalities")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "on2" and len(names) != 3:
        raise ValueError("strategy 'on2' is only defined for M = 3")
    rows = _state_rows(reps, rows)
    n = rows[names[0]].size

    breakdown: dict[str, float] = {}
    d_reps = {m: np.zeros_like(reps[m]) for m in names}
    d_scale = 0.0
    for anchor in names:
        listed = [m for m in names if m != anchor]
        # a fixed order of the non-anchors keeps every term's rounding
        # independent of the order the modalities are listed in
        others = sorted(listed, key=str)
        states = (reps[anchor], [reps[m] for m in others], rows[anchor], [rows[m] for m in others])
        if strategy == "on":
            if perms is not None:
                anchor_perms = [_validate_perm(p, n) for p in perms[anchor]]
            elif seed is not None:
                anchor_perms = draw_anchor_perms(seed, names, anchor, n)
            else:
                raise ValueError("strategy 'on' needs either a seed or perms")
            by_name = dict(zip(listed, anchor_perms))
            loss, d_anchor, d_others, ds = _anchored_on_loss(
                *states, [by_name[m] for m in others], scale
            )
        else:
            loss, d_anchor, d_others, ds = _anchored_on2_loss(*states, scale)
        breakdown[anchor] = loss
        d_reps[anchor] += d_anchor
        for m, d_o in zip(others, d_others):
            d_reps[m] += d_o
        d_scale += ds

    m_count = len(names)
    loss = sum(breakdown[m] for m in sorted(names, key=str)) / m_count
    for m in names:
        d_reps[m] /= m_count
    return loss, breakdown, d_reps, d_scale / m_count
