"""Exact information quantities on enumerable discrete joint distributions.

This module is the ground-truth side of the library: joint distributions
over a handful of named finite variables are stored as explicit
probability tables, so entropies, mutual information, conditional mutual
information and total correlation are computed by exact summation rather
than estimation.  It also provides the optimal scoring function for a
table (the log density ratio of the joint to the product of group
marginals) and a Monte-Carlo evaluator of the multi-sample contrastive
lower bound on total correlation that the training objective optimizes.

The bound's batches come from ``contrastive_sampler``.  A batch's softmax
denominator depends only on how many of its n - 1 negatives land on each
non-anchor state, so when the product of the non-anchor group marginals
has Q < n - 1 states the sampler draws one multinomial count vector over
those Q states per batch instead of n - 1 separate negatives: the same
distribution at O(Q) cost and memory.  Otherwise it draws the negatives
one by one.  The choice depends only on the table and on n.

Conventions
-----------
* All information quantities are in nats.
* States are flat indices in mixed-radix *little-endian* order: the first
  variable varies fastest.  This fixes the layout of every dump.
* ``0 * log 0 == 0``; states with zero joint mass get a ``-inf`` score
  from the optimal scorer and contribute nothing to bound estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapacityError
from .rng import substream

MAX_TABLE_VARS = 15  # 2**15 states; enough for three 5-dim binary blocks

_PROB_SUM_TOL = 1e-12


def _as_tuple(names: Iterable[str]) -> tuple[str, ...]:
    out = tuple(names)
    if len(out) != len(set(out)):
        raise ValueError(f"duplicate variable names: {out}")
    return out


@dataclass(frozen=True)
class JointTable:
    """Exact finite-support joint distribution over named variables.

    ``probs[s]`` is the probability of the state with flat index
    ``s = sum_v value_v * stride_v`` where ``stride_0 = 1`` and
    ``stride_v = stride_{v-1} * arity_{v-1}`` (first variable fastest).
    Equivalently, ``probs.reshape(arities[::-1])`` has one axis per
    variable, variable ``i`` on axis ``V - 1 - i``, in the same flat order.
    """

    var_names: tuple[str, ...]
    arities: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        names = _as_tuple(self.var_names)
        object.__setattr__(self, "var_names", names)
        arities = tuple(int(a) for a in self.arities)
        if len(arities) != len(names) or any(a < 1 for a in arities):
            raise ValueError("arities must be positive and match var_names")
        object.__setattr__(self, "arities", arities)
        probs = np.asarray(self.probs, dtype=np.float64).reshape(-1).copy()
        if probs.size != math.prod(arities):
            raise ValueError(
                f"expected {math.prod(arities)} probabilities, got {probs.size}"
            )
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and non-negative")
        if abs(probs.sum() - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_entropy_cache", {})

    @property
    def n_states(self) -> int:
        return self.probs.size

    def _index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def state_index(self, assignment: dict[str, int]) -> int:
        """Flat index of a full assignment ``{name: value}``."""
        if set(assignment) != set(self.var_names):
            raise ValueError("assignment must cover every variable exactly once")
        values = [assignment[n] for n in reversed(self.var_names)]
        return int(np.ravel_multi_index(values, self.arities[::-1]))


def _check_subset(table: JointTable, names: Sequence[str], label: str) -> tuple[str, ...]:
    names = _as_tuple(names)
    if not names:
        raise ValueError(f"{label} must be a nonempty variable subset")
    for n in names:
        table._index(n)
    return names


def _axes(table: JointTable, names: Sequence[str]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Grid axes of ``names`` (in the order given) and of the other variables."""
    axes = tuple(len(table.var_names) - 1 - table._index(n) for n in names)
    return axes, tuple(a for a in range(len(table.var_names)) if a not in axes)


def _flat_over(table: JointTable, kept: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Flatten ``kept``, a grid whose axes outside ``names`` have length 1,
    into sub-states over ``names`` in the order given (first name fastest)."""
    axes, other = _axes(table, names)
    return kept.transpose(other + axes[::-1]).ravel()


def _group_sum(table: JointTable, names: Sequence[str]) -> np.ndarray:
    """Marginal mass over ``names`` on the grid, other axes kept at length 1."""
    joint = table.probs.reshape(table.arities[::-1])
    return joint.sum(axis=_axes(table, names)[1], keepdims=True)


def marginal(table: JointTable, names: Sequence[str]) -> JointTable:
    """Marginal distribution over ``names``, encoded in the order given."""
    names = _check_subset(table, names, "names")
    arities = tuple(table.arities[table._index(n)] for n in names)
    return JointTable(names, arities, _flat_over(table, _group_sum(table, names), names))


# ---------------------------------------------------------------------------
# Information quantities (exact, in nats)
# ---------------------------------------------------------------------------


def _entropy_of_probs(probs: np.ndarray) -> float:
    p = probs[probs > 0.0]
    return float(-(p * np.log(p)).sum())


def entropy(table: JointTable, names: Sequence[str]) -> float:
    """Shannon entropy of the marginal over ``names``, in nats."""
    names = _check_subset(table, names, "names")
    key = frozenset(names)  # order-independent; tables are immutable
    cache = table._entropy_cache
    if key not in cache:
        cache[key] = _entropy_of_probs(marginal(table, names).probs)
    return cache[key]


def _check_disjoint(groups: Sequence[Sequence[str]]) -> None:
    seen: set[str] = set()
    for g in groups:
        overlap = seen.intersection(g)
        if overlap:
            raise ValueError(f"variable groups overlap on {sorted(overlap)}")
        seen.update(g)


def mutual_information(table: JointTable, x: Sequence[str], y: Sequence[str]) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y), exact."""
    x = _check_subset(table, x, "x")
    y = _check_subset(table, y, "y")
    _check_disjoint([x, y])
    return entropy(table, x) + entropy(table, y) - entropy(table, tuple(x) + tuple(y))


def conditional_mi(
    table: JointTable,
    x: Sequence[str],
    y: Sequence[str],
    z: Sequence[str] = (),
) -> float:
    """I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z); empty Z gives I(X;Y)."""
    x = _check_subset(table, x, "x")
    y = _check_subset(table, y, "y")
    z = _as_tuple(z)
    _check_disjoint([x, y, z])
    if not z:
        return mutual_information(table, x, y)
    hz = entropy(table, z)
    return (
        entropy(table, tuple(x) + z)
        + entropy(table, tuple(y) + z)
        - entropy(table, tuple(x) + tuple(y) + z)
        - hz
    )


def total_correlation(table: JointTable, groups: Sequence[Sequence[str]]) -> float:
    """TC(G_1,...,G_M) = sum_m H(G_m) - H(G_1,...,G_M), exact.

    Equals the KL divergence from the joint over all listed variables to
    the product of the group marginals.
    """
    groups = [_check_subset(table, g, "group") for g in groups]
    if len(groups) < 2:
        raise ValueError("total correlation needs at least two groups")
    _check_disjoint(groups)
    union: tuple[str, ...] = ()
    for g in groups:
        union += tuple(g)
    return sum(entropy(table, g) for g in groups) - entropy(table, union)


# ---------------------------------------------------------------------------
# Table constructors
# ---------------------------------------------------------------------------


def build_xor1d_table() -> JointTable:
    """Joint over (a, b, c): a, b fair bits, c = a XOR b.

    Mass 1/4 on each of the four states with c == a ^ b, zero elsewhere.
    """
    states = np.arange(8)
    a, b, c = states & 1, (states >> 1) & 1, (states >> 2) & 1
    probs = np.where(c == (a ^ b), 0.25, 0.0)
    return JointTable(("a", "b", "c"), (2, 2, 2), probs)


def synth_var_names(dims: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Variable names of the mixture table's three blocks, per dimension."""
    if dims == 1:
        return ("a",), ("b",), ("c",)
    return (
        tuple(f"a{j + 1}" for j in range(dims)),
        tuple(f"b{j + 1}" for j in range(dims)),
        tuple(f"c{j + 1}" for j in range(dims)),
    )


def build_synth_table(p_hat: float, dims: int = 1, i_mode: str = "shared") -> JointTable:
    """Exact joint of the XOR/copy mixture over three d-dim binary blocks.

    Per coordinate j: a_j, b_j are fair bits and c_j = a_j XOR b_j when the
    hidden switch i is 1, else c_j = a_j, with i ~ Bernoulli(p_hat).  In
    ``shared`` mode a single switch covers all coordinates of a sample; in
    ``per_coordinate`` mode each coordinate draws its own.
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"p_hat must lie in [0, 1], got {p_hat}")
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    if 3 * dims > MAX_TABLE_VARS:
        raise CapacityError(
            f"{3 * dims} variables exceed the {MAX_TABLE_VARS}-variable table limit"
        )
    if i_mode not in ("shared", "per_coordinate"):
        raise ValueError(f"unknown i_mode {i_mode!r}")

    a_names, b_names, c_names = synth_var_names(dims)
    names = a_names + b_names + c_names
    states = np.arange(2 ** (3 * dims))
    # Little-endian blocks: a occupies bits [0, d), b bits [d, 2d), c bits [2d, 3d).
    a = (states[:, None] >> np.arange(dims)) & 1
    b = (states[:, None] >> (dims + np.arange(dims))) & 1
    c = (states[:, None] >> (2 * dims + np.arange(dims))) & 1

    xor_match = c == (a ^ b)
    copy_match = c == a
    base = 0.25**dims
    if i_mode == "shared":
        probs = base * (
            p_hat * xor_match.all(axis=1) + (1.0 - p_hat) * copy_match.all(axis=1)
        )
    else:
        probs = base * np.prod(
            p_hat * xor_match + (1.0 - p_hat) * copy_match, axis=1
        )
    return JointTable(names, (2,) * (3 * dims), probs)


# ---------------------------------------------------------------------------
# Scoring functions and the contrastive lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TabularScorer:
    """A score g(state) per joint state, aligned with a table's indexing.

    ``-inf`` marks states with zero joint mass; such states are never drawn
    as positives and contribute zero weight to softmax denominators.
    """

    scores: np.ndarray
    groups: tuple[tuple[str, ...], ...]  # the variable groups bound_value draws over

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1).copy()
        if np.any(np.isnan(scores)) or np.any(scores == np.inf):
            raise ValueError("scores must be finite or -inf")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))


def _check_groups(table: JointTable, groups: Sequence[Sequence[str]]) -> list[tuple[str, ...]]:
    """The groups as name tuples; ValueError unless they are disjoint
    nonempty variable subsets that cover every variable of the table."""
    groups = [_check_subset(table, g, "group") for g in groups]
    _check_disjoint(groups)
    if {n for g in groups for n in g} != set(table.var_names):
        raise ValueError("groups must cover every variable of the table")
    return groups


def optimal_scorer(table: JointTable, groups: Sequence[Sequence[str]]) -> TabularScorer:
    """The bound-maximizing scorer: log p(state) / prod_m p_m(group state).

    The additive constant is fixed to zero; downstream checks compare
    scorers only up to an additive constant.
    """
    groups = _check_groups(table, groups)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.log(table.probs.reshape(table.arities[::-1]))
        for g in groups:
            scores = scores - np.log(_group_sum(table, g))
    scores = scores.ravel()
    scores[table.probs == 0.0] = -np.inf
    return TabularScorer(scores, tuple(groups))


def _zeroed_index(table: JointTable, names: Sequence[str]) -> np.ndarray:
    """Flat index of each state with the variables outside ``names`` set
    to 0, on the grid with their axes kept at length 1."""
    other = _axes(table, names)[1]
    index = np.arange(table.n_states).reshape(table.arities[::-1])
    return index[tuple(slice(1) if a in other else slice(None) for a in range(index.ndim))]


def _sample_from(cumulative: np.ndarray, rng: np.random.Generator, size) -> np.ndarray:
    idx = np.searchsorted(cumulative, rng.random(size), side="right")
    return np.minimum(idx, len(cumulative) - 1, out=idx)


def contrastive_sampler(
    table: JointTable, groups: Sequence[Sequence[str]], anchor: int
) -> Callable[
    [np.random.Generator, int, int], tuple[np.ndarray, np.ndarray, np.ndarray | None]
]:
    """The batch sampler of the contrastive bound, as ``draw(rng, k, n)``.

    ``draw`` returns ``(pos, neg, counts)`` for ``k`` batches of ``n``
    tuples.  ``pos``, shape (k,), holds the positives' flat states, drawn
    from the joint.  Every negative reuses its positive's anchor group and
    draws every other group independently from its marginal; column j of
    ``neg`` stands for ``counts[:, j]`` such negatives.

    * When the product of the non-anchor marginals has Q < n - 1 states,
      ``neg`` has shape (k, Q): each row lists all Q product states next
      to its positive's anchor part, and ``counts``, shape (k, Q), is one
      multinomial draw of n - 1 over the product's probabilities per row.
      The uniforms for the positives come first, then the counts.
    * Otherwise ``neg`` has shape (k, n - 1), one drawn negative per
      column, and ``counts`` is None (every count is 1).  The uniforms
      come from ``rng`` in this order: the positives, then one
      (k, n - 1) block per non-anchor group.

    ValueError unless the groups are disjoint and cover every variable.
    """
    groups = _check_groups(table, groups)
    joint_cum = np.cumsum(table.probs)
    anchor_grid = _zeroed_index(table, groups[anchor])
    anchor_part = np.broadcast_to(anchor_grid, table.arities[::-1]).ravel()
    others = [
        (marginal(table, g).probs, _flat_over(table, _zeroed_index(table, g), g))
        for i, g in enumerate(groups)
        if i != anchor
    ]
    others_cum = [(np.cumsum(probs), contribution) for probs, contribution in others]
    # The non-anchor product: its probabilities and each state's part of
    # the flat index.  It has at most as many states as the table.
    product_q = np.ones(1)
    product_part = np.zeros(1, dtype=np.int64)
    for probs, contribution in others:
        product_q = np.multiply.outer(product_q, probs).ravel()
        product_part = np.add.outer(product_part, contribution).ravel()
    product_q /= product_q.sum()  # multinomial rejects a sum over 1 + 1e-12

    def draw(
        rng: np.random.Generator, k: int, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        pos = _sample_from(joint_cum, rng, k)
        pos_anchor = anchor_part[pos][:, None]
        if product_q.size < n - 1:
            counts = rng.multinomial(n - 1, product_q, size=k)
            return pos, pos_anchor + product_part, counts
        neg = np.repeat(pos_anchor, n - 1, axis=1)
        for cumulative, contribution in others_cum:
            neg += contribution[_sample_from(cumulative, rng, (k, n - 1))]
        return pos, neg, None

    return draw


def bound_value(
    table: JointTable,
    scorer: TabularScorer,
    n: int,
    mc_samples: int,
    seed: int,
    anchor: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the multi-sample contrastive lower bound
    over the scorer's groups.

    Each sample is one batch of ``contrastive_sampler``: a positive tuple
    from the joint and ``n - 1`` negatives, as drawn tuples or as counts
    over the non-anchor product's states.  The estimate is ``log n`` plus
    the mean log-probability that the scorer's softmax assigns to the
    positive; the second return value is the standard error of the mean.
    Memory per chunk of samples is bounded by about 2**20 scores, so a
    huge ``n`` costs O(Q) per sample when the product has Q < n - 1
    states; ``CapacityError`` refuses a sample of more than 2**20
    negative columns, min(n - 1, Q), before anything is drawn.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    if n - 1 > np.iinfo(np.int64).max:  # the negatives' count is an int64
        raise ValueError(f"batch size must be <= 2**63, got {n}")
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
    groups = _check_groups(table, scorer.groups)
    if not 0 <= anchor < len(groups):
        raise ValueError(f"anchor index {anchor} out of range")

    # The sampler's negative columns per sample: n - 1 draws, or the Q
    # non-anchor product states when it draws counts.
    product_states = math.prod(
        table.arities[table._index(name)]
        for i, g in enumerate(groups)
        if i != anchor
        for name in g
    )
    width = min(n - 1, product_states)
    if width > 1 << 20:
        raise CapacityError(f"{width} negative columns per sample exceed the 2**20 budget")
    rng = substream(seed, "bound", anchor, n)
    draw = contrastive_sampler(table, groups, anchor)
    chunk = max(1, (1 << 20) // (1 + width))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < mc_samples:
        k = min(chunk, mc_samples - done)
        pos, neg, counts = draw(rng, k, n)
        pos_scores = scorer.scores[pos]
        neg_scores = scorer.scores[neg]
        if counts is not None:  # a column no negative landed on takes no part
            neg_scores = np.where(counts > 0, neg_scores, -np.inf)

        # log softmax of the positive among the n tuples, each negative
        # column's exponential weighted by its count; the positive's score
        # is finite, so the row max is finite even when negatives land on
        # zero-mass states.
        row_max = np.maximum(pos_scores, neg_scores.max(axis=1, initial=-np.inf))
        neg_scores -= row_max[:, None]
        np.exp(neg_scores, out=neg_scores)
        if counts is not None:
            neg_scores *= counts
        denom = np.exp(pos_scores - row_max) + neg_scores.sum(axis=1)
        vals = pos_scores - (row_max + np.log(denom))
        total += vals.sum()
        total_sq += (vals * vals).sum()
        done += k

    mean = total / mc_samples
    if mc_samples > 1:
        var = max(0.0, (total_sq - mc_samples * mean * mean) / (mc_samples - 1))
        std_err = math.sqrt(var / mc_samples)
    else:
        std_err = 0.0
    return math.log(n) + mean, std_err
