"""Numerical diagnostics tying the trained objects back to the oracle.

* ``recover_optimal_scorer`` trains a free score per joint state on
  exactly the batch distribution the bound assumes (one positive from the
  joint, N-1 negatives from the product of marginals) and checks that the
  learned scores match the log density ratio up to an additive constant.
* ``bound_tightness_report`` evaluates the Monte-Carlo bound with the
  optimal scorer across batch sizes against the exact total correlation.
* ``run_gradient_check`` compares every objective's analytic gradients
  with central finite differences on random small configurations.
* ``calibration_example`` reproduces the two-disease/temperature worked
  example where prior-aware ranking flips the raw-score ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import calibrated_conditional, rank_with_prior
from .model import init_params, flatten_params, input_states, loss_and_grads, unflatten_params
from .nn import (
    GradCheckReport,
    adamw_step,
    compare_gradients,
    finite_diff_grad,
    init_optimizer,
    row_softmax_cross_entropy,
)
from .objectives import draw_anchor_perms
from .oracle import (
    JointTable,
    TabularScorer,
    bound_value,
    contrastive_sampler,
    marginal,
    optimal_scorer,
    total_correlation,
)
from .rng import derive_seed, substream


# ---------------------------------------------------------------------------
# Tabular scorer recovery
# ---------------------------------------------------------------------------

# Contrastive batches drawn per optimizer step of scorer recovery.
_BATCHES_PER_STEP = 512


@dataclass
class ScorerRecoveryReport:
    """Deviation of the learned scores from the log density ratio.

    ``offsets`` holds g(state) - log-ratio(state) over positive-mass
    states; at the optimum these are constant, so ``offset_std`` should be
    near zero.  ``converged`` flags whether the loss actually decreased.
    """

    offsets: np.ndarray
    offset_std: float
    initial_loss: float
    final_loss: float

    @property
    def converged(self) -> bool:
        return self.final_loss < self.initial_loss


def recover_optimal_scorer(
    table: JointTable,
    n: int,
    steps: int,
    lr: float,
    seed: int,
    warm_start: bool = False,
) -> tuple[TabularScorer, ScorerRecoveryReport]:
    """Fit a free score per joint state by stochastic gradient on the
    multi-sample contrastive objective, on ``_BATCHES_PER_STEP`` batches
    per step of the bound's own sampler (``oracle.contrastive_sampler``),
    with one group per variable and the first anchoring.  Where the
    sampler returns counts (the non-anchor product has fewer than n - 1
    states), the softmax weights each negative column's exponential by
    its count, and so does the gradient scattered onto the states.

    The learned scores on the final 25% of steps are tail-averaged to
    damp optimizer jitter before comparison with the exact log ratio.
    With ``warm_start`` the scores start at the exact log ratio (zero on
    the off-support states), which should already be optimal up to jitter.
    """
    if min(n, steps) < 1:
        raise ValueError(f"n and steps must be >= 1, got {n}, {steps}")
    groups = tuple((name,) for name in table.var_names)
    reference = optimal_scorer(table, groups)
    rng = substream(seed, "scorer-recovery")
    draw = contrastive_sampler(table, groups, 0)

    g_scores = np.zeros(table.n_states)
    if warm_start:
        support = table.probs > 0.0
        g_scores[support] = reference.scores[support]
    opt = init_optimizer([g_scores], lr=lr, weight_decay=0.0)
    initial_loss = None
    final_loss = None
    tail_start = steps - max(1, steps // 4)
    tail_sum = np.zeros_like(g_scores)
    tail_count = 0
    targets = np.zeros(_BATCHES_PER_STEP, dtype=np.int64)
    for step in range(steps):
        pos, neg, counts = draw(rng, _BATCHES_PER_STEP, n)
        tuple_idx = np.column_stack([pos, neg])
        logits = g_scores[tuple_idx]
        if counts is not None:
            counts = np.column_stack([np.ones_like(pos), counts])
        losses, grad_logits = row_softmax_cross_entropy(logits, targets, counts)
        loss = float(losses.mean())
        if initial_loss is None:
            initial_loss = loss
        final_loss = loss
        weights = grad_logits.reshape(-1) / _BATCHES_PER_STEP
        grad = np.bincount(tuple_idx.reshape(-1), weights, minlength=table.n_states)
        (g_scores,), opt = adamw_step(opt, [g_scores], [grad])
        if step >= tail_start:
            tail_sum += g_scores
            tail_count += 1

    averaged = tail_sum / tail_count
    support = table.probs > 0.0
    offsets = averaged[support] - reference.scores[support]
    report = ScorerRecoveryReport(
        offsets=offsets,
        offset_std=float(offsets.std()),
        initial_loss=float(initial_loss),
        final_loss=float(final_loss),
    )
    scores = averaged.copy()
    scores[~support] = -np.inf
    return TabularScorer(scores, groups), report


# ---------------------------------------------------------------------------
# Bound tightness across batch sizes
# ---------------------------------------------------------------------------


@dataclass
class BoundRow:
    n: int
    bound: float
    std_error: float
    total_correlation: float


def bound_tightness_report(
    table: JointTable,
    n_list: list[int],
    mc_samples: int,
    seed: int,
) -> list[BoundRow]:
    """Bound estimates with the optimal scorer at each batch size, one
    group per variable."""
    if not n_list:
        raise ValueError("n_list must be nonempty")
    bad = [n for n in n_list if n < 1]
    if bad:
        raise ValueError(f"batch size must be >= 1, got {bad[0]}")
    groups = tuple((name,) for name in table.var_names)
    scorer = optimal_scorer(table, groups)
    tc = total_correlation(table, groups)
    rows = []
    for n in n_list:
        est, se = bound_value(table, scorer, n, mc_samples, derive_seed(seed, "tight", n))
        rows.append(BoundRow(n, est, se, tc))
    return rows


# ---------------------------------------------------------------------------
# Gradient check over random configurations
# ---------------------------------------------------------------------------


# (objective, strategy, M, normalize): every loss variant crossed with both
# normalization settings; the M=2 pairwise case is the plain pair loss.
_GRADCHECK_GRID = [
    ("pairwise_clip", "on", 2, False),
    ("pairwise_clip", "on", 2, True),
    ("pairwise_clip", "on", 3, False),
    ("pairwise_clip", "on", 3, True),
    ("symile", "on", 2, False),
    ("symile", "on", 2, True),
    ("symile", "on", 3, False),
    ("symile", "on", 3, True),
    ("symile", "on2", 3, False),
    ("symile", "on2", 3, True),
]


def _random_case(rng: np.random.Generator, case: int) -> dict:
    objective, strategy, m, normalize = _GRADCHECK_GRID[case % len(_GRADCHECK_GRID)]
    return {
        "m": m,
        "n": int(rng.integers(2, 9)),
        "d_in": int(rng.integers(1, 5)),
        "d_out": int(rng.integers(2, 7)),
        "normalize": normalize,
        "objective": objective,
        "strategy": strategy,
    }


def run_gradient_check(
    n_configs: int = 24,
    seed: int = 1234,
    eps: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Analytic vs central-difference gradients on random small models.

    Covers both objectives, both negative-sampling strategies, two and
    three modalities, and both normalization settings.
    """
    labels: list[str] = []
    errors: list[float] = []
    rng = substream(seed, "gradcheck")
    for case in range(n_configs):
        spec = _random_case(rng, case)
        names = [f"m{i}" for i in range(spec["m"])]
        inputs = input_states({
            name: rng.standard_normal((spec["n"], spec["d_in"])) for name in names
        })
        params = init_params(
            {name: spec["d_in"] for name in names},
            spec["d_out"],
            seed=int(rng.integers(1 << 31)),
            normalize=spec["normalize"],
            t_init=float(rng.uniform(-0.5, 0.5)),
        )
        perms = None
        if spec["objective"] == "symile" and spec["strategy"] == "on":
            perm_seed = int(rng.integers(1 << 31))
            perms = {
                a: draw_anchor_perms(perm_seed, names, a, spec["n"]) for a in names
            }

        _, _, analytic = loss_and_grads(
            params, inputs, spec["objective"], spec["strategy"], perms=perms
        )
        arrays, _ = flatten_params(params)

        def loss_fn(arrs, _params=params, _inputs=inputs, _spec=spec, _perms=perms):
            p = unflatten_params(_params, arrs)
            loss, _, _ = loss_and_grads(
                p, _inputs, _spec["objective"], _spec["strategy"], perms=_perms
            )
            return loss

        numeric = finite_diff_grad(loss_fn, arrays, eps=eps)
        report = compare_gradients(analytic, numeric, tolerance=tolerance)
        labels.append(
            "case{}[{},{},M={},norm={}]".format(
                case, spec["objective"], spec["strategy"], spec["m"], spec["normalize"]
            )
        )
        errors.append(report.max_rel_error)
    return GradCheckReport(tuple(labels), tuple(errors), tolerance)


# ---------------------------------------------------------------------------
# Calibration worked example
# ---------------------------------------------------------------------------


def build_disease_temp_table() -> JointTable:
    """Two diseases (a, b) against four temperature readings (99..102).

    Disease a has prior 0.8 and b has prior 0.2; at temperature 101 the
    true conditional is (0.75, 0.25) while the likelihood ratios are
    (0.9375, 1.25), so raw-score ranking prefers b and prior-aware
    ranking prefers a.
    """
    probs = np.array(
        [
            0.1, 0.0,  # t=99
            0.1, 0.0,  # t=100
            0.3, 0.1,  # t=101
            0.3, 0.1,  # t=102
        ]
    )
    return JointTable(("disease", "temp"), (2, 4), probs)


@dataclass
class CalibrationExample:
    scores: np.ndarray  # g*(disease, t=101) per disease
    prior: np.ndarray
    posterior: np.ndarray
    raw_ranking: np.ndarray
    prior_aware_ranking: np.ndarray


def calibration_example() -> CalibrationExample:
    """Posterior and rankings for the temperature-101 patient."""
    table = build_disease_temp_table()
    scorer = optimal_scorer(table, (("disease",), ("temp",)))
    t_value = 2  # temperature 101
    states = [table.state_index({"disease": d, "temp": t_value}) for d in (0, 1)]
    scores = scorer.scores[states]
    prior = marginal(table, ("disease",)).probs
    posterior = calibrated_conditional(scores, prior)
    raw_ranking = np.argsort(-scores, kind="stable")
    prior_aware = rank_with_prior(scores, prior)
    return CalibrationExample(scores, prior, posterior, raw_ranking, prior_aware)
