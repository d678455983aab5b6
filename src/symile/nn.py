"""Minimal numeric core: affine encoders, stable softmax cross-entropy,
decoupled-weight-decay Adam, and a central-difference gradient checker.

Gradients elsewhere in the library are hand-derived for the fixed
architecture (affine -> optional row normalization -> multilinear scoring
-> softmax cross-entropy); this module supplies the reusable pieces and
the finite-difference oracle used to validate them.  Everything is pure:
update functions return fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, NonFiniteError


@dataclass
class AffineEncoder:
    """r = W x + b, optionally projected to the unit sphere."""

    W: np.ndarray  # (d_out, d_in)
    b: np.ndarray  # (d_out,)
    normalize: bool = True

    def __post_init__(self) -> None:
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError(f"inconsistent shapes W{self.W.shape}, b{self.b.shape}")
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise ValueError("encoder parameters must be finite")

    @property
    def d_in(self) -> int:
        return self.W.shape[1]

    @property
    def d_out(self) -> int:
        return self.W.shape[0]


def normalize_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project rows onto the unit sphere; returns (r, norms)."""
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateInputError("cannot normalize a zero vector")
    return z / norms, norms


def normalize_rows_backward(
    r: np.ndarray, norms: np.ndarray, grad_r: np.ndarray
) -> np.ndarray:
    """Exact Jacobian of z -> z/||z||: (I - r r^T)/||z|| applied row-wise."""
    inner = (r * grad_r).sum(axis=-1, keepdims=True)
    return (grad_r - r * inner) / norms


def encode(encoder: AffineEncoder, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(representations of the rows of ``x``, their norms before the
    projection, or None when the encoder does not normalize)."""
    if x.shape[-1] != encoder.d_in:
        raise ValueError(f"input dim {x.shape[-1]} != encoder d_in {encoder.d_in}")
    z = x @ encoder.W.T + encoder.b
    return normalize_rows(z) if encoder.normalize else (z, None)


# ---------------------------------------------------------------------------
# Softmax cross-entropy
# ---------------------------------------------------------------------------


def row_softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-row CE and gradient for a (N, K) logit matrix.

    Logits more than the float range below their row's max shift to -inf,
    whose exp is the exact 0, so such a target's loss is +inf.

    With ``counts``, non-negative integers of the logits' shape, entry
    (i, j) stands for ``counts[i, j]`` equal logits: its exponential is
    weighted by the count, and its gradient is the sum over those copies.
    An entry of count 0 takes no part, not even in the row max.  A row's
    loss is the cross-entropy of one copy of its target.
    """
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError("logits must be finite")
    rows = np.arange(logits.shape[0])
    live = logits if counts is None else np.where(counts > 0, logits, -np.inf)
    maxes = live.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        target_shifted = logits[rows, targets] - maxes[:, 0]
        p = live - maxes
    np.exp(p, out=p)
    if counts is not None:
        p *= counts
    sums = p.sum(axis=1, keepdims=True)
    losses = np.log(sums[:, 0]) - target_shifted
    p /= sums
    p[rows, targets] -= 1.0
    return losses, p


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


# Adam's moment decay rates and the denominator's additive guard.
_ADAM_B1, _ADAM_B2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """Adam moments plus hyperparameters, one slot per parameter array.

    ``decay`` flags which parameters receive the decoupled weight-decay
    term; the loss-scale (temperature) parameter is conventionally exempt.
    """

    lr: float
    weight_decay: float = 0.0
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    decay: list[bool] = field(default_factory=list)


def init_optimizer(
    params: Sequence[np.ndarray],
    lr: float,
    weight_decay: float = 0.0,
    decay: Sequence[bool] | None = None,
) -> OptimizerState:
    if not 0.0 < lr < math.inf:  # also refuses NaN
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if not math.isfinite(weight_decay):
        raise ValueError(f"weight_decay must be finite, got {weight_decay}")
    flags = list(decay) if decay is not None else [True] * len(params)
    if len(flags) != len(params):
        raise ValueError("decay flags must match parameter count")
    return OptimizerState(
        lr=lr,
        weight_decay=weight_decay,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        decay=flags,
    )


def adamw_step(
    state: OptimizerState,
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], OptimizerState]:
    """One bias-corrected Adam update with decoupled weight decay.

    Weight decay is applied as theta <- theta - lr * wd * theta,
    independent of the adaptive term, only where ``state.decay`` is set.
    An update that overflows or turns a value into NaN raises
    NonFiniteError naming the step size, instead of returning it.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter/gradient/state lengths disagree")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
    step = state.step + 1
    bias1 = 1.0 - _ADAM_B1**step
    bias2 = 1.0 - _ADAM_B2**step
    new_params: list[np.ndarray] = []
    new_m: list[np.ndarray] = []
    new_v: list[np.ndarray] = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for p, g, m, v, decayed in zip(params, grads, state.m, state.v, state.decay):
                m = _ADAM_B1 * m + (1.0 - _ADAM_B1) * g
                v = _ADAM_B2 * v + (1.0 - _ADAM_B2) * (g * g)
                update = (m / bias1) / (np.sqrt(v / bias2) + _ADAM_EPS)
                if decayed and state.weight_decay != 0.0:
                    update = update + state.weight_decay * p
                new_params.append(p - state.lr * update)
                new_m.append(m)
                new_v.append(v)
    except FloatingPointError as exc:
        raise NonFiniteError(
            f"AdamW step {step} with step size lr={state.lr!r} is not finite ({exc})"
        ) from None
    return new_params, replace(state, step=step, m=new_m, v=new_v)


# ---------------------------------------------------------------------------
# Finite differences and gradient checking
# ---------------------------------------------------------------------------


def finite_diff_grad(
    loss_fn: Callable[[Sequence[np.ndarray]], float],
    params: Sequence[np.ndarray],
    eps: float = 1e-5,
) -> list[np.ndarray]:
    """Central-difference gradient estimate, one coordinate at a time."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    grads = []
    work = [p.astype(np.float64).copy() for p in params]
    for k, p in enumerate(work):
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            hi = loss_fn(work)
            flat_p[i] = orig - eps
            lo = loss_fn(work)
            flat_p[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NonFiniteError("loss is not finite at a probe point")
            flat_g[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


# Absolute slack of the gradient comparison.  Central differences carry
# about 1e-11 of rounding noise, so an exactly-zero true gradient needs an
# allowance above that; 1e-9 is ~100x the noise.
_GRAD_ABS_FLOOR = 1e-9


@dataclass(frozen=True)
class GradCheckReport:
    """Max relative error per parameter; passes iff all are below tol."""

    labels: tuple[str, ...]
    max_rel_errors: tuple[float, ...]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max(self.max_rel_errors, default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def compare_gradients(
    analytic: Sequence[np.ndarray],
    numeric: Sequence[np.ndarray],
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Relative error |a - n| / (max(|a|, |n|) + _GRAD_ABS_FLOOR / tolerance).

    It stays below ``tolerance`` exactly when
    |a - n| < tolerance * max(|a|, |n|) + _GRAD_ABS_FLOOR, so large
    gradients are judged relatively and near-zero ones absolutely.
    """
    floor = _GRAD_ABS_FLOOR / tolerance
    errors = []
    for a, n in zip(analytic, numeric, strict=True):
        denom = np.maximum(np.abs(a), np.abs(n)) + floor
        errors.append(float(np.max(np.abs(a - n) / denom)) if a.size else 0.0)
    labels = tuple(f"param{i}" for i in range(len(errors)))
    return GradCheckReport(labels, tuple(errors), tolerance)
