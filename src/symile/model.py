"""Full-model forward/backward: per-modality affine encoders feeding a
contrastive objective, with hand-derived gradients for every parameter.

The parameter layout is fixed so the optimizer and the finite-difference
checker can treat the model as a flat list of arrays:
``[W_m1, b_m1, W_m2, b_m2, ..., log_scale]`` in modality order, with the
one-entry log-scale (temperature) array last and exempt from weight decay.

The loss takes each modality's inputs as (distinct input rows, the state
of every row).  ``input_states`` finds them by sorting rows as bytes;
training runs it once per split, and ``batch_states`` then gives a batch
its states by lookup, bitwise equal to ``input_states`` of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .nn import AffineEncoder, encode, normalize_rows_backward
from .objectives import pairwise_clip_loss_grads, symile_loss_grads
from .rng import substream

OBJECTIVES = ("symile", "pairwise_clip")

# Per modality: (distinct input rows, the state of every row).
States = Mapping[str, tuple[np.ndarray, np.ndarray]]


@dataclass
class ModelParams:
    """One affine encoder per modality plus the trainable log-scale.

    The score multiplier is ``exp(log_scale)``, guaranteeing positivity;
    ``log_scale`` is a one-entry array, one temperature for every term.
    """

    encoders: dict[str, AffineEncoder]
    log_scale: np.ndarray

    def __post_init__(self) -> None:
        self.log_scale = np.atleast_1d(np.asarray(self.log_scale, dtype=np.float64))
        d_outs = {e.d_out for e in self.encoders.values()}
        if len(d_outs) != 1:
            raise ValueError(f"encoders disagree on output dim: {d_outs}")
        if self.log_scale.shape != (1,):
            raise ValueError(f"log_scale must have 1 entry, got shape {self.log_scale.shape}")

    @property
    def names(self) -> list[str]:
        return list(self.encoders)

    def scale(self) -> float:
        return float(np.exp(self.log_scale)[0])


def init_params(
    input_dims: Mapping[str, int],
    d_out: int,
    seed: int,
    normalize: bool = True,
    t_init: float = -0.3,
    dtype: np.dtype = np.float64,
) -> ModelParams:
    """Seeded initialization: W and b entries iid uniform on +-1/sqrt(d_in).

    The bias is drawn (not zeroed) so that the all-zeros input, a valid
    binary data point, never lands exactly on the origin where the
    unit-norm projection is undefined.
    """
    encoders: dict[str, AffineEncoder] = {}
    for name, d_in in input_dims.items():
        rng = substream(seed, "init", name)
        bound = 1.0 / np.sqrt(d_in)
        w = rng.uniform(-bound, bound, size=(d_out, d_in)).astype(dtype)
        b = rng.uniform(-bound, bound, size=d_out).astype(dtype)
        encoders[name] = AffineEncoder(w, b, normalize)
    return ModelParams(encoders, np.full(1, t_init, dtype=np.float64))


def flatten_params(params: ModelParams) -> tuple[list[np.ndarray], list[bool]]:
    """(arrays, weight-decay flags) in the fixed layout."""
    arrays: list[np.ndarray] = []
    decay: list[bool] = []
    for enc in params.encoders.values():
        arrays.extend([enc.W, enc.b])
        decay.extend([True, True])
    arrays.append(params.log_scale)
    decay.append(False)
    return arrays, decay


def unflatten_params(template: ModelParams, arrays: Sequence[np.ndarray]) -> ModelParams:
    encoders: dict[str, AffineEncoder] = {}
    it = iter(arrays)
    for name, enc in template.encoders.items():
        encoders[name] = AffineEncoder(next(it), next(it), enc.normalize)
    return ModelParams(encoders, next(it))


def input_states(inputs: Mapping[str, np.ndarray]) -> States:
    """Each modality's (distinct input rows, state of every row).

    Rows are compared as raw bytes, which can split rows that are equal in
    value (0.0 and -0.0) but never merges rows that differ.  The distinct
    rows come in the order of their bytes, as ``np.unique`` sorts them.
    """
    out = {}
    for name, x in inputs.items():
        x = np.ascontiguousarray(x)
        keys = x.view(np.dtype((np.void, x.dtype.itemsize * x.shape[1]))).ravel()
        _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
        out[name] = (x[first], rows)
    return out


def batch_states(split: States, idx: np.ndarray | slice) -> States:
    """``input_states`` of the rows ``idx`` of the inputs ``split`` was
    made from, bitwise, by a lookup in O(batch + split states).

    A batch's states are the split's states that it holds, in the split's
    order, which is the byte order ``input_states`` would give them.
    """
    out = {}
    for name, (distinct, rows) in split.items():
        r = rows[idx]
        present = np.zeros(distinct.shape[0], bool)
        present[r] = True
        out[name] = (distinct[present], (np.cumsum(present) - 1)[r])
    return out


def loss_and_grads(
    params: ModelParams,
    states: States,
    objective: str,
    strategy: str = "on",
    seed: int | None = None,
    perms: Mapping[str, Sequence[np.ndarray]] | None = None,
) -> tuple[float, dict[str, float], list[np.ndarray]]:
    """(loss, per-term breakdown, gradients in ``flatten_params`` order).

    ``states[m]`` holds modality m's distinct input rows and the state of
    every batch row, as ``input_states`` and ``batch_states`` give them.
    Each encoder runs once per distinct input row, and the loss scores the
    distinct states with their counts; the backward passes of the
    normalization and the encoder are linear in the representation
    gradient, so summing it over a state's rows first is exact.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    names = params.names
    if set(states) != set(names):
        raise ValueError(f"inputs {sorted(states)} do not match modalities {names}")

    rows = {name: states[name][1] for name in names}
    norms: dict[str, np.ndarray | None] = {}
    reps: dict[str, np.ndarray] = {}
    for name in names:
        reps[name], norms[name] = encode(params.encoders[name], states[name][0])

    scale = params.scale()
    if objective == "symile":
        loss, breakdown, d_reps, d_scale = symile_loss_grads(
            reps, scale, strategy, seed=seed, perms=perms, rows=rows
        )
    else:
        loss, d_reps, d_scale = pairwise_clip_loss_grads(reps, scale, rows=rows)
        breakdown = {"pairwise_clip": loss}

    grads: list[np.ndarray] = []
    for name in names:
        d_r = d_reps[name]
        d_z = d_r if norms[name] is None else normalize_rows_backward(reps[name], norms[name], d_r)
        grads.extend([d_z.T @ states[name][0], d_z.sum(axis=0)])
    grads.append(np.array([d_scale * scale]))  # d loss / d log_scale
    return loss, breakdown, grads
