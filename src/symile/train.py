"""Training loop with per-epoch validation-loss checkpointing.

A run is fully determined by its config: data order, parameter init,
in-batch permutations and the optimizer trajectory all come from named
substreams of ``config.seed``.  Checkpoints are taken at the end of every
epoch and the one with the lowest validation loss is returned.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Any

import numpy as np

from . import fileio
from .data import Dataset, SplitSpec, apply_missingness, encoder_inputs, is_kind, split
from .errors import DivergenceError, NonFiniteError, SchemaError
from .model import (
    ModelParams,
    OBJECTIVES,
    States,
    batch_states,
    flatten_params,
    init_params,
    input_states,
    loss_and_grads,
    unflatten_params,
)
from .nn import AffineEncoder, adamw_step, init_optimizer
from .objectives import STRATEGIES
from .rng import derive_seed, substream


# Field annotations that are checked by type (see ``is_kind``).
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def _check_kinds(obj: Any) -> None:
    """SchemaError unless each field of dataclass ``obj`` annotated with a
    key of _FIELD_KINDS holds a value of that kind."""
    for f in fields(obj):
        kind, value = _FIELD_KINDS.get(f.type), getattr(obj, f.name)
        if kind is not None and not is_kind(value, kind):
            raise SchemaError(f"{f.name} must be of type {f.type}, got {value!r}")


@dataclass
class TrainConfig:
    """Hyperparameters of one training run (defaults: the 5-dim benchmark)."""

    objective: str = "symile"
    strategy: str = "on"
    epochs: int = 100
    batch_size: int = 1000
    lr: float = 0.1
    weight_decay: float = 0.01
    t_init: float = -0.3
    d_out: int = 16
    normalize: bool = True
    seed: int = 0
    split: SplitSpec = field(default_factory=SplitSpec)
    p_missing: float = 0.0
    dtype: str = "float32"

    def __post_init__(self) -> None:
        _check_kinds(self)
        if isinstance(self.split, dict):
            unknown = set(self.split) - {f.name for f in fields(SplitSpec)}
            if unknown:
                raise SchemaError(f"unknown split keys: {sorted(unknown)}")
            self.split = SplitSpec(**self.split)
        if not isinstance(self.split, SplitSpec):
            raise SchemaError(f"split must be an object of train/val/test counts, got {self.split!r}")
        if min(self.split.train, self.split.val) < 2:
            raise SchemaError("the train and val splits need at least 2 samples each")
        if self.objective not in OBJECTIVES:
            raise SchemaError(f"unknown objective {self.objective!r}")
        if self.strategy not in STRATEGIES:
            raise SchemaError(f"unknown strategy {self.strategy!r}")
        if self.epochs < 1:
            raise SchemaError("epochs must be >= 1")
        if self.batch_size < 2:
            raise SchemaError("batch_size must be >= 2 for contrastive losses")
        if self.d_out < 1:
            raise SchemaError("d_out must be >= 1")
        for name in ("lr", "weight_decay", "t_init"):
            if not math.isfinite(getattr(self, name)):
                raise SchemaError(f"{name} must be finite")
        if self.lr <= 0.0:
            raise SchemaError("lr must be positive")
        with np.errstate(over="ignore", under="ignore"):
            scale = np.exp(self.t_init)  # the score scale, as the model computes it
        if not 0.0 < scale < np.inf:
            raise SchemaError(f"exp(t_init) must be positive and finite, got {scale}")
        if not 0.0 <= self.p_missing < 1.0:
            raise SchemaError("p_missing must lie in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise SchemaError(f"unsupported dtype {self.dtype!r}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def hash(self) -> str:
        return fileio.config_hash(self.to_dict())


@dataclass
class Checkpoint:
    """Parameters of the epoch with the lowest validation loss.  It holds
    no Adam moments, so a run cannot be resumed from it."""

    params: ModelParams
    epoch: int
    val_loss: float
    config_hash: str
    seed: int


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[dict[str, float]]  # per-epoch train/val losses


def split_for_training(
    dataset: Dataset, cfg: TrainConfig
) -> tuple[Dataset, Dataset, Dataset]:
    """(train, val, test) slices of ``dataset`` per ``cfg.split``; with
    ``cfg.p_missing`` the train and val slices are masked, the test slice
    stays complete."""
    train_ds, val_ds, test_ds = split(dataset, cfg.split)
    if cfg.p_missing > 0.0:
        train_ds = apply_missingness(train_ds, cfg.p_missing, derive_seed(cfg.seed, "mask-train"))
        val_ds = apply_missingness(val_ds, cfg.p_missing, derive_seed(cfg.seed, "mask-val"))
    return train_ds, val_ds, test_ds


def _batched_loss(
    params: ModelParams,
    states: States,
    cfg: TrainConfig,
    seed: int,
) -> float:
    """Mean loss over consecutive full batches (trailing batch < 2 dropped)
    of a split whose ``input_states`` are ``states``."""
    n = next(iter(states.values()))[1].size
    losses = []
    for bi, start in enumerate(range(0, n, cfg.batch_size)):
        stop = min(start + cfg.batch_size, n)
        if stop - start < 2:
            break
        loss, _, _ = loss_and_grads(
            params,
            batch_states(states, slice(start, stop)),
            cfg.objective,
            cfg.strategy,
            seed=derive_seed(seed, "batch", bi),
        )
        losses.append(loss)
    if not losses:
        raise ValueError("no evaluable batch of size >= 2")
    return float(np.mean(losses))


def train(cfg: TrainConfig, train_ds: Dataset, val_ds: Dataset) -> TrainResult:
    """Run the epoch loop and return the lowest-validation-loss checkpoint.

    Each epoch visits seeded-shuffled minibatches in order (a trailing
    batch smaller than 2 is dropped), applies decoupled-weight-decay Adam
    updates, then scores the validation split.  Each split's input states
    are found once; a batch takes its own from them by lookup.
    """
    dtype = np.dtype(cfg.dtype)
    train_states, val_states = (
        input_states({m: x.astype(dtype) for m, x in encoder_inputs(ds).items()})
        for ds in (train_ds, val_ds)
    )
    dims = {m: distinct.shape[1] for m, (distinct, _) in train_states.items()}

    params = init_params(
        dims,
        cfg.d_out,
        cfg.seed,
        normalize=cfg.normalize,
        t_init=cfg.t_init,
        dtype=dtype,
    )
    arrays, decay = flatten_params(params)
    opt = init_optimizer(arrays, cfg.lr, cfg.weight_decay, decay)

    cfg_hash = cfg.hash()
    n = train_ds.n
    if n < 2:
        raise ValueError("training requires at least 2 samples per batch")
    best: Checkpoint | None = None
    history: list[dict[str, float]] = []
    for epoch in range(cfg.epochs):
        order = substream(cfg.seed, "shuffle", epoch).permutation(n)
        epoch_losses = []
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2:
                break
            try:
                loss, _, grads = loss_and_grads(
                    params,
                    batch_states(train_states, idx),
                    cfg.objective,
                    cfg.strategy,
                    seed=derive_seed(cfg.seed, "negatives", epoch, bi),
                )
            except NonFiniteError as exc:
                raise DivergenceError(
                    f"diverged at epoch {epoch}, batch {bi}: {exc}"
                ) from exc
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch {bi}"
                )
            arrays, opt = adamw_step(opt, arrays, grads)
            params = unflatten_params(params, arrays)
            epoch_losses.append(loss)

        try:
            val_loss = _batched_loss(
                params, val_states, cfg, derive_seed(cfg.seed, "val", epoch)
            )
        except NonFiniteError as exc:
            raise DivergenceError(f"diverged at epoch {epoch} validation: {exc}") from exc
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        history.append(
            {
                "epoch": float(epoch),
                "train_loss": float(np.mean(epoch_losses)),
                "val_loss": val_loss,
            }
        )
        # Each step builds fresh arrays and a fresh ModelParams, so later
        # epochs never write into the parameters a checkpoint holds.
        if best is None or val_loss < best.val_loss:
            best = Checkpoint(
                params=params,
                epoch=epoch,
                val_loss=val_loss,
                config_hash=cfg_hash,
                seed=cfg.seed,
            )
    assert best is not None
    return TrainResult(checkpoint=best, history=history)


# ---------------------------------------------------------------------------
# Checkpoint files (JSON; arrays as decimal lists, exact round-trip)
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    doc: dict[str, Any] = {
        "kind": "checkpoint",
        "schema_version": fileio.SCHEMA_VERSION,
        "config_hash": ckpt.config_hash,
        "seed": ckpt.seed,
        "epoch": ckpt.epoch,
        "val_loss": ckpt.val_loss,
        "log_scale": fileio.array_to_json(ckpt.params.log_scale),
        "encoders": {
            name: {
                "W": fileio.array_to_json(enc.W),
                "b": fileio.array_to_json(enc.b),
                "normalize": enc.normalize,
            }
            for name, enc in ckpt.params.encoders.items()
        },
    }
    with open(path, "w", newline="\n") as f:
        f.write(fileio.provenance_line(ckpt.seed, ckpt.config_hash) + "\n")
        f.write(fileio.canonical_json(doc) + "\n")


def _float_array(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict) or obj.get("dtype") not in ("float32", "float64"):
        raise SchemaError("arrays must be float32 or float64")
    return fileio.array_from_json(obj)


def load_checkpoint(path: str) -> Checkpoint:
    """The checkpoint in ``path``; SchemaError for any second line that is
    not a checkpoint object with the expected keys, types and shapes."""
    with open(path) as f:
        f.readline()  # provenance
        line = f.readline()
    try:
        doc = json.loads(line)
        if not isinstance(doc, dict) or doc.get("kind") != "checkpoint":
            raise SchemaError("the second line is not a checkpoint object")
        encoders = {
            name: AffineEncoder(_float_array(spec["W"]), _float_array(spec["b"]), spec["normalize"])
            for name, spec in doc["encoders"].items()
        }
        params = ModelParams(encoders, _float_array(doc["log_scale"]))
        ckpt = Checkpoint(params, doc["epoch"], doc["val_loss"], doc["config_hash"], doc["seed"])
        for obj in (ckpt, *encoders.values()):
            _check_kinds(obj)
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise SchemaError(f"{path} is not a checkpoint: {type(exc).__name__}: {exc}") from None
    return ckpt
