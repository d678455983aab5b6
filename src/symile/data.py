"""Seeded generation of the synthetic multimodal datasets.

Bits are stored as float {0.0, 1.0} so they can be fed to affine encoders
directly.  Generation is deterministic given the seed, with per-purpose
substreams so e.g. adding missingness never changes the data draw.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError
from .rng import substream


def is_kind(value: object, kind: type) -> bool:
    """Whether ``value`` is an instance of ``kind``, where a bool is never
    taken for a number: the type rule of every config value."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


@dataclass
class SplitSpec:
    """Sample counts of the train/val/test partition."""

    train: int = 10_000
    val: int = 1_000
    test: int = 5_000

    def __post_init__(self) -> None:
        for name in ("train", "val", "test"):
            value = getattr(self, name)
            if not is_kind(value, numbers.Integral) or value < 1:
                raise SchemaError(f"split {name} count must be a positive integer, got {value!r}")

    @property
    def total(self) -> int:
        return self.train + self.val + self.test


@dataclass
class Dataset:
    """N matched samples of named modality vectors.

    ``masks[name][i]`` is True when modality ``name`` is observed for
    sample ``i``; masked positions in ``modalities`` are zero-filled.
    ``latents`` records the hidden mixture switch draws when applicable.
    """

    modalities: dict[str, np.ndarray]
    latents: np.ndarray | None = None
    masks: dict[str, np.ndarray] | None = field(default=None)

    def __post_init__(self) -> None:
        sizes = {v.shape[0] for v in self.modalities.values()}
        if len(sizes) != 1:
            raise ValueError(f"modalities disagree on sample count: {sizes}")
        if self.masks is not None:
            if set(self.masks) != set(self.modalities):
                raise ValueError("masks must cover exactly the modalities")
            for name, m in self.masks.items():
                if m.shape != (self.n,):
                    raise ValueError(f"mask for {name!r} has shape {m.shape}")

    @property
    def n(self) -> int:
        return next(iter(self.modalities.values())).shape[0]

    @property
    def names(self) -> list[str]:
        return list(self.modalities)

    def dims(self) -> dict[str, int]:
        return {k: v.shape[1] for k, v in self.modalities.items()}


def gen_xor1d(n: int, seed: int) -> Dataset:
    """a, b iid fair bits as 1-dim vectors; c = a XOR b."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = substream(seed, "data", "xor1d")
    a = rng.integers(0, 2, size=(n, 1)).astype(np.float64)
    b = rng.integers(0, 2, size=(n, 1)).astype(np.float64)
    c = np.logical_xor(a, b).astype(np.float64)
    return Dataset({"a": a, "b": b, "c": c})


def gen_synth(n: int, p_hat: float, seed: int, i_mode: str = "shared", dims: int = 5) -> Dataset:
    """XOR/copy mixture samples over three d-dim binary modalities.

    a, b in {0,1}^d iid fair bits; the switch i ~ Bernoulli(p_hat) (one per
    sample in ``shared`` mode, one per coordinate in ``per_coordinate``);
    c_j = a_j XOR b_j where the switch is on, else a_j.  The switch draws
    are recorded as latents.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"p_hat must lie in [0, 1], got {p_hat}")
    if i_mode not in ("shared", "per_coordinate"):
        raise ValueError(f"unknown i_mode {i_mode!r}")
    rng = substream(seed, "data", "synth", dims)
    a = rng.integers(0, 2, size=(n, dims)).astype(np.float64)
    b = rng.integers(0, 2, size=(n, dims)).astype(np.float64)
    shape = (n, 1) if i_mode == "shared" else (n, dims)
    i = (rng.random(shape) < p_hat).astype(np.float64)
    c = i * np.logical_xor(a, b) + (1.0 - i) * a
    return Dataset({"a": a, "b": b, "c": c}, latents=i[:, 0] if i_mode == "shared" else i)


def apply_missingness(dataset: Dataset, p_missing: float, seed: int) -> Dataset:
    """Mask each (sample, modality) cell independently with prob ``p_missing``.

    Masked modality vectors are zero-filled; masks record observedness.
    """
    if not 0.0 <= p_missing < 1.0:
        raise ValueError(f"p_missing must lie in [0, 1), got {p_missing}")
    if dataset.masks is not None:
        raise ValueError("dataset already carries missingness masks")
    rng = substream(seed, "masks")
    modalities: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}
    for name, values in dataset.modalities.items():
        observed = rng.random(dataset.n) >= p_missing
        modalities[name] = np.where(observed[:, None], values, 0.0)
        masks[name] = observed
    return Dataset(modalities, latents=dataset.latents, masks=masks)


def _take(dataset: Dataset, sl: slice) -> Dataset:
    return Dataset(
        {k: v[sl] for k, v in dataset.modalities.items()},
        latents=None if dataset.latents is None else dataset.latents[sl],
        masks=None
        if dataset.masks is None
        else {k: v[sl] for k, v in dataset.masks.items()},
    )


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Contiguous disjoint train/val/test slices in generation order."""
    if spec.total != dataset.n:
        raise ValueError(
            f"split sizes sum to {spec.total} but dataset has {dataset.n} samples"
        )
    i, j = spec.train, spec.train + spec.val
    return _take(dataset, slice(0, i)), _take(dataset, slice(i, j)), _take(dataset, slice(j, None))


def encoder_inputs(dataset: Dataset) -> dict[str, np.ndarray]:
    """Per-modality encoder inputs.

    Complete datasets pass raw values through.  Datasets with masks get one
    extra trailing dimension per modality: 1.0 when the modality is missing
    (its value block zero-filled), 0.0 when observed, so that missing
    samples are out of the support of observed ones.
    """
    if dataset.masks is None:
        return dict(dataset.modalities)
    out: dict[str, np.ndarray] = {}
    for name, values in dataset.modalities.items():
        missing = (~dataset.masks[name]).astype(values.dtype)[:, None]
        out[name] = np.hstack([values, missing])
    return out
