"""File formats, canonical hashing, and bit-stable CSV output.

Every output file begins with a one-line JSON provenance header (tool
version, config hash, seed) followed by the data section.  Nothing in a
file depends on wall-clock time or platform, so identical configs produce
byte-identical files.  CSV uses '.' decimals, ',' separators, LF line
endings and 17-significant-digit floats.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset

TOOL_NAME = "symile"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def canonical_json(obj: Any) -> str:
    """Sorted-key, minimal-whitespace serialization used for hashing; a
    non-finite float raises ValueError, as JSON has no literal for it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(config: Mapping[str, Any]) -> str:
    return f"{fnv1a64(canonical_json(config).encode('utf-8')):016x}"


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def provenance_line(seed: int, cfg_hash: str) -> str:
    return canonical_json(
        {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "schema_version": SCHEMA_VERSION,
            "config_hash": cfg_hash,
            "seed": int(seed),
        }
    )


def write_csv(
    path: str,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    seed: int,
    cfg_hash: str,
) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(provenance_line(seed, cfg_hash) + "\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


# ---------------------------------------------------------------------------
# Dataset files: provenance line, dataset header line, then row-major CSV
# blocks per modality (shapes come from the header), then masks as 0/1 CSV
# and latents, when present.
# ---------------------------------------------------------------------------


def write_dataset(path: str, dataset: Dataset, seed: int, meta: Mapping[str, Any]) -> None:
    header = {
        "kind": "dataset",
        "schema_version": SCHEMA_VERSION,
        "n": dataset.n,
        "modalities": dataset.names,
        "dims": dataset.dims(),
        "has_masks": dataset.masks is not None,
        "latent_dims": 0
        if dataset.latents is None
        else (1 if dataset.latents.ndim == 1 else dataset.latents.shape[1]),
        **dict(meta),
    }
    cfg_hash = config_hash(header)
    with open(path, "w", newline="\n") as f:
        f.write(provenance_line(int(meta.get("seed", 0)), cfg_hash) + "\n")
        f.write(canonical_json(header) + "\n")
        for name in dataset.names:
            _write_block(f, dataset.modalities[name])
        if dataset.masks is not None:
            mask_matrix = np.stack(
                [dataset.masks[m].astype(np.int64) for m in dataset.names], axis=1
            )
            for row in mask_matrix:
                f.write(",".join(str(v) for v in row) + "\n")
        if dataset.latents is not None:
            _write_block(f, np.atleast_2d(dataset.latents.T).T)


def _write_block(f, values: np.ndarray) -> None:
    for row in values:
        f.write(",".join(format_float(v) for v in row) + "\n")


def array_to_json(a: np.ndarray) -> dict[str, Any]:
    return {"shape": list(a.shape), "dtype": str(a.dtype), "data": a.reshape(-1).tolist()}


def array_from_json(obj: Mapping[str, Any]) -> np.ndarray:
    """The array of ``array_to_json``.  A value past the dtype's range reads
    as inf, without numpy's cast warning, for the caller's check to refuse."""
    with np.errstate(over="ignore"):
        return np.array(obj["data"], dtype=obj["dtype"]).reshape(obj["shape"])
