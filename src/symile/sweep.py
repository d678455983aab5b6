"""The headline benchmark sweep: train both objectives across a grid of
mixture weights, evaluate zero-shot retrieval with bootstrapped accuracy,
and emit one CSV of accuracies plus one CSV of the oracle's exact
information quantities (the two panels of the synthetic benchmark figure).

Cells are independent and resumable: each (config, p_hat, objective,
seed) cell owns a directory keyed by the config hash, and cells with a
readable result file of the same spec are skipped; any other result file
is recomputed and replaced.  Failed cells are reported at the end,
in grid order, without discarding completed ones.

Cells run in up to ``jobs`` worker processes.  Each cell draws its
randomness from substreams of its own seed and writes only its own
directory, so every output is byte-identical across ``jobs``.  Workers
are forked, not spawned: they inherit the imported modules, so a sweep
pays no cold import per worker.  Where the platform cannot fork, and at
``jobs`` 1, the cells run one after another in the calling thread.  BLAS
calls keep the process's own thread settings, as in every other entry
point.

A worker that dies (killed, or out of memory) breaks the pool: its cell
and every cell still pending fail with ``BrokenProcessPool``, and the
sweep reports them and returns.  They left no result file, so a rerun
recomputes them.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field, replace
from typing import Any

from . import fileio
from .data import gen_synth, is_kind
from .errors import SchemaError
from .evaluation import bootstrap_accuracy, classify_target
from .model import OBJECTIVES
from .oracle import (
    build_synth_table,
    conditional_mi,
    mutual_information,
    synth_var_names,
    total_correlation,
)
from .rng import derive_seed
from .train import TrainConfig, save_checkpoint, split_for_training, train

ACCURACY_HEADER = (
    "p_hat",
    "objective",
    "strategy",
    "seed",
    "mean_acc",
    "se",
    "n_test",
    "checkpoint_path",
)
INFORMATION_HEADER = ("p_hat", "quantity", "group_spec", "value_nats")

DEFAULT_GRID = tuple(round(0.1 * k, 10) for k in range(11))


@dataclass
class SweepSpec:
    """The experiment matrix: mixture-weight grid x objectives x seeds."""

    p_hat_grid: tuple[float, ...] = DEFAULT_GRID
    objectives: tuple[str, ...] = ("symile", "pairwise_clip")
    seeds: tuple[int, ...] = (0,)
    base_config: TrainConfig = field(default_factory=TrainConfig)
    i_mode: str = "shared"
    dims: int = 5
    bootstrap_resamples: int = 10

    def __post_init__(self) -> None:
        if not self.p_hat_grid or not self.objectives or not self.seeds:
            raise ValueError("grid, objectives and seeds must be nonempty")
        unknown = [o for o in self.objectives if o not in OBJECTIVES]
        if unknown:
            raise SchemaError(f"unknown objectives {unknown}; choose from {list(OBJECTIVES)}")
        for seed in self.seeds:
            if not is_kind(seed, numbers.Integral) or seed < 0:
                raise SchemaError(f"seeds must be non-negative integers, got {seed!r}")
        for values in (self.p_hat_grid, self.objectives, self.seeds):
            if len(set(values)) != len(values):  # two workers would share one cell
                raise SchemaError(f"grid, objectives and seeds must not repeat: {values}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "p_hat_grid": list(self.p_hat_grid),
            "objectives": list(self.objectives),
            "seeds": list(self.seeds),
            "base_config": self.base_config.to_dict(),
            "i_mode": self.i_mode,
            "dims": self.dims,
            "bootstrap_resamples": self.bootstrap_resamples,
        }

    def hash(self) -> str:
        return fileio.config_hash(self.to_dict())


def _cell_dir(root: str, spec: SweepSpec, p_hat: float, objective: str, seed: int) -> str:
    return os.path.join(root, "cells", f"{spec.hash()}_p{p_hat!r}_{objective}_s{seed}")


def run_cell(
    spec: SweepSpec, p_hat: float, objective: str, seed: int, out_dir: str
) -> dict[str, Any]:
    """Train, evaluate and persist one sweep cell; returns its result row."""
    cell = _cell_dir(out_dir, spec, p_hat, objective, seed)
    result_path = os.path.join(cell, "result.json")
    stored = _stored_result(result_path, spec.hash())
    if stored is not None:
        return stored

    cfg = replace(spec.base_config, objective=objective, seed=seed)
    data_seed = derive_seed(seed, "sweep-data")
    dataset = gen_synth(cfg.split.total, p_hat, data_seed, spec.i_mode, spec.dims)
    train_ds, val_ds, test_ds = split_for_training(dataset, cfg)

    result = train(cfg, train_ds, val_ds)
    scorer = "symile" if objective == "symile" else "clip"
    retrieval = classify_target(result.checkpoint.params, scorer, test_ds, target="b")
    report = bootstrap_accuracy(
        retrieval, spec.bootstrap_resamples, derive_seed(seed, "sweep-boot")
    )

    os.makedirs(cell, exist_ok=True)
    ckpt_path = os.path.join(cell, "checkpoint.json")
    save_checkpoint(ckpt_path, result.checkpoint)
    row = {
        "p_hat": p_hat,
        "objective": objective,
        "strategy": cfg.strategy,
        "seed": seed,
        "mean_acc": report.mean_accuracy,
        "se": report.std_error,
        "n_test": test_ds.n,
        # relative to out_dir so aggregate CSVs are byte-stable across runs
        "checkpoint_path": os.path.relpath(ckpt_path, out_dir),
    }
    # Write a temporary file and rename it over the result in one step, so
    # an interrupted write never leaves a partial result behind.
    tmp_path = result_path + ".tmp"
    try:
        with open(tmp_path, "w", newline="\n") as f:
            f.write(fileio.provenance_line(seed, spec.hash()) + "\n")
            f.write(fileio.canonical_json(row) + "\n")
        os.replace(tmp_path, result_path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    return row


def _stored_result(path: str, spec_hash: str) -> dict[str, Any] | None:
    """The result row a finished cell left, or None when there is none or
    it cannot be trusted: unreadable, from another spec, or incomplete."""
    try:
        with open(path) as f:
            header, row = json.loads(f.readline()), json.loads(f.readline())
    except (OSError, ValueError):
        return None
    ok = (
        isinstance(header, dict)
        and header.get("config_hash") == spec_hash
        and isinstance(row, dict)
        and set(ACCURACY_HEADER) <= set(row)
    )
    return row if ok else None


def information_rows(
    p_hat_grid: tuple[float, ...], i_mode: str, dims_list: tuple[int, ...] = (1, 5)
) -> list[tuple]:
    """Exact oracle quantities per grid point, labeled by dimensionality.

    Emits the two always-zero pairwise terms, the nonzero pairwise term,
    all three conditional terms, and the total correlation, for each of
    the requested dimensionalities (whole-vector groups).
    """
    rows: list[tuple] = []
    for p_hat in p_hat_grid:
        for dims in dims_list:
            table = build_synth_table(p_hat, dims, i_mode)
            a, b, c = synth_var_names(dims)
            label = f"dims={dims}"
            for kind, group_spec, value in (
                ("mi", "a;b", mutual_information(table, a, b)),
                ("mi", "b;c", mutual_information(table, b, c)),
                ("mi", "a;c", mutual_information(table, a, c)),
                ("cmi", "a;b|c", conditional_mi(table, a, b, c)),
                ("cmi", "b;c|a", conditional_mi(table, b, c, a)),
                ("cmi", "a;c|b", conditional_mi(table, a, c, b)),
                ("tc", "a;b;c", total_correlation(table, (a, b, c))),
            ):
                rows.append((p_hat, kind, f"{group_spec}@{label}", value))
    return rows


@dataclass
class SweepOutcome:
    accuracy_csv: str
    information_csv: str
    rows: list[dict[str, Any]]
    failures: list[tuple[float, str, int, str]]


def _run_one(
    spec: SweepSpec, out_dir: str, cell: tuple[float, str, int]
) -> tuple[dict[str, Any] | None, str | None]:
    """(result row, None) for a finished cell, or (None, "Type: message")
    for a failed one.  ``run_cell`` is looked up when called, so a
    replacement installed on this module reaches forked workers too."""
    p, obj, seed = cell
    try:
        return run_cell(spec, p, obj, seed, out_dir), None
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return None, f"{type(exc).__name__}: {exc}"


def _run_forked(
    spec: SweepSpec, out_dir: str, cells: list[tuple[float, str, int]], workers: int
) -> list[tuple[dict[str, Any] | None, str | None]] | None:
    """``_run_one``'s outcome for every cell, in grid order, from a pool of
    ``workers`` forked processes; None where the platform cannot fork.

    The pool's modules are imported here: at module level they would add
    about 20 ms and 1 MB to every command that never starts a pool.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    # A forked worker needs no import, and with this context the executor
    # forks every worker before it starts its own thread.
    outcomes = []
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        futures = [pool.submit(_run_one, spec, out_dir, c) for c in cells]
        for future in futures:
            try:
                outcomes.append(future.result())
            except Exception as exc:  # noqa: BLE001 - e.g. a worker died: the pool is broken
                outcomes.append((None, f"{type(exc).__name__}: {exc}"))
    return outcomes


def run_sweep(spec: SweepSpec, out_dir: str, jobs: int = 1) -> SweepOutcome:
    """Run (or resume) every cell in up to ``jobs`` forked worker
    processes (at least 1), then write the two aggregate CSVs."""
    if jobs < 1:
        raise SchemaError(f"jobs must be at least 1, got {jobs}")
    os.makedirs(out_dir, exist_ok=True)
    cells = [
        (p, obj, seed)
        for p in spec.p_hat_grid
        for obj in spec.objectives
        for seed in spec.seeds
    ]
    workers = min(jobs, len(cells))
    outcomes = _run_forked(spec, out_dir, cells, workers) if workers > 1 else None
    if outcomes is None:  # one worker, or no fork on this platform
        outcomes = [_run_one(spec, out_dir, c) for c in cells]

    sweep_hash = spec.hash()
    seed0 = spec.seeds[0]
    accuracy_csv = os.path.join(out_dir, "accuracy.csv")
    rows = [row for row, _ in outcomes if row is not None]
    failures = [(*c, error) for c, (_, error) in zip(cells, outcomes) if error is not None]
    fileio.write_csv(
        accuracy_csv,
        ACCURACY_HEADER,
        [[r[k] for k in ACCURACY_HEADER] for r in rows],
        seed0,
        sweep_hash,
    )
    information_csv = os.path.join(out_dir, "information.csv")
    dims_list = (1,) if spec.dims == 1 else (1, spec.dims)
    fileio.write_csv(
        information_csv,
        INFORMATION_HEADER,
        information_rows(spec.p_hat_grid, spec.i_mode, dims_list=dims_list),
        seed0,
        sweep_hash,
    )
    return SweepOutcome(accuracy_csv, information_csv, rows, failures)
