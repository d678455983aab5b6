"""The four closed-loop workloads.

Each workload is one client that waits for every job before it sends
the next, driven through the library's public functions.  A workload
makes its inputs from the benchmark seed only: the train workloads pass
it to ``gen_synth`` and hand the program the generated splits, the sweep
puts it in ``SweepSpec.seeds``, and the oracle workload derives the
bound, scorer and gradient-check seeds from it.

A workload has three parts, each called by ``run.py``:

* ``setup(tracer)`` generates the inputs and runs an untimed warm-up of
  the pass at a small size;
* ``run_pass(tracer, jobs)`` runs one pass and returns the wall time of
  its headline operation, the gated ``pass_s``: the train -> checkpoint
  cell, the fresh ``run_sweep``, or ``bound_value`` over its five N;
* ``final_checks()`` compares the passes with each other.

Correctness checks are appended to ``self.checks`` as
``(name, passed, detail)``; ``self.ops`` and ``self.failed_ops`` count
library operations attempted and failed.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import replace

import numpy as np

import symile.diagnostics
from symile.data import Dataset, SplitSpec, gen_synth, split
from symile.diagnostics import recover_optimal_scorer, run_gradient_check
from symile.evaluation import bootstrap_accuracy, classify_target
from symile.oracle import bound_value, build_xor1d_table, optimal_scorer, total_correlation
from symile.rng import derive_seed
from symile.sweep import DEFAULT_GRID, SweepSpec, information_rows, run_sweep
from symile.train import TrainConfig, load_checkpoint, save_checkpoint, train

from spans import Tracer

CHANCE_32 = 1.0 / 32.0
# Gradient agreement the oracle workload asks for: |analytic - numeric|
# <= GRAD_RTOL * max(|analytic|, |numeric|) + GRAD_ATOL.  GRAD_RTOL is
# run_gradient_check's own tolerance; GRAD_ATOL sits about 100x above the
# rounding noise of its central differences (eps 1e-5 on an O(1) loss
# gives 1e-11), so an exactly-zero gradient does not fail on that noise.
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-9


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class Workload:
    name = ""
    jobs = 1  # sweep workers in an untraced pass

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.checks: list[tuple[str, bool, str]] = []
        self.ops = 0
        self.failed_ops = 0
        self.samples: dict[str, list[float]] = {}

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def sample(self, **values: float) -> None:
        for k, v in values.items():
            self.samples.setdefault(k, []).append(float(v))

    def setup(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer, jobs: int) -> float:
        """Run one pass; return the wall time of its headline operation."""
        raise NotImplementedError

    def final_checks(self) -> None:
        pass

    def expected_counts(self) -> dict[str, int]:
        """Exact per-pass counts known from the workload's shapes alone."""
        return {}

    def report(self) -> dict[str, list[float]]:
        """Samples of the workload's own reported metrics, by name."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# train-symile-on / train-symile-on2
# ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    """train -> classify_target -> bootstrap_accuracy -> save_checkpoint on
    a synth5d dataset at p_hat=1.0 (shared switch, float32, D=16, M=3)."""

    strategy = "on"
    batch_size = 1000
    splits = SplitSpec(10_000, 1_000, 5_000)
    epochs = 10
    min_accuracy = 0.99
    bootstrap_resamples = 10

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        # The training seed is fixed; the workload seed only changes the data.
        self.cfg = TrainConfig(
            objective="symile",
            strategy=self.strategy,
            epochs=self.epochs,
            batch_size=self.batch_size,
            d_out=16,
            dtype="float32",
            seed=0,
            split=self.splits,
        )
        self.ckpt_path = os.path.join(out_dir, "checkpoint.json")
        self.ckpt_digests: list[str] = []
        self.accuracies: list[float] = []

    def setup(self, tracer: Tracer) -> None:
        with tracer.span("data.gen"):
            dataset = gen_synth(self.splits.total, 1.0, self.seed, "shared", 5)
            self.data = split(dataset, self.splits)
        train_ds, val_ds, test_ds = self.data
        # Warm-up: one epoch of one full batch, then the evaluation chain.
        first = Dataset({m: x[: self.batch_size] for m, x in train_ds.modalities.items()})
        warm = train(replace(self.cfg, epochs=1), first, val_ds)
        retrieval = classify_target(warm.checkpoint.params, "symile", test_ds, target="b")
        bootstrap_accuracy(retrieval, self.bootstrap_resamples, 0)
        save_checkpoint(os.path.join(self.out_dir, "warmup.json"), warm.checkpoint)

    def run_pass(self, tracer: Tracer, jobs: int) -> float:
        train_ds, val_ds, test_ds = self.data
        self.ops += 4
        t0 = time.perf_counter()
        with tracer.span("train.run") as info:
            result = train(self.cfg, train_ds, val_ds)
            info.update(epochs=self.cfg.epochs, best_epoch=result.checkpoint.epoch)
        t1 = time.perf_counter()
        with tracer.span("evaluation.classify") as info:
            retrieval = classify_target(result.checkpoint.params, "symile", test_ds, target="b")
            info["queries"] = test_ds.n
        with tracer.span("evaluation.bootstrap"):
            bootstrap_accuracy(
                retrieval, self.bootstrap_resamples, derive_seed(self.seed, "bench-boot")
            )
        with tracer.span("fileio.checkpoint") as info:
            save_checkpoint(self.ckpt_path, result.checkpoint)
            info["bytes"] = os.path.getsize(self.ckpt_path)
        t2 = time.perf_counter()

        if not tracer.enabled:
            self.sample(
                cell_s=t2 - t0,
                train_s=t1 - t0,
                train_rows_per_s=self.cfg.epochs * train_ds.n / (t1 - t0),
            )
        self.accuracies.append(retrieval.accuracy)
        loaded = load_checkpoint(self.ckpt_path)
        same = all(
            np.array_equal(loaded.params.encoders[m].W, enc.W)
            and np.array_equal(loaded.params.encoders[m].b, enc.b)
            for m, enc in result.checkpoint.params.encoders.items()
        ) and np.array_equal(loaded.params.log_scale, result.checkpoint.params.log_scale)
        self.check("checkpoint.roundtrip", same, "load_checkpoint returns the saved parameters")
        self.ckpt_digests.append(hashlib.sha256(_read(self.ckpt_path)).hexdigest())
        return t2 - t0

    def expected_counts(self) -> dict[str, int]:
        def batches(n: int) -> int:
            # full batches plus a trailing one of at least 2 rows
            return n // self.batch_size + (n % self.batch_size >= 2)

        calls = self.epochs * (batches(self.splits.train) + batches(self.splits.val))
        perms = calls * 3 * 2 if self.strategy == "on" else 0  # M anchors x (M-1)
        return {"model.calls": calls, "rng.perm_draws": perms}

    def final_checks(self) -> None:
        accs = self.accuracies
        self.check(
            "train.deterministic",
            len(set(accs)) <= 1 and len(set(self.ckpt_digests)) <= 1,
            f"{len(accs)} passes: accuracies {sorted(set(accs))}, "
            f"{len(set(self.ckpt_digests))} distinct checkpoint files",
        )
        if accs:
            self.check(
                "train.retrieval_acc",
                min(accs) >= self.min_accuracy,
                f"zero-shot accuracy {min(accs)!r} >= {self.min_accuracy}",
            )

    def report(self) -> dict[str, list[float]]:
        return {
            "train_rows_per_s": self.samples.get("train_rows_per_s", []),
            "cell_s": self.samples.get("cell_s", []),
            "retrieval_acc": self.accuracies,
        }


class TrainOn(TrainWorkload):
    """The benchmark recipe with O(N) negatives: the path that the encode
    and sampler dedup and the row-blocked kernel rewrite.  The pair
    kernel, "on2", the sweep pool and the oracle do no work here."""

    name = "train-symile-on"


class TrainOn2(TrainWorkload):
    """The same objectives layer used differently: O(N^2) negatives are
    memory-bound, and at N=256 one logits copy is 64 MiB, so peak RSS is
    what a blocked kernel must move.  A speed-up for "on" that costs
    "on2" shows only here."""

    name = "train-symile-on2"
    strategy = "on2"
    batch_size = 256
    # A reduced split keeps a pass short: one epoch of 3 training steps and
    # one validation batch, each a 256 x 65536 logits matrix per anchor.
    splits = SplitSpec(768, 256, 1_000)
    epochs = 1
    # Three steps are too few to converge; the check asks for clearly
    # better than chance (1/32), not for the recipe's accuracy.
    min_accuracy = 2 * CHANCE_32


# ---------------------------------------------------------------------------
# sweep-jobs2
# ---------------------------------------------------------------------------


class SweepJobs2(Workload):
    """run_sweep at jobs=2 into a fresh directory, then a resume over it.

    The only workload that runs the pair loss (about twice a symile step),
    the sweep pool, per-cell evaluation and the fileio writes, with the
    reads on resume beside them.  The split and epochs are the smallest at
    which symile reaches full accuracy at p_hat=1 on every seed tried.
    """

    name = "sweep-jobs2"
    grid = (0.0, 0.5, 1.0)
    jobs = 2
    base = TrainConfig(
        epochs=8, batch_size=500, d_out=16, dtype="float32", split=SplitSpec(4_000, 500, 1_000)
    )

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.spec = SweepSpec(p_hat_grid=self.grid, seeds=(seed,), base_config=self.base)
        self.n_cells = len(self.grid) * len(self.spec.objectives)
        self.csv_digests: list[str] = []
        self.passes = 0

    def setup(self, tracer: Tracer) -> None:
        warm = replace(self.spec, p_hat_grid=(1.0,), base_config=replace(self.base, epochs=1))
        path = os.path.join(self.out_dir, "warmup")
        run_sweep(warm, path, jobs=self.jobs)
        shutil.rmtree(path)

    @staticmethod
    def _cell_files(root: str) -> dict[str, tuple[int, int]]:
        out = {}
        for dirpath, _, files in os.walk(os.path.join(root, "cells")):
            for f in files:
                st = os.stat(os.path.join(dirpath, f))
                out[os.path.join(dirpath, f)] = (st.st_mtime_ns, st.st_size)
        return out

    def run_pass(self, tracer: Tracer, jobs: int) -> float:
        self.passes += 1
        root = os.path.join(self.out_dir, f"sweep{self.passes}")
        self.ops += 2 * self.n_cells
        t0 = time.perf_counter()
        with tracer.span("sweep.run"):
            fresh = run_sweep(self.spec, root, jobs=jobs)
        t1 = time.perf_counter()
        self.failed_ops += len(fresh.failures)
        csv_before = _read(fresh.accuracy_csv)
        files_before = self._cell_files(root)
        t2 = time.perf_counter()
        with tracer.span("sweep.resume"):
            resumed = run_sweep(self.spec, root, jobs=jobs)
        t3 = time.perf_counter()
        self.failed_ops += len(resumed.failures)

        acc = {(r["p_hat"], r["objective"]): r["mean_acc"] for r in fresh.rows}
        sym, pair = acc.get((1.0, "symile")), acc.get((1.0, "pairwise_clip"))
        self.check(
            "sweep.cells_complete",
            not fresh.failures and len(fresh.rows) == self.n_cells,
            f"{len(fresh.rows)}/{self.n_cells} cells, failures {fresh.failures}",
        )
        self.check("sweep.symile_p1", sym is not None and sym >= 0.99, f"symile at p_hat=1: {sym!r} >= 0.99")
        # With 1000 test queries the binomial SE at 1/32 is 0.0055, so 0.03
        # is more than five standard errors.
        self.check(
            "sweep.pairwise_p1_chance",
            pair is not None and abs(pair - CHANCE_32) <= 0.03,
            f"pairwise_clip at p_hat=1: {pair!r} within 0.03 of 1/32",
        )
        self.check(
            "sweep.resume_skips_all",
            self._cell_files(root) == files_before and not resumed.failures,
            "resume rewrote no cell file",
        )
        self.check(
            "sweep.resume_csv_identical",
            _read(resumed.accuracy_csv) == csv_before,
            "accuracy.csv byte-identical after resume",
        )
        self.csv_digests.append(hashlib.sha256(csv_before).hexdigest())
        shutil.rmtree(root)
        if not tracer.enabled:
            self.sample(resume_s=t3 - t2)
        if jobs == self.jobs:  # traced runs also make in-process jobs=1 passes
            self.sample(sweep_cells_per_min=60.0 * self.n_cells / (t1 - t0))
        return t1 - t0

    def final_checks(self) -> None:
        self.check(
            "sweep.deterministic",
            len(set(self.csv_digests)) <= 1,
            f"{len(set(self.csv_digests))} distinct accuracy.csv over {len(self.csv_digests)} passes",
        )

    def report(self) -> dict[str, list[float]]:
        return {"sweep_cells_per_min": self.samples.get("sweep_cells_per_min", [])}


# ---------------------------------------------------------------------------
# oracle-diag
# ---------------------------------------------------------------------------


class GradientPairs:
    """Captures the (analytic, numeric) gradients that run_gradient_check
    hands to ``symile.diagnostics.compare_gradients``, one pair per config,
    and returns that function's result unchanged."""

    def __init__(self) -> None:
        self.pairs: list[tuple[list[np.ndarray], list[np.ndarray]]] = []

    def __enter__(self) -> "GradientPairs":
        self.original = symile.diagnostics.compare_gradients

        def capture(analytic, numeric, *args, **kwargs):
            self.pairs.append(([np.asarray(a) for a in analytic], [np.asarray(n) for n in numeric]))
            return self.original(analytic, numeric, *args, **kwargs)

        symile.diagnostics.compare_gradients = capture
        return self

    def __exit__(self, *exc) -> None:
        symile.diagnostics.compare_gradients = self.original

    def worst_excess(self) -> float:
        """max |a - n| / (GRAD_RTOL * max(|a|, |n|) + GRAD_ATOL) over every
        entry of every config: at most 1 when all gradients agree."""
        worst = 0.0
        for analytic, numeric in self.pairs:
            for a, n in zip(analytic, numeric, strict=True):
                if a.size:
                    bound = GRAD_RTOL * np.maximum(np.abs(a), np.abs(n)) + GRAD_ATOL
                    worst = max(worst, float(np.max(np.abs(a - n) / bound)))
        return worst


def _binary_entropy(p: float) -> float:
    return -sum(q * math.log(q) for q in (p, 1.0 - p) if q > 0.0)


def closed_form_rows(p_hat: float, dims: int) -> dict[str, float]:
    """Exact information quantities of the shared-switch XOR/copy mixture.

    a, b are fair d-bit vectors and c is a XOR b with probability p, else
    a.  Given (a, b) the two outcomes coincide only when b = 0, so
    H(c | a, b) = (1 - 2^-d) h(p) and TC = d ln 2 - (1 - 2^-d) h(p).
    b is independent of a and of c, so I(a;b) = I(b;c) = 0, and
    I(a;c) = (p 2^-d + 1 - p) ln(p + (1 - p) 2^d) + (1 - 2^-d) p ln p.
    """
    ln2 = math.log(2.0)
    k = 2.0**-dims
    tc = dims * ln2 - (1.0 - k) * _binary_entropy(p_hat)
    iac = (p_hat * k + 1.0 - p_hat) * math.log(p_hat + (1.0 - p_hat) / k)
    if p_hat > 0.0:
        iac += (1.0 - k) * p_hat * math.log(p_hat)
    return {
        "a;b": 0.0,
        "b;c": 0.0,
        "a;c": iac,
        "a;b|c": tc - iac,
        "b;c|a": tc - iac,
        "a;c|b": tc,
        "a;b;c": tc,
    }


class OracleDiag(Workload):
    """information_rows over the 11-point grid at dims (1, 5), bound_value
    on the XOR table, scorer recovery and the gradient check: the oracle
    and diagnostics samplers and the per-call overhead of loss_and_grads
    at N <= 8.  No N=1000 kernel work runs here, so a kernel change
    should leave this workload unchanged."""

    name = "oracle-diag"
    bound_n = (1, 2, 8, 32, 128)
    mc_samples = 100_000
    scorer_steps = 3000
    gradcheck_configs = 20

    def setup(self, tracer: Tracer) -> None:
        information_rows((0.5,), "shared", (1,))
        table = build_xor1d_table()
        groups = (("a",), ("b",), ("c",))
        bound_value(table, optimal_scorer(table, groups), 8, 1000, 0)
        recover_optimal_scorer(table, n=4, steps=10, lr=0.02, seed=0)
        run_gradient_check(n_configs=2, seed=0)

    def run_pass(self, tracer: Tracer, jobs: int) -> float:
        self.ops += 3 + len(self.bound_n)
        t0 = time.perf_counter()
        with tracer.span("sweep.information_rows"):
            rows = information_rows(DEFAULT_GRID, "shared", (1, 5))
        t1 = time.perf_counter()
        table = build_xor1d_table()
        groups = (("a",), ("b",), ("c",))
        scorer = optimal_scorer(table, groups)
        tc = total_correlation(table, groups)
        t2 = time.perf_counter()
        bounds = {}
        for n in self.bound_n:
            with tracer.span("oracle.bound"):
                bounds[n] = bound_value(
                    table, scorer, n, self.mc_samples, derive_seed(self.seed, "bench-bound", n)
                )
        t3 = time.perf_counter()
        with tracer.span("diagnostics.scorer"):
            _, rec = recover_optimal_scorer(
                table, n=16, steps=self.scorer_steps, lr=0.02,
                seed=derive_seed(self.seed, "bench-scorer"),
            )
        t4 = time.perf_counter()
        with tracer.span("diagnostics.gradcheck"), GradientPairs() as pairs:
            grad = run_gradient_check(
                n_configs=self.gradcheck_configs, seed=derive_seed(self.seed, "bench-gradcheck")
            )
        t5 = time.perf_counter()

        worst = 0.0
        for p_hat, _kind, spec, value in rows:
            group, dims = spec.split("@dims=")
            worst = max(worst, abs(value - closed_form_rows(p_hat, int(dims))[group]))
        self.check(
            "oracle.closed_form",
            len(rows) == len(DEFAULT_GRID) * 2 * 7 and worst <= 1e-9,
            f"{len(rows)} rows, max |value - closed form| {worst:.3g} <= 1e-9",
        )
        tc5 = [v for p, _, s, v in rows if p == 1.0 and s == "a;b;c@dims=5"]
        self.check(
            "oracle.tc_5ln2",
            len(tc5) == 1 and abs(tc5[0] - 5 * math.log(2.0)) <= 1e-12,
            f"TC at p_hat=1, dims=5: {tc5} vs 5 ln 2",
        )
        above = {n: (est, se) for n, (est, se) in bounds.items() if est > tc + 3 * se}
        self.check("oracle.bound_below_tc", not above, f"bound <= TC + 3 SE; violations {above}")
        self.check("oracle.bound_n1_zero", bounds[1][0] == 0.0, f"bound at N=1: {float(bounds[1][0])!r}")
        self.check(
            "diagnostics.scorer",
            rec.converged and rec.offset_std < 0.05,
            f"offset_std {rec.offset_std:.4g} < 0.05, converged {rec.converged}",
        )
        # The library's own verdict divides by max(|a|, |n|, 1e-8), so a
        # parameter whose true gradient is exactly 0 fails it on rounding
        # noise alone (relative error about 1e-3 on some seeds).  The check
        # judges the same gradients against GRAD_ATOL as well; the library's
        # verdict is kept in the detail.
        excess = pairs.worst_excess()
        self.check(
            "diagnostics.gradcheck",
            len(grad.labels) == len(pairs.pairs) == self.gradcheck_configs and excess <= 1.0,
            f"{len(grad.labels)} configs, worst |a - n| / ({GRAD_RTOL} max(|a|, |n|) + {GRAD_ATOL}) "
            f"{excess:.3g} <= 1; library verdict passed={grad.passed}, "
            f"max rel err {grad.max_rel_error:.3g} vs {grad.tolerance}",
        )
        if not tracer.enabled:
            self.sample(
                oracle_s=t1 - t0,
                bound_tuples_per_s=self.mc_samples * sum(self.bound_n) / (t3 - t2),
                scorer_steps_per_s=self.scorer_steps / (t4 - t3),
                gradcheck_s=t5 - t4,
            )
        # The gate times one named op.  bound_value has the same work on
        # every seed; the gradient check's model sizes are drawn from the
        # seed, so its time is not comparable across seeds.
        return t3 - t2

    def report(self) -> dict[str, list[float]]:
        names = ("oracle_s", "bound_tuples_per_s", "scorer_steps_per_s", "gradcheck_s")
        return {name: self.samples.get(name, []) for name in names}


WORKLOADS = {w.name: w for w in (TrainOn, TrainOn2, SweepJobs2, OracleDiag)}
