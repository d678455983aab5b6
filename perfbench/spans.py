"""Spans recorded from outside the library, and the per-layer metrics
derived from them.

The tracer replaces module-level names of ``symile`` that callers look up
at call time (``symile.train.loss_and_grads`` and so on) with wrappers
that record a span per call, so the library source stays untouched.  A
span is ``[name, start_ns, end_ns, parent, info]``; the parent is the
index of the enclosing span on the same thread, or -1.  Spans are kept
in memory and written out when the run ends.

A layer's self time is its span's duration minus the durations of its
child spans.  Children of one span run on the span's own thread, so
they never overlap and their durations can be summed.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import os
import statistics
import threading
import time
from typing import Any, Callable, Iterator

Note = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Collects spans; with ``enabled=False`` a span records nothing and
    costs one generator frame, so untraced passes run the same code."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one span around the ``with`` body; yields its info dict."""
        info: dict = {}
        if not self.enabled:
            yield info
            return
        stack = self._stack()
        rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, info]
        stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield info
        except BaseException:
            info["failed"] = True
            raise
        finally:
            stack.pop()
            rec[2] = time.perf_counter_ns()

    def wrap(self, module: Any, attr: str, name: str, note: Note | None = None) -> None:
        """Replace ``module.attr`` with a wrapper that records span ``name``;
        ``note(args, kwargs, result)`` adds fields to the span's info."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as info:
                result = original(*args, **kwargs)
                if note is not None:
                    info.update(note(args, kwargs, result))
                return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str, header: dict) -> None:
        """Write the header line, then one JSON line per span."""
        with open(path, "w") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, info in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "info": info},
                        sort_keys=True,
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Which library names are wrapped, and as which layer span
# ---------------------------------------------------------------------------


def _logit_bytes(args: tuple, kwargs: dict, _result: Any) -> dict:
    """Computed bytes of the logits one symile loss call materialises per
    anchor set: M*N*N*itemsize for "on", M*N*N^2*itemsize for "on2"."""
    reps = args[0]
    strategy = args[2] if len(args) > 2 else kwargs.get("strategy", "on")
    first = next(iter(reps.values()))
    n, m = first.shape[0], len(reps)
    k = n * n if strategy == "on2" else n
    return {"logit_bytes": m * n * k * first.dtype.itemsize}


def _pair_logit_bytes(args: tuple, _kwargs: dict, _result: Any) -> dict:
    """pairs * 2 * N * N * itemsize: each pair builds a score matrix and
    its transposed copy."""
    reps = args[0]
    first = next(iter(reps.values()))
    m, n = len(reps), first.shape[0]
    return {"logit_bytes": (m * (m - 1) // 2) * 2 * n * n * first.dtype.itemsize}


def _perm_count(_args: tuple, _kwargs: dict, result: Any) -> dict:
    return {"perms": len(result)}


def _train_note(args: tuple, _kwargs: dict, result: Any) -> dict:
    return {"epochs": args[0].epochs, "best_epoch": result.checkpoint.epoch}


def _classify_note(args: tuple, _kwargs: dict, _result: Any) -> dict:
    return {"queries": args[2].n}


def _checkpoint_note(args: tuple, _kwargs: dict, _result: Any) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer) -> None:
    """Wrap every traced library name."""
    # import_module, not "import symile.train as train": the package
    # re-exports a function named train that shadows the submodule.
    mod = {
        name: importlib.import_module(f"symile.{name}")
        for name in ("diagnostics", "fileio", "model", "objectives", "oracle", "sweep", "train")
    }
    diagnostics, fileio, model = mod["diagnostics"], mod["fileio"], mod["model"]
    objectives, oracle, sweep, train = mod["objectives"], mod["oracle"], mod["sweep"], mod["train"]

    tracer.wrap(train, "loss_and_grads", "model.loss_and_grads")
    tracer.wrap(train, "adamw_step", "nn.adamw")
    tracer.wrap(train, "_batched_loss", "train.validate")
    tracer.wrap(model, "symile_loss_grads", "objectives.symile", _logit_bytes)
    tracer.wrap(model, "pairwise_clip_loss_grads", "objectives.pairwise", _pair_logit_bytes)
    tracer.wrap(objectives, "draw_anchor_perms", "rng.perm", _perm_count)
    tracer.wrap(objectives, "row_softmax_cross_entropy", "nn.softmax_ce")
    tracer.wrap(sweep, "run_cell", "sweep.cell")
    tracer.wrap(sweep, "gen_synth", "data.gen")
    tracer.wrap(sweep, "train", "train.run", _train_note)
    tracer.wrap(sweep, "classify_target", "evaluation.classify", _classify_note)
    tracer.wrap(sweep, "bootstrap_accuracy", "evaluation.bootstrap")
    tracer.wrap(sweep, "save_checkpoint", "fileio.checkpoint", _checkpoint_note)
    tracer.wrap(sweep, "information_rows", "sweep.information_rows")
    tracer.wrap(sweep, "build_synth_table", "oracle.table")
    tracer.wrap(fileio, "write_csv", "fileio.csv")
    tracer.wrap(oracle, "entropy", "oracle.entropy")
    tracer.wrap(oracle, "marginal", "oracle.marginal")
    tracer.wrap(oracle, "build_synth_table", "oracle.table")
    tracer.wrap(diagnostics, "loss_and_grads", "model.loss_and_grads")
    tracer.wrap(diagnostics, "row_softmax_cross_entropy", "diagnostics.softmax_ce")
    tracer.wrap(diagnostics, "adamw_step", "diagnostics.adamw")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


class SpanIndex:
    """Spans of one run, with children and self times precomputed."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                self.children[rec[3]].append(i)

    def dur(self, i: int) -> float:
        return (self.spans[i][2] - self.spans[i][1]) * 1e-9

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def name(self, i: int) -> str:
        return self.spans[i][0]

    def info(self, i: int) -> dict:
        return self.spans[i][4]

    def descendants(self, i: int) -> list[int]:
        out, todo = [], list(self.children[i])
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(self.children[j])
        return out

    def within(self, roots: list[int], name: str) -> list[int]:
        """Spans called ``name`` at or below any of ``roots``."""
        out = []
        for r in roots:
            out.extend(j for j in [r, *self.descendants(r)] if self.name(j) == name)
        return out

    def roots(self, name: str) -> list[int]:
        return [i for i, rec in enumerate(self.spans) if rec[3] < 0 and rec[0] == name]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q a whole number in 1..99), linearly interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_summary(values: list[float]) -> dict:
    """Median, plus the highest whole percentile with at least ten samples
    beyond it (none below 11 samples), with the sample count."""
    out: dict[str, Any] = {"n": len(values), "p50": statistics.median(values) if values else None}
    if len(values) >= 11:
        q = math.floor(100.0 * (1.0 - 10.0 / len(values)))
        out[f"p{q}"] = percentile(values, q)
    return out


def layer_metrics(idx: SpanIndex) -> dict[str, float]:
    """Every per-layer metric that spans give, per traced pass (plus the
    one set-up).  The caller adds those that need an untraced
    measurement: ``trace.overhead_frac``, ``sweep.parallel_eff`` and
    ``sweep.resume_s``."""
    passes = idx.roots("pass")
    setups = idx.roots("setup")
    n_pass = max(1, len(passes))
    named: dict[str, list[int]] = {}
    for r in passes:
        for j in [r, *idx.descendants(r)]:
            named.setdefault(idx.name(j), []).append(j)

    def spans_of(name: str) -> list[int]:
        return named.get(name, [])

    def busy(name: str) -> float:
        return sum(idx.dur(i) for i in spans_of(name)) / n_pass

    def calls(name: str) -> float:
        return len(spans_of(name)) / n_pass

    def self_s(name: str) -> float:
        return sum(idx.self_time(i) for i in spans_of(name)) / n_pass

    lag = spans_of("model.loss_and_grads")
    gradcheck_roots = spans_of("diagnostics.gradcheck")
    steps = _train_steps(idx, spans_of("train.run"))
    trains = spans_of("train.run")
    useful = [
        (idx.info(i)["best_epoch"] + 1) / idx.info(i)["epochs"]
        for i in trains
        if "best_epoch" in idx.info(i)
    ]
    cells = spans_of("sweep.cell")
    cells_run = [i for i in cells if idx.within([i], "train.run")]
    entropy = spans_of("oracle.entropy")
    entropy_hits = [i for i in entropy if not idx.within([i], "oracle.marginal")]
    scorer = spans_of("diagnostics.scorer")
    logit_bytes = [
        idx.info(i).get("logit_bytes", 0)
        for i in spans_of("objectives.symile") + spans_of("objectives.pairwise")
    ]
    gen_setup = sum(idx.dur(i) for i in idx.within(setups, "data.gen"))

    return {
        "data.gen_s": gen_setup + busy("data.gen"),
        "rng.perm_draws": sum(idx.info(i)["perms"] for i in spans_of("rng.perm")) / n_pass,
        "rng.perm_s": busy("rng.perm"),
        "model.calls": calls("model.loss_and_grads"),
        "model.self_s": self_s("model.loss_and_grads"),
        "model.call_p50_ms": 1e3 * statistics.median([idx.dur(i) for i in lag]) if lag else 0.0,
        "objectives.symile.busy_s": busy("objectives.symile"),
        "objectives.symile.calls": calls("objectives.symile"),
        "objectives.pairwise.busy_s": busy("objectives.pairwise"),
        "objectives.pairwise.calls": calls("objectives.pairwise"),
        "objectives.self_s": self_s("objectives.symile") + self_s("objectives.pairwise"),
        "objectives.logit_bytes": float(max(logit_bytes, default=0)),
        "nn.softmax_ce.busy_s": busy("nn.softmax_ce"),
        "nn.softmax_ce.calls": calls("nn.softmax_ce"),
        "nn.adamw.busy_s": busy("nn.adamw"),
        "nn.adamw.calls": calls("nn.adamw"),
        "train.step_p50_ms": 1e3 * percentile(steps, 50) if steps else 0.0,
        "train.step_p90_ms": 1e3 * percentile(steps, 90) if steps else 0.0,
        "train.steps": len(steps) / n_pass,
        "train.validate_s": busy("train.validate"),
        "train.useful_epoch_frac": statistics.mean(useful) if useful else 0.0,
        "evaluation.classify_s": busy("evaluation.classify"),
        "evaluation.queries": sum(
            idx.info(i).get("queries", 0) for i in spans_of("evaluation.classify")
        ) / n_pass,
        "evaluation.bootstrap_s": busy("evaluation.bootstrap"),
        "fileio.checkpoint_s": busy("fileio.checkpoint"),
        "fileio.checkpoint_bytes": sum(
            idx.info(i).get("bytes", 0) for i in spans_of("fileio.checkpoint")
        ) / n_pass,
        "fileio.csv_s": busy("fileio.csv"),
        "sweep.cells_run": len(cells_run) / n_pass,
        "sweep.cells_skipped": (len(cells) - len(cells_run)) / n_pass,
        "sweep.cells_failed": sum(1 for i in cells if idx.info(i).get("failed")) / n_pass,
        "sweep.cell_busy_s": sum(idx.dur(i) for i in cells_run) / n_pass,
        "oracle.table_s": busy("oracle.table"),
        "oracle.tables": calls("oracle.table"),
        "oracle.entropy_calls": len(entropy) / n_pass,
        "oracle.entropy_hit_frac": len(entropy_hits) / len(entropy) if entropy else 0.0,
        "oracle.bound_s": busy("oracle.bound"),
        "diagnostics.scorer_s": busy("diagnostics.scorer"),
        "diagnostics.scorer_softmax_ce_s": sum(
            idx.dur(i) for i in idx.within(scorer, "diagnostics.softmax_ce")
        ) / n_pass,
        "diagnostics.scorer_adamw_s": sum(
            idx.dur(i) for i in idx.within(scorer, "diagnostics.adamw")
        ) / n_pass,
        "diagnostics.gradcheck_loss_calls": len(
            idx.within(gradcheck_roots, "model.loss_and_grads")
        ) / n_pass,
    }


def _train_steps(idx: SpanIndex, trains: list[int]) -> list[float]:
    """Durations of training steps: a step runs from the start of a
    ``loss_and_grads`` span directly under ``train.run`` to the end of the
    ``adamw_step`` span that follows it."""
    out = []
    for t in trains:
        pending = None
        for c in idx.children[t]:
            if idx.name(c) == "model.loss_and_grads":
                pending = c
            elif idx.name(c) == "nn.adamw" and pending is not None:
                out.append((idx.spans[c][2] - idx.spans[pending][1]) * 1e-9)
                pending = None
    return out


def exact_counts(idx: SpanIndex, root: int) -> dict[str, int]:
    """The counts that must repeat exactly from pass to pass."""
    return {
        "model.calls": len(idx.within([root], "model.loss_and_grads")),
        "rng.perm_draws": sum(idx.info(i)["perms"] for i in idx.within([root], "rng.perm")),
        "diagnostics.gradcheck_loss_calls": len(
            idx.within(idx.within([root], "diagnostics.gradcheck"), "model.loss_and_grads")
        ),
    }


def train_breakdown(idx: SpanIndex) -> tuple[dict[str, float], float]:
    """Self time per span name under ``train.run``, and the wall time of
    ``train.run``, both per traced pass; the self times add up to the wall."""
    passes = idx.roots("pass")
    trains = idx.within(passes, "train.run")
    out: dict[str, float] = {}
    for t in trains:
        for j in [t, *idx.descendants(t)]:
            out[idx.name(j)] = out.get(idx.name(j), 0.0) + idx.self_time(j) / len(passes)
    return out, sum(idx.dur(t) for t in trains) / max(1, len(passes))
