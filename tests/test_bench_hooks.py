"""The benchmark traces library names from outside (perfbench/spans.py).
Installing and removing its wrappers here makes a refactor that drops or
renames a traced name, or changes a count the benchmark checks exactly,
fail in the unit tests, not in a benchmark run."""

import importlib.util
import pathlib
import sys

import pytest

from symile.data import SplitSpec, gen_synth, split
from symile.train import TrainConfig, train

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_wraps_and_unwraps(monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._patched)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.unwrap_all()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


@pytest.mark.parametrize("objective,strategy", [
    ("symile", "on"), ("symile", "on2"), ("pairwise_clip", "on"),
])
def test_traced_training_counts(monkeypatch, objective, strategy):
    """A traced pass of a tiny run counts one loss call per train and val
    batch (a trailing batch of fewer than 2 rows dropped) and, for "on",
    M x (M - 1) permutation draws per call: the exact counts the
    benchmark's train workloads check."""
    spans = load_spans(monkeypatch)
    splits, batch_size, epochs = SplitSpec(10, 6, 4), 4, 2
    cfg = TrainConfig(
        objective=objective, strategy=strategy, epochs=epochs, batch_size=batch_size,
        d_out=4, seed=1, split=splits,
    )
    train_ds, val_ds, _ = split(gen_synth(splits.total, 1.0, 5, "shared", 5), splits)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        with tracer.span("pass"):
            train(cfg, train_ds, val_ds)
    finally:
        tracer.unwrap_all()

    def batches(n):
        return n // batch_size + (n % batch_size >= 2)

    calls = epochs * (batches(splits.train) + batches(splits.val))
    perms = calls * 3 * 2 if (objective, strategy) == ("symile", "on") else 0
    idx = spans.SpanIndex(tracer.spans)
    assert spans.exact_counts(idx, idx.roots("pass")[0]) == {
        "model.calls": calls, "rng.perm_draws": perms, "diagnostics.gradcheck_loss_calls": 0,
    }
