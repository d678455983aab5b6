"""The benchmark traces library names from outside (perfbench/spans.py).
Installing and removing its wrappers here makes a refactor that drops or
renames a traced name fail in the unit tests, not in a benchmark run."""

import importlib.util
import pathlib
import sys

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
