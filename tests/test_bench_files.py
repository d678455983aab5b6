"""Every committed ``BENCH_*.json`` at the root of the repo shares one core
layout, so a reader (or a tool) can compare any two of them: a
description, the machine block, the parent and change trees with their
per-workload summaries, the paired verdicts, the raw runs, and anything
else under ``extra``.  Outside the legacy files, every paired verdict
holds its pair count, the pairs the change won and the median gap against
the parent's spread, and the machine block names the CPU count, the numpy
and Python versions and the BLAS threads."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
CORE = {"change", "description", "extra", "machine", "pairs", "parent", "runs"}
SIDE = {"git_commit", "src_sha256", "workloads"}
# Each paired verdict of a shared-layout file; a workload's pairs may also
# list the seeds its pairs ran.
VERDICT = {
    "change_better", "median_change_over_parent", "median_gap_exceeds_parent_iqr",
    "pairs", "parent_iqr_over_median",
}
MACHINE = {"blas_threads", "nproc", "numpy", "python"}
# Written before the layout was shared; each keeps its own top-level keys
# beside the parent and change trees.
LEGACY = {"BENCH_pr6.json", "BENCH_pr10.json"}


def test_legacy_files_are_committed():
    assert LEGACY <= {p.name for p in FILES}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_core_layout(path):
    data = json.loads(path.read_text())
    if path.name not in LEGACY:
        assert CORE <= set(data), f"missing {sorted(CORE - set(data))}"
        assert isinstance(data["extra"], dict) and isinstance(data["runs"], dict)
    assert isinstance(data["description"], str) and isinstance(data["machine"], dict)
    assert isinstance(data["pairs"], dict)
    for side in ("parent", "change"):
        assert SIDE <= set(data[side]), f"{side} misses {sorted(SIDE - set(data[side]))}"
        assert isinstance(data[side]["workloads"], dict) and data[side]["workloads"]


@pytest.mark.parametrize("path", [p for p in FILES if p.name not in LEGACY], ids=lambda p: p.name)
def test_paired_verdicts_and_machine(path):
    data = json.loads(path.read_text())
    assert MACHINE <= set(data["machine"]), f"machine misses {sorted(MACHINE - set(data['machine']))}"
    assert data["pairs"]
    for workload, metrics in data["pairs"].items():
        verdicts = {m: v for m, v in metrics.items() if m != "seeds"}
        assert verdicts, workload
        for metric, verdict in verdicts.items():
            where = f"pairs[{workload!r}][{metric!r}]"
            assert VERDICT <= set(verdict), f"{where} misses {sorted(VERDICT - set(verdict))}"
            assert 0 <= verdict["change_better"] <= verdict["pairs"], where
