"""Every committed ``BENCH_*.json`` at the root of the repo shares one core
layout, so a reader (or a tool) can compare any two of them: a
description, the machine block, the parent and change trees with their
per-workload summaries, the paired verdicts, the raw runs, and anything
else under ``extra``."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
CORE = {"change", "description", "extra", "machine", "pairs", "parent", "runs"}
SIDE = {"git_commit", "src_sha256", "workloads"}
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
