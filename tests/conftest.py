import json
import sys

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the per-criterion acceptance lines after the run, where pytest's
    output capture cannot swallow them."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def _parse_dataset_file(path):
    """(header, blocks) of a file written by fileio.write_dataset: n rows
    per modality in header order, then n rows of masks, then latents, each
    present block as a float array keyed by name ("masks", "latents")."""
    with open(path) as f:
        lines = f.read().splitlines()
    header = json.loads(lines[1])
    names = list(header["modalities"])
    if header["has_masks"]:
        names.append("masks")
    if header["latent_dims"]:
        names.append("latents")
    n = header["n"]
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert len(rows) == n * len(names)
    return header, {name: np.array(rows[k * n : (k + 1) * n]) for k, name in enumerate(names)}


@pytest.fixture
def read_dataset_file():
    return _parse_dataset_file
