"""Sweep runner: outputs byte-identical at any --jobs, pool sizing, the
serial fallback, failure order, worker lifetime, resume and atomic cell
results."""

import concurrent.futures
import json
import multiprocessing
import os
import threading
import time

import pytest

from symile import sweep
from symile.cli import main
from symile.errors import SchemaError
from symile.sweep import SweepSpec, run_sweep
from symile.train import TrainConfig

TINY_CONFIG = {
    "dataset": "synth5d",
    "objective": "symile",
    "epochs": 2,
    "batch_size": 32,
    "lr": 0.05,
    "d_out": 8,
    "seed": 0,
    "split": {"train": 128, "val": 64, "test": 64},
}


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def fake_row(spec, p_hat, objective, seed, out_dir):
    return {
        "p_hat": p_hat,
        "objective": objective,
        "strategy": "on",
        "seed": seed,
        "mean_acc": 0.5,
        "se": 0.0,
        "n_test": 1,
        "checkpoint_path": "none",
    }


def two_cell_spec():
    return SweepSpec(p_hat_grid=(0.0, 1.0), objectives=("symile",), dims=1)


def tiny_spec():
    """Two real cells of the tiny config, a second or so each."""
    return SweepSpec(
        p_hat_grid=(0.0, 1.0),
        objectives=("symile",),
        base_config=TrainConfig(**{k: v for k, v in TINY_CONFIG.items() if k != "dataset"}),
    )


@pytest.fixture()
def pools(monkeypatch):
    """The worker count of every process pool a sweep builds."""
    asked = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            asked.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return asked


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("seed", [0, 5])
def test_outputs_byte_identical_across_jobs(tmp_path, dtype, seed):
    # The sweep benchmark's batch and width: at smaller shapes OpenBLAS
    # runs one thread anyway, and the check could not see a second.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        **TINY_CONFIG, "dtype": dtype, "seed": seed, "batch_size": 500, "d_out": 16,
        "split": {"train": 1000, "val": 500, "test": 64},
    }))
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["reproduce-fig3", "--config", str(cfg), "--grid", "0,1",
                     "--seeds", str(seed), "--jobs", jobs, "--out-dir", str(out)]) == 0
        trees.append(tree_bytes(out))
    assert len(trees[0]) == 2 + 2 * 4  # two CSVs; result and checkpoint per cell
    assert trees[0] == trees[1]


class TestJobs:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_any_cell(self, tmp_path, monkeypatch, capsys, jobs):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(sweep, "run_cell", no_cell)
        out = tmp_path / "sweep"
        with pytest.raises(SchemaError, match="jobs"):
            run_sweep(two_cell_spec(), str(out), jobs=jobs)
        assert main(["reproduce-fig3", "--grid", "0,1", "--jobs", str(jobs),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: jobs must be at least 1")
        assert not out.exists()

    def test_pool_capped_at_cell_count(self, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(sweep, "run_cell", fake_row)
        outcome = run_sweep(two_cell_spec(), str(tmp_path), jobs=10**6)
        assert pools == [2] and len(outcome.rows) == 2

    def test_resume_forks_only_for_unfinished_cells(self, tmp_path, pools):
        spec, out = tiny_spec(), tmp_path / "sweep"
        first = run_sweep(spec, str(out), jobs=1)
        files = {p: p.stat().st_mtime_ns for p in (out / "cells").rglob("*") if p.is_file()}
        assert len(files) == 4  # result and checkpoint per cell
        time.sleep(0.01)  # a rewrite would show in the mtimes
        assert run_sweep(spec, str(out), jobs=2).rows == first.rows
        assert pools == []

        lost = sorted((out / "cells").glob("*/result.json"))[0]
        good = lost.read_bytes()
        lost.unlink()
        assert run_sweep(spec, str(out), jobs=2).rows == first.rows
        assert pools == []  # one cell left to run needs no pool
        assert lost.read_bytes() == good
        rewritten = {p for p, mtime in files.items() if p.stat().st_mtime_ns != mtime}
        assert rewritten == {lost, lost.parent / "checkpoint.json"}

    def test_without_fork_cells_run_serially(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        spec = tiny_spec()
        run_sweep(spec, str(tmp_path / "jobs1"), jobs=1)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        outcome = run_sweep(spec, str(tmp_path / "jobs2"), jobs=2)
        assert not outcome.failures
        assert tree_bytes(tmp_path / "jobs2") == tree_bytes(tmp_path / "jobs1")


class TestFailures:
    def test_failures_follow_grid_order(self, tmp_path, monkeypatch):
        def failing_cell(spec, p_hat, objective, seed, out_dir):
            if p_hat == 0.0:
                time.sleep(0.2)  # the first cell finishes last
            raise RuntimeError(f"cell {p_hat}")

        monkeypatch.setattr(sweep, "run_cell", failing_cell)
        outcome = run_sweep(two_cell_spec(), str(tmp_path), jobs=2)
        assert outcome.failures == [
            (0.0, "symile", 0, "RuntimeError: cell 0.0"),
            (1.0, "symile", 0, "RuntimeError: cell 1.0"),
        ]


def raising_cell(spec, p_hat, objective, seed, out_dir):
    raise RuntimeError(f"cell {p_hat}")


def dying_cell(spec, p_hat, objective, seed, out_dir):
    """The worker running the p_hat=0 cell dies without a word."""
    if p_hat == 0.0:
        os._exit(9)
    time.sleep(0.5)  # still running when the pool breaks
    return fake_row(spec, p_hat, objective, seed, out_dir)


class TestWorkers:
    @pytest.mark.parametrize("cell", [fake_row, raising_cell, dying_cell],
                             ids=["returns", "raises", "dies"])
    def test_no_worker_outlives_the_sweep(self, tmp_path, monkeypatch, cell):
        monkeypatch.setattr(sweep, "run_cell", cell)
        outcome = run_sweep(two_cell_spec(), str(tmp_path), jobs=2)
        assert len(outcome.rows) + len(outcome.failures) == 2
        assert multiprocessing.active_children() == []

    def test_dead_worker_fails_its_cells_without_hanging(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "run_cell", dying_cell)
        spec = SweepSpec(p_hat_grid=(0.0, 0.5, 1.0), objectives=("symile",), dims=1)
        done = []
        worker = threading.Thread(
            target=lambda: done.append(run_sweep(spec, str(tmp_path), jobs=2)), daemon=True
        )
        start = time.monotonic()
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and done, "run_sweep hung after a worker died"
        assert time.monotonic() - start < 30
        (outcome,) = done
        failed = [f[0] for f in outcome.failures]
        assert failed[0] == 0.0 and failed == sorted(failed)
        assert all(f[3].startswith("BrokenProcessPool: ") for f in outcome.failures)
        assert len(outcome.rows) + len(failed) == 3
        assert multiprocessing.active_children() == []

    def test_resume_rewrites_no_cell(self, tmp_path):
        spec, out = tiny_spec(), tmp_path / "sweep"
        first = run_sweep(spec, str(out), jobs=2)
        assert not first.failures and len(first.rows) == 2
        csv = (out / "accuracy.csv").read_bytes()
        stats = {}
        for path in (out / "cells").rglob("*"):
            if path.is_file():
                st = path.stat()
                stats[path] = (st.st_mtime_ns, st.st_size)
        assert len(stats) == 4  # result and checkpoint per cell
        time.sleep(0.01)  # a rewrite would show in the mtimes
        again = run_sweep(spec, str(out), jobs=2)
        assert again.rows == first.rows and not again.failures
        assert {p: (p.stat().st_mtime_ns, p.stat().st_size) for p in stats} == stats
        assert (out / "accuracy.csv").read_bytes() == csv


class TestAtomicResult:
    def test_interrupted_write_leaves_no_result(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "sweep"
        args = ["reproduce-fig3", "--config", str(cfg), "--grid", "1",
                "--objectives", "symile", "--out-dir", str(out)]

        class HalfWrite:
            """A file whose second write raises, after the first has gone out."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    self.f.write(text[: len(text) // 2])
                    raise OSError("disk full")
                return self.f.write(text)

        real_open = open

        def half_open(path, mode="r", **kwargs):
            f = real_open(path, mode, **kwargs)
            return HalfWrite(f) if "w" in mode else f

        monkeypatch.setattr(sweep, "open", half_open, raising=False)
        assert main(args) == 3
        assert "disk full" in capsys.readouterr().err
        (cell,) = (out / "cells").iterdir()
        assert sorted(p.name for p in cell.iterdir()) == ["checkpoint.json"]

        monkeypatch.undo()
        assert main(args) == 0
        assert sorted(p.name for p in cell.iterdir()) == ["checkpoint.json", "result.json"]
        assert len((out / "accuracy.csv").read_text().splitlines()) == 3


class TestResumeDistrustsDamagedResults:
    """A result.json that cannot be parsed, or whose provenance hash is
    not the sweep's, counts as absent: the cell is recomputed and the file
    rewritten."""

    @staticmethod
    def run(tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "sweep"
        args = ["reproduce-fig3", "--config", str(cfg), "--grid", "1",
                "--objectives", "symile", "--out-dir", str(out)]
        assert main(args) == 0
        (cell,) = (out / "cells").iterdir()
        return args, cell / "result.json", out / "accuracy.csv"

    def test_truncated_result_is_recomputed(self, tmp_path):
        args, result, csv = self.run(tmp_path)
        good, good_csv = result.read_bytes(), csv.read_bytes()
        result.write_bytes(good[:40])
        assert main(args) == 0
        assert result.read_bytes() == good
        assert csv.read_bytes() == good_csv

    def test_foreign_hash_is_recomputed(self, tmp_path):
        args, result, csv = self.run(tmp_path)
        good, good_csv = result.read_bytes(), csv.read_bytes()
        header, row = good.decode().splitlines()
        doc = json.loads(header)
        doc["config_hash"] = "0" * 16
        row = json.loads(row)
        row["mean_acc"] = -1.0
        result.write_text(json.dumps(doc) + "\n" + json.dumps(row) + "\n")
        assert main(args) == 0
        assert result.read_bytes() == good
        assert csv.read_bytes() == good_csv
