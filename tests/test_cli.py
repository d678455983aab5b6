"""CLI contract tests: subcommands, exit codes, file formats, provenance,
determinism, sweep resumability."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from symile import cli
from symile.cli import main
from symile.train import load_checkpoint

TINY_CONFIG = {
    "dataset": "synth5d",
    "p_hat": 1.0,
    "i_mode": "shared",
    "objective": "symile",
    "epochs": 2,
    "batch_size": 32,
    "lr": 0.05,
    "weight_decay": 0.01,
    "d_out": 8,
    "seed": 0,
    "split": {"train": 128, "val": 64, "test": 64},
}


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def read_lines(path):
    with open(path, "rb") as f:
        return f.read().decode().splitlines()


class TestGen:
    def test_writes_and_reads_back(self, tmp_path, read_dataset_file):
        out = str(tmp_path / "data.txt")
        assert main(["gen", "--dataset", "xor1d", "--n", "200", "--seed", "7", "--out", out]) == 0
        header, blocks = read_dataset_file(out)
        assert header["n"] == 200 and header["seed"] == 7
        a, b, c = (blocks[k][:, 0] for k in "abc")
        np.testing.assert_array_equal(np.logical_xor(a, b).astype(float), c)

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("d1", "d2"):
            out = str(tmp_path / name)
            main(["gen", "--dataset", "synth5d", "--n", "100", "--seed", "3",
                  "--p-hat", "0.5", "--out", out])
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_masked_roundtrip(self, tmp_path, read_dataset_file):
        out = str(tmp_path / "masked")
        main(["gen", "--dataset", "synth5d", "--n", "150", "--seed", "1",
              "--p-hat", "0.3", "--missing-p", "0.4", "--out", out])
        header, blocks = read_dataset_file(out)
        assert header["has_masks"]
        observed = blocks["masks"].astype(bool)
        assert not observed.all()
        for i, k in enumerate("abc"):
            assert np.all(blocks[k][~observed[:, i]] == 0.0)

    def test_invalid_p_hat_exit_2(self, tmp_path, capsys):
        code = main(["gen", "--dataset", "synth5d", "--n", "10", "--p-hat", "1.5",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "p_hat" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--dataset", "bogus", "--n", "10", "--out", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("dataset", ["xor1d", "synth5d"])
    def test_nan_p_hat_exit_2_without_file(self, tmp_path, capsys, dataset):
        out = tmp_path / "x"
        code = main(["gen", "--dataset", dataset, "--n", "10", "--p-hat", "nan", "--out", str(out)])
        assert code == 2
        assert "p_hat" in capsys.readouterr().err
        assert not out.exists()


class TestTrainEvalProbe:
    def test_train_eval_probe_pipeline(self, tmp_path, tiny_config_path, capsys):
        out_dir = str(tmp_path / "run")
        assert main(["train", "--config", tiny_config_path, "--out-dir", out_dir]) == 0
        ckpt_path = os.path.join(out_dir, "checkpoint.json")
        ckpt = load_checkpoint(ckpt_path)
        assert math.isfinite(ckpt.val_loss)
        losses = read_lines(os.path.join(out_dir, "losses.csv"))
        assert losses[1] == "epoch,train_loss,val_loss"
        assert len(losses) == 2 + TINY_CONFIG["epochs"]

        results = str(tmp_path / "results.csv")
        assert main(["eval", "--config", tiny_config_path, "--checkpoint", ckpt_path,
                     "--out", results]) == 0
        lines = read_lines(results)
        assert lines[1] == "p_hat,objective,strategy,seed,mean_acc,se,n_test,checkpoint_path"
        row = lines[2].split(",")
        assert row[1] == "symile" and row[6] == "64"

        probe_out = str(tmp_path / "probe.csv")
        assert main(["probe", "--config", tiny_config_path, "--checkpoint", ckpt_path,
                     "--out", probe_out]) == 0
        assert read_lines(probe_out)[1] == "target,n_classes,probe_accuracy"

    @pytest.mark.parametrize("command", ["eval", "probe"])
    @pytest.mark.parametrize("body", [
        pytest.param("[1, 2]", id="not-an-object"),
        pytest.param('{"kind":"checkpoint","encoders":{"a":{"W":1}}}', id="number-as-array"),
        pytest.param('{"kind":"checkpoint","encoders":[]}', id="encoders-not-an-object"),
        pytest.param(
            '{"kind":"checkpoint","config_hash":"0","seed":0,"epoch":0,"val_loss":1.0,'
            '"log_scale":{"shape":[1],"dtype":"float64","data":[0.0]},"encoders":{"a":{'
            '"normalize":true,"W":{"shape":[2,5],"dtype":"float64","data":[0.5,0.5,0.5,0.5,'
            '0.5,0.5,0.5,0.5,0.5,0.5]},"b":{"shape":[3],"dtype":"float64","data":[0,0,0]}}}}',
            id="shapes-disagree",
        ),
    ])
    def test_malformed_checkpoint_exit_2(self, tmp_path, tiny_config_path, capsys, command, body):
        path = tmp_path / "checkpoint.json"
        path.write_text('{"seed":0}\n' + body + "\n")
        code = main([command, "--config", tiny_config_path, "--checkpoint", str(path),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "is not a checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "probe"])
    def test_checkpoint_missing_an_encoder_exit_2(self, tmp_path, tiny_config_path, capsys, command):
        out_dir = str(tmp_path / "run")
        assert main(["train", "--config", tiny_config_path, "--out-dir", out_dir]) == 0
        ckpt_path = os.path.join(out_dir, "checkpoint.json")
        with open(ckpt_path) as f:
            lines = f.read().splitlines()
        body = json.loads(lines[1])
        del body["encoders"]["a"]
        with open(ckpt_path, "w") as f:
            f.write(lines[0] + "\n" + json.dumps(body) + "\n")
        capsys.readouterr()
        code = main([command, "--config", tiny_config_path, "--checkpoint", ckpt_path,
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "no encoder for modality 'a'" in err and "['b', 'c']" in err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY_CONFIG, "mystery": 1}))
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_removed_per_pair_temperature_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**TINY_CONFIG, "per_pair_temperature": False}))
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_divergence_exit_3(self, tmp_path, capsys):
        import warnings

        path = tmp_path / "diverge.json"
        path.write_text(
            json.dumps(
                {**TINY_CONFIG, "lr": 1e30, "weight_decay": 0.0, "normalize": False}
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with np.errstate(all="ignore"):
                code = main(["train", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_huge_finite_lr_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge_lr.json"
        path.write_text(json.dumps({**TINY_CONFIG, "lr": 1e308}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning may escape
            code = main(["train", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "step size lr=1e+308" in err
        assert not os.path.exists(tmp_path / "checkpoint.json")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("lr", math.nan),
            ("lr", math.inf),
            ("weight_decay", math.nan),
            ("weight_decay", -math.inf),
            ("t_init", math.nan),
            ("t_init", -800.0),  # exp underflows to a scale of 0
            ("t_init", 800.0),  # exp overflows to an infinite scale
        ],
    )
    def test_non_finite_or_degenerate_number_exit_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY_CONFIG, key: value}))
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key.split("_")[0] in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "checkpoint.json")

    @pytest.mark.parametrize(
        "override",
        [
            {"lr": "x"},
            {"p_hat": "x"},
            {"epochs": "3"},
            {"split": [1, 2, 3]},
            {"d_out": 2.5},
            {"split": {"train": "x", "val": 8, "test": 8}},
            {"split": {"train": 8, "val": 8, "test": 8, "extra": 1}},
            {"normalize": "yes"},
            {"batch_size": True},
        ],
        ids=lambda o: json.dumps(o),
    )
    def test_wrong_type_exit_2(self, tmp_path, capsys, override):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY_CONFIG, **override}))
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and next(iter(override)) in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "checkpoint.json")

    def test_seed_env_override(self, tmp_path, tiny_config_path, monkeypatch, capsys):
        monkeypatch.setenv("SYMILE_SEED", "99")
        out_dir = str(tmp_path / "run99")
        assert main(["train", "--config", tiny_config_path, "--out-dir", out_dir]) == 0
        err = capsys.readouterr().err
        assert "SYMILE_SEED=99" in err
        ckpt = load_checkpoint(os.path.join(out_dir, "checkpoint.json"))
        assert ckpt.seed == 99


class TestOracleCommand:
    def test_csv_schema_and_values(self, tmp_path):
        out = str(tmp_path / "oracle.csv")
        assert main(["oracle", "--p-hat-grid", "0,0.5,1", "--out", out]) == 0
        lines = read_lines(out)
        assert lines[1] == "p_hat,quantity,group_spec,value_nats"
        rows = [line.split(",") for line in lines[2:]]
        # 3 grid points x 2 dims x 7 quantities
        assert len(rows) == 42
        ab = {
            (r[0], r[2]): float(r[3]) for r in rows if r[1] == "mi" and r[2].startswith("a;b")
        }
        assert all(abs(v) <= 1e-12 for v in ab.values())
        tc_1d = {r[0]: float(r[3]) for r in rows if r[1] == "tc" and "dims=1" in r[2]}
        assert tc_1d["1"] == pytest.approx(math.log(2), abs=1e-12)

    def test_bits_conversion(self, tmp_path):
        out = str(tmp_path / "oracle_bits.csv")
        assert main(["oracle", "--p-hat-grid", "1", "--unit", "bits", "--out", out]) == 0
        lines = read_lines(out)
        assert lines[1].endswith("value_bits")
        tc = [l for l in lines if l.startswith("1,tc") and "dims=1" in l][0]
        assert float(tc.split(",")[3]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("o1.csv", "o2.csv"):
            out = str(tmp_path / name)
            main(["oracle", "--p-hat-grid", "0:0.5:1", "--out", out])
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("grid", ["0:0:1", "0:-0.1:1", "0:nan:1", "0:inf:1"])
    def test_bad_step_exit_2(self, tmp_path, capsys, grid):
        out = str(tmp_path / "o.csv")
        assert main(["oracle", "--p-hat-grid", grid, "--out", out]) == 2
        assert "step" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_tiny_step_rejected_before_building_grid(self, tmp_path, capsys, monkeypatch):
        # the grid tuple is the only tuple() call in parsing; refusing it
        # proves the point count is checked first
        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(cli, "tuple", no_grid, raising=False)
        out = str(tmp_path / "o.csv")
        assert main(["oracle", "--p-hat-grid", "0:1e-12:1", "--out", out]) == 2
        assert f"more than {cli.MAX_GRID_POINTS} points" in capsys.readouterr().err
        sweep_dir = str(tmp_path / "sweep")
        assert main(["reproduce-fig3", "--grid", "0:1e-12:1", "--out-dir", sweep_dir]) == 2
        assert not os.path.exists(out) and not os.path.exists(sweep_dir)

    def test_largest_grid_accepted(self):
        assert len(cli._parse_grid(f"0:{1 / (cli.MAX_GRID_POINTS - 1)}:1")) == cli.MAX_GRID_POINTS


class TestDiagnoseCommand:
    def test_calibration(self, tmp_path):
        out = str(tmp_path / "cal.csv")
        assert main(["diagnose", "--check", "calibration", "--out", out]) == 0
        lines = read_lines(out)
        row = lines[2].split(",")
        assert float(row[1]) == pytest.approx(0.75, abs=1e-9)
        assert float(row[2]) == pytest.approx(0.25, abs=1e-9)
        assert row[5] == "1"

    def test_gradcheck(self, tmp_path):
        out = str(tmp_path / "grad.csv")
        assert main(["diagnose", "--check", "gradcheck", "--out", out]) == 0
        row = read_lines(out)[2].split(",")
        assert float(row[2]) < 1e-4

    def test_bound(self, tmp_path):
        out = str(tmp_path / "bound.csv")
        assert main(["diagnose", "--check", "bound", "--n-list", "2,8,32",
                     "--mc-samples", "20000", "--out", out]) == 0
        lines = read_lines(out)
        assert len(lines) == 2 + 3
        for line in lines[2:]:
            assert line.split(",")[-1] == "1"

    def test_unknown_check_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--check", "nope", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_scorer_without_steps_exit_2(self, tmp_path, capsys, steps):
        out = tmp_path / "scorer.csv"
        assert main(["diagnose", "--check", "scorer", "--steps", steps, "--out", str(out)]) == 2
        assert "steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_scorer_with_non_finite_lr_exit_2(self, tmp_path, capsys, lr):
        out = tmp_path / "scorer.csv"
        assert main(["diagnose", "--check", "scorer", "--lr", lr, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: lr must be positive and finite")
        assert not out.exists()

    def test_scorer_with_huge_finite_lr_exit_3(self, tmp_path, capsys):
        out = tmp_path / "scorer.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning may escape
            code = main(["diagnose", "--check", "scorer", "--lr", "1e308", "--steps", "20",
                         "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "step size lr=1e+308" in err
        assert not out.exists()


class TestSweepCommand:
    def test_tiny_sweep_and_resume(self, tmp_path, tiny_config_path, capsys):
        out_dir = str(tmp_path / "sweep")
        args = ["reproduce-fig3", "--config", tiny_config_path, "--grid", "0,1",
                "--seeds", "0", "--out-dir", out_dir]
        assert main(args) == 0
        acc = read_lines(os.path.join(out_dir, "accuracy.csv"))
        assert acc[1] == "p_hat,objective,strategy,seed,mean_acc,se,n_test,checkpoint_path"
        assert len(acc) == 2 + 4  # 2 grid points x 2 objectives
        info = read_lines(os.path.join(out_dir, "information.csv"))
        assert info[1] == "p_hat,quantity,group_spec,value_nats"

        # rerun resumes from the cell results without retraining
        before = os.stat(os.path.join(out_dir, "accuracy.csv")).st_mtime
        capsys.readouterr()
        assert main(args) == 0
        acc2 = read_lines(os.path.join(out_dir, "accuracy.csv"))
        assert acc2 == acc

    def test_byte_identical_data_sections(self, tmp_path, tiny_config_path):
        outs = []
        for name in ("s1", "s2"):
            out_dir = str(tmp_path / name)
            main(["reproduce-fig3", "--config", tiny_config_path, "--grid", "0,1",
                  "--seeds", "0", "--out-dir", out_dir])
            outs.append(
                (
                    open(os.path.join(out_dir, "accuracy.csv"), "rb").read(),
                    open(os.path.join(out_dir, "information.csv"), "rb").read(),
                )
            )
        assert outs[0] == outs[1]


    @pytest.mark.parametrize("flag,value", [("--objectives", "foo"), ("--objectives", "symile,symile"),
                                            ("--seeds", "-1"), ("--seeds", "0,0")])
    def test_bad_matrix_exit_2_before_output(self, tmp_path, tiny_config_path, capsys, flag, value):
        out_dir = tmp_path / "sweep"
        args = ["reproduce-fig3", "--config", tiny_config_path, "--grid", "1", flag, value,
                "--out-dir", str(out_dir)]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_synthetic_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "xor.json"
        config.write_text(json.dumps({**TINY_CONFIG, "dataset": "xor1d"}))
        out_dir = tmp_path / "sweep"
        args = ["reproduce-fig3", "--config", str(config), "--grid", "1", "--out-dir", str(out_dir)]
        assert main(args) == 2
        assert "xor1d" in capsys.readouterr().err
        assert not out_dir.exists()


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        out = str(tmp_path / "o.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "symile.cli", "oracle", "--p-hat-grid", "1",
             "--out", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert os.path.exists(out)

    def test_bad_flag_returncode_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "symile.cli", "gen", "--n", "ten"],
            capture_output=True,
        )
        assert proc.returncode == 2
