"""Property test of the CLI contract: any argv and any run config end in
exit 0, 2 or 3, never in a traceback.

Each example is a valid invocation with up to two option values, and up
to two config fields, replaced by invalid ones.  Every size is bounded
(epochs <= 2, split counts <= 64, --jobs <= 2, grids of at most 3
points, --steps <= 5, --mc-samples <= 1000), so no example starts a long
run or many threads.  A second property feeds ``eval`` and ``probe``
checkpoint files: a trained one with up to two of its fields deleted,
retyped or reshaped, or a second line that is not an object at all.
"""

import contextlib
import io
import itertools
import json
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from symile.cli import main

_examples = itertools.count()

NAN, INF = float("nan"), float("inf")


def _pick(*values) -> st.SearchStrategy:
    return st.sampled_from(values)


def _with_faults(valid: st.SearchStrategy[dict], faults: list[tuple]) -> st.SearchStrategy[dict]:
    """``valid`` with up to two (key, value) pairs of ``faults`` laid over it."""
    if not faults:
        return valid
    return st.tuples(valid, st.lists(st.sampled_from(faults), max_size=2)).map(
        lambda t: {**t[0], **dict(t[1])}
    )


SPLIT = st.fixed_dictionaries({k: st.integers(2, 64) for k in ("train", "val", "test")})

CONFIG = _with_faults(
    st.fixed_dictionaries(
        {"epochs": st.integers(1, 2), "split": SPLIT},
        optional={
            "dataset": _pick("synth5d", "xor1d"),
            "p_hat": st.floats(0.0, 1.0),
            "i_mode": _pick("shared", "per_coordinate"),
            "objective": _pick("symile", "pairwise_clip"),
            "strategy": _pick("on", "on2"),
            "batch_size": _pick(2, 16, 64),
            "lr": st.floats(1e-4, 0.5),
            "weight_decay": _pick(0.0, 0.01),
            "t_init": st.floats(-2.0, 2.0),
            "d_out": _pick(1, 4, 8),
            "normalize": st.booleans(),
            "seed": _pick(0, 1, 2**40),
            "p_missing": _pick(0.0, 0.3),
            "dtype": _pick("float32", "float64"),
            "out_dir": st.just("OUT_DIR"),  # replaced by a path under the example's directory
        },
    ),
    [
        ("epochs", 0), ("epochs", 1.5), ("epochs", "2"),
        ("split", [8, 8, 8]), ("split", {"train": 1, "val": 8, "test": 8}),
        ("split", {"train": 8, "val": 1, "test": 8}), ("split", {"train": 8, "val": 8, "test": 0}),
        ("split", {"train": "8", "val": 8, "test": 8}), ("split", {"train": 8, "val": 8, "test": 8, "x": 1}),
        ("dataset", "bogus"), ("dataset", 5), ("p_hat", 1.5), ("p_hat", NAN), ("p_hat", "x"),
        ("p_hat", True), ("i_mode", "bogus"), ("i_mode", None), ("objective", "foo"),
        ("strategy", "bogus"), ("batch_size", 1), ("batch_size", 2.5), ("lr", 0.0), ("lr", NAN),
        ("lr", INF), ("lr", "x"), ("weight_decay", NAN), ("t_init", 800.0), ("t_init", -800.0),
        ("d_out", 0), ("d_out", 2.5), ("normalize", "yes"), ("seed", -1), ("seed", 1.5),
        ("p_missing", 1.0), ("p_missing", -0.1), ("dtype", "float16"), ("unknown_key", 1),
    ],
)

BAD_GRIDS = ["", "x", "0:1", "1.5", "nan", "0:0:1", "0:1e-300:1", "0:inf:1",
             "1e308:1:-1e308", "-1e308:0.5:1e308", "1:-0.5:0"]


def _command(name: str, valid: dict, faults: list[tuple]) -> st.SearchStrategy[tuple]:
    return st.tuples(st.just(name), _with_faults(st.fixed_dictionaries(valid), faults))


COMMANDS = st.one_of(
    _command("gen", {
        "--dataset": _pick("synth5d", "xor1d"), "--n": _pick("1", "2", "64"),
        "--seed": _pick("0", "3"), "--p-hat": _pick("0", "0.5", "1"),
        "--i-mode": _pick("shared", "per_coordinate"), "--missing-p": _pick("0", "0.4"),
    }, [("--dataset", "bogus"), ("--n", "0"), ("--n", "-5"), ("--n", "x"), ("--seed", "-1"),
        ("--p-hat", "1.5"), ("--p-hat", "nan"), ("--i-mode", "bogus"), ("--missing-p", "1.0"),
        ("--missing-p", "-0.1")]),
    _command("train", {}, []),
    _command("eval", {
        "--checkpoint": _pick("synth5d", "xor1d"), "--target": _pick("a", "b", "c"),
        "--bootstrap": _pick("1", "5", "20"),
    }, [("--checkpoint", "missing"), ("--checkpoint", "not-json"), ("--target", "z"),
        ("--bootstrap", "0"), ("--bootstrap", "-1"), ("--bootstrap", "x")]),
    _command("probe", {
        "--checkpoint": _pick("synth5d", "xor1d"), "--target": _pick("a", "b"),
    }, [("--checkpoint", "missing"), ("--target", "z")]),
    _command("oracle", {
        "--p-hat-grid": _pick("1", "0.25", "0,0.5,1", "0:0.5:1"),
        "--i-mode": _pick("shared", "per_coordinate"), "--unit": _pick("nats", "bits"),
    }, [("--p-hat-grid", g) for g in BAD_GRIDS] + [("--unit", "furlongs")]),
    _command("diagnose", {
        "--check": _pick("bound", "scorer", "calibration"), "--steps": _pick("1", "5"),
        "--mc-samples": _pick("1", "100", "1000"), "--n-list": _pick("1", "2,16", "2,16,64"),
        "--lr": _pick("0.02", "0.1"), "--seed": _pick("0", "3"),
    }, [("--check", "nope"), ("--steps", "0"), ("--steps", "-3"), ("--mc-samples", "0"),
        ("--mc-samples", "-1"), ("--n-list", "0"), ("--n-list", "x"), ("--n-list", "-3,2"),
        ("--lr", "0"), ("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf"), ("--seed", "-1")]),
    _command("reproduce-fig3", {
        "--grid": _pick("1", "0,1", "0:0.5:1"),
        "--objectives": _pick("symile", "pairwise_clip", "symile,pairwise_clip"),
        "--seeds": _pick("0", "1", "0,1"), "--jobs": _pick("1", "2"),
    }, [("--grid", g) for g in BAD_GRIDS] + [
        ("--objectives", "foo"), ("--objectives", "symile,foo"), ("--objectives", ""),
        ("--objectives", "symile,symile"), ("--seeds", "-1"), ("--seeds", "0,-1"),
        ("--seeds", "x"), ("--seeds", ""), ("--seeds", "0,0"), ("--jobs", "0"), ("--jobs", "-1")]),
)

TINY = {"epochs": 1, "split": {"train": 8, "val": 8, "test": 8}}


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """A tiny trained checkpoint per dataset, plus paths that are not one."""
    root = tmp_path_factory.mktemp("fuzz-checkpoints")
    paths = {"missing": str(root / "missing.json"), "not-json": str(root / "not-json")}
    (root / "not-json").write_text("not a checkpoint\n")
    for dataset in ("synth5d", "xor1d"):
        config = root / f"{dataset}.json"
        config.write_text(json.dumps({
            "dataset": dataset, "epochs": 1, "batch_size": 16, "d_out": 4,
            "split": {"train": 32, "val": 16, "test": 16},
        }))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--config", str(config), "--out-dir", str(root / dataset)]) == 0
        paths[dataset] = str(root / dataset / "checkpoint.json")
        paths[f"{dataset}-config"] = str(config)
    return paths


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    return code, err.getvalue()


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(command=COMMANDS, config=CONFIG)
# Edge inputs run on every pass: a scorer check without steps, sweeps that must
# be refused before they write, and a grid whose span overflows to -inf.
@example(command=("diagnose", {"--check": "scorer", "--steps": "0"}), config=TINY)
@example(command=("reproduce-fig3", {"--grid": "1", "--objectives": "foo"}), config=TINY)
@example(command=("reproduce-fig3", {"--grid": "1", "--seeds": "-1"}), config=TINY)
@example(command=("reproduce-fig3", {"--grid": "0,1", "--seeds": "0,0", "--jobs": "2"}), config=TINY)
@example(command=("reproduce-fig3", {"--grid": "1"}), config={**TINY, "dataset": "xor1d"})
@example(command=("reproduce-fig3", {"--grid": "1"}), config={**TINY, "i_mode": "bogus"})
@example(command=("reproduce-fig3", {"--grid": "1"}), config={**TINY, "split": {"train": 1, "val": 8, "test": 8}})
@example(command=("oracle", {"--p-hat-grid": "1e308:1:-1e308"}), config=TINY)
def test_exit_codes(tmp_path, checkpoints, command, config):
    name, options = command
    work = tmp_path / f"example{next(_examples)}"
    work.mkdir()
    out_dir = str(work / "out")
    if "out_dir" in config:
        config = {**config, "out_dir": out_dir}
    config_path = work / "run.json"
    config_path.write_text(json.dumps(config))

    argv = [name]
    for flag, value in options.items():
        argv += [flag, checkpoints[value] if flag == "--checkpoint" else value]
    if name in ("train", "eval", "probe", "reproduce-fig3"):
        argv += ["--config", str(config_path)]
    argv += ["--out-dir", out_dir] if name in ("train", "reproduce-fig3") else ["--out", out_dir]

    code, err = _run(argv)
    assert code in (0, 2, 3), (argv, config, err)
    assert "Traceback" not in err
    if code == 3 and name != "diagnose":
        # exit 3 means a numerical failure: training diverged, in the
        # command itself or in every failed sweep cell it reports
        failed = [line for line in err.splitlines() if line.startswith("FAILED cell")]
        assert failed or "numerical failure" in err, (argv, config, err)
        assert all("DivergenceError" in line or "NonFiniteError" in line for line in failed), (
            argv, config, err,
        )
    if name == "reproduce-fig3":
        if config.get("dataset", "synth5d") != "synth5d":
            assert code == 2, (argv, config, err)  # the sweep is synthetic only
        if code == 2:
            assert not os.path.exists(out_dir), (argv, config, err)  # refused before writing


# Where a checkpoint document can be damaged: top-level fields, encoder
# entries, and the shape, dtype and data of its arrays.
CHECKPOINT_PATHS = [
    ("kind",), ("seed",), ("epoch",), ("val_loss",), ("config_hash",), ("encoders",),
    ("log_scale",), ("log_scale", "shape"), ("log_scale", "dtype"), ("log_scale", "data"),
    ("encoders", "a"), ("encoders", "b", "normalize"), ("encoders", "c", "W"),
    ("encoders", "a", "W", "shape"), ("encoders", "b", "W", "data"),
    ("encoders", "c", "b", "shape"), ("encoders", "a", "b", "dtype"),
    ("encoders", "b", "b", "data"),
]
WRONG_VALUES = [None, True, -1, 1.5, NAN, 1e308, "x", "float16", [], {}, [2, 3], [4, 5],
                [[0.5]], ["x"], {"a": 1}]
CHECKPOINT_FAULTS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(CHECKPOINT_PATHS), st.just("delete"), st.none()),
        st.tuples(st.sampled_from(CHECKPOINT_PATHS), st.just("set"), st.sampled_from(WRONG_VALUES)),
        st.tuples(st.sampled_from(CHECKPOINT_PATHS), st.just("truncate"), st.integers(1, 3)),
    ),
    max_size=2,
)
NON_OBJECT_LINES = ["", "[1, 2]", "1", '"checkpoint"', "null", "{", "[" * 5000 + "]" * 5000]


def _damage(doc: dict, path: tuple, op: str, value) -> None:
    """Apply one fault in place; a path the document no longer has is skipped."""
    *parents, key = path
    for p in parents:
        if not isinstance(doc, dict) or not isinstance(doc.get(p), (dict, list)):
            return
        doc = doc[p]
    if not isinstance(doc, dict) or key not in doc:
        return
    if op == "delete":
        del doc[key]
    elif op == "set":
        doc[key] = value
    elif isinstance(doc[key], list):  # truncate: drop entries, so the shapes disagree
        doc[key] = doc[key][:-value]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    command=_pick("eval", "probe"),
    dataset=_pick("synth5d", "xor1d"),
    faults=CHECKPOINT_FAULTS,
    line=st.one_of(st.none(), st.sampled_from(NON_OBJECT_LINES)),
)
@example(command="eval", dataset="synth5d", faults=[], line=None)
@example(command="probe", dataset="xor1d", faults=[], line=None)
def test_checkpoint_files(tmp_path, checkpoints, command, dataset, faults, line):
    with open(checkpoints[dataset]) as f:
        provenance, body = f.readline(), f.readline()
    doc = json.loads(body)
    for fault in faults:
        _damage(doc, *fault)
    path = tmp_path / f"checkpoint{next(_examples)}.json"
    path.write_text(provenance + (json.dumps(doc) if line is None else line) + "\n")

    argv = [command, "--config", checkpoints[f"{dataset}-config"], "--checkpoint", str(path),
            "--out", str(tmp_path / "out.csv")]
    code, err = _run(argv)
    assert code in (0, 2, 3), (faults, line, err)
    assert "Traceback" not in err
    if not faults and line is None:
        assert code == 0, err
