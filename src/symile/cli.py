"""Command-line entry point.

Subcommands: gen, train, eval, probe, oracle, diagnose, reproduce-fig3.
Exit codes: 0 success, 2 usage or validation failure, 3 numerical failure.
The SYMILE_SEED environment variable overrides any config seed (logged to
stderr).  All outputs start with a JSON provenance line and are
byte-stable for a fixed config.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import fields as dataclass_fields
from typing import Any

import numpy as np

from . import fileio
from .data import Dataset, apply_missingness, gen_synth, gen_xor1d, is_kind
from .diagnostics import (
    bound_tightness_report,
    calibration_example,
    recover_optimal_scorer,
    run_gradient_check,
)
from .errors import DivergenceError, NonFiniteError, SchemaError, SymileError
from .evaluation import bootstrap_accuracy, classify_target, sufficient_statistic_probe
from .oracle import build_xor1d_table
from .rng import derive_seed
from .sweep import ACCURACY_HEADER, SweepSpec, information_rows, run_sweep
from .train import TrainConfig, load_checkpoint, save_checkpoint, split_for_training, train

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

_DATASET_KEYS = {"dataset", "p_hat", "i_mode", "out_dir"}
_CONFIG_KEYS = {f.name for f in dataclass_fields(TrainConfig)} | _DATASET_KEYS


def _run_config(path: str | None) -> tuple[dict[str, Any], TrainConfig]:
    """(run config, its TrainConfig): the schema-checked config file at
    ``path`` (every default without one), with any SYMILE_SEED applied."""
    doc: Any = {}
    if path is not None:
        try:
            with open(path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            raise SchemaError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise SchemaError("config must be a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise SchemaError(f"unknown config keys: {sorted(unknown)}")
    doc.setdefault("dataset", "synth5d")
    if doc["dataset"] not in ("xor1d", "synth5d"):
        raise SchemaError(f"unknown dataset {doc['dataset']!r}")
    doc.setdefault("p_hat", 1.0)
    p_hat = doc["p_hat"]
    if not is_kind(p_hat, numbers.Real) or not 0.0 <= p_hat <= 1.0:
        raise SchemaError(f"p_hat must be a number in [0, 1], got {p_hat!r}")
    doc.setdefault("i_mode", "shared")
    if doc["i_mode"] not in ("shared", "per_coordinate"):
        raise SchemaError(f"unknown i_mode {doc['i_mode']!r}")
    env = os.environ.get("SYMILE_SEED")
    if env is not None:
        try:
            doc["seed"] = int(env)
        except ValueError:
            raise SchemaError(f"SYMILE_SEED must be an integer, got {env!r}") from None
        print(f"seed overridden by SYMILE_SEED={doc['seed']}", file=sys.stderr)
    return doc, TrainConfig(**{k: v for k, v in doc.items() if k not in _DATASET_KEYS})


def _gen_dataset(name: str, n: int, p_hat: float, seed: int, i_mode: str) -> Dataset:
    """``n`` rows of the named dataset; xor1d ignores ``p_hat`` and ``i_mode``."""
    if name == "xor1d":
        return gen_xor1d(n, seed)
    return gen_synth(n, p_hat, seed, i_mode, 5)


def _make_splits(doc: dict[str, Any], cfg: TrainConfig):
    data_seed = derive_seed(cfg.seed, "cli-data")
    dataset = _gen_dataset(doc["dataset"], cfg.split.total, doc["p_hat"], data_seed, doc["i_mode"])
    return split_for_training(dataset, cfg)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    # checked for every dataset, so NaN is refused too (xor1d only records p_hat)
    if not (0.0 <= args.p_hat <= 1.0 and 0.0 <= args.missing_p < 1.0):
        raise SchemaError("p_hat must lie in [0, 1] and missing_p in [0, 1)")
    dataset = _gen_dataset(args.dataset, args.n, args.p_hat, args.seed, args.i_mode)
    if args.missing_p > 0.0:
        dataset = apply_missingness(dataset, args.missing_p, derive_seed(args.seed, "mask"))
    meta = {
        "dataset": args.dataset,
        "seed": args.seed,
        "p_hat": args.p_hat,
        "i_mode": args.i_mode,
        "missing_p": args.missing_p,
    }
    fileio.write_dataset(args.out, dataset, args.seed, meta)
    print(f"wrote {args.dataset} dataset: n={dataset.n} modalities={dataset.names} -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    doc, cfg = _run_config(args.config)
    out_dir = args.out_dir or doc.get("out_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    train_ds, val_ds, _ = _make_splits(doc, cfg)
    result = train(cfg, train_ds, val_ds)

    ckpt_path = os.path.join(out_dir, "checkpoint.json")
    save_checkpoint(ckpt_path, result.checkpoint)
    losses_path = os.path.join(out_dir, "losses.csv")
    fileio.write_csv(
        losses_path,
        ("epoch", "train_loss", "val_loss"),
        [(int(h["epoch"]), h["train_loss"], h["val_loss"]) for h in result.history],
        cfg.seed,
        cfg.hash(),
    )
    best = result.checkpoint
    print(
        f"trained {cfg.objective} for {cfg.epochs} epochs; best epoch {best.epoch} "
        f"val_loss {best.val_loss:.6f} -> {ckpt_path}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    doc, cfg = _run_config(args.config)
    ckpt = load_checkpoint(args.checkpoint)
    _, _, test_ds = _make_splits(doc, cfg)
    scorer = "symile" if cfg.objective == "symile" else "clip"
    retrieval = classify_target(ckpt.params, scorer, test_ds, target=args.target)
    report = bootstrap_accuracy(retrieval, args.bootstrap, derive_seed(cfg.seed, "eval-boot"))
    fileio.write_csv(
        args.out,
        ACCURACY_HEADER,
        [
            (
                doc["p_hat"],
                cfg.objective,
                cfg.strategy,
                cfg.seed,
                report.mean_accuracy,
                report.std_error,
                test_ds.n,
                args.checkpoint,
            )
        ],
        cfg.seed,
        cfg.hash(),
    )
    print(
        f"eval: mean_acc={report.mean_accuracy:.6f} se={report.std_error:.6f} "
        f"({args.bootstrap} resamples, n_test={test_ds.n}) -> {args.out}"
    )
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    doc, cfg = _run_config(args.config)
    ckpt = load_checkpoint(args.checkpoint)
    train_ds, _, test_ds = _make_splits(doc, cfg)
    result = sufficient_statistic_probe(
        ckpt.params, train_ds, test_ds, target=args.target, seed=derive_seed(cfg.seed, "probe")
    )
    fileio.write_csv(
        args.out,
        ("target", "n_classes", "probe_accuracy"),
        [(args.target, result.n_classes, result.accuracy)],
        cfg.seed,
        cfg.hash(),
    )
    print(f"probe accuracy on {args.target!r}: {result.accuracy:.6f} -> {args.out}")
    return 0


# Most points a start:step:stop grid may have.  It is checked before the
# grid is built, so a mistyped step cannot start a huge allocation.
MAX_GRID_POINTS = 10_001
_GRID_HELP = f"start:step:stop or a comma list in [0, 1]; at most {MAX_GRID_POINTS} points"


def _parse_grid(text: str) -> tuple[float, ...]:
    """A comma list of values, or start:step:stop with at most
    MAX_GRID_POINTS points; every value must lie in [0, 1]."""
    if ":" in text:
        start, step, stop = (float(p) for p in text.split(":"))
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise SchemaError(f"grid bounds must be finite: {text!r}")
        if not (math.isfinite(step) and step > 0.0):
            raise SchemaError(f"grid step must be finite and positive: {text!r}")
        span = (stop - start) / step  # may overflow to +-inf
        if span > MAX_GRID_POINTS - 1:
            raise SchemaError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        if span < -0.5:
            raise SchemaError(f"grid {text!r} has no points: stop lies below start")
        count = int(round(span)) + 1
        grid = tuple(round(start + k * step, 10) for k in range(count))
    else:
        grid = tuple(float(p) for p in text.split(","))
    if not grid or any(not 0.0 <= p <= 1.0 for p in grid):
        raise SchemaError(f"grid values must lie in [0, 1]: {text!r}")
    return grid


def cmd_oracle(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.p_hat_grid)
    rows = information_rows(grid, args.i_mode, dims_list=(1, 5))
    unit = args.unit
    if unit == "bits":
        rows = [(p, k, g, v / math.log(2.0)) for (p, k, g, v) in rows]
    header = ("p_hat", "quantity", "group_spec", "value_nats" if unit == "nats" else "value_bits")
    cfg_hash = fileio.config_hash({"grid": list(grid), "i_mode": args.i_mode, "unit": unit})
    fileio.write_csv(args.out, header, rows, 0, cfg_hash)
    print(f"wrote {len(rows)} oracle rows ({unit}) -> {args.out}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    rows: list[tuple] = []
    cfg_hash = fileio.config_hash({"check": args.check, "seed": args.seed})
    if args.check == "calibration":
        ex = calibration_example()
        ok = bool(
            np.allclose(ex.posterior, [0.75, 0.25], atol=1e-9)
            and ex.prior_aware_ranking[0] == 0
            and ex.raw_ranking[0] == 1
        )
        header = ("check", "posterior_a", "posterior_b", "raw_top", "prior_aware_top", "pass")
        rows.append(("calibration", ex.posterior[0], ex.posterior[1],
                     int(ex.raw_ranking[0]), int(ex.prior_aware_ranking[0]), ok))
    elif args.check == "gradcheck":
        report = run_gradient_check(seed=args.seed)
        header = ("check", "configs", "max_rel_error", "tolerance", "pass")
        rows.append(("gradcheck", len(report.labels), report.max_rel_error,
                     report.tolerance, report.passed))
    elif args.check == "bound":
        table = build_xor1d_table()
        n_list = [int(x) for x in args.n_list.split(",")]
        report = bound_tightness_report(table, n_list, args.mc_samples, args.seed)
        header = ("check", "n", "bound_nats", "std_error", "total_correlation", "pass")
        for row in report:
            ok = row.bound <= row.total_correlation + 3.0 * row.std_error
            rows.append(("bound", row.n, row.bound, row.std_error, row.total_correlation, ok))
    elif args.check == "scorer":
        table = build_xor1d_table()
        _, report = recover_optimal_scorer(
            table, n=16, steps=args.steps, lr=args.lr, seed=args.seed
        )
        ok = report.converged and report.offset_std < 0.05
        header = ("check", "offset_std", "initial_loss", "final_loss", "pass")
        rows.append(("scorer", report.offset_std, report.initial_loss, report.final_loss, ok))
    else:  # pragma: no cover - argparse restricts choices
        raise SchemaError(f"unknown check {args.check!r}")
    fileio.write_csv(args.out, header, rows, args.seed, cfg_hash)
    passed = all(bool(r[-1]) for r in rows)
    print(f"diagnose {args.check}: {'pass' if passed else 'FAIL'} -> {args.out}")
    return 0 if passed else NUMERICAL_ERROR


def cmd_reproduce_fig3(args: argparse.Namespace) -> int:
    doc, base_cfg = _run_config(args.config)
    if doc["dataset"] != "synth5d":
        raise SchemaError(f"reproduce-fig3 runs synthetic configs only, got dataset {doc['dataset']!r}")
    spec = SweepSpec(
        p_hat_grid=_parse_grid(args.grid),
        objectives=tuple(args.objectives.split(",")),
        seeds=tuple(int(s) for s in args.seeds.split(",")),
        base_config=base_cfg,
        i_mode=doc["i_mode"],
    )
    outcome = run_sweep(spec, args.out_dir, jobs=args.jobs)
    print(f"wrote {outcome.accuracy_csv} and {outcome.information_csv}")
    if outcome.failures:
        for p, obj, seed, msg in outcome.failures:
            print(f"FAILED cell p_hat={p} objective={obj} seed={seed}: {msg}", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symile",
        description="Multimodal contrastive learning experiments and the exact information oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset file")
    p.add_argument("--dataset", choices=("xor1d", "synth5d"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-hat", type=float, default=1.0, dest="p_hat")
    p.add_argument("--i-mode", choices=("shared", "per_coordinate"), default="shared", dest="i_mode")
    p.add_argument("--missing-p", type=float, default=0.0, dest="missing_p")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint with bootstrapped accuracy")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target", default="b")
    p.add_argument("--bootstrap", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="train the sufficient-statistic probe on a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target", default="b")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("oracle", help="emit exact information quantities over a p-hat grid")
    p.add_argument("--p-hat-grid", default="0:0.1:1", dest="p_hat_grid", help=_GRID_HELP)
    p.add_argument("--i-mode", choices=("shared", "per_coordinate"), default="shared", dest="i_mode")
    p.add_argument("--unit", choices=("nats", "bits"), default="nats")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("diagnose", help="run a numerical diagnostic")
    p.add_argument("--check", choices=("bound", "scorer", "gradcheck", "calibration"), required=True)
    p.add_argument("--n-list", default="2,8,32", dest="n_list")
    p.add_argument("--mc-samples", type=int, default=100_000, dest="mc_samples")
    p.add_argument("--steps", type=int, default=3000)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser(
        "reproduce-fig3",
        help="train both objectives over a p-hat grid; emit accuracy and information CSVs",
    )
    p.add_argument("--config", default=None)
    p.add_argument("--grid", default="0:0.1:1", help=_GRID_HELP)
    p.add_argument("--objectives", default="symile,pairwise_clip")
    p.add_argument("--seeds", default="0")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="cells run in this many forked worker processes (at least 1; serially "
        "where the platform cannot fork); outputs are byte-identical at any value",
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_reproduce_fig3)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (SchemaError, SymileError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
