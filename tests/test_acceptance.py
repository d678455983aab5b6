"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one line, ``ACCEPTANCE <n>: PASS|FAIL - <details>``,
before asserting, so a full run documents every criterion's outcome.

Criterion 8's strict "degrades under training-time missingness" clause is
implemented exactly as stated and is expected to FAIL at this scale: with
the benchmark recipe the missing-data model still reaches ceiling
accuracy on complete test triples (confirmed over 33 seeds), so it cannot
be strictly below the (also perfect) complete-data accuracy.  The
substantive half of the property, a >= 0.10 advantage over the pairwise
baseline under identical missingness, passes by roughly 0.97.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from symile.cli import main as cli_main
from symile.data import gen_xor1d, gen_synth
from symile.diagnostics import calibration_example, recover_optimal_scorer, run_gradient_check
from symile.evaluation import bootstrap_accuracy, classify_target
from symile.objectives import clip_directional_loss, symile_loss
from symile.oracle import (
    bound_value,
    build_synth_table,
    build_xor1d_table,
    conditional_mi,
    mutual_information,
    optimal_scorer,
    synth_var_names,
    total_correlation,
)
from symile.rng import derive_seed
from symile.train import TrainConfig, split_for_training, train

pytestmark = pytest.mark.acceptance

SEED = 0
LN2 = math.log(2.0)
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# one line per criterion; echoed in the terminal summary by conftest.py
REPORT_LINES: list[str] = []


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class RunOutcome:
    accuracy: float
    boot: object
    secs: float
    final_train_loss: float


def benchmark_run(dataset, objective, p_missing=0.0):
    """Train with the benchmark recipe; evaluate zero-shot retrieval."""
    cfg = TrainConfig(objective=objective, seed=SEED, p_missing=p_missing)
    train_ds, val_ds, test_ds = split_for_training(dataset, cfg)
    start = time.perf_counter()
    result = train(cfg, train_ds, val_ds)
    elapsed = time.perf_counter() - start
    retrieval = classify_target(result.checkpoint.params, objective, test_ds, target="b")
    boot = bootstrap_accuracy(retrieval, 10, derive_seed(SEED, "acc-boot"))
    return RunOutcome(
        retrieval.accuracy, boot, elapsed, result.history[-1]["train_loss"]
    )


@pytest.fixture(scope="module")
def xor_runs():
    dataset = gen_xor1d(TrainConfig().split.total, seed=derive_seed(SEED, "acc-xor"))
    return {
        obj: benchmark_run(dataset, obj)
        for obj in ("symile", "pairwise_clip")
    }


@pytest.fixture(scope="module")
def grid_runs():
    runs = {}
    for p_hat in GRID:
        dataset = gen_synth(
            TrainConfig().split.total, p_hat, seed=derive_seed(SEED, "acc-data")
        )
        for obj in ("symile", "pairwise_clip"):
            runs[(p_hat, obj)] = benchmark_run(dataset, obj)
    return runs


@pytest.fixture(scope="module")
def missing_runs():
    dataset = gen_synth(
        TrainConfig().split.total, 1.0, seed=derive_seed(SEED, "acc-data")
    )
    return {
        obj: benchmark_run(dataset, obj, p_missing=0.5)
        for obj in ("symile", "pairwise_clip")
    }


class TestCriterion1XorFailureSuccess:
    def test_xor_1d(self, xor_runs):
        sym_acc, sym_secs = xor_runs["symile"].accuracy, xor_runs["symile"].secs
        clip_acc, clip_secs = (
            xor_runs["pairwise_clip"].accuracy,
            xor_runs["pairwise_clip"].secs,
        )
        elapsed = sym_secs + clip_secs
        ok = 0.45 <= clip_acc <= 0.55 and sym_acc >= 0.99 and elapsed <= 120.0
        report(
            1,
            ok,
            f"1D XOR: symile acc={sym_acc:.4f} (>=0.99), clip acc={clip_acc:.4f} "
            f"(in [0.45,0.55]), runtime {elapsed:.0f}s (<=120s)",
        )


class TestCriterion2GridEndpoints:
    def test_endpoints_and_monotonicity(self, grid_runs):
        sym0 = grid_runs[(0.0, "symile")].boot.mean_accuracy
        clip0 = grid_runs[(0.0, "pairwise_clip")].boot.mean_accuracy
        sym1 = grid_runs[(1.0, "symile")].boot.mean_accuracy
        clip1 = grid_runs[(1.0, "pairwise_clip")].boot.mean_accuracy
        sym_curve = [grid_runs[(p, "symile")].boot.mean_accuracy for p in GRID]
        monotone = all(b >= a - 0.03 for a, b in zip(sym_curve, sym_curve[1:]))
        max_secs = max(r.secs for r in grid_runs.values())
        ok = (
            abs(sym0 - 0.032) <= 0.015
            and abs(clip0 - 0.032) <= 0.015
            and sym1 >= 0.995
            and clip1 <= 0.06
            and monotone
            and max_secs <= 15 * 60
        )
        curve = ", ".join(f"{p}:{a:.3f}" for p, a in zip(GRID, sym_curve))
        report(
            2,
            ok,
            f"5D sweep: at 0 sym={sym0:.4f} clip={clip0:.4f} (0.032±0.015); at 1 "
            f"sym={sym1:.4f} (>=0.995) clip={clip1:.4f} (<=0.06); symile curve "
            f"[{curve}] nondecreasing(0.03)={monotone}; max cell {max_secs:.0f}s",
        )

    def test_train_loss_sits_at_collision_floor(self, grid_runs):
        # At mixture weight 1 the permuted in-batch negatives collide with
        # valid tuples: for any anchor value, a random (other-modality)
        # tuple is consistent with it with probability 1/32, so the softmax
        # cannot prefer the positive over K ~ Binomial(N-1, 1/32) clones
        # and the optimal loss is E[ln(1 + K)], not near zero.  Perfect
        # retrieval coexists with this floor because ranking conditions on
        # two modalities, leaving a unique valid candidate.
        n, p = 999, 1.0 / 32.0
        floor = sum(
            math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * math.log(1.0 + k)
            for k in range(0, 200)
        )
        final_loss = grid_runs[(1.0, "symile")].final_train_loss
        assert abs(final_loss - floor) <= 0.2, (final_loss, floor)


class TestCriterion3OracleExactness:
    def test_exact_information(self):
        start = time.perf_counter()
        grid = [round(0.1 * k, 10) for k in range(11)]
        pairwise_ok = True
        for p_hat in grid:
            for dims in (1, 5):
                t = build_synth_table(p_hat, dims)
                a, b, c = synth_var_names(dims)
                pairwise_ok &= abs(mutual_information(t, a, b)) <= 1e-12
                pairwise_ok &= abs(mutual_information(t, b, c)) <= 1e-12
        cmis = [
            conditional_mi(build_synth_table(p, 1), ("a",), ("b",), ("c",))
            for p in grid
        ]
        increasing = all(b > a for a, b in zip(cmis, cmis[1:]))
        cmi_at_1 = abs(cmis[-1] - LN2) <= 1e-12
        xor_tc = total_correlation(build_xor1d_table(), (("a",), ("b",), ("c",)))
        tc_ok = abs(xor_tc - LN2) <= 1e-12
        decomp_ok = True
        for p_hat in grid:
            for dims in (1, 5):
                t = build_synth_table(p_hat, dims)
                a, b, c = synth_var_names(dims)
                tc = total_correlation(t, (a, b, c))
                pair = (
                    mutual_information(t, a, b)
                    + mutual_information(t, b, c)
                    + mutual_information(t, a, c)
                )
                cond = (
                    conditional_mi(t, a, b, c)
                    + conditional_mi(t, b, c, a)
                    + conditional_mi(t, a, c, b)
                )
                decomp_ok &= abs(3 * tc - (2 * pair + cond)) <= 1e-10
        elapsed = time.perf_counter() - start
        ok = pairwise_ok and increasing and cmi_at_1 and tc_ok and decomp_ok and elapsed < 1.0
        report(
            3,
            ok,
            f"oracle: pairwise zeros<=1e-12 ({pairwise_ok}), cmi strictly increasing "
            f"({increasing}) ending at ln2 ({cmi_at_1}), XOR TC=ln2 ({tc_ok}), "
            f"decomposition<=1e-10 ({decomp_ok}), runtime {elapsed:.2f}s (<1s)",
        )


class TestCriterion4ScorerRecovery:
    def test_tabular_recovery(self):
        start = time.perf_counter()
        _, rec = recover_optimal_scorer(
            build_xor1d_table(), n=16, steps=3000, lr=0.02, seed=SEED
        )
        elapsed = time.perf_counter() - start
        ok = rec.converged and rec.offset_std < 0.05 and elapsed < 60.0
        report(
            4,
            ok,
            f"scorer recovery: stdev(g - log-ratio)={rec.offset_std:.4f} (<0.05) over 4 "
            f"support states, converged={rec.converged}, runtime {elapsed:.1f}s (<60s)",
        )


class TestCriterion5BoundBehaviour:
    def test_bound_across_batch_sizes(self):
        start = time.perf_counter()
        table = build_xor1d_table()
        groups = (("a",), ("b",), ("c",))
        scorer = optimal_scorer(table, groups)
        tc = total_correlation(table, groups)
        results = {
            n: bound_value(table, scorer, n, 100_000, derive_seed(SEED, "acc-bound", n))
            for n in (1, 2, 8, 32, 128)
        }
        below = all(est <= tc + 3 * se for est, se in results.values())
        n1_zero = results[1][0] == 0.0
        (e2, s2), (e128, s128) = results[2], results[128]
        grows = e128 - e2 > 3 * (s2 + s128)
        elapsed = time.perf_counter() - start
        ok = below and n1_zero and grows and elapsed < 60.0
        detail = ", ".join(f"N={n}:{est:.4f}±{se:.4f}" for n, (est, se) in results.items())
        report(
            5,
            ok,
            f"bound vs TC={tc:.4f}: [{detail}]; all<=TC+3SE ({below}), N=1 exact zero "
            f"({n1_zero}), N=128 over N=2 by >3SE ({grows}), runtime {elapsed:.1f}s (<60s)",
        )


class TestCriterion6GradientCorrectness:
    def test_gradients(self):
        start = time.perf_counter()
        rep = run_gradient_check(n_configs=20, seed=SEED)
        elapsed = time.perf_counter() - start
        ok = rep.passed and len(rep.labels) >= 20 and elapsed < 30.0
        report(
            6,
            ok,
            f"gradcheck: {len(rep.labels)} configs, max rel err "
            f"{rep.max_rel_error:.2e} (<1e-4), runtime {elapsed:.1f}s (<30s)",
        )


class TestCriterion7Calibration:
    def test_worked_example(self):
        ex = calibration_example()
        posterior_ok = bool(np.all(np.abs(ex.posterior - [0.75, 0.25]) <= 1e-9))
        ratios = np.exp(ex.scores)
        ratios_ok = bool(np.all(np.abs(ratios - [0.9375, 1.25]) <= 1e-9))
        flip_ok = ex.raw_ranking[0] == 1 and ex.prior_aware_ranking[0] == 0
        ok = posterior_ok and ratios_ok and flip_ok
        report(
            7,
            ok,
            f"calibration: posterior=({ex.posterior[0]:.6f},{ex.posterior[1]:.6f}) "
            f"(0.75,0.25±1e-9), ratios=({ratios[0]:.4f},{ratios[1]:.4f}), raw prefers "
            f"b and prior-aware prefers a ({flip_ok})",
        )


class TestCriterion8MissingData:
    def test_missingness_property(self, grid_runs, missing_runs):
        sym_missing = missing_runs["symile"].accuracy
        clip_missing = missing_runs["pairwise_clip"].accuracy
        sym_complete = grid_runs[(1.0, "symile")].accuracy
        gap_ok = sym_missing >= clip_missing + 0.10
        below_ok = sym_missing < sym_complete
        ok = gap_ok and below_ok
        report(
            8,
            ok,
            f"missing data at 0.5: symile={sym_missing:.4f} vs clip={clip_missing:.4f} "
            f"(gap>=0.10: {gap_ok}); strictly below complete-data symile="
            f"{sym_complete:.4f}: {below_ok} (known red: both saturate at this "
            f"scale, so the strict inequality cannot hold; see module docstring)",
        )


class TestCriterion9TwoModalityReduction:
    def test_bitwise_reduction(self):
        rng = np.random.default_rng(SEED)
        ok = True
        for n in (2, 7, 16):
            reps = {}
            for name in ("x", "y"):
                r = rng.standard_normal((n, 6))
                reps[name] = r / np.linalg.norm(r, axis=1, keepdims=True)
            identity = np.arange(n)
            _, breakdown = symile_loss(
                reps, 1.3, "on", perms={"x": [identity], "y": [identity]}
            )
            ok &= breakdown["x"] == clip_directional_loss(reps["x"], reps["y"], 1.3)
            ok &= breakdown["y"] == clip_directional_loss(reps["y"], reps["x"], 1.3)
        report(9, ok, "anchor terms equal directional two-modality losses bitwise (N=2,7,16)")


class TestCriterion10Determinism:
    def test_sweep_byte_identical(self, tmp_path):
        import json as _json

        cfg = {
            "dataset": "synth5d",
            "objective": "symile",
            "epochs": 2,
            "batch_size": 32,
            "lr": 0.05,
            "d_out": 8,
            "seed": 0,
            "split": {"train": 96, "val": 48, "test": 48},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(_json.dumps(cfg))
        contents = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = cli_main(
                ["reproduce-fig3", "--config", str(cfg_path), "--grid", "0,1",
                 "--seeds", "0", "--out-dir", str(out)]
            )
            assert code == 0
            acc = (out / "accuracy.csv").read_bytes()
            info = (out / "information.csv").read_bytes()
            contents.append((acc, info))
        ok = contents[0] == contents[1]
        report(10, ok, "repeated sweep runs emit byte-identical CSV data sections")
