"""Objective-function tests: the multilinear inner product, logits
construction against brute force, loss values against hand computations,
and the structural invariants (multilinearity, anchor symmetry, the
two-modality reduction)."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symile import objectives
from symile.diagnostics import run_gradient_check
from symile.errors import NonFiniteError
from symile.nn import softmax_cross_entropy
from symile.objectives import (
    build_logits_on,
    build_logits_on2,
    clip_directional_loss,
    clip_pair_loss,
    mip,
    modality_pairs,
    pairwise_clip_loss,
    symile_loss,
    symile_loss_grads,
)


def rand_reps(rng, names, n, d, unit=True):
    reps = {}
    for name in names:
        r = rng.standard_normal((n, d))
        if unit:
            r /= np.linalg.norm(r, axis=1, keepdims=True)
        reps[name] = r
    return reps


class TestMip:
    def test_hand_value(self):
        assert mip([np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]) == 63.0

    def test_reduces_to_dot(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(7), rng.standard_normal(7)
        assert mip([u, v]) == pytest.approx(float(u @ v), abs=1e-12)

    def test_zero_vector_annihilates(self):
        assert mip([np.zeros(3), np.ones(3), np.ones(3)]) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            mip([np.ones(2), np.ones(3)])
        with pytest.raises(ValueError):
            mip([np.ones(2)])

    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_multilinearity(self, seed, alpha):
        rng = np.random.default_rng(seed)
        vecs = [rng.standard_normal(5) for _ in range(3)]
        scaled = [vecs[0] * alpha, vecs[1], vecs[2]]
        assert mip(scaled) == pytest.approx(alpha * mip(vecs), rel=1e-9, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        vecs = [rng.standard_normal(4) for _ in range(3)]
        base = mip(vecs)
        for perm in itertools.permutations(vecs):
            assert mip(list(perm)) == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestLogitsOn:
    def test_diagonal_holds_matched_tuples(self):
        rng = np.random.default_rng(1)
        reps = rand_reps(rng, "xyz", 4, 3)
        perms = [rng.permutation(4), rng.permutation(4)]
        lm = build_logits_on(0, reps, perms, scale=1.7)
        for i in range(4):
            expected = 1.7 * mip([reps["x"][i], reps["y"][i], reps["z"][i]])
            assert lm.values[i, i] == pytest.approx(expected, rel=1e-12)
            assert lm.targets[i] == i

    def test_off_diagonal_uses_permuted_tuples(self):
        rng = np.random.default_rng(2)
        reps = rand_reps(rng, "xyz", 4, 3)
        py, pz = rng.permutation(4), rng.permutation(4)
        lm = build_logits_on(0, reps, [py, pz], scale=2.0)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                expected = 2.0 * mip([reps["x"][i], reps["y"][py[j]], reps["z"][pz[j]]])
                assert lm.values[i, j] == pytest.approx(expected, rel=1e-12)

    def test_identity_perm_collision_behaviour(self):
        # with identity permutations column j holds matched tuple j, so the
        # matrix equals the full pair-grid restricted to aligned non-anchors
        rng = np.random.default_rng(3)
        reps = rand_reps(rng, "xy", 3, 2)
        lm = build_logits_on(0, reps, [np.arange(3)], scale=1.0)
        np.testing.assert_allclose(lm.values, reps["x"] @ reps["y"].T, atol=1e-12)

    def test_hand_expansion_n2(self):
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        y = np.array([[0.5, 1.0], [2.0, 0.0]])
        z = np.array([[1.0, 1.0], [-1.0, 2.0]])
        swap = np.array([1, 0])
        lm = build_logits_on(0, {"x": x, "y": y, "z": z}, [swap, swap], scale=1.0)
        # row 0: diag = <x0,y0,z0> = 1*0.5*1 + 2*1*1 = 2.5
        #        col 1 = <x0, y_swap[1], z_swap[1]> = <x0,y0,z0> = 2.5
        # row 1: diag = <x1,y1,z1> = 3*2*(-1) + (-1)*0*2 = -6
        #        col 0 = <x1, y1, z1> = -6
        np.testing.assert_allclose(lm.values, [[2.5, 2.5], [-6.0, -6.0]], atol=1e-12)

    def test_invalid_perm_rejected(self):
        rng = np.random.default_rng(4)
        reps = rand_reps(rng, "xy", 3, 2)
        with pytest.raises(ValueError):
            build_logits_on(0, reps, [np.array([0, 0, 2])], scale=1.0)


class TestLogitsOn2:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        reps = rand_reps(rng, "xyz", 2, 3)
        lm = build_logits_on2(0, reps, scale=1.3)
        brute = np.array(
            [
                [
                    1.3 * mip([reps["x"][i], reps["y"][j], reps["z"][k]])
                    for j in range(2)
                    for k in range(2)
                ]
                for i in range(2)
            ]
        )
        np.testing.assert_allclose(lm.values, brute, atol=1e-12)
        np.testing.assert_array_equal(lm.targets, [0, 3])

    def test_row_candidate_count(self):
        rng = np.random.default_rng(6)
        reps = rand_reps(rng, "xyz", 5, 4)
        lm = build_logits_on2(1, reps, scale=1.0)
        assert lm.values.shape == (5, 25)
        assert list(lm.targets) == [i * 5 + i for i in range(5)]

    def test_single_sample_single_column(self):
        rng = np.random.default_rng(16)
        reps = rand_reps(rng, "xyz", 1, 4)
        lm = build_logits_on2(0, reps, scale=2.0)
        assert lm.values.shape == (1, 1)
        loss, _ = symile_loss(reps, 2.0, "on2")
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_requires_three_modalities(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            build_logits_on2(0, rand_reps(rng, "xy", 3, 2), scale=1.0)
        with pytest.raises(ValueError):
            symile_loss(rand_reps(rng, "wxyz", 3, 2), 1.0, "on2")


class TestClipPairLoss:
    def test_single_sample_zero(self):
        rx = np.array([[1.0, 0.0]])
        assert clip_pair_loss(rx, rx, scale=3.0) == pytest.approx(0.0, abs=1e-12)

    def test_identical_rows_give_log_n(self):
        r = np.tile([0.6, 0.8], (7, 1))
        assert clip_pair_loss(r, r.copy(), 2.0) == pytest.approx(math.log(7), abs=1e-9)

    def test_hand_value_orthogonal_pairs(self):
        rx = np.eye(2)
        loss = clip_pair_loss(rx, rx.copy(), scale=1.0)
        # each direction, each row: -log(e / (e + 1))
        expected = math.log(1.0 + math.exp(-1.0))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_matches_two_directional_terms(self):
        rng = np.random.default_rng(8)
        rx, ry = (rng.standard_normal((6, 4)) for _ in range(2))
        loss = clip_pair_loss(rx, ry, 1.4)
        direct = 0.5 * (
            clip_directional_loss(rx, ry, 1.4) + clip_directional_loss(ry, rx, 1.4)
        )
        assert loss == pytest.approx(direct, rel=1e-12)

    def test_directional_matches_explicit_softmax(self):
        rng = np.random.default_rng(9)
        rx, ry = (rng.standard_normal((5, 3)) for _ in range(2))
        scale = 0.7
        expected = np.mean(
            [
                softmax_cross_entropy(scale * (ry @ rx[i]), i)[0]
                for i in range(5)
            ]
        )
        assert clip_directional_loss(rx, ry, scale) == pytest.approx(expected, rel=1e-10)


class TestPairwiseClip:
    def test_two_modalities_reduces_to_pair(self):
        rng = np.random.default_rng(10)
        reps = rand_reps(rng, "xy", 5, 3)
        assert pairwise_clip_loss(reps, 1.2) == pytest.approx(
            clip_pair_loss(reps["x"], reps["y"], 1.2), rel=1e-12
        )

    def test_three_modalities_sum_of_pairs(self):
        rng = np.random.default_rng(11)
        reps = rand_reps(rng, "xyz", 4, 3)
        total = pairwise_clip_loss(reps, 0.9)
        parts = sum(
            clip_pair_loss(reps[a], reps[b], 0.9) for a, b in modality_pairs("xyz")
        )
        assert total == pytest.approx(parts, rel=1e-12)

    def test_identical_reps_three_log_n(self):
        r = np.tile([1.0, 0.0], (6, 1))
        reps = {"x": r, "y": r.copy(), "z": r.copy()}
        assert pairwise_clip_loss(reps, 1.0) == pytest.approx(
            3 * math.log(6), abs=1e-9
        )

    def test_per_pair_scales(self):
        rng = np.random.default_rng(12)
        reps = rand_reps(rng, "xyz", 4, 3)
        scales = [0.5, 1.0, 2.0]
        total = pairwise_clip_loss(reps, scales)
        parts = sum(
            clip_pair_loss(reps[a], reps[b], s)
            for (a, b), s in zip(modality_pairs("xyz"), scales)
        )
        assert total == pytest.approx(parts, rel=1e-12)


class TestSymileLoss:
    def test_uniform_reps_log_n(self):
        r = np.tile(np.full(4, 0.5), (9, 1))
        reps = {"x": r, "y": r.copy(), "z": r.copy()}
        loss_on, bd = symile_loss(reps, 1.3, "on", seed=0)
        assert loss_on == pytest.approx(math.log(9), abs=1e-6)
        assert all(v == pytest.approx(math.log(9), abs=1e-6) for v in bd.values())
        loss_on2, _ = symile_loss(reps, 1.3, "on2")
        assert loss_on2 == pytest.approx(math.log(81), abs=1e-6)

    def test_m2_reduction_bitwise(self):
        rng = np.random.default_rng(13)
        for n in (2, 5, 16):
            reps = rand_reps(rng, "xy", n, 6)
            identity = np.arange(n)
            perms = {"x": [identity], "y": [identity]}
            _, breakdown = symile_loss(reps, 1.1, "on", perms=perms)
            assert breakdown["x"] == clip_directional_loss(reps["x"], reps["y"], 1.1)
            assert breakdown["y"] == clip_directional_loss(reps["y"], reps["x"], 1.1)

    def test_hand_computation_n2_m3(self):
        rng = np.random.default_rng(14)
        reps = rand_reps(rng, "xyz", 2, 3, unit=False)
        identity = np.arange(2)
        perms = {m: [identity, identity] for m in "xyz"}
        loss, breakdown = symile_loss(reps, 1.0, "on", perms=perms)
        # brute force through scalar softmax CE per anchor
        expected = {}
        order = {"x": ("y", "z"), "y": ("x", "z"), "z": ("x", "y")}
        for anchor, (o1, o2) in order.items():
            rows = []
            for i in range(2):
                logits = [
                    mip([reps[anchor][i], reps[o1][j], reps[o2][j]]) for j in range(2)
                ]
                rows.append(softmax_cross_entropy(np.array(logits), i)[0])
            expected[anchor] = np.mean(rows)
        for m in "xyz":
            assert breakdown[m] == pytest.approx(expected[m], rel=1e-10)
        assert loss == pytest.approx(np.mean(list(expected.values())), rel=1e-10)

    def test_on2_loss_matches_brute_force(self):
        rng = np.random.default_rng(15)
        reps = rand_reps(rng, "xyz", 3, 4)
        loss, breakdown = symile_loss(reps, 0.8, "on2")
        order = {"x": ("y", "z"), "y": ("x", "z"), "z": ("x", "y")}
        for anchor, (o1, o2) in order.items():
            rows = []
            for i in range(3):
                logits = [
                    0.8 * mip([reps[anchor][i], reps[o1][j], reps[o2][k]])
                    for j in range(3)
                    for k in range(3)
                ]
                rows.append(softmax_cross_entropy(np.array(logits), i * 3 + i)[0])
            assert breakdown[anchor] == pytest.approx(np.mean(rows), rel=1e-10)
        assert loss == pytest.approx(np.mean([breakdown[m] for m in "xyz"]), rel=1e-12)

    def test_nonnegativity_and_margin_monotonicity(self):
        rng = np.random.default_rng(16)
        reps = rand_reps(rng, "xyz", 5, 4)
        seed = 21
        loss, _ = symile_loss(reps, 1.0, "on", seed=seed)
        assert loss >= 0.0
        # raising every positive logit (by scaling the matched tuples'
        # shared direction) must decrease the loss
        boosted = {m: r.copy() for m, r in reps.items()}
        boosted["x"] = boosted["x"] + 0.5 * boosted["y"] * boosted["z"]
        loss_boosted, _ = symile_loss(boosted, 1.0, "on", seed=seed)
        assert loss_boosted < loss

    def test_anchor_order_invariance(self):
        rng = np.random.default_rng(17)
        reps = rand_reps(rng, "xyz", 6, 3)
        relabeled = {"z": reps["z"], "x": reps["x"], "y": reps["y"]}
        seed = 5
        loss1, bd1 = symile_loss(reps, 1.0, "on", seed=seed)
        loss2, bd2 = symile_loss(relabeled, 1.0, "on", seed=seed)
        assert loss1 == loss2
        assert bd1 == bd2

    def test_fresh_perms_per_seed(self):
        rng = np.random.default_rng(18)
        reps = rand_reps(rng, "xyz", 8, 3)
        l1, _ = symile_loss(reps, 1.0, "on", seed=1)
        l2, _ = symile_loss(reps, 1.0, "on", seed=2)
        assert l1 != l2

    def test_requires_seed_or_perms(self):
        rng = np.random.default_rng(19)
        reps = rand_reps(rng, "xyz", 3, 2)
        with pytest.raises(ValueError):
            symile_loss(reps, 1.0, "on")

    def test_grads_accumulate_consistently(self):
        # the averaged loss gradient equals the mean of per-anchor grads;
        # spot check via a tiny directional probe
        rng = np.random.default_rng(20)
        reps = rand_reps(rng, "xyz", 4, 3, unit=False)
        perms = {m: [np.arange(4), np.arange(4)] for m in "xyz"}
        loss, _, d_reps, d_scale = symile_loss_grads(reps, 1.0, "on", perms=perms)
        eps = 1e-6
        direction = {m: rng.standard_normal(reps[m].shape) for m in reps}
        bumped = {m: reps[m] + eps * direction[m] for m in reps}
        loss_eps, _ = symile_loss(bumped, 1.0, "on", perms=perms)
        predicted = sum(float((d_reps[m] * direction[m]).sum()) for m in reps)
        assert (loss_eps - loss) / eps == pytest.approx(predicted, rel=1e-3)


def brute_force_loss(reps, scale, strategy, perms=None):
    """Anchor-averaged loss from a full score tensor built by einsum, one
    anchor at a time, with a plain log-sum-exp per row."""
    names = list(reps)
    n = reps[names[0]].shape[0]
    per_anchor = {}
    for anchor in names:
        a = reps[anchor]
        others = [reps[m] for m in names if m != anchor]
        if strategy == "on2":
            logits = np.einsum("id,jd,kd->ijk", a, *others).reshape(n, n * n)
            targets = np.arange(n) * (n + 1)
        else:
            permuted = np.prod([o[p] for o, p in zip(others, perms[anchor])], axis=0)
            logits = a @ permuted.T
            logits[np.arange(n), np.arange(n)] = np.einsum("id,id->i", a, np.prod(others, axis=0))
            targets = np.arange(n)
        logits = scale * logits
        top = logits.max(axis=1, keepdims=True)
        lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
        per_anchor[anchor] = float(np.mean(lse - logits[np.arange(n), targets]))
    return float(np.mean(list(per_anchor.values()))), per_anchor


class TestRowBlocks:
    """The anchored losses run one block of anchor rows at a time; a
    small block constant makes N = 37 span six blocks of 7 rows, the last
    with 2, in float64."""

    N, ROWS = 37, 7

    def batch(self, seed=30):
        rng = np.random.default_rng(seed)
        reps = rand_reps(rng, "xyz", self.N, 5)
        perms = {
            a: objectives.draw_anchor_perms(seed, list(reps), a, self.N) for a in reps
        }
        return reps, perms

    def blocked(self, mp, strategy, record):
        """Set ROWS rows per block and record every block's logits."""
        k = self.N if strategy == "on" else self.N**2
        mp.setattr(objectives, "_BLOCK_LOGITS", self.ROWS * k)
        ce = objectives.row_softmax_cross_entropy

        def spy(logits, targets, overwrite=False):
            record.append(logits.copy())
            return ce(logits, targets, overwrite)

        mp.setattr(objectives, "row_softmax_cross_entropy", spy)

    @pytest.mark.parametrize("strategy", ["on", "on2"])
    def test_blocked_matches_single_block_and_brute_force(self, monkeypatch, strategy):
        reps, perms = self.batch()
        perms = perms if strategy == "on" else None
        loss1, bd1, d_reps1, d_scale1 = symile_loss_grads(reps, 1.7, strategy, perms=perms)
        blocks = []
        self.blocked(monkeypatch, strategy, blocks)
        loss, bd, d_reps, d_scale = symile_loss_grads(reps, 1.7, strategy, perms=perms)
        assert [b.shape[0] for b in blocks] == [7, 7, 7, 7, 7, 2] * 3
        ref_loss, ref_bd = brute_force_loss(reps, 1.7, strategy, perms)
        assert loss == pytest.approx(ref_loss, abs=1e-12)
        assert loss == pytest.approx(loss1, abs=1e-12)
        for m in reps:
            assert bd[m] == pytest.approx(ref_bd[m], abs=1e-12)
            assert bd[m] == pytest.approx(bd1[m], abs=1e-12)
            np.testing.assert_allclose(d_reps[m], d_reps1[m], rtol=0, atol=1e-12)
        assert d_scale == pytest.approx(d_scale1, abs=1e-12)

    def test_gradient_check_with_one_row_per_block(self, monkeypatch):
        monkeypatch.setattr(objectives, "_BLOCK_LOGITS", 1)
        report = run_gradient_check(n_configs=10, seed=3)
        assert report.passed, dict(zip(report.labels, report.max_rel_errors))

    @pytest.mark.parametrize("strategy", ["on", "on2"])
    def test_nan_in_last_block_raises(self, monkeypatch, strategy):
        reps, perms = self.batch()
        reps["x"][self.N - 1, 0] = np.nan
        blocks = []
        self.blocked(monkeypatch, strategy, blocks)
        with pytest.raises(NonFiniteError):
            symile_loss_grads(reps, 1.7, strategy, perms=perms if strategy == "on" else None)
        # x anchors first: five finite blocks, then the ragged last one
        assert [bool(np.isfinite(b).all()) for b in blocks] == [True] * 5 + [False]
        assert blocks[-1].shape[0] == 2


def test_on2_memory_stays_bounded():
    """One on2 call at N=256, D=16 in float32 holds one row block of
    logits plus O(N*D), not the 64 MiB N x N^2 score matrix."""
    rng = np.random.default_rng(31)
    reps = {m: r.astype(np.float32) for m, r in rand_reps(rng, "xyz", 256, 16).items()}
    tracemalloc.start()
    try:
        symile_loss_grads(reps, 5.0, "on2")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
