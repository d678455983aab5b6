"""Objective-function tests: a brute-force multilinear inner product, an einsum
brute force of the score matrices checked by hand, the state-grouped
kernel against that brute force (loss and gradients, discrete and
continuous inputs), loss values against hand computations, and the
structural invariants (multilinearity, anchor symmetry, the two-modality
reduction)."""

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
from symile.nn import row_softmax_cross_entropy
from symile.objectives import (
    clip_directional_loss,
    pairwise_clip_loss,
    pairwise_clip_loss_grads,
    symile_loss,
    symile_loss_grads,
)


def mip(vectors):
    """Multilinear inner product sum_d prod_m vectors[m][d], one coordinate
    at a time: the reference the score tests compare against."""
    if len(vectors) < 2:
        raise ValueError("the multilinear inner product needs at least 2 vectors")
    flat = [np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors]
    if len({v.size for v in flat}) != 1:
        raise ValueError(f"vector lengths disagree: {[v.size for v in flat]}")
    return math.fsum(math.prod(coords) for coords in zip(*flat))


def softmax_cross_entropy(logits, target):
    """(loss, gradient) of one row through row_softmax_cross_entropy."""
    losses, grads = row_softmax_cross_entropy(
        np.asarray(logits, dtype=np.float64)[None], np.array([target])
    )
    return float(losses[0]), grads[0]


def rand_reps(rng, names, n, d, unit=True):
    reps = {}
    for name in names:
        r = rng.standard_normal((n, d))
        if unit:
            r /= np.linalg.norm(r, axis=1, keepdims=True)
        reps[name] = r
    return reps


def dense_logits(reps, anchor, strategy, scale, perms=None):
    """(logits, targets) of one anchor, from a full score tensor built by
    einsum.  "on": column j scores the non-anchors at their permuted rows
    j, except the diagonal, which scores the matched tuple.  "on2" (M = 3):
    column j*N + k scores (first_j, second_k), the positive at i*N + i."""
    names = list(reps)
    a = reps[anchor]
    n = a.shape[0]
    others = [reps[m] for m in names if m != anchor]
    if strategy == "on2":
        if len(names) != 3:
            raise ValueError("on2 is defined for M = 3")
        logits = np.einsum("id,jd,kd->ijk", a, *others).reshape(n, n * n)
        return scale * logits, np.arange(n) * (n + 1)
    for p in perms:
        if sorted(p) != list(range(n)):
            raise ValueError("not a permutation")
    permuted = np.prod([o[p] for o, p in zip(others, perms)], axis=0)
    logits = np.einsum("id,jd->ij", a, permuted)
    logits[np.arange(n), np.arange(n)] = np.einsum("id,id->i", a, np.prod(others, axis=0))
    return scale * logits, np.arange(n)


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
        values, targets = dense_logits(reps, "x", "on", 1.7, perms)
        for i in range(4):
            expected = 1.7 * mip([reps["x"][i], reps["y"][i], reps["z"][i]])
            assert values[i, i] == pytest.approx(expected, rel=1e-12)
            assert targets[i] == i

    def test_off_diagonal_uses_permuted_tuples(self):
        rng = np.random.default_rng(2)
        reps = rand_reps(rng, "xyz", 4, 3)
        py, pz = rng.permutation(4), rng.permutation(4)
        values, _ = dense_logits(reps, "x", "on", 2.0, [py, pz])
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                expected = 2.0 * mip([reps["x"][i], reps["y"][py[j]], reps["z"][pz[j]]])
                assert values[i, j] == pytest.approx(expected, rel=1e-12)

    def test_identity_perm_collision_behaviour(self):
        # with identity permutations column j holds matched tuple j, so the
        # matrix equals the full pair-grid restricted to aligned non-anchors
        rng = np.random.default_rng(3)
        reps = rand_reps(rng, "xy", 3, 2)
        values, _ = dense_logits(reps, "x", "on", 1.0, [np.arange(3)])
        np.testing.assert_allclose(values, reps["x"] @ reps["y"].T, atol=1e-12)

    def test_hand_expansion_n2(self):
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        y = np.array([[0.5, 1.0], [2.0, 0.0]])
        z = np.array([[1.0, 1.0], [-1.0, 2.0]])
        swap = np.array([1, 0])
        values, _ = dense_logits({"x": x, "y": y, "z": z}, "x", "on", 1.0, [swap, swap])
        # row 0: diag = <x0,y0,z0> = 1*0.5*1 + 2*1*1 = 2.5
        #        col 1 = <x0, y_swap[1], z_swap[1]> = <x0,y0,z0> = 2.5
        # row 1: diag = <x1,y1,z1> = 3*2*(-1) + (-1)*0*2 = -6
        #        col 0 = <x1, y1, z1> = -6
        np.testing.assert_allclose(values, [[2.5, 2.5], [-6.0, -6.0]], atol=1e-12)

    def test_invalid_perm_rejected(self):
        rng = np.random.default_rng(4)
        reps = rand_reps(rng, "xy", 3, 2)
        bad = {"x": [np.array([0, 0, 2])], "y": [np.arange(3)]}
        with pytest.raises(ValueError):
            symile_loss(reps, 1.0, "on", perms=bad)


class TestLogitsOn2:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        reps = rand_reps(rng, "xyz", 2, 3)
        values, targets = dense_logits(reps, "x", "on2", 1.3)
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
        np.testing.assert_allclose(values, brute, atol=1e-12)
        np.testing.assert_array_equal(targets, [0, 3])

    def test_row_candidate_count(self):
        rng = np.random.default_rng(6)
        reps = rand_reps(rng, "xyz", 5, 4)
        values, targets = dense_logits(reps, "y", "on2", 1.0)
        assert values.shape == (5, 25)
        assert list(targets) == [i * 5 + i for i in range(5)]

    def test_single_sample_single_column(self):
        rng = np.random.default_rng(16)
        reps = rand_reps(rng, "xyz", 1, 4)
        values, _ = dense_logits(reps, "x", "on2", 2.0)
        assert values.shape == (1, 1)
        loss, _ = symile_loss(reps, 2.0, "on2")
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_requires_three_modalities(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            symile_loss(rand_reps(rng, "xy", 3, 2), 1.0, "on2")
        with pytest.raises(ValueError):
            symile_loss(rand_reps(rng, "wxyz", 3, 2), 1.0, "on2")


class TestClipPairLoss:
    def test_single_sample_zero(self):
        rx = np.array([[1.0, 0.0]])
        assert pairwise_clip_loss({"x": rx, "y": rx}, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_identical_rows_give_log_n(self):
        r = np.tile([0.6, 0.8], (7, 1))
        loss = pairwise_clip_loss({"x": r, "y": r.copy()}, 2.0)
        assert loss == pytest.approx(math.log(7), abs=1e-9)

    def test_hand_value_orthogonal_pairs(self):
        rx = np.eye(2)
        loss = pairwise_clip_loss({"x": rx, "y": rx.copy()}, 1.0)
        # each direction, each row: -log(e / (e + 1))
        expected = math.log(1.0 + math.exp(-1.0))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_matches_two_directional_terms(self):
        rng = np.random.default_rng(8)
        rx, ry = (rng.standard_normal((6, 4)) for _ in range(2))
        loss = pairwise_clip_loss({"x": rx, "y": ry}, 1.4)
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
        direct = 0.5 * (
            clip_directional_loss(reps["x"], reps["y"], 1.2)
            + clip_directional_loss(reps["y"], reps["x"], 1.2)
        )
        assert pairwise_clip_loss(reps, 1.2) == pytest.approx(direct, rel=1e-12)

    def test_three_modalities_sum_of_pairs(self):
        rng = np.random.default_rng(11)
        reps = rand_reps(rng, "xyz", 4, 3)
        total = pairwise_clip_loss(reps, 0.9)
        parts = sum(
            pairwise_clip_loss({a: reps[a], b: reps[b]}, 0.9)
            for a, b in itertools.combinations("xyz", 2)
        )
        assert total == pytest.approx(parts, rel=1e-12)

    def test_identical_reps_three_log_n(self):
        r = np.tile([1.0, 0.0], (6, 1))
        reps = {"x": r, "y": r.copy(), "z": r.copy()}
        assert pairwise_clip_loss(reps, 1.0) == pytest.approx(
            3 * math.log(6), abs=1e-9
        )


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


def _row_ce(logits, targets):
    """Per-row CE with a plain log-sum-exp shifted by the real part's max
    (so complex-step perturbations pass through)."""
    top = logits.real.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
    return lse - logits[np.arange(len(targets)), targets]


def brute_force_terms(reps, scale, strategy, perms=None):
    """Per-anchor mean CE ("on", "on2") or per-pair two-way mean CE
    ("pairwise"), from the dense einsum logits; complex inputs allowed."""
    names = list(reps)
    if strategy == "pairwise":
        terms = {}
        for x, y in itertools.combinations(names, 2):
            logits = scale * np.einsum("id,jd->ij", reps[x], reps[y])
            targets = np.arange(logits.shape[0])
            both = _row_ce(logits, targets).mean() + _row_ce(logits.T, targets).mean()
            terms[(x, y)] = 0.5 * both
        return terms
    return {
        a: _row_ce(*dense_logits(reps, a, strategy, scale, perms and perms[a])).mean()
        for a in names
    }


def brute_force_loss(reps, scale, strategy, perms=None):
    """Anchor-averaged loss and per-anchor breakdown from the dense logits."""
    terms = brute_force_terms(reps, scale, strategy, perms)
    return float(np.mean(list(terms.values()))), {m: float(v) for m, v in terms.items()}


def brute_force_grads(states, rows, scale, strategy, perms=None, h=1e-30):
    """Loss, d loss / d every state entry and d loss / d scale of the brute
    force at batch reps ``states[m][rows[m]]``, by complex step (exact to
    rounding: no difference is taken)."""

    def loss(st, s):
        terms = brute_force_terms({m: st[m][rows[m]] for m in st}, s, strategy, perms)
        total = sum(terms.values())
        return total if strategy == "pairwise" else total / len(terms)

    base = {m: v.astype(complex) for m, v in states.items()}
    grads = {}
    for m, v in states.items():
        g = np.empty(v.shape)
        for idx in np.ndindex(v.shape):
            bumped = dict(base, **{m: base[m].copy()})
            bumped[m][idx] += 1j * h
            g[idx] = loss(bumped, scale).imag / h
        grads[m] = g
    return float(loss(base, scale).real), grads, loss(base, scale + 1j * h).imag / h


def kernel(states, rows, scale, strategy, perms=None):
    """(loss, d_states, d_scale) of the library kernel, rows=None meaning
    one state per row."""
    if strategy == "pairwise":
        return pairwise_clip_loss_grads(states, scale, rows=rows)
    loss, _, d, d_scale = symile_loss_grads(states, scale, strategy, perms=perms, rows=rows)
    return loss, d, d_scale


def assert_matches_brute_force(states, rows, scale, strategy, perms=None):
    identity = {m: np.arange(next(iter(states.values())).shape[0]) for m in states}
    ref_loss, ref_d, ref_ds = brute_force_grads(
        states, rows or identity, scale, strategy, perms
    )
    loss, d, d_scale = kernel(states, rows, scale, strategy, perms)
    floor = 1e-12 * max(1.0, *(np.abs(g).max() for g in ref_d.values()))
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-13)
    for m in states:
        np.testing.assert_allclose(d[m], ref_d[m], rtol=1e-12, atol=floor)
    assert d_scale == pytest.approx(ref_ds, rel=1e-12, abs=floor)


def assert_close_in_float32(states, rows, scale, strategy, perms=None):
    """The kernel on float32 states against the float64 brute force of the
    same values, at float32 tolerances."""
    loss, d, d_scale = kernel(states, rows, scale, strategy, perms)
    identity = {m: np.arange(next(iter(states.values())).shape[0]) for m in states}
    ref_loss, ref_d, ref_ds = brute_force_grads(
        {m: v.astype(np.float64) for m, v in states.items()}, rows or identity,
        scale, strategy, perms,
    )
    assert loss == pytest.approx(ref_loss, rel=1e-5, abs=1e-5)
    for m in states:
        np.testing.assert_allclose(d[m], ref_d[m], rtol=1e-4, atol=1e-5)
    assert d_scale == pytest.approx(ref_ds, rel=1e-4, abs=1e-6)


@pytest.fixture()
def unique_calls(monkeypatch):
    """One entry per np.unique call: the tuple numbering's sorting fallback."""
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    return calls


# (strategy, M): "on" at M = 2, 3, 4, "on2" at M = 3, and the pair loss
KERNEL_CASES = [("on", 2), ("on", 3), ("on", 4), ("on2", 3), ("pairwise", 3)]
SCALES = [math.exp(k) for k in range(-1, 5)]


class TestKernelExactness:
    """The state-grouped kernel against the dense brute force in float64,
    loss and gradients to 1e-12 relative (absolute floor 1e-12 of the
    largest gradient), at scales e^-1 .. e^4."""

    @staticmethod
    def perms_for(names, n, strategy, seed=3):
        if strategy != "on":
            return None
        return {a: objectives.draw_anchor_perms(seed, names, a, n) for a in names}

    @pytest.mark.parametrize("scale", SCALES, ids=lambda s: f"s{s:.3g}")
    @pytest.mark.parametrize("strategy,m", KERNEL_CASES)
    def test_discrete_inputs_with_duplicate_rows(self, strategy, m, scale):
        """30 rows over 4 states per modality: every state repeats."""
        rng = np.random.default_rng(40 + m)
        names = "wxyz"[:m]
        states = rand_reps(rng, names, 4, 3)
        rows = {k: rng.integers(0, 4, 30) for k in names}
        perms = self.perms_for(names, 30, strategy)
        assert_matches_brute_force(states, rows, scale, strategy, perms)

    @pytest.mark.parametrize("scale", SCALES, ids=lambda s: f"s{s:.3g}")
    @pytest.mark.parametrize("strategy,m", KERNEL_CASES)
    def test_continuous_all_distinct_inputs(self, strategy, m, scale):
        rng = np.random.default_rng(50 + m)
        names = "wxyz"[:m]
        states = rand_reps(rng, names, 7, 3)
        perms = self.perms_for(names, 7, strategy)
        assert_matches_brute_force(states, None, scale, strategy, perms)

    @pytest.mark.parametrize("log_scale,gap", [(4, 90), (7, 800)])
    @pytest.mark.parametrize("grouped", [False, True], ids=["distinct", "grouped"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_dominant_swapped_out_column(self, m, grouped, log_scale, gap):
        """The candidate row 0 drops from its own column scores more than
        ``gap`` nats above everything row 0 keeps, and no other column holds
        it, so total - E[w] would cancel to 0; past about 745 nats every
        term row 0 keeps underflows under a shift its state shares.
        "grouped": row 0 shares its anchor state with rows 2 and 3, whose
        denominators keep that column."""
        rng = np.random.default_rng(60)
        n, scale, e0 = 6, math.exp(log_scale), np.array([1.0, 0.0, 0.0])

        def unit(first):
            v = rng.standard_normal(2)
            return np.concatenate([[first], np.sqrt(1 - first**2) * v / np.linalg.norm(v)])

        names = "xyz"[:m]
        firsts = {"y": -0.9} if m == 2 else {"y": 0.9, "z": -0.9}
        states = {"x": np.stack([e0] + [unit(0.3) for _ in range(n - 1)])}
        for k in names[1:]:
            states[k] = np.stack([e0 if j == 1 else unit(firsts[k]) for j in range(n)])
        shift = np.roll(np.arange(n), -1)  # column j holds the others' row j + 1
        perms = {a: [shift] * (m - 1) for a in names}
        # column 0's permuted candidate never enters row 0, only the others
        logits, _ = dense_logits(states, "x", "on", scale, perms["x"])
        dropped = scale * mip([e0] + [states[k][shift[0]] for k in names[1:]])
        assert dropped - logits[0].max() > gap
        rows = None
        if grouped:
            rows = {k: np.arange(n) for k in names}
            rows["x"] = np.array([0, 1, 0, 0, 1, 1])
            states["x"] = states["x"][:2]
        assert_matches_brute_force(states, rows, scale, "on", perms)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_positive_far_above_every_column(self, dtype):
        """One-hot rows at scale e^7: the positives of rows 0 and 2..5 score
        about 1100 nats above every column their anchor state keeps, past
        where exp overflows under the state's own shift.  Row 0 also drops
        column 0, its state's only high column, so it is computed alone."""
        n, eye = 6, np.eye(6)
        half = (eye[0] + eye[1]) / math.sqrt(2.0)
        states = {"x": eye.copy(), "y": eye.copy(), "z": eye.copy()}
        states["y"][1] = states["z"][1] = half
        perms = {a: [np.roll(np.arange(n), -1), np.array([1, 0, 3, 4, 5, 2])] for a in "xyz"}
        logits, _ = dense_logits(states, "x", "on", math.exp(7), perms["x"])
        assert logits[2, 2] - np.delete(logits[2], 2).max() > 1000
        assert logits[0, 0] - np.delete(logits[0], 0).max() > 1000
        states = {k: v.astype(dtype) for k, v in states.items()}
        if dtype == np.float64:
            assert_matches_brute_force(states, None, math.exp(7), "on", perms)
        else:
            loss, d, d_scale = kernel(states, None, math.exp(7), "on", perms)
            ref_loss, ref_d, ref_ds = brute_force_grads(
                {k: v.astype(np.float64) for k, v in states.items()},
                {k: np.arange(n) for k in states}, math.exp(7), "on", perms,
            )
            assert loss == pytest.approx(ref_loss, rel=1e-5, abs=1e-5)
            for k in states:
                np.testing.assert_allclose(d[k], ref_d[k], rtol=1e-4, atol=1e-5)
            assert d_scale == pytest.approx(ref_ds, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("blocks", ["columns", "one-state-blocks"])
    @pytest.mark.parametrize("exact", [False, True], ids=["shared-shift", "exact-row"])
    def test_unheld_positive_far_above_every_column(self, monkeypatch, exact, blocks, dtype):
        """Rows 0-2 share anchor state e0, rows 3-5 state e1, at scale
        e^7.5.  Row 0's positive (e0, e0) scores 1, and no column holds it;
        every column of state e0 scores at most 0.5, about 900 nats below,
        past where exp underflows.  Were its count-0 column to set the
        state's shift, rows 1 and 2 would keep nothing.  "exact-row": row 0
        also drops column 0, (h, h), the only column of state e0 that
        scores 0.5, so it is computed alone.  "one-state-blocks": a block
        budget of one score puts each anchor state in a block of its own,
        count-0 positive columns and lone rows included."""
        e0, e1, e2 = np.eye(3)
        h = (e0 + e1) / math.sqrt(2.0)
        states = {"x": np.stack([e0, e1]), "y": np.stack([e0, h, e1, e2])}
        states["z"] = states["y"].copy()
        rows = {
            "x": np.array([0, 0, 0, 1, 1, 1]),
            "y": np.array([0, 3, 3, 2, 1, 3]),
            "z": np.array([0, 3, 2, 2, 1, 3]),
        }
        # column j holds (y at row first[j], z at row second[j]); row 4's is (h, h)
        first, second = np.array([3, 0, 1, 2, 4, 5]), np.array([3, 1, 0, 2, 4, 5])
        if exact:
            first[[0, 4]], second[[0, 4]] = first[[4, 0]], second[[4, 0]]
        perms = {a: [first, second] for a in "xyz"}
        scale = math.exp(7.5)
        assert (0, 0) not in {(rows["y"][i], rows["z"][j]) for i, j in zip(first, second)}
        held = states["y"][rows["y"][first]] * states["z"][rows["z"][second]]
        on_e0 = scale * (held @ e0)  # the columns' scores against state e0
        assert scale - on_e0.max() > 800  # row 0's positive scores scale
        if exact:
            assert on_e0[0] - np.delete(on_e0, 0).max() > 800
        if blocks == "one-state-blocks":
            monkeypatch.setattr(objectives, "_BLOCK_SCORES", 1)
        states = {k: v.astype(dtype) for k, v in states.items()}
        if dtype == np.float64:
            assert_matches_brute_force(states, rows, scale, "on", perms)
        else:
            assert_close_in_float32(states, rows, scale, "on", perms)

    @pytest.mark.parametrize("strategy,m", KERNEL_CASES)
    def test_unused_state_far_above_the_rest(self, strategy, m):
        """State 3 of every modality enters no row and scores hundreds of
        nats above the used states: it must not set any shift."""
        rng = np.random.default_rng(80 + m)
        names = "wxyz"[:m]
        states = rand_reps(rng, names, 4, 3)
        for k in names:
            states[k][3] = 40.0 * np.abs(states[k][3])
        rows = {k: rng.integers(0, 3, 12) for k in names}
        perms = self.perms_for(names, 12, strategy)
        assert_matches_brute_force(states, rows, math.exp(2), strategy, perms)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("strategy,m", KERNEL_CASES)
    def test_non_finite_raises(self, strategy, m, bad):
        rng = np.random.default_rng(70)
        names = "wxyz"[:m]
        states = rand_reps(rng, names, 4, 3)
        states[names[-1]][2, 1] = bad
        rows = {k: rng.integers(0, 4, 12) for k in names}
        rows[names[-1]][0] = 2
        perms = self.perms_for(names, 12, strategy)
        with pytest.raises(NonFiniteError):
            kernel(states, rows, 1.3, strategy, perms)
        with pytest.raises(NonFiniteError):
            kernel(states, None, 1.3, strategy, self.perms_for(names, 4, strategy))

    @pytest.mark.parametrize("m", [3, 4])
    def test_continuous_inputs_past_the_lookup_range(self, m, unique_calls):
        """40 distinct states per modality: the 40 x 40 non-anchor pairs
        are too many slots for the 80 tuples, so tuple ids are sorted."""
        rng = np.random.default_rng(90 + m)
        names = "wxyz"[:m]
        states = rand_reps(rng, names, 40, 3)
        perms = self.perms_for(names, 40, "on")
        assert_matches_brute_force(states, None, math.exp(1), "on", perms)
        assert unique_calls

    @pytest.mark.parametrize(
        "n_states,n_rows,grid",
        [(4, 30, True), (40, None, False), (20, 6, False)],
        ids=["dense-grid", "continuous", "few-tuples-in-large-grid"],
    )
    def test_table_fold_sides(self, monkeypatch, n_states, n_rows, grid):
        """M = 3 folds the table gradient through the (first x second) state
        grid when it is dense next to the table, and scatters it otherwise:
        16 cells for 7-16 tuples; 1,600 cells for about 80 tuples; 400 cells
        for at most 12 tuples, most states unused."""
        scatters = []
        scatter = objectives._scatter_rows
        monkeypatch.setattr(
            objectives, "_scatter_rows", lambda *a: scatters.append(1) or scatter(*a)
        )
        rng = np.random.default_rng(80 + n_states)
        states = rand_reps(rng, "xyz", n_states, 3)
        rows = n_rows and {k: rng.integers(0, n_states, n_rows) for k in "xyz"}
        perms = self.perms_for("xyz", n_rows or n_states, "on")
        assert_matches_brute_force(states, rows, math.exp(1), "on", perms)
        assert bool(scatters) != grid

    def test_rows_out_of_range_rejected(self):
        rng = np.random.default_rng(71)
        states = rand_reps(rng, "xy", 3, 2)
        rows = {"x": np.array([0, 1, 2]), "y": np.array([0, 1, 3])}
        with pytest.raises(ValueError):
            symile_loss_grads(states, 1.0, "on", seed=0, rows=rows)


class TestUniqueInverse:
    """The tuple numbering equals np.unique's values and inverse, on the
    lookup over the key range and on the sorting fallback."""

    @pytest.mark.parametrize("size,sorts", [(50, False), (240, False), (241, True), (10**6, True)])
    def test_matches_np_unique(self, size, sorts, unique_calls):
        rng = np.random.default_rng(size)
        keys = rng.integers(0, min(size, 45), 30)  # repeats, and most slots empty
        keys[0] = size - 1
        expected = np.unique(keys, return_inverse=True)
        unique_calls.clear()
        got = objectives._unique_inverse(keys, size)
        assert bool(unique_calls) == sorts
        for g, e in zip(got, expected, strict=True):
            assert g.dtype == e.dtype
            np.testing.assert_array_equal(g, e)


def lone_row_batch(dtype):
    """One-hot states at scale e^7 where x's row 0 drops column 0, its
    state's only high column, so the kernel computes that row on its own
    (see ``test_positive_far_above_every_column``): (states, perms, scale)."""
    n, eye = 6, np.eye(6)
    half = (eye[0] + eye[1]) / math.sqrt(2.0)
    states = {"x": eye.copy(), "y": eye.copy(), "z": eye.copy()}
    states["y"][1] = states["z"][1] = half
    perms = {a: [np.roll(np.arange(n), -1), np.array([1, 0, 3, 4, 5, 2])] for a in "xyz"}
    return {k: v.astype(dtype) for k, v in states.items()}, perms, math.exp(7)


class TestLoneRows:
    """A row whose dropped column holds more than half its state's sum is
    computed by ``row_softmax_cross_entropy`` as the kernel module names
    it, with its positive as column 0 of count 1."""

    @pytest.mark.parametrize("blocks", ["columns", "one-state-blocks"])
    def test_lone_row_calls_the_softmax_ce(self, monkeypatch, blocks):
        calls = []
        ce = objectives.row_softmax_cross_entropy

        def spy(logits, targets, counts=None):
            calls.append((logits.shape, targets.copy(), counts.copy()))
            return ce(logits, targets, counts)

        monkeypatch.setattr(objectives, "row_softmax_cross_entropy", spy)
        if blocks == "one-state-blocks":
            monkeypatch.setattr(objectives, "_BLOCK_SCORES", 1)
        states, perms, scale = lone_row_batch(np.float64)
        assert_matches_brute_force(states, None, scale, "on", perms)
        assert calls, "the lone row did not go through row_softmax_cross_entropy"
        for shape, targets, counts in calls:
            assert counts.shape == shape
            np.testing.assert_array_equal(targets, 0)
            np.testing.assert_array_equal(counts[:, 0], 1)


class _RecordingNumpy:
    """numpy, except that ``add.at`` records (target dtype, values)."""

    def __init__(self, record):
        def at(target, index, values):
            record.append((target.dtype, values))
            return np.add.at(target, index, values)

        self.add = type("add", (), {"at": staticmethod(at)})

    def __getattr__(self, name):
        return getattr(np, name)


class TestTypedScatters:
    """Every ``np.add.at`` in the kernel adds values of its target's dtype:
    a Python float drops numpy off its fast indexed loop (over 20x slower
    on a float32 block), which changes no result and leaves no other trace."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("path", ["identity", "swap", "lone-row"])
    def test_scatter_values_have_the_target_dtype(self, monkeypatch, path, dtype):
        record = []
        monkeypatch.setattr(objectives, "np", _RecordingNumpy(record))
        if path == "lone-row":
            states, perms, scale = lone_row_batch(dtype)
            symile_loss_grads(states, scale, "on", perms=perms)
        else:
            rng = np.random.default_rng(5)
            states = {k: v.astype(dtype) for k, v in rand_reps(rng, "xyz", 4, 3).items()}
            rows = {k: rng.integers(0, 4, 20) for k in "xyz"}
            if path == "identity":
                pairwise_clip_loss_grads(states, 2.0, rows=rows)
            else:
                symile_loss_grads(states, 2.0, "on", seed=1, rows=rows)
        assert record
        for target, values in record:
            assert isinstance(values, (np.ndarray, np.generic)), type(values)
            assert values.dtype == target


class TestRowBlocks:
    """The kernel runs one block of anchor states at a time; a small block
    budget makes N = 37 distinct states span blocks of 7, the last with
    2, in float64.  For "on" each anchor's table holds 73 or 74 tuples, the
    N permuted columns and the matched tuples no column holds, so a budget
    of 7 x 2N scores gives blocks of 7, and one of 20 x 2N ("on-columns")
    blocks of 20 and 17."""

    N, ROWS = 37, 7
    BUDGETS = {"on": ROWS * 2 * N, "on2": ROWS * N**2, "on-columns": 20 * 2 * N}

    def batch(self, seed=30):
        rng = np.random.default_rng(seed)
        reps = rand_reps(rng, "xyz", self.N, 5)
        perms = {
            a: objectives.draw_anchor_perms(seed, list(reps), a, self.N) for a in reps
        }
        return reps, perms

    def widths(self, strategy, perms):
        """Candidate states per anchor: N^2 for "on2"; for "on" the table's
        tuples, the distinct non-anchor row tuples over the columns and the
        matched tuples (i, i)."""
        if strategy == "on2":
            return {a: self.N**2 for a in "xyz"}
        matched = {(i, i) for i in range(self.N)}
        return {a: len(set(zip(*perms[a])) | matched) for a in "xyz"}

    def blocked(self, mp, strategy, perms, record, budget=None):
        """Set the block budget (by default ``BUDGETS[strategy]``) and record
        every block's raw scores; returns the expected block sizes."""
        limit = self.BUDGETS[budget or strategy]
        widths = self.widths(strategy, perms)
        mp.setattr(objectives, "_BLOCK_SCORES", limit)
        shifted = objectives._shifted_logits

        def spy(raw, *args):
            record.append(raw.copy())
            return shifted(raw, *args)

        mp.setattr(objectives, "_shifted_logits", spy)
        sizes = []
        for a in "xyz":
            step = max(1, limit // widths[a])
            sizes += [min(step, self.N - s) for s in range(0, self.N, step)]
        return sizes

    @pytest.mark.parametrize(
        "strategy,budget,first_sizes",
        [("on", "on", [7, 7, 7, 7, 7, 2]), ("on", "on-columns", [20, 17]),
         ("on2", "on2", [7, 7, 7, 7, 7, 2])],
        ids=["on", "on-columns", "on2"],
    )
    def test_blocked_matches_single_block_and_brute_force(
        self, monkeypatch, strategy, budget, first_sizes
    ):
        reps, perms = self.batch()
        perms = perms if strategy == "on" else None
        loss1, bd1, d_reps1, d_scale1 = symile_loss_grads(reps, 1.7, strategy, perms=perms)
        blocks = []
        sizes = self.blocked(monkeypatch, strategy, perms, blocks, budget)
        loss, bd, d_reps, d_scale = symile_loss_grads(reps, 1.7, strategy, perms=perms)
        assert [b.shape[0] for b in blocks] == sizes
        assert sizes[: len(first_sizes)] == first_sizes
        ref_loss, ref_bd = brute_force_loss(reps, 1.7, strategy, perms)
        assert loss == pytest.approx(ref_loss, abs=1e-12)
        assert loss == pytest.approx(loss1, abs=1e-12)
        for m in reps:
            assert bd[m] == pytest.approx(ref_bd[m], abs=1e-12)
            assert bd[m] == pytest.approx(bd1[m], abs=1e-12)
            np.testing.assert_allclose(d_reps[m], d_reps1[m], rtol=0, atol=1e-12)
        assert d_scale == pytest.approx(d_scale1, abs=1e-12)

    def test_gradient_check_with_one_row_per_block(self, monkeypatch):
        monkeypatch.setattr(objectives, "_BLOCK_SCORES", 1)
        report = run_gradient_check(n_configs=10, seed=3)
        assert report.passed, dict(zip(report.labels, report.max_rel_errors))

    @pytest.mark.parametrize("strategy", ["on", "on2"])
    def test_nan_in_last_block_raises(self, monkeypatch, strategy):
        reps, perms = self.batch()
        perms = perms if strategy == "on" else None
        reps["x"][self.N - 1, 0] = np.nan
        blocks = []
        self.blocked(monkeypatch, strategy, perms, blocks)
        with pytest.raises(NonFiniteError):
            symile_loss_grads(reps, 1.7, strategy, perms=perms)
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


def test_continuous_on_memory_stays_bounded():
    """One "on" call with every row its own state (N=1000, M=3, D=16, in
    float32) has about 2N table tuples, half of them count-0 positive
    columns, and scores them a block of anchor states at a time: its
    peak stays well under the 7.6 MiB of one N x 2N score matrix."""
    rng = np.random.default_rng(33)
    reps = {m: r.astype(np.float32) for m, r in rand_reps(rng, "xyz", 1000, 16).items()}
    tracemalloc.start()
    try:
        symile_loss_grads(reps, 5.0, "on", seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"
