"""Exactness tests for the discrete information oracle.

Derived expectations are either closed forms worked out independently of
the implementation (binary entropy algebra, direct enumeration over tiny
supports) or brute-force reference computations done inline with plain
Python loops.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symile.errors import CapacityError
from symile.oracle import (
    JointTable,
    TabularScorer,
    bound_value,
    build_synth_table,
    build_xor1d_table,
    conditional_mi,
    contrastive_sampler,
    entropy,
    marginal,
    mutual_information,
    optimal_scorer,
    total_correlation,
)

LN2 = math.log(2.0)


def brute_entropy(probs):
    return -sum(p * math.log(p) for p in probs if p > 0.0)


def binary_entropy(p):
    return 0.0 if p in (0.0, 1.0) else -(p * math.log(p) + (1 - p) * math.log(1 - p))


def random_table(rng, names=("x", "y", "z"), arities=(2, 2, 2)):
    raw = rng.random(int(np.prod(arities))) ** 2  # squared for occasional near-zeros
    return JointTable(names, arities, raw / raw.sum())


class TestJointTable:
    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            JointTable(("x",), (2,), np.array([0.25, 0.5]))
        with pytest.raises(ValueError):
            JointTable(("x",), (2,), np.array([-0.1, 1.1]))

    def test_state_index_little_endian(self):
        t = build_xor1d_table()
        # first variable fastest: (a=1,b=0,c=0) -> index 1, (a=0,b=0,c=1) -> 4
        assert t.state_index({"a": 1, "b": 0, "c": 0}) == 1
        assert t.state_index({"a": 0, "b": 0, "c": 1}) == 4

    def test_marginal_is_valid_table(self):
        rng = np.random.default_rng(0)
        t = random_table(rng)
        m = marginal(t, ("x", "z"))
        assert m.var_names == ("x", "z")
        assert abs(m.probs.sum() - 1.0) < 1e-12


class TestXorTable:
    def test_support_masses(self):
        t = build_xor1d_table()
        assert t.probs[t.state_index({"a": 0, "b": 0, "c": 0})] == 0.25
        assert t.probs[t.state_index({"a": 1, "b": 1, "c": 1})] == 0.0
        on_support = [s for s in range(8) if t.probs[s] > 0]
        assert len(on_support) == 4

    def test_all_marginals_fair(self):
        t = build_xor1d_table()
        for v in "abc":
            np.testing.assert_allclose(marginal(t, (v,)).probs, [0.5, 0.5])

    def test_pairwise_independent_but_jointly_dependent(self):
        t = build_xor1d_table()
        for x, y in itertools.combinations("abc", 2):
            assert abs(mutual_information(t, (x,), (y,))) <= 1e-12
        assert abs(conditional_mi(t, ("a",), ("b",), ("c",)) - LN2) <= 1e-12

    def test_entropies(self):
        t = build_xor1d_table()
        assert entropy(t, ("a",)) == pytest.approx(LN2, abs=1e-15)
        # four equiprobable support states
        assert entropy(t, ("a", "b", "c")) == pytest.approx(2 * LN2, abs=1e-12)

    def test_point_mass_entropy_zero(self):
        t = JointTable(("x",), (4,), np.array([0.0, 1.0, 0.0, 0.0]))
        assert entropy(t, ("x",)) == 0.0

    def test_determined_variable_mi(self):
        t = build_xor1d_table()
        assert mutual_information(t, ("a", "b"), ("c",)) == pytest.approx(LN2, abs=1e-12)

    def test_total_correlation_is_ln2(self):
        t = build_xor1d_table()
        assert total_correlation(t, (("a",), ("b",), ("c",))) == pytest.approx(
            LN2, abs=1e-12
        )

    def test_overlap_rejected(self):
        t = build_xor1d_table()
        with pytest.raises(ValueError):
            mutual_information(t, ("a",), ("a",))
        with pytest.raises(KeyError):
            entropy(t, ("nope",))


class TestSynthTable:
    def test_p1_equals_xor(self):
        np.testing.assert_array_equal(
            build_synth_table(1.0, 1, "shared").probs, build_xor1d_table().probs
        )

    def test_p0_copies_a(self):
        t = build_synth_table(0.0, 1, "shared")
        p_copy = sum(
            t.probs[s] for s in range(8) if (s & 1) == ((s >> 2) & 1)
        )
        assert p_copy == pytest.approx(1.0, abs=1e-15)
        assert mutual_information(t, ("a",), ("c",)) == pytest.approx(LN2, abs=1e-12)
        assert conditional_mi(t, ("a",), ("b",), ("c",)) == pytest.approx(0.0, abs=1e-12)

    def test_copy_probability_at_half(self):
        # P(c = a) = P(i=0) + P(i=1) P(b=0) = 1 - p/2 = 0.75 at p = 0.5
        t = build_synth_table(0.5, 1, "shared")
        p_copy = sum(t.probs[s] for s in range(8) if (s & 1) == ((s >> 2) & 1))
        assert p_copy == pytest.approx(0.75, abs=1e-15)

    def test_cmi_closed_form_and_monotone(self):
        # I(a;b|c) = H2(p/2) - H2(p)/2, derived by conditioning on c
        prev = -1.0
        for p in np.linspace(0.0, 1.0, 11):
            t = build_synth_table(float(p), 1, "shared")
            cmi = conditional_mi(t, ("a",), ("b",), ("c",))
            assert cmi == pytest.approx(
                binary_entropy(p / 2) - binary_entropy(p) / 2, abs=1e-12
            )
            assert cmi > prev
            prev = cmi

    def test_always_zero_pairwise_terms(self):
        for p in np.linspace(0.0, 1.0, 11):
            for dims in (1, 2):
                t = build_synth_table(float(p), dims, "shared")
                a = ("a",) if dims == 1 else ("a1", "a2")
                b = ("b",) if dims == 1 else ("b1", "b2")
                c = ("c",) if dims == 1 else ("c1", "c2")
                assert abs(mutual_information(t, a, b)) <= 1e-12
                assert abs(mutual_information(t, b, c)) <= 1e-12

    def test_per_coordinate_factorizes(self):
        t2 = build_synth_table(0.3, 2, "per_coordinate")
        t1 = build_synth_table(0.3, 1, "per_coordinate")
        # per-coordinate mode makes coordinates independent
        tc = total_correlation(t2, (("a1", "b1", "c1"), ("a2", "b2", "c2")))
        assert abs(tc) <= 1e-12
        m = marginal(t2, ("a1", "b1", "c1"))
        np.testing.assert_allclose(m.probs, t1.probs, atol=1e-15)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_synth_table(0.5, 6)

    def test_invalid_p_hat(self):
        with pytest.raises(ValueError):
            build_synth_table(1.5, 1)


class TestInformationProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_chain_identity(self, seed):
        # I(X; Y,Z) = I(X;Y) + I(X;Z|Y)
        t = random_table(np.random.default_rng(seed))
        lhs = mutual_information(t, ("x",), ("y", "z"))
        rhs = mutual_information(t, ("x",), ("y",)) + conditional_mi(
            t, ("x",), ("z",), ("y",)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nonnegativity(self, seed):
        t = random_table(np.random.default_rng(seed))
        assert mutual_information(t, ("x",), ("y",)) >= -1e-12
        assert conditional_mi(t, ("x",), ("y",), ("z",)) >= -1e-12
        assert total_correlation(t, (("x",), ("y",), ("z",))) >= -1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_three_way_decomposition(self, seed):
        # 3 TC = 2 [sum of pairwise MI] + [sum of conditional MI], and the
        # anchored form TC = mean of I(x;y) + I(z;x,y) over rotations.
        t = random_table(np.random.default_rng(seed))
        tc = total_correlation(t, (("x",), ("y",), ("z",)))
        pair = (
            mutual_information(t, ("x",), ("y",))
            + mutual_information(t, ("y",), ("z",))
            + mutual_information(t, ("x",), ("z",))
        )
        cond = (
            conditional_mi(t, ("x",), ("y",), ("z",))
            + conditional_mi(t, ("y",), ("z",), ("x",))
            + conditional_mi(t, ("x",), ("z",), ("y",))
        )
        assert 3 * tc == pytest.approx(2 * pair + cond, abs=1e-10)
        anchored = (
            mutual_information(t, ("x",), ("y",))
            + mutual_information(t, ("z",), ("x", "y"))
            + mutual_information(t, ("y",), ("z",))
            + mutual_information(t, ("x",), ("y", "z"))
            + mutual_information(t, ("x",), ("z",))
            + mutual_information(t, ("y",), ("x", "z"))
        )
        assert tc == pytest.approx(anchored / 3.0, abs=1e-10)

    def test_empty_conditioning_reduces_to_mi(self):
        t = random_table(np.random.default_rng(7))
        assert conditional_mi(t, ("x",), ("y",), ()) == mutual_information(
            t, ("x",), ("y",)
        )

    def test_tc_matches_kl_by_enumeration(self):
        t = random_table(np.random.default_rng(11))
        groups = (("x",), ("y",), ("z",))
        margs = [marginal(t, g).probs for g in groups]
        kl = 0.0
        for s in range(8):
            p = t.probs[s]
            if p == 0.0:
                continue
            q = margs[0][s & 1] * margs[1][(s >> 1) & 1] * margs[2][(s >> 2) & 1]
            kl += p * math.log(p / q)
        assert total_correlation(t, groups) == pytest.approx(kl, abs=1e-12)


GROUPS3 = (("a",), ("b",), ("c",))


class TestOptimalScorer:
    def test_xor_scores(self):
        t = build_xor1d_table()
        g = optimal_scorer(t, GROUPS3)
        s_pos = t.state_index({"a": 0, "b": 0, "c": 0})
        s_zero = t.state_index({"a": 1, "b": 1, "c": 1})
        assert g.scores[s_pos] == pytest.approx(math.log(0.25 / 0.125), abs=1e-12)
        assert g.scores[s_zero] == -np.inf

    def test_independent_table_scores_zero(self):
        probs = np.full(8, 1.0 / 8.0)
        t = JointTable(("a", "b", "c"), (2, 2, 2), probs)
        g = optimal_scorer(t, GROUPS3)
        np.testing.assert_allclose(g.scores, 0.0, atol=1e-12)

    def test_groups_must_cover(self):
        """The scorer, the bound and its sampler refuse groups that leave c
        out; the sampler would otherwise set c to 0 in every negative."""
        t = build_xor1d_table()
        partial = (("a",), ("b",))
        with pytest.raises(ValueError, match="cover every variable"):
            optimal_scorer(t, partial)
        with pytest.raises(ValueError, match="cover every variable"):
            contrastive_sampler(t, partial, 0)
        with pytest.raises(ValueError, match="cover every variable"):
            bound_value(t, TabularScorer(np.zeros(8), partial), 5, 10, seed=0)


class TestBoundValue:
    def test_n1_exactly_zero(self):
        t = build_xor1d_table()
        g = optimal_scorer(t, GROUPS3)
        est, se = bound_value(t, g, 1, 500, seed=3)
        assert est == 0.0 and se == 0.0

    def test_closed_form_at_n2_and_n4(self):
        # XOR with the optimal scorer admits an exact expectation:
        # bound(N) = log N - E[log(1 + K)], K ~ Binomial(N-1, 1/2),
        # because each negative lands on the support independently w.p. 1/2
        # and every support state scores exp(g*) = 2.
        t = build_xor1d_table()
        g = optimal_scorer(t, GROUPS3)
        for n in (2, 4):
            exact = math.log(n) - sum(
                math.comb(n - 1, k) * 0.5 ** (n - 1) * math.log(1 + k)
                for k in range(n)
            )
            est, se = bound_value(t, g, n, 200_000, seed=11)
            assert abs(est - exact) <= 4 * se
            assert se < 0.01

    def test_bounded_by_tc_and_tightens(self):
        t = build_xor1d_table()
        g = optimal_scorer(t, GROUPS3)
        tc = total_correlation(t, GROUPS3)
        prev, prev_se = -np.inf, 0.0
        for n in (2, 8, 32, 128):
            est, se = bound_value(t, g, n, 100_000, seed=5)
            assert est <= tc + 3 * se
            assert est >= prev - 3 * (se + prev_se)
            prev, prev_se = est, se
        # the large-N estimate approaches TC
        assert tc - prev < 0.02

    def test_anchor_symmetry(self):
        t = build_xor1d_table()
        g = optimal_scorer(t, GROUPS3)
        results = [bound_value(t, g, 8, 100_000, seed=13, anchor=i) for i in range(3)]
        for (e1, s1), (e2, s2) in itertools.combinations(results, 2):
            assert abs(e1 - e2) <= 3 * (s1 + s2)

    def test_independent_table_bound_near_zero(self):
        probs = np.full(8, 1.0 / 8.0)
        t = JointTable(("a", "b", "c"), (2, 2, 2), probs)
        g = optimal_scorer(t, GROUPS3)
        for n in (2, 16):
            est, se = bound_value(t, g, n, 20_000, seed=17)
            assert est <= 0.0 + 3 * se

    def test_suboptimal_scorer_still_lower_bound(self):
        t = build_xor1d_table()
        rng = np.random.default_rng(23)
        from symile.oracle import TabularScorer

        g = TabularScorer(rng.standard_normal(8), GROUPS3)
        tc = total_correlation(t, GROUPS3)
        est, se = bound_value(t, g, 32, 50_000, seed=23)
        assert est <= tc + 3 * se

    def test_validation(self):
        t = build_xor1d_table()
        g = optimal_scorer(t, GROUPS3)
        with pytest.raises(ValueError):
            bound_value(t, g, 0, 10, seed=0)
        with pytest.raises(ValueError):
            bound_value(t, g, 2, 0, seed=0)

    def test_wide_sample_refused_before_drawing(self, monkeypatch):
        """A uniform (1, 2**20 + 1) table anchored on x has Q = 2**20 + 1
        non-anchor states, so a sample has min(n - 1, Q) negative columns:
        2**20 at n = 2**20 + 1 runs, one more is refused before the sampler
        is built."""
        q = 2**20 + 1
        t = JointTable(("x", "y"), (1, q), np.full(q, 1.0 / q))
        g = TabularScorer(np.zeros(q), (("x",), ("y",)))
        est, _ = bound_value(t, g, 2**20 + 1, 1, seed=0)
        assert est == pytest.approx(0.0, abs=1e-9)  # every score is 0
        built = []
        monkeypatch.setattr("symile.oracle.contrastive_sampler", lambda *a: built.append(a))
        for n in (2**20 + 2, 2**40):
            with pytest.raises(CapacityError, match="2\\*\\*20"):
                bound_value(t, g, n, 1, seed=0)
        assert not built


def flat_index(values, arities):
    """Little-endian flat index by explicit strides (first value fastest)."""
    return sum(v * math.prod(arities[:i]) for i, v in enumerate(values))


def decode(s, arities):
    return [(s // math.prod(arities[:i])) % a for i, a in enumerate(arities)]


class TestMixedArities:
    """A random table with arities (2, 3, 4) against brute force over
    every assignment, with groups listed out of table order."""

    GROUPS = (("z",), ("y", "x"))

    @pytest.fixture()
    def table(self):
        return random_table(np.random.default_rng(31), ("x", "y", "z"), (2, 3, 4))

    def brute_marginal(self, table, names):
        arities = [table.arities[table.var_names.index(n)] for n in names]
        out = np.zeros(math.prod(arities))
        for values in itertools.product(*(range(a) for a in table.arities)):
            full = dict(zip(table.var_names, values))
            sub = flat_index([full[n] for n in names], arities)
            out[sub] += table.probs[flat_index(values, table.arities)]
        return out, tuple(arities)

    def test_state_index(self, table):
        seen = set()
        for values in itertools.product(*(range(a) for a in table.arities)):
            s = table.state_index(dict(zip(table.var_names, values)))
            assert s == flat_index(values, table.arities)
            seen.add(s)
        assert seen == set(range(table.n_states))

    def test_every_marginal_over_every_ordered_subset(self, table):
        for r in (1, 2, 3):
            for names in itertools.permutations(table.var_names, r):
                m = marginal(table, names)
                expected, arities = self.brute_marginal(table, names)
                assert m.var_names == names and m.arities == arities
                np.testing.assert_allclose(m.probs, expected, rtol=1e-12, atol=1e-15)

    def test_optimal_scorer_out_of_order_groups(self, table):
        scores = optimal_scorer(table, self.GROUPS).scores
        (pz, _), (pyx, _) = (self.brute_marginal(table, g) for g in self.GROUPS)
        for values in itertools.product(*(range(a) for a in table.arities)):
            x, y, z = values
            s = flat_index(values, table.arities)
            expected = math.log(table.probs[s] / (pz[z] * pyx[flat_index((y, x), (3, 2))]))
            assert scores[s] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("anchor", [0, 1])
    def test_sampler_out_of_order_groups(self, table, anchor):
        draw = contrastive_sampler(table, self.GROUPS, anchor)
        pos, neg, _ = draw(np.random.default_rng(5), 4000, 5)
        assert pos.shape == (4000,) and neg.shape == (4000, 4)
        pos_vals = np.array([decode(s, table.arities) for s in pos])  # columns x, y, z
        neg_vals = np.array([decode(s, table.arities) for s in neg.ravel()]).reshape(4000, 4, 3)
        columns = {"x": 0, "y": 1, "z": 2}
        anchor_cols = [columns[n] for n in self.GROUPS[anchor]]
        np.testing.assert_array_equal(
            neg_vals[:, :, anchor_cols], np.repeat(pos_vals[:, None, anchor_cols], 4, axis=1)
        )

        other = self.GROUPS[1 - anchor]
        expected, arities = self.brute_marginal(table, other)
        sub = neg_vals[:, :, [columns[n] for n in other]].reshape(-1, len(other))
        freq = np.bincount([flat_index(v, arities) for v in sub], minlength=expected.size)
        freq = freq / sub.shape[0]
        se = np.sqrt(expected * (1.0 - expected) / sub.shape[0])
        assert np.all(np.abs(freq - expected) <= 4.0 * se)

    @pytest.mark.parametrize("anchor", [0, 1])
    def test_sampler_counts(self, table, anchor):
        # Q, the non-anchor product's state count, is 6 at anchor 0 (the
        # product is over y, x) and 4 at anchor 1 (over z).  At n - 1 == Q
        # the sampler draws negatives one by one; above it, counts.
        q_states = (6, 4)[anchor]
        draw = contrastive_sampler(table, self.GROUPS, anchor)
        pos, neg, counts = draw(np.random.default_rng(6), 10, q_states + 1)
        assert counts is None and neg.shape == (10, q_states)

        k, n = 4000, 3 * q_states
        pos, neg, counts = draw(np.random.default_rng(7), k, n)
        assert pos.shape == (k,) and neg.shape == counts.shape == (k, q_states)
        np.testing.assert_array_equal(counts.sum(axis=1), n - 1)
        assert counts.min() >= 0

        pos_vals = np.array([decode(s, table.arities) for s in pos])  # columns x, y, z
        neg_vals = np.array([decode(s, table.arities) for s in neg.ravel()])
        neg_vals = neg_vals.reshape(k, q_states, 3)
        columns = {"x": 0, "y": 1, "z": 2}
        anchor_cols = [columns[v] for v in self.GROUPS[anchor]]
        np.testing.assert_array_equal(
            neg_vals[:, :, anchor_cols],
            np.repeat(pos_vals[:, None, anchor_cols], q_states, axis=1),
        )

        # Every row lists the same Q product states; a column's total count
        # over k rows is Binomial(k (n - 1), its product mass).
        other = self.GROUPS[1 - anchor]
        expected, arities = self.brute_marginal(table, other)
        sub = neg_vals[:, :, [columns[v] for v in other]]
        state = [flat_index(v, arities) for v in sub[0]]
        assert sorted(state) == list(range(q_states))
        for row in sub[1:50]:
            assert [flat_index(v, arities) for v in row] == state
        trials = k * (n - 1)
        freq = counts.sum(axis=0) / trials
        p = expected[state]
        assert np.all(np.abs(freq - p) <= 4.0 * np.sqrt(p * (1.0 - p) / trials))

    def test_count_path_matches_exact_expectation(self, table):
        # anchor 1: the non-anchor product is z alone, Q = 4 < n - 1 = 8
        scorer = optimal_scorer(table, self.GROUPS)
        exact = exact_bound(table, scorer.scores, self.GROUPS, 1, 9)
        est, se = bound_value(table, scorer, 9, 100_000, seed=41, anchor=1)
        assert abs(est - exact) <= 3 * se


def compositions(total, parts):
    """Every tuple of ``parts`` non-negative integers summing to ``total``
    (stars and bars), as rows of an array."""
    rows = []
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(parts)])
    return np.array(rows)


def exact_bound(table, scores, groups, anchor, n):
    """E[bound] at batch size n by enumeration, for any scorer: a sum over
    the positive state and over the multinomial compositions of the n - 1
    negatives into the states of the non-anchor groups' product.  Plain
    loops over assignments; nothing from the sampler is reused."""
    names = table.var_names
    other = [v for i, g in enumerate(groups) if i != anchor for v in g]
    assignments = list(itertools.product(*(range(a) for a in table.arities)))
    group_marginals = []
    for i, g in enumerate(groups):
        if i != anchor:
            marg = {}
            for values in assignments:
                key = tuple(values[names.index(v)] for v in g)
                marg[key] = marg.get(key, 0.0) + table.probs[flat_index(values, table.arities)]
            group_marginals.append(sorted(marg.items()))
    # the product of the non-anchor group marginals, one entry per combination
    combos, q = [], []
    for parts in itertools.product(*group_marginals):
        combos.append(sum((key for key, _ in parts), ()))
        q.append(math.prod(p for _, p in parts))
    q = np.array(q)
    comps = compositions(n - 1, len(q))
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
    log_coef = math.lgamma(n) - np.array([sum(math.lgamma(c + 1) for c in row) for row in comps])
    log_weight = log_coef + np.where(comps > 0, comps * log_q, 0.0).sum(axis=1)
    weight = np.exp(log_weight)

    expectation = 0.0
    for values in assignments:
        p = table.probs[flat_index(values, table.arities)]
        if p == 0.0:
            continue
        g_pos = scores[flat_index(values, table.arities)]
        neg = []
        for combo in combos:
            swapped = list(values)
            for v, x in zip(other, combo):
                swapped[names.index(v)] = x
            neg.append(scores[flat_index(swapped, table.arities)])
        denom = np.exp(g_pos) + comps @ np.exp(np.array(neg))
        expectation += p * float(weight @ (g_pos - np.log(denom)))
    return math.log(n) + expectation


class TestCountPathAgainstExactExpectation:
    """The count path's estimate (Q = 4 < n - 1 on the XOR table) against
    exact expectations, within 3 standard errors at fixed seeds."""

    @pytest.mark.parametrize("n,seed", [(8, 51), (32, 52)])
    def test_xor_optimal_scorer(self, n, seed):
        t = build_xor1d_table()
        g = optimal_scorer(t, GROUPS3)
        exact = exact_bound(t, g.scores, GROUPS3, 0, n)
        # the closed form log n - E[log(1 + K)], K ~ Binomial(n - 1, 1/2)
        closed = math.log(n) - sum(
            math.comb(n - 1, k) * 0.5 ** (n - 1) * math.log(1 + k) for k in range(n)
        )
        assert exact == pytest.approx(closed, abs=1e-12)
        est, se = bound_value(t, g, n, 100_000, seed=seed)
        assert abs(est - exact) <= 3 * se

    @pytest.mark.parametrize("n,seed", [(8, 53), (32, 54)])
    def test_xor_random_scorer(self, n, seed):
        from symile.oracle import TabularScorer

        t = build_xor1d_table()
        g = TabularScorer(np.random.default_rng(seed).standard_normal(8), GROUPS3)
        exact = exact_bound(t, g.scores, GROUPS3, 0, n)
        est, se = bound_value(t, g, n, 100_000, seed=seed)
        assert abs(est - exact) <= 3 * se

    def test_xor_n128_closed_form(self):
        t = build_xor1d_table()
        g = optimal_scorer(t, GROUPS3)
        n = 128
        exact = math.log(n) - sum(
            math.comb(n - 1, k) * 0.5 ** (n - 1) * math.log(1 + k) for k in range(n)
        )
        est, se = bound_value(t, g, n, 100_000, seed=55)
        assert abs(est - exact) <= 3 * se
