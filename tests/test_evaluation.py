"""Zero-shot scoring, bootstrap, calibration and probe tests."""

import numpy as np
import pytest

from symile.data import Dataset, apply_missingness, gen_synth
from symile.evaluation import (
    BootstrapReport,
    RetrievalResult,
    all_binary_vectors,
    binary_vector_index,
    bootstrap_accuracy,
    calibrated_conditional,
    candidate_scores,
    classify_target,
    encode_modality,
    rank_with_prior,
    sufficient_statistic_probe,
)
from symile.model import init_params


class TestCandidateScores:
    def test_symile_scores_are_mips(self):
        params = init_params({"a": 2, "b": 2, "c": 2}, 4, seed=0)
        rng = np.random.default_rng(0)
        queries = {"a": rng.random(2), "c": rng.random(2)}
        candidates = rng.random((3, 2))
        scores = candidate_scores(params, "symile", queries, "b", candidates)[0]
        ra = encode_modality(params, "a", queries["a"])[0]
        rc = encode_modality(params, "c", queries["c"])[0]
        for k in range(3):
            rb = encode_modality(params, "b", candidates[k])[0]
            product_sum = sum(x * y * z for x, y, z in zip(ra, rb, rc))
            assert scores[k] == pytest.approx(product_sum, rel=1e-9)

    def test_duplicate_candidates_tie(self):
        params = init_params({"a": 2, "b": 2, "c": 2}, 4, seed=1)
        rng = np.random.default_rng(1)
        queries = {"a": rng.random(2), "c": rng.random(2)}
        cand = rng.random(2)
        scores = candidate_scores(params, "symile", queries, "b", np.stack([cand, cand]))[0]
        assert scores[0] == scores[1]

    def test_single_query_reduces_to_dot(self):
        params = init_params({"a": 2, "b": 2}, 4, seed=2)
        rng = np.random.default_rng(2)
        queries = {"a": rng.random(2)}
        candidates = rng.random((4, 2))
        sym = candidate_scores(params, "symile", queries, "b", candidates)[0]
        ra = encode_modality(params, "a", queries["a"])[0]
        rb = encode_modality(params, "b", candidates)
        np.testing.assert_allclose(sym, rb @ ra, atol=1e-12)
        clip = candidate_scores(params, "pairwise_clip", queries, "b", candidates)[0]
        np.testing.assert_allclose(clip, sym, atol=1e-12)

    def test_clip_scores_symmetric_in_queries(self):
        params = init_params({"a": 2, "b": 2, "c": 2}, 4, seed=3)
        rng = np.random.default_rng(3)
        qa, qc = rng.random(2), rng.random(2)
        candidates = rng.random((5, 2))
        s1 = candidate_scores(params, "pairwise_clip", {"a": qa, "c": qc}, "b", candidates)
        s2 = candidate_scores(params, "pairwise_clip", {"c": qc, "a": qa}, "b", candidates)
        np.testing.assert_array_equal(s1, s2)

    def test_scale_invariant_ranking(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal((6, 8))
        result = RetrievalResult(np.argmax(scores, axis=1), np.zeros(6, int))
        scaled = RetrievalResult(np.argmax(2.5 * scores, axis=1), np.zeros(6, int))
        np.testing.assert_array_equal(result.predicted, scaled.predicted)


class TestClassifyTarget:
    def test_binary_vector_indexing_roundtrip(self):
        vecs = all_binary_vectors(5)
        assert vecs.shape == (32, 5)
        np.testing.assert_array_equal(binary_vector_index(vecs), np.arange(32))

    def test_untrained_model_near_chance(self):
        ds = gen_synth(5000, 1.0, seed=5)
        params = init_params({"a": 5, "b": 5, "c": 5}, 16, seed=777)
        for objective in ("symile", "pairwise_clip"):
            acc = classify_target(params, objective, ds).accuracy
            assert 1 / 32 - 0.02 <= acc <= 1 / 32 + 0.02

    def test_ties_break_to_lowest_index(self):
        # constant-score model: encoder ignores input (W = 0)
        params = init_params({"a": 1, "b": 1, "c": 1}, 4, seed=6)
        for enc in params.encoders.values():
            enc.W[:] = 0.0
        ds = Dataset(
            {
                "a": np.array([[0.0], [1.0]]),
                "b": np.array([[1.0], [0.0]]),
                "c": np.array([[1.0], [1.0]]),
            }
        )
        result = classify_target(params, "symile", ds, target="b")
        np.testing.assert_array_equal(result.predicted, [0, 0])


class TestBootstrap:
    def test_all_correct(self):
        res = RetrievalResult(np.ones(50, int), np.ones(50, int))
        rep = bootstrap_accuracy(res, 10, seed=0)
        assert rep == BootstrapReport(1.0, 0.0)

    def test_all_wrong(self):
        res = RetrievalResult(np.zeros(50, int), np.ones(50, int))
        rep = bootstrap_accuracy(res, 10, seed=0)
        assert rep.mean_accuracy == 0.0 and rep.std_error == 0.0

    def test_se_matches_binomial_theory(self):
        # known-mean 0.5 correctness vector, n = 5000: the bootstrap SE
        # concentrates near sqrt(p(1-p)/n) ~ 0.00707; an independent
        # simulation puts its 1-99% range at [0.0034, 0.0108] for B = 10
        rng = np.random.default_rng(8)
        correct = rng.permutation(np.repeat([0, 1], 2500))
        res = RetrievalResult(correct, np.ones(5000, int))
        rep = bootstrap_accuracy(res, 10, seed=2)
        assert 0.003 <= rep.std_error <= 0.012
        assert abs(rep.mean_accuracy - 0.5) < 0.02

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        correct = (rng.random(100) < 0.7).astype(int)
        res = RetrievalResult(correct, np.ones(100, int))
        assert bootstrap_accuracy(res, 10, seed=5) == bootstrap_accuracy(res, 10, seed=5)

    def test_validation(self):
        res = RetrievalResult(np.ones(5, int), np.ones(5, int))
        with pytest.raises(ValueError):
            bootstrap_accuracy(res, 0, seed=0)


class TestCalibratedConditional:
    def test_uniform_scores_return_prior(self):
        prior = np.array([0.7, 0.2, 0.1])
        np.testing.assert_allclose(
            calibrated_conditional(np.zeros(3), prior), prior, atol=1e-12
        )

    def test_uniform_prior_preserves_argmax(self):
        scores = np.array([0.3, 1.9, -0.5])
        post = calibrated_conditional(scores, np.full(3, 1 / 3))
        assert np.argmax(post) == np.argmax(scores)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(10)
        scores = rng.standard_normal(6)
        prior = rng.random(6)
        prior /= prior.sum()
        p1 = calibrated_conditional(scores, prior)
        p2 = calibrated_conditional(scores + 123.456, prior)
        assert p1.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_bad_prior_rejected(self):
        with pytest.raises(ValueError):
            calibrated_conditional(np.zeros(2), np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            calibrated_conditional(np.zeros(2), np.array([1.2, -0.2]))


class TestRankWithPrior:
    def test_uniform_prior_matches_raw_order(self):
        scores = np.array([0.1, 2.0, -1.0, 0.4])
        ranking = rank_with_prior(scores, np.full(4, 0.25))
        np.testing.assert_array_equal(ranking, np.argsort(-scores, kind="stable"))

    def test_single_candidate(self):
        np.testing.assert_array_equal(
            rank_with_prior(np.array([3.0]), np.array([1.0])), [0]
        )

    def test_zero_prior_excluded_with_warning(self):
        with pytest.warns(UserWarning):
            ranking = rank_with_prior(np.array([5.0, 1.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(ranking, [1])


class TestSufficientStatisticProbe:
    def test_constant_target_perfect(self):
        rng = np.random.default_rng(11)
        mods = {
            "a": rng.integers(0, 2, (200, 2)).astype(float),
            "b": np.zeros((200, 2)),
            "c": rng.integers(0, 2, (200, 2)).astype(float),
        }
        ds = Dataset(mods)
        params = init_params({"a": 2, "b": 2, "c": 2}, 4, seed=12)
        result = sufficient_statistic_probe(params, ds, ds, target="b", epochs=5)
        assert result.accuracy == 1.0

    def test_rows_with_a_missing_target_are_left_out(self):
        # a zero-filled target would read as class 0 and teach the probe a
        # second class the complete test split never has
        rng = np.random.default_rng(11)
        mods = {
            "a": rng.integers(0, 2, (200, 2)).astype(float),
            "b": np.ones((200, 2)),
            "c": rng.integers(0, 2, (200, 2)).astype(float),
        }
        masked = apply_missingness(Dataset(mods), 0.5, seed=3)
        params = init_params({"a": 3, "b": 3, "c": 3}, 4, seed=12)
        result = sufficient_statistic_probe(params, masked, Dataset(mods), target="b", epochs=5)
        assert result.accuracy == 1.0

    def test_missing_queries_carry_their_indicator(self):
        # the target says whether a is observed; a's values are zero either
        # way, so only the missing indicator can tell the rows apart
        rng = np.random.default_rng(11)
        a_seen = rng.random(200) < 0.5
        mods = {
            "a": np.zeros((200, 2)),
            "b": np.column_stack([a_seen, ~a_seen]).astype(float),
            "c": np.zeros((200, 2)),
        }
        masks = {"a": a_seen, "b": np.ones(200, bool), "c": np.ones(200, bool)}
        ds = Dataset(mods, masks=masks)
        params = init_params({"a": 3, "b": 3, "c": 3}, 4, seed=12)
        result = sufficient_statistic_probe(params, ds, ds, target="b", epochs=50)
        assert result.accuracy == 1.0

    def test_no_information_target_stays_at_chance(self):
        # with the copy process the middle modality is independent of the
        # others, so no probe can beat the 1/32 floor
        tr = gen_synth(4000, 0.0, seed=13)
        te = gen_synth(2000, 0.0, seed=14)
        params = init_params({"a": 5, "b": 5, "c": 5}, 16, seed=15)
        result = sufficient_statistic_probe(params, tr, te, target="b", epochs=50)
        assert result.n_classes == 32
        assert result.accuracy < 1 / 32 + 0.02

    def test_untrained_model_far_below_trained(self):
        # untrained-but-injective encoders leak only a little of the
        # deterministic target to a weak linear probe
        tr = gen_synth(4000, 1.0, seed=13)
        te = gen_synth(2000, 1.0, seed=14)
        params = init_params({"a": 5, "b": 5, "c": 5}, 16, seed=15)
        result = sufficient_statistic_probe(params, tr, te, target="b", epochs=50)
        assert result.accuracy < 0.25

    def test_trained_features_support_perfect_probe(self):
        # once retrieval is solved, the product of the a- and c-
        # representations must retain everything needed to read off b
        from symile.data import SplitSpec, split
        from symile.train import TrainConfig, train

        spec = SplitSpec(4000, 500, 1500)
        ds = gen_synth(spec.total, 1.0, seed=20)
        tr, va, te = split(ds, spec)
        out = train(TrainConfig(objective="symile", epochs=25, batch_size=500, seed=0), tr, va)
        result = sufficient_statistic_probe(
            out.checkpoint.params, tr, te, target="b", seed=0
        )
        assert result.accuracy >= 0.99
