"""Determinism and distributional checks for the synthetic generators."""

import math

import numpy as np
import pytest

from symile.data import (
    SplitSpec,
    apply_missingness,
    encoder_inputs,
    gen_synth,
    gen_xor1d,
    split,
)
from symile.oracle import build_synth_table


def plugin_mi(x, y):
    """Plug-in mutual information of two binary samples, in nats."""
    joint = np.zeros((2, 2))
    for i in (0, 1):
        for j in (0, 1):
            joint[i, j] = np.mean((x == i) & (y == j))
    px, py = joint.sum(1), joint.sum(0)
    mi = 0.0
    for i in (0, 1):
        for j in (0, 1):
            if joint[i, j] > 0:
                mi += joint[i, j] * math.log(joint[i, j] / (px[i] * py[j]))
    return mi


class TestXor1d:
    def test_relation_holds(self):
        ds = gen_xor1d(5000, seed=1)
        a, b, c = (ds.modalities[k][:, 0] for k in "abc")
        assert set(np.unique(a)) <= {0.0, 1.0}
        np.testing.assert_array_equal(np.logical_xor(a, b).astype(float), c)

    def test_deterministic(self):
        d1, d2 = gen_xor1d(1000, seed=9), gen_xor1d(1000, seed=9)
        for k in "abc":
            np.testing.assert_array_equal(d1.modalities[k], d2.modalities[k])
        d3 = gen_xor1d(1000, seed=10)
        assert not np.array_equal(d1.modalities["a"], d3.modalities["a"])

    def test_marginal_concentration(self):
        ds = gen_xor1d(100_000, seed=2)
        assert 0.49 <= ds.modalities["a"].mean() <= 0.51

    def test_empirical_pairwise_mi_small(self):
        ds = gen_xor1d(100_000, seed=3)
        a, b, c = (ds.modalities[k][:, 0] for k in "abc")
        assert plugin_mi(a, b) <= 0.01
        assert plugin_mi(b, c) <= 0.01
        assert plugin_mi(a, c) <= 0.01

    def test_n_validation(self):
        with pytest.raises(ValueError):
            gen_xor1d(0, seed=0)


class TestSynth5d:
    def test_extremes(self):
        d0 = gen_synth(2000, 0.0, seed=4)
        np.testing.assert_array_equal(d0.modalities["c"], d0.modalities["a"])
        d1 = gen_synth(2000, 1.0, seed=4)
        np.testing.assert_array_equal(
            d1.modalities["c"],
            np.logical_xor(d1.modalities["a"], d1.modalities["b"]).astype(float),
        )

    def test_latent_mean(self):
        ds = gen_synth(100_000, 0.5, seed=5)
        assert ds.latents is not None and ds.latents.shape == (100_000,)
        assert 0.49 <= ds.latents.mean() <= 0.51

    def test_relation_given_latent(self):
        ds = gen_synth(5000, 0.5, seed=6)
        a, b, c, i = (
            ds.modalities["a"],
            ds.modalities["b"],
            ds.modalities["c"],
            ds.latents,
        )
        xor_rows = i == 1.0
        np.testing.assert_array_equal(
            c[xor_rows], np.logical_xor(a[xor_rows], b[xor_rows]).astype(float)
        )
        np.testing.assert_array_equal(c[~xor_rows], a[~xor_rows])

    @pytest.mark.parametrize("p_hat", [0.25, 0.75])
    def test_empirical_matches_exact_table(self, p_hat):
        # collapse each coordinate to an (a_j, b_j, c_j) triple and compare
        # against the exact one-dim mixture table cell by cell
        n = 100_000
        ds = gen_synth(n, p_hat, seed=7)
        table = build_synth_table(p_hat, 1, "shared")
        tol = 5.0 * np.sqrt(0.25 * 0.75 / n)
        for j in range(5):
            idx = (
                ds.modalities["a"][:, j]
                + 2 * ds.modalities["b"][:, j]
                + 4 * ds.modalities["c"][:, j]
            ).astype(int)
            freq = np.bincount(idx, minlength=8) / n
            assert np.abs(freq - table.probs).max() <= tol

    def test_per_coordinate_mode(self):
        ds = gen_synth(50_000, 0.5, seed=8, i_mode="per_coordinate")
        assert ds.latents.shape == (50_000, 5)
        # coordinates switch independently: rows rarely all-equal
        same = (ds.latents == ds.latents[:, [0]]).all(axis=1).mean()
        assert same < 0.1


class TestMissingness:
    def test_zero_probability_noop(self):
        ds = gen_synth(500, 0.5, seed=9)
        masked = apply_missingness(ds, 0.0, seed=9)
        assert all(m.all() for m in masked.masks.values())
        for k in "abc":
            np.testing.assert_array_equal(masked.modalities[k], ds.modalities[k])

    def test_rates_and_zero_fill(self):
        n = 100_000
        ds = gen_synth(n, 1.0, seed=10)
        masked = apply_missingness(ds, 0.5, seed=10)
        complete = np.ones(n, dtype=bool)
        for k in "abc":
            observed = masked.masks[k]
            assert 0.49 <= observed.mean() <= 0.51
            assert np.all(masked.modalities[k][~observed] == 0.0)
            complete &= observed
        # fraction of fully complete triples ~ (1-p)^3 = 0.125
        assert abs(complete.mean() - 0.125) < 0.01

    def test_double_masking_rejected(self):
        ds = apply_missingness(gen_xor1d(10, seed=0), 0.3, seed=0)
        with pytest.raises(ValueError):
            apply_missingness(ds, 0.3, seed=1)

    def test_encoder_inputs_indicator(self):
        ds = apply_missingness(gen_synth(100, 1.0, seed=11), 0.4, seed=11)
        inputs = encoder_inputs(ds)
        for k in "abc":
            assert inputs[k].shape == (100, 6)
            np.testing.assert_array_equal(
                inputs[k][:, 5], (~ds.masks[k]).astype(float)
            )
        complete = encoder_inputs(gen_synth(100, 1.0, seed=11))
        assert complete["a"].shape == (100, 5)


class TestSplit:
    def test_partition(self):
        ds = gen_synth(16_000, 0.5, seed=12)
        tr, va, te = split(ds, SplitSpec(10_000, 1_000, 5_000))
        assert (tr.n, va.n, te.n) == (10_000, 1_000, 5_000)
        stacked = np.vstack(
            [tr.modalities["a"], va.modalities["a"], te.modalities["a"]]
        )
        np.testing.assert_array_equal(stacked, ds.modalities["a"])

    def test_singletons(self):
        ds = gen_xor1d(3, seed=0)
        tr, va, te = split(ds, SplitSpec(1, 1, 1))
        assert (tr.n, va.n, te.n) == (1, 1, 1)

    def test_size_mismatch(self):
        ds = gen_xor1d(10, seed=0)
        with pytest.raises(ValueError):
            split(ds, SplitSpec(5, 4, 2))

    def test_split_carries_masks_and_latents(self):
        ds = apply_missingness(gen_synth(300, 0.5, seed=13), 0.2, seed=13)
        tr, va, te = split(ds, SplitSpec(100, 100, 100))
        assert tr.masks is not None and tr.latents is not None
        np.testing.assert_array_equal(tr.masks["b"], ds.masks["b"][:100])
        np.testing.assert_array_equal(te.latents, ds.latents[200:])
