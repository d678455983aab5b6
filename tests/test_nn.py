"""Numeric-core tests: encoders, softmax CE, the optimizer, finite
differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symile.errors import DegenerateInputError
from symile.nn import (
    AffineEncoder,
    adamw_step,
    compare_gradients,
    encode,
    finite_diff_grad,
    init_optimizer,
    normalize_rows,
    normalize_rows_backward,
    row_softmax_cross_entropy,
)


def affine_forward(enc, x):
    """The representations nn.encode gives for x as a batch of rows."""
    return encode(enc, np.atleast_2d(x))[0]


def softmax_cross_entropy(logits, target):
    """(loss, gradient) of one row through row_softmax_cross_entropy."""
    losses, grads = row_softmax_cross_entropy(
        np.asarray(logits, dtype=np.float64)[None], np.array([target])
    )
    return float(losses[0]), grads[0]


class TestAffineForward:
    def test_identity(self):
        enc = AffineEncoder(np.eye(3), np.zeros(3), normalize=False)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(affine_forward(enc, x), [x])

    def test_normalized_bias_only(self):
        enc = AffineEncoder(np.zeros((2, 3)), np.array([3.0, 4.0]), normalize=True)
        np.testing.assert_allclose(
            affine_forward(enc, np.zeros(3)), [[0.6, 0.8]], atol=1e-15
        )

    def test_zero_vector_rejected(self):
        enc = AffineEncoder(np.zeros((2, 3)), np.zeros(2), normalize=True)
        with pytest.raises(DegenerateInputError):
            affine_forward(enc, np.ones(3))

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(0)
        enc = AffineEncoder(rng.standard_normal((8, 4)), rng.standard_normal(8), True)
        r = affine_forward(enc, rng.standard_normal((32, 4)))
        np.testing.assert_allclose(np.linalg.norm(r, axis=1), 1.0, atol=1e-9)

    def test_dim_mismatch(self):
        enc = AffineEncoder(np.eye(3), np.zeros(3), normalize=False)
        with pytest.raises(ValueError):
            affine_forward(enc, np.ones(4))

    def test_normalize_backward_matches_fd(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((5, 4))
        w = rng.standard_normal((5, 4))  # arbitrary downstream weights

        def loss_fn(params):
            r, _ = normalize_rows(params[0])
            return float((r * w).sum())

        r, norms = normalize_rows(z)
        analytic = normalize_rows_backward(r, norms, w)
        (numeric,) = finite_diff_grad(loss_fn, [z], eps=1e-6)
        assert compare_gradients([analytic], [numeric], tolerance=1e-6).passed


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for n in (2, 5, 17):
            loss, _ = softmax_cross_entropy(np.zeros(n), 0)
            assert loss == pytest.approx(math.log(n), abs=1e-12)

    def test_overflow_stability(self):
        loss, grad = softmax_cross_entropy(np.array([1000.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_hand_gradient(self):
        _, grad = softmax_cross_entropy(np.array([0.0, 0.0]), 0)
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.array([np.inf, 0.0]), 0)
        with pytest.raises(IndexError):
            softmax_cross_entropy(np.array([1.0, 0.0]), 2)

    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal(6)
        l1, _ = softmax_cross_entropy(logits, 2)
        l2, _ = softmax_cross_entropy(logits + shift, 2)
        assert l1 == pytest.approx(l2, abs=1e-10)

    def test_row_version_matches_scalar(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 7))
        targets = np.array([0, 3, 6, 2])
        losses, grads = row_softmax_cross_entropy(logits.copy(), targets)
        for i in range(4):
            e = np.exp(logits[i])
            loss_i = np.log(e.sum()) - logits[i, targets[i]]
            grad_i = e / e.sum() - np.eye(7)[targets[i]]
            assert losses[i] == pytest.approx(loss_i, abs=1e-12)
            np.testing.assert_allclose(grads[i], grad_i, atol=1e-12)

    def test_counts_match_repeated_columns(self):
        # A column with count c is c copies of its logit: the loss is the
        # expanded row's, and the gradient sums the copies'.  A count-0
        # column with a huge logit takes no part, not even in the max.
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 5))
        logits[1, 4] = 1e4
        counts = np.array([[1, 0, 2, 3, 1], [1, 2, 0, 1, 0], [1, 1, 1, 1, 1]])
        losses, grads = row_softmax_cross_entropy(logits.copy(), np.zeros(3, int), counts)
        for i in range(3):
            expanded = np.repeat(logits[i], counts[i])
            e = np.exp(expanded)
            assert losses[i] == pytest.approx(np.log(e.sum()) - logits[i, 0], abs=1e-12)
            grad = e / e.sum() - np.eye(expanded.size)[0]
            owner = np.repeat(np.arange(5), counts[i])
            np.testing.assert_allclose(grads[i], np.bincount(owner, grad, minlength=5), atol=1e-12)


class TestAdamW:
    def test_zero_grad_no_decay_is_noop(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        opt = init_optimizer(params, lr=0.1, weight_decay=0.0)
        new, _ = adamw_step(opt, params, [np.zeros(2), np.zeros((1, 1))])
        for p, q in zip(params, new):
            np.testing.assert_array_equal(p, q)

    def test_zero_grad_with_decay_shrinks(self):
        theta = np.array([2.0, -4.0])
        opt = init_optimizer([theta], lr=0.1, weight_decay=0.5)
        (new,), _ = adamw_step(opt, [theta], [np.zeros(2)])
        np.testing.assert_allclose(new, theta * (1.0 - 0.1 * 0.5), atol=1e-15)

    def test_decay_excluded_when_flagged(self):
        theta = np.array([2.0])
        opt = init_optimizer([theta], lr=0.1, weight_decay=0.5, decay=[False])
        (new,), _ = adamw_step(opt, [theta], [np.zeros(1)])
        np.testing.assert_array_equal(new, theta)

    def test_first_step_direction(self):
        # bias-corrected first step: delta = -lr * g / (|g| + eps)
        g = np.array([2.0, -0.03])
        theta = np.zeros(2)
        opt = init_optimizer([theta], lr=0.1, weight_decay=0.0)
        (new,), state = adamw_step(opt, [theta], [g])
        expected = -0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(new, expected, atol=1e-15)
        assert state.step == 1

    def test_matches_scalar_hand_rollout(self):
        # two steps with constant gradient, worked out with plain floats
        lr, b1, b2, eps, g = 0.05, 0.9, 0.999, 1e-8, 3.0
        theta = 1.0
        m = v = 0.0
        expected = []
        for step in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**step)) / (
                math.sqrt(v / (1 - b2**step)) + eps
            )
            expected.append(theta)
        arr = np.array([1.0])
        opt = init_optimizer([arr], lr=lr, weight_decay=0.0)
        for step in (0, 1):
            (arr,), opt = adamw_step(opt, [arr], [np.array([g])])
            assert arr[0] == pytest.approx(expected[step], abs=1e-15)

    def test_shape_mismatch(self):
        params = [np.zeros(2)]
        opt = init_optimizer(params, lr=0.1)
        with pytest.raises(ValueError):
            adamw_step(opt, params, [np.zeros(3)])

    @pytest.mark.parametrize(
        "lr, weight_decay, name",
        [(math.nan, 0.0, "lr"), (math.inf, 0.0, "lr"), (0.0, 0.0, "lr"), (-1.0, 0.0, "lr"),
         (0.1, math.nan, "weight_decay"), (0.1, math.inf, "weight_decay")],
    )
    def test_bad_settings_refused_by_name(self, lr, weight_decay, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            init_optimizer([np.zeros(2)], lr=lr, weight_decay=weight_decay)


class TestFiniteDiff:
    def test_quadratic(self):
        (g,) = finite_diff_grad(lambda p: float((p[0] ** 2).sum()), [np.array([3.0])])
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        (g,) = finite_diff_grad(lambda p: 1.0, [np.ones(4)])
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_linear(self):
        (g,) = finite_diff_grad(lambda p: float(p[0].sum()), [np.zeros((2, 3))])
        np.testing.assert_allclose(g, np.ones((2, 3)), atol=1e-9)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda p: 0.0, [np.zeros(1)], eps=0.0)


class TestCompareGradients:
    def test_zero_true_gradient_passes_rounding_noise(self):
        # central differences of a flat direction give ~1e-11 of noise
        report = compare_gradients([np.array([0.0, 2.0])], [np.array([1e-11, 2.0])])
        assert report.passed, report.max_rel_error

    def test_relative_error_1e3_fails(self):
        a = np.array([1.0, -3.0])
        report = compare_gradients([a], [a * (1.0 + 1e-3)])
        assert not report.passed
        assert report.max_rel_error == pytest.approx(1e-3, rel=1e-2)

    def test_absolute_error_above_floor_fails(self):
        report = compare_gradients([np.array([0.0])], [np.array([1e-8])])
        assert not report.passed
