"""Full-model gradient correctness, parameter plumbing, and the optimizer
integration."""

import numpy as np
import pytest

from symile.data import apply_missingness, encoder_inputs, gen_synth
from symile.diagnostics import run_gradient_check
from symile.errors import DegenerateInputError
from symile.model import (
    ModelParams,
    flatten_params,
    batch_states,
    init_params,
    input_states,
    loss_and_grads,
    unflatten_params,
)
from symile.nn import (
    AffineEncoder,
    compare_gradients,
    encode,
    finite_diff_grad,
    normalize_rows,
    normalize_rows_backward,
)
from symile.objectives import draw_anchor_perms, pairwise_clip_loss_grads, symile_loss_grads


class TestParamsPlumbing:
    def test_flatten_roundtrip(self):
        params = init_params({"a": 3, "b": 2}, d_out=4, seed=0)
        arrays, decay = flatten_params(params)
        a, b = params.encoders["a"], params.encoders["b"]
        expected = [a.W, a.b, b.W, b.b, params.log_scale]  # the same objects, in layout order
        assert all(x is y for x, y in zip(arrays, expected, strict=True))
        assert decay == [True, True, True, True, False]
        rebuilt = unflatten_params(params, arrays)
        for name in ("a", "b"):
            np.testing.assert_array_equal(
                rebuilt.encoders[name].W, params.encoders[name].W
            )

    def test_init_deterministic_and_bounded(self):
        p1 = init_params({"a": 5, "b": 5, "c": 5}, d_out=16, seed=3)
        p2 = init_params({"a": 5, "b": 5, "c": 5}, d_out=16, seed=3)
        np.testing.assert_array_equal(p1.encoders["b"].W, p2.encoders["b"].W)
        bound = 1.0 / np.sqrt(5)
        assert np.abs(p1.encoders["a"].W).max() <= bound
        assert np.abs(p1.encoders["a"].b).max() <= bound
        p3 = init_params({"a": 5, "b": 5, "c": 5}, d_out=16, seed=4)
        assert not np.array_equal(p1.encoders["a"].W, p3.encoders["a"].W)

    def test_log_scale_shape_validation(self):
        enc = {
            "a": AffineEncoder(np.eye(2), np.zeros(2)),
            "b": AffineEncoder(np.eye(2), np.zeros(2)),
        }
        ModelParams(enc, np.array([-0.3]))  # shared is fine
        with pytest.raises(ValueError):
            ModelParams(dict(enc), np.array([-0.3, 0.1]))  # one temperature only

    def test_encoders_must_share_d_out(self):
        with pytest.raises(ValueError):
            ModelParams(
                {
                    "a": AffineEncoder(np.eye(2), np.zeros(2)),
                    "b": AffineEncoder(np.eye(3), np.zeros(3)),
                },
                np.array([0.0]),
            )


class TestEncodeBatch:
    def test_normalized_rows(self):
        params = init_params({"a": 4, "b": 4}, d_out=6, seed=1)
        rng = np.random.default_rng(0)
        for enc in params.encoders.values():
            r, norms = encode(enc, rng.random((10, 4)))
            np.testing.assert_allclose(np.linalg.norm(r, axis=1), 1.0, atol=1e-9)
            assert norms.shape == (10, 1)

    def test_zero_preactivation_error(self):
        params = ModelParams(
            {"a": AffineEncoder(np.zeros((2, 2)), np.zeros(2), normalize=True)},
            np.array([0.0]),
        )
        with pytest.raises(DegenerateInputError):
            encode(params.encoders["a"], np.ones((3, 2)))


class TestFullModelGradients:
    @pytest.mark.parametrize("objective,strategy,m,normalize", [
        ("symile", "on", 2, True),
        ("symile", "on", 3, False),
        ("symile", "on2", 3, True),
        ("pairwise_clip", "on", 2, False),
        ("pairwise_clip", "on", 3, True),
    ])
    def test_analytic_matches_fd(self, objective, strategy, m, normalize):
        rng = np.random.default_rng(42)
        names = [f"m{i}" for i in range(m)]
        n, d_in, d_out = 5, 3, 4
        inputs = {k: rng.standard_normal((n, d_in)) for k in names}
        params = init_params({k: d_in for k in names}, d_out, seed=7, normalize=normalize)
        perms = (
            {a: draw_anchor_perms(11, names, a, n) for a in names}
            if strategy == "on"
            else None
        )
        _, _, analytic = loss_and_grads(
            params, input_states(inputs), objective, strategy, perms=perms
        )
        arrays, _ = flatten_params(params)

        def loss_fn(arrs):
            loss, _, _ = loss_and_grads(
                unflatten_params(params, arrs), input_states(inputs), objective, strategy,
                perms=perms,
            )
            return loss

        numeric = finite_diff_grad(loss_fn, arrays)
        report = compare_gradients(analytic, numeric)
        assert report.passed, f"max rel err {report.max_rel_error}"

    def test_temperature_gradient_nonzero(self):
        rng = np.random.default_rng(43)
        names = ["x", "y", "z"]
        inputs = {k: rng.standard_normal((4, 2)) for k in names}
        params = init_params({k: 2 for k in names}, 3, seed=9)
        perms = {a: draw_anchor_perms(3, names, a, 4) for a in names}
        _, _, grads = loss_and_grads(params, input_states(inputs), "symile", "on", perms=perms)
        assert abs(grads[-1][0]) > 0.0

    def test_full_sweep_gradcheck(self):
        report = run_gradient_check(n_configs=20, seed=99)
        assert report.passed, max(
            zip(report.max_rel_errors, report.labels)
        )

    def test_input_validation(self):
        params = init_params({"a": 2, "b": 2}, 3, seed=0)
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            loss_and_grads(params, input_states({"a": rng.random((4, 2))}), "symile", seed=0)
        with pytest.raises(ValueError):
            loss_and_grads(
                params,
                input_states({"a": rng.random((4, 3)), "b": rng.random((4, 2))}),
                "symile",
                seed=0,
            )
        with pytest.raises(ValueError):
            loss_and_grads(
                params,
                input_states({"a": rng.random((4, 2)), "b": rng.random((4, 2))}),
                "nope",
                seed=0,
            )


def per_row_reference(params, inputs, objective, strategy, seed):
    """loss_and_grads without grouping: every row encoded on its own, the
    kernel with rows=None, and the normalize/affine backward per row."""
    reps, norms = {}, {}
    for name, enc in params.encoders.items():
        reps[name], norms[name] = normalize_rows(inputs[name] @ enc.W.T + enc.b)
    scale = params.scale()
    if objective == "symile":
        loss, _, d_reps, d_scale = symile_loss_grads(reps, scale, strategy, seed=seed)
    else:
        loss, d_reps, d_scale = pairwise_clip_loss_grads(reps, scale)
    grads = []
    for name in params.encoders:
        d_z = normalize_rows_backward(reps[name], norms[name], d_reps[name])
        grads += [d_z.T @ inputs[name], d_z.sum(axis=0)]
    return loss, grads + [np.array([d_scale * scale])]


class TestStateGrouping:
    """loss_and_grads encodes and scores distinct input rows only; on a
    binary batch it equals the per-row computation to rounding."""

    @pytest.mark.parametrize("p_missing", [0.0, 0.5])
    @pytest.mark.parametrize("objective,strategy", [
        ("symile", "on"),
        ("symile", "on2"),
        ("pairwise_clip", "on"),
    ])
    def test_matches_per_row_reference(self, objective, strategy, p_missing):
        data = gen_synth(96, 1.0, 3, "shared", 3)
        if p_missing:
            data = apply_missingness(data, p_missing, 4)
        inputs = encoder_inputs(data)
        assert all(d.shape[0] < 10 for d, _ in input_states(inputs).values())
        params = init_params(
            {m: x.shape[1] for m, x in inputs.items()}, 5, seed=2, t_init=1.0
        )
        loss, _, grads = loss_and_grads(params, input_states(inputs), objective, strategy, seed=7)
        ref_loss, ref_grads = per_row_reference(params, inputs, objective, strategy, 7)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for g, ref in zip(grads, ref_grads, strict=True):
            np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_byte_states(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-0.0, 1.0]])
        ((distinct, rows),) = input_states({"x": x}).values()
        np.testing.assert_array_equal(distinct[rows], x)
        assert rows[0] == rows[2] and rows[3] != rows[0]  # -0.0 splits, never merges


def split_inputs(kind, dtype):
    rng = np.random.default_rng(12)
    if kind in ("binary", "missing"):
        data = gen_synth(80, 1.0, 3, "shared", 3)
        if kind == "missing":  # adds the missingness indicator columns
            data = apply_missingness(data, 0.5, 4)
        inputs = encoder_inputs(data)
    elif kind == "signed_zero":
        x = rng.integers(0, 2, (80, 3)).astype(float)
        x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
        inputs = {"x": x, "y": x[::-1]}
    else:
        inputs = {"x": rng.standard_normal((80, 4)), "y": rng.standard_normal((80, 2))}
    return {m: x.astype(dtype) for m, x in inputs.items()}


class TestBatchStates:
    """batch_states looks a batch's states up in its split's; the result is
    input_states of the batch's rows, bitwise."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["binary", "missing", "signed_zero", "continuous"])
    def test_equals_states_of_the_batch(self, kind, dtype):
        inputs = split_inputs(kind, dtype)
        split = input_states(inputs)
        rng = np.random.default_rng(13)
        batches = [rng.permutation(80)[:k] for k in (2, 5, 33)] + [slice(10, 47), np.arange(80)]
        missed = False
        for idx in batches:
            got = batch_states(split, idx)
            expected = input_states({m: x[idx] for m, x in inputs.items()})
            for m, (distinct, rows) in expected.items():
                assert got[m][0].dtype == distinct.dtype and got[m][1].dtype == rows.dtype
                assert got[m][0].shape == distinct.shape
                assert got[m][0].tobytes() == distinct.tobytes()
                np.testing.assert_array_equal(got[m][1], rows)
                missed |= distinct.shape[0] < split[m][0].shape[0]
        assert missed  # some batch lacks some of the split's states
        if kind == "signed_zero":  # -0.0 rows stay their own states
            assert split["x"][0].shape[0] > 8

