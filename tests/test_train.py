"""Training-loop behaviour on small configurations: determinism,
checkpoint selection, divergence handling, serialization round-trips."""

import json
import math

import numpy as np
import pytest

from symile.data import SplitSpec, gen_xor1d, gen_synth, split
from symile.errors import SchemaError
from symile.model import flatten_params
from symile.train import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)


def tiny_config(**overrides):
    defaults = dict(
        epochs=3,
        batch_size=32,
        lr=0.05,
        weight_decay=0.01,
        d_out=8,
        seed=0,
        split=SplitSpec(128, 64, 64),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def tiny_splits(seed=0, p_hat=1.0, n=256):
    ds = gen_synth(n, p_hat, seed=seed)
    return split(ds, SplitSpec(128, 64, 64))


class TestTrainConfig:
    def test_defaults_match_benchmark_recipe(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size, cfg.lr, cfg.weight_decay) == (
            100,
            1000,
            0.1,
            0.01,
        )
        assert cfg.t_init == -0.3
        assert cfg.d_out == 16
        assert cfg.normalize is True
        assert (cfg.split.train, cfg.split.val, cfg.split.test) == (10000, 1000, 5000)

    def test_validation(self):
        with pytest.raises(SchemaError):
            TrainConfig(batch_size=1)
        with pytest.raises(SchemaError):
            TrainConfig(lr=0.0)
        with pytest.raises(SchemaError):
            TrainConfig(objective="other")
        with pytest.raises(SchemaError):
            TrainConfig(p_missing=1.0)

    def test_hash_stable_and_sensitive(self):
        assert TrainConfig().hash() == TrainConfig().hash()
        assert TrainConfig().hash() != TrainConfig(seed=1).hash()


class TestTrainLoop:
    def test_zero_lr_like_no_op(self):
        # tiny lr and no decay: parameters stay near the initialization
        tr, va, _ = tiny_splits()
        cfg = tiny_config(epochs=1, lr=1e-12, weight_decay=0.0)
        result = train(cfg, tr, va)
        from symile.model import init_params

        ref = init_params(
            {"a": 5, "b": 5, "c": 5},
            cfg.d_out,
            cfg.seed,
            normalize=cfg.normalize,
            t_init=cfg.t_init,
            dtype=np.float32,
        )
        for name in ("a", "b", "c"):
            np.testing.assert_allclose(
                result.checkpoint.params.encoders[name].W,
                ref.encoders[name].W,
                atol=1e-9,
            )

    def test_deterministic_checkpoint_bytes(self, tmp_path):
        tr, va, _ = tiny_splits()
        paths = []
        for k in (1, 2):
            result = train(tiny_config(), tr, va)
            path = tmp_path / f"ckpt{k}.json"
            save_checkpoint(str(path), result.checkpoint)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_best_checkpoint_minimizes_val_loss(self):
        tr, va, _ = tiny_splits()
        result = train(tiny_config(epochs=5), tr, va)
        vals = [h["val_loss"] for h in result.history]
        assert result.checkpoint.val_loss == pytest.approx(min(vals))
        assert len(result.history) == 5

    def test_seed_changes_trajectory(self):
        tr, va, _ = tiny_splits()
        r1 = train(tiny_config(seed=0), tr, va)
        r2 = train(tiny_config(seed=1), tr, va)
        assert r1.checkpoint.val_loss != r2.checkpoint.val_loss

    def test_loss_decreases_on_learnable_task(self):
        tr, va, _ = tiny_splits(p_hat=1.0)
        result = train(tiny_config(epochs=10, lr=0.05), tr, va)
        first, last = result.history[0]["val_loss"], result.history[-1]["val_loss"]
        assert last < first

    def test_trailing_short_batch_dropped(self):
        # 33 samples with batch 32 leaves a 1-sample tail that must be skipped
        ds = gen_xor1d(33 + 16 + 16, seed=3)
        tr, va, te = split(ds, SplitSpec(33, 16, 16))
        cfg = TrainConfig(
            epochs=1, batch_size=32, lr=0.01, d_out=4, seed=0, split=SplitSpec(33, 16, 16)
        )
        result = train(cfg, tr, va)  # would raise on a singleton batch
        assert math.isfinite(result.checkpoint.val_loss)

    def test_later_epochs_leave_best_checkpoint_unchanged(self):
        # the checkpoint holds the best epoch's own arrays, not a copy: at
        # lr 1 validation gets worse after epoch 0, and the arrays kept then
        # must equal those of a run that stops after epoch 0
        tr, va, _ = tiny_splits()
        long = train(tiny_config(epochs=4, lr=1.0), tr, va).checkpoint
        short = train(tiny_config(epochs=1, lr=1.0), tr, va).checkpoint
        assert long.epoch == short.epoch == 0
        pairs = zip(flatten_params(long.params)[0], flatten_params(short.params)[0], strict=True)
        for a, b in pairs:
            np.testing.assert_array_equal(a, b)

    def test_float64_training(self):
        tr, va, _ = tiny_splits()
        cfg = tiny_config(dtype="float64", epochs=2)
        result = train(cfg, tr, va)
        assert result.checkpoint.params.encoders["a"].W.dtype == np.float64

    def test_divergence_raises_with_diagnostic(self):
        from symile.errors import DivergenceError

        tr, va, _ = tiny_splits()
        cfg = tiny_config(lr=1e30, weight_decay=0.0, normalize=False)
        with pytest.raises(DivergenceError, match="epoch"):
            with np.errstate(all="ignore"):
                train(cfg, tr, va)


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        tr, va, _ = tiny_splits()
        result = train(tiny_config(epochs=2), tr, va)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, result.checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.epoch == result.checkpoint.epoch
        assert loaded.val_loss == result.checkpoint.val_loss
        assert loaded.config_hash == result.checkpoint.config_hash
        for name in ("a", "b", "c"):
            np.testing.assert_array_equal(
                loaded.params.encoders[name].W,
                result.checkpoint.params.encoders[name].W,
            )
        np.testing.assert_array_equal(
            loaded.params.log_scale, result.checkpoint.params.log_scale
        )

    def test_parameters_only(self, tmp_path):
        tr, va, _ = tiny_splits()
        result = train(tiny_config(epochs=1), tr, va)
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), result.checkpoint)
        provenance, body = path.read_text().splitlines()
        doc = json.loads(body)
        assert "optimizer" not in doc
        # a file written with the optimizer block that nothing read still loads
        doc["optimizer"] = {"step": 1, "m": [], "v": []}
        path.write_text(provenance + "\n" + json.dumps(doc) + "\n")
        loaded = load_checkpoint(str(path))
        np.testing.assert_array_equal(
            loaded.params.encoders["a"].W, result.checkpoint.params.encoders["a"].W
        )

    def test_provenance_first_line(self, tmp_path):
        tr, va, _ = tiny_splits()
        result = train(tiny_config(epochs=1), tr, va)
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), result.checkpoint)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["tool"] == "symile"
        assert first["config_hash"] == result.checkpoint.config_hash

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"p":1}\n{"kind": "other"}\n')
        with pytest.raises(SchemaError):
            load_checkpoint(str(path))
