"""File-format plumbing: canonical hashing, float formatting, dataset
round-trips."""

import json

import numpy as np
import pytest

from symile.data import apply_missingness, gen_synth
from symile.fileio import (
    canonical_json,
    config_hash,
    fnv1a64,
    format_float,
    provenance_line,
    write_dataset,
)


class TestHashing:
    def test_fnv1a64_reference_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_canonical_json_sorted_minimal(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_canonical_json_refuses_non_finite(self, value):
        with pytest.raises(ValueError):
            canonical_json({"p_hat": value})

    def test_config_hash_order_insensitive(self):
        assert config_hash({"x": 1, "y": 2}) == config_hash({"y": 2, "x": 1})
        assert len(config_hash({})) == 16


class TestFloatFormat:
    def test_seventeen_digit_roundtrip(self):
        for x in (0.1, 1 / 3, 1e-300, 123456.789, np.pi):
            assert float(format_float(x)) == x

    def test_integers_compact(self):
        assert format_float(1.0) == "1"


class TestDatasetFile:
    def test_roundtrip_plain(self, tmp_path, read_dataset_file):
        ds = gen_synth(50, 0.5, seed=1)
        path = str(tmp_path / "ds.txt")
        write_dataset(path, ds, seed=1, meta={"seed": 1, "p_hat": 0.5})
        header, blocks = read_dataset_file(path)
        assert header["p_hat"] == 0.5
        for k in "abc":
            np.testing.assert_array_equal(blocks[k], ds.modalities[k])
        np.testing.assert_array_equal(blocks["latents"][:, 0], ds.latents)

    def test_roundtrip_masked(self, tmp_path, read_dataset_file):
        ds = apply_missingness(gen_synth(40, 1.0, seed=2), 0.5, seed=2)
        path = str(tmp_path / "masked.txt")
        write_dataset(path, ds, seed=2, meta={"seed": 2})
        _, blocks = read_dataset_file(path)
        for i, k in enumerate("abc"):
            np.testing.assert_array_equal(blocks["masks"][:, i].astype(bool), ds.masks[k])
            np.testing.assert_array_equal(blocks[k], ds.modalities[k])

    def test_provenance_header(self, tmp_path):
        ds = gen_synth(5, 0.5, seed=3)
        path = str(tmp_path / "p.txt")
        write_dataset(path, ds, seed=3, meta={"seed": 3})
        first = json.loads(open(path).readline())
        assert first["tool"] == "symile" and first["seed"] == 3


class TestProvenance:
    def test_line_is_single_json(self):
        line = provenance_line(5, "abc123")
        doc = json.loads(line)
        assert doc["seed"] == 5 and doc["config_hash"] == "abc123"
        assert "\n" not in line
