"""Hoyer sparsity, dimension importance, and mask construction."""

import json

import numpy as np
import pytest

from minreal.latent import (
    LatentMask,
    apply_mask,
    build_mask,
    dim_importance,
    hoyer_sparsity,
    load_mask,
    save_mask,
)
from minreal.nets import save_checkpoint


class TestHoyerSparsity:
    def test_one_hot_is_one(self):
        assert hoyer_sparsity(np.array([[1.0, 0.0, 0.0, 0.0]])) == pytest.approx(1.0)

    def test_uniform_is_zero(self):
        assert hoyer_sparsity(np.array([[0.7, 0.7, 0.7, 0.7]])) == pytest.approx(0.0, abs=1e-12)
        assert hoyer_sparsity(np.array([[-3.0, 3.0, -3.0, 3.0]])) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_example(self):
        # (sqrt(4) - 7/5) / (sqrt(4) - 1) = 0.6
        assert hoyer_sparsity(np.array([[3.0, 4.0, 0.0, 0.0]])) == pytest.approx(0.6)

    def test_mean_over_samples(self):
        z = np.array([[1.0, 0.0, 0.0, 0.0], [0.7, 0.7, 0.7, 0.7]])
        assert hoyer_sparsity(z) == pytest.approx(0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(20, 6))
        for k in (0.01, 3.0, -7.5):
            assert hoyer_sparsity(k * z) == pytest.approx(hoyer_sparsity(z), rel=1e-12)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.normal(size=(rng.integers(1, 30), rng.integers(2, 20)))
            assert 0.0 <= hoyer_sparsity(z) <= 1.0

    def test_all_zero_sample_warns_and_contributes_zero(self):
        z = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.warns(UserWarning):
            v = hoyer_sparsity(z)
        assert v == pytest.approx(0.5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hoyer_sparsity(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            hoyer_sparsity(np.zeros((3, 1)))

    @pytest.mark.parametrize("z", [
        pytest.param([[np.nan, np.nan, np.nan], [np.nan, np.nan, np.nan]], id="all_nan"),
        pytest.param([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]], id="one_nan_row"),
        pytest.param([[np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]], id="inf"),
    ])
    def test_non_finite_encodings_rejected(self, z):
        with pytest.raises(ValueError, match="non-finite"):
            hoyer_sparsity(np.array(z))


class TestDimImportance:
    def test_constant_dimension_zero(self):
        z = np.tile([[2.0, -1.0, 0.5]], (5, 1))
        np.testing.assert_allclose(dim_importance(z), 0.0)

    def test_two_point_unbiased(self):
        z = np.array([[0.0], [2.0]])
        assert dim_importance(z)[0] == pytest.approx(np.sqrt(2.0))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(40, 7)) * rng.uniform(0.1, 3.0, size=7)
        mean = z.sum(axis=0) / z.shape[0]
        var = ((z - mean) ** 2).sum(axis=0) / (z.shape[0] - 1)
        np.testing.assert_allclose(dim_importance(z), np.sqrt(var), rtol=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            dim_importance(np.zeros((1, 4)))

    @pytest.mark.parametrize("z", [
        pytest.param([[np.nan, np.nan], [np.nan, np.nan]], id="all_nan"),
        pytest.param([[np.nan, 0.0], [1.0, 2.0], [0.5, 1.0]], id="one_nan_dim"),
        pytest.param([[-np.inf, 0.0], [1.0, 2.0]], id="inf"),
    ])
    def test_non_finite_encodings_rejected(self, z):
        with pytest.raises(ValueError, match="non-finite"):
            dim_importance(np.array(z))


class TestBuildMask:
    def test_threshold_selection(self):
        mask = build_mask(np.array([0.5, 0.01, 0.3]), 0.15)
        np.testing.assert_array_equal(mask.keep, [True, False, True])

    def test_zero_threshold_keeps_nonzero(self):
        mask = build_mask(np.array([0.5, 0.0, 0.3]), 0.0)
        np.testing.assert_array_equal(mask.keep, [True, False, True])

    def test_fallback_keeps_argmax(self):
        mask = build_mask(np.array([0.01, 0.09, 0.02]), 0.15)
        np.testing.assert_array_equal(mask.keep, [False, True, False])
        assert mask.fallback_used

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        imp = rng.uniform(0, 1, size=12)
        prev = None
        for thr in np.linspace(0, 1, 21):
            mask = build_mask(imp, thr)
            if prev is not None and not mask.fallback_used:
                assert not np.any(mask.keep & ~prev)  # raising never adds dims
            prev = mask.keep

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            build_mask(np.array([0.1, 0.2]), -0.5)

    def test_nan_threshold_rejected(self):
        # It once fell back to keeping the single most important dim.
        with pytest.raises(ValueError, match="threshold"):
            build_mask(np.array([0.1, 0.2]), np.nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_importance_rejected(self, bad):
        # A NaN dim was once dropped silently, into a mask that save_mask
        # wrote and load_mask then rejected.
        with pytest.raises(ValueError, match="importance"):
            build_mask(np.array([bad, 0.3]), 0.15)


class TestApplyMask:
    def test_all_keep_identity(self):
        mask = build_mask(np.array([1.0, 1.0, 1.0]), 0.5)
        z = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(apply_mask(z, mask), z)

    def test_selects_in_order(self):
        mask = LatentMask(
            keep=np.array([True, False, True]),
            threshold_used=0.15,
            importance=np.array([0.5, 0.01, 0.3]),
        )
        np.testing.assert_array_equal(apply_mask(np.array([10.0, 20.0, 30.0]), mask), [10.0, 30.0])

    def test_batched(self):
        mask = LatentMask(
            keep=np.array([False, True, True]),
            threshold_used=0.0,
            importance=np.array([0.0, 1.0, 1.0]),
        )
        z = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(apply_mask(z, mask), [[1.0, 2.0], [4.0, 5.0]])

    def test_length_mismatch(self):
        mask = build_mask(np.array([1.0, 1.0]), 0.5)
        with pytest.raises(ValueError):
            apply_mask(np.zeros(3), mask)


class TestMaskFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        imp = rng.uniform(0, 1, size=12)
        mask = build_mask(imp, 0.15)
        path = tmp_path / "mask.txt"
        save_mask(path, mask)
        back = load_mask(path)
        np.testing.assert_array_equal(back.keep, mask.keep)
        assert back.importance.tobytes() == mask.importance.tobytes()
        assert back.threshold_used == mask.threshold_used
        assert back.fallback_used == mask.fallback_used

    def test_file_bytes_deterministic(self, tmp_path):
        mask = build_mask(np.array([0.3, 0.05, 0.7]), 0.15)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_mask(a, mask)
        save_mask(b, mask)
        assert a.read_bytes() == b.read_bytes()

    def test_mask_invariants(self):
        with pytest.raises(ValueError):
            LatentMask(keep=np.zeros(3, dtype=bool), threshold_used=0.1,
                       importance=np.zeros(3))
        with pytest.raises(ValueError):
            LatentMask(keep=np.ones(3, dtype=bool), threshold_used=0.1,
                       importance=np.zeros(4))
        with pytest.raises(ValueError, match="importance"):
            LatentMask(keep=np.ones(2, dtype=bool), threshold_used=0.1,
                       importance=np.array([np.nan, 0.3]))

    @pytest.mark.parametrize("threshold", [np.nan, -0.1, -np.inf])
    def test_threshold_must_be_non_negative(self, threshold):
        # build_mask rejects these thresholds; a mask built directly or
        # loaded from a file once kept them.
        with pytest.raises(ValueError, match="threshold"):
            LatentMask(keep=np.ones(2, dtype=bool), threshold_used=threshold,
                       importance=np.ones(2))

    def test_infinite_threshold_allowed(self):
        # build_mask(importance, inf) falls back to the most important dim.
        mask = build_mask(np.array([0.2, 0.5]), np.inf)
        assert mask.threshold_used == np.inf and mask.fallback_used


class TestMaskFileRejectsMalformed:
    """Each malformed mask file raises ValueError naming the file."""

    HEADER = {"kind": "mask", "threshold_used": 0.1, "fallback_used": False}

    def write(self, tmp_path, header=None, **arrays):
        path = tmp_path / "bad_mask.bin"
        arrays = arrays or {"keep": np.array([1.0, 0.0]), "importance": np.array([0.5, 0.05])}
        save_checkpoint(path, header or self.HEADER, arrays)
        return path

    def test_well_formed_file_loads(self, tmp_path):
        mask = load_mask(self.write(tmp_path))
        np.testing.assert_array_equal(mask.keep, [True, False])

    def test_repeated_array_name(self, tmp_path):
        path = self.write(tmp_path)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12 : 12 + hlen])
        header["arrays"] = [["keep", [2]], ["keep", [2]]]
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :])
        with pytest.raises(ValueError, match="bad_mask.bin"):
            load_mask(path)

    @pytest.mark.parametrize("entry", ["importance", "threshold_used"])
    def test_missing_entry(self, tmp_path, entry):
        if entry == "importance":
            path = self.write(tmp_path, keep=np.array([1.0, 0.0]))
        else:
            path = self.write(tmp_path, header={"kind": "mask", "fallback_used": False})
        with pytest.raises(ValueError, match="bad_mask.bin"):
            load_mask(path)

    @pytest.mark.parametrize("flag", [2, -1])
    def test_keep_flag_not_zero_or_one(self, tmp_path, flag):
        path = self.write(tmp_path, keep=np.array([1.0, flag]), importance=np.ones(2))
        with pytest.raises(ValueError, match="bad_mask.bin"):
            load_mask(path)

    def test_keeps_no_dimension(self, tmp_path):
        path = self.write(tmp_path, keep=np.zeros(2), importance=np.ones(2))
        with pytest.raises(ValueError, match="bad_mask.bin"):
            load_mask(path)

    @pytest.mark.parametrize("threshold", [np.nan, -0.1, -np.inf])
    def test_bad_threshold(self, tmp_path, threshold):
        path = self.write(tmp_path, header={**self.HEADER, "threshold_used": threshold})
        with pytest.raises(ValueError, match="bad_mask.bin"):
            load_mask(path)

    def test_keep_and_importance_lengths_differ(self, tmp_path):
        path = self.write(tmp_path, keep=np.ones(2), importance=np.ones(3))
        with pytest.raises(ValueError, match="bad_mask.bin"):
            load_mask(path)
