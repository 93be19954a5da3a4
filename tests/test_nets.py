"""Likelihood heads, reparameterized sampling, and checkpoint round-trips."""

import numpy as np
import pytest
from scipy import integrate, stats

from minreal import autodiff as ad
from minreal.nets import (
    Mlp,
    MlpSpec,
    cb_log_norm_t,
    cb_log_prob_t,
    gaussian_log_prob_t,
    load_checkpoint,
    param_arrays,
    reparam_sample,
    save_checkpoint,
    set_params,
)
from test_autodiff import fd_grad


class TestGaussianLogProb:
    def test_standard_normal_at_zero(self):
        out = gaussian_log_prob_t(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        assert float(out.data[0]) == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_at_mean(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(2, 3))
        ls = rng.uniform(-1, 1, size=(2, 3))
        out = gaussian_log_prob_t(mu, ls, mu)
        expected = -ls.sum(axis=1) - 1.5 * np.log(2 * np.pi)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_matches_scipy_density_oracle(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=(4, 3))
        ls = rng.uniform(-1.5, 1.0, size=(4, 3))
        x = rng.normal(size=(4, 3))
        out = gaussian_log_prob_t(mu, ls, x)
        oracle = stats.norm.logpdf(x, loc=mu, scale=np.exp(ls)).sum(axis=1)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_log_prob_t(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 3)))

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 2))

        def build(p, _rng):
            mu = ad.slice_cols(p, 0, 2)
            ls = ad.slice_cols(p, 2, 4)
            return gaussian_log_prob_t(mu, ls, x)

        packed = np.hstack([rng.normal(size=(3, 2)), rng.uniform(-1, 1, (3, 2))])

        def scalar(arr):
            return float(ad.mean_all(build(ad.parameter(arr), None)).data)

        p = ad.parameter(packed.copy())
        ad.backward(ad.mean_all(build(p, None)))
        num = fd_grad(scalar, packed.copy())
        denom = np.maximum(np.abs(p.grad) + np.abs(num), 1e-6)
        assert np.max(np.abs(p.grad - num) / denom) <= 1e-4


class TestReparamSample:
    def test_zero_noise_returns_mean(self):
        mu = np.array([[0.4, -1.0]])
        out = reparam_sample(mu, np.zeros((1, 2)), np.zeros((1, 2)))
        np.testing.assert_allclose(out.data, mu)

    def test_clamped_floor_sigma(self):
        mu = np.zeros((1, 3))
        noise = np.array([[1.0, -2.0, 0.5]])
        out = reparam_sample(mu, np.full((1, 3), -6.0), noise)
        assert np.all(np.abs(out.data - mu) <= np.exp(-6.0) * np.abs(noise) + 1e-15)

    def test_log_std_gradient_is_sigma_noise(self):
        rng = np.random.default_rng(4)
        noise = rng.normal(size=(2, 3))
        ls0 = rng.uniform(-1, 1, size=(2, 3))
        p = ad.parameter(ls0.copy())
        out = ad.mean_all(reparam_sample(np.zeros((2, 3)), p, noise))
        ad.backward(out)
        np.testing.assert_allclose(p.grad, np.exp(ls0) * noise / 6.0, rtol=1e-10)

        def scalar(arr):
            return float(
                ad.mean_all(reparam_sample(np.zeros((2, 3)), ad.parameter(arr), noise)).data
            )

        num = fd_grad(scalar, ls0.copy())
        np.testing.assert_allclose(p.grad, num, rtol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reparam_sample(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 3)))


def cb_log_norm(lam):
    """cb_log_norm_t over constant lambdas, as a plain array."""
    return cb_log_norm_t(np.asarray(lam, dtype=np.float64)).data


def cb_log_prob(lam, x):
    """cb_log_prob_t of one row over constants, as a float."""
    return float(cb_log_prob_t(np.atleast_2d(lam), np.atleast_2d(x)).data[0])


class TestContinuousBernoulli:
    def test_log_norm_half_is_log2(self):
        assert cb_log_norm([0.5])[0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_log_norm_frozen_oracle_value(self):
        # Quadrature oracle value (also the atanh closed form).
        assert cb_log_norm([0.9])[0] == pytest.approx(1.0103385594908543, rel=1e-10)

    def test_log_norm_matches_quadrature(self):
        rng = np.random.default_rng(5)
        lams = rng.uniform(0.02, 0.98, size=12)
        for lam, got in zip(lams, cb_log_norm(lams)):
            val, _ = integrate.quad(lambda x: lam**x * (1 - lam) ** (1 - x), 0.0, 1.0)
            assert got == pytest.approx(-np.log(val), rel=1e-9)

    def test_symmetry(self):
        lams = np.random.default_rng(6).uniform(0.01, 0.99, size=50)
        np.testing.assert_allclose(cb_log_norm(lams), cb_log_norm(1 - lams), rtol=0, atol=1e-12)

    def test_seam_agreement(self):
        lams = np.array([0.5 - 1e-3, 0.5 + 1e-3])
        exact = np.log(2 * np.arctanh(1 - 2 * lams) / (1 - 2 * lams))
        np.testing.assert_allclose(cb_log_norm(lams), exact, rtol=0, atol=1e-9)

    def test_log_prob_uniform_case_zero(self):
        lam = np.full(7, 0.5)
        x = np.random.default_rng(7).uniform(0, 1, size=7)
        assert cb_log_prob(lam, x) == pytest.approx(0.0, abs=1e-12)

    def test_log_prob_single_pixel_value(self):
        assert cb_log_prob([0.9], [1.0]) == pytest.approx(0.9049780438330277, rel=1e-10)

    def test_density_integrates_to_one(self):
        for lam in (0.15, 0.5, 0.83):
            val, _ = integrate.quad(lambda x: np.exp(cb_log_prob([lam], [x])), 0.0, 1.0)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_log_prob_gradient_check(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed + 20)
            x = rng.uniform(0, 1, size=(3, 4))
            lam0 = rng.uniform(0.1, 0.9, size=(3, 4))

            def scalar(arr):
                return float(ad.mean_all(cb_log_prob_t(ad.parameter(arr), x)).data)

            p = ad.parameter(lam0.copy())
            ad.backward(ad.mean_all(cb_log_prob_t(p, x)))
            num = fd_grad(scalar, lam0.copy())
            denom = np.maximum(np.abs(p.grad) + np.abs(num), 1e-6)
            assert np.max(np.abs(p.grad - num) / denom) <= 1e-4

    def test_log_norm_gradient_near_seam(self):
        lams = np.array([[0.4994, 0.5, 0.5006, 0.3, 0.7]])

        def scalar(arr):
            return float(ad.mean_all(cb_log_norm_t(ad.parameter(arr))).data)

        p = ad.parameter(lams.copy())
        ad.backward(ad.mean_all(cb_log_norm_t(p)))
        num = fd_grad(scalar, lams.copy(), h=1e-6)
        np.testing.assert_allclose(p.grad, num, rtol=1e-3, atol=1e-8)


class TestForwardNpDtype:
    """forward_np computes in float32 for a float32 input, float64 otherwise."""

    @staticmethod
    def net(activation="tanh"):
        return Mlp(MlpSpec((4, 16, 12, 3), activation=activation), seed=6)

    def test_float32_in_float32_out(self):
        x = np.random.default_rng(1).normal(size=(32, 4)).astype(np.float32)
        assert self.net().forward_np(x).dtype == np.float32

    @pytest.mark.parametrize("x", [
        np.linspace(-1.0, 1.0, 8).reshape(2, 4),
        np.arange(8).reshape(2, 4),
        [[0.1, -0.2, 0.3, 0.0], [1.0, 2.0, -1.0, 0.5]],
    ], ids=["float64", "integer", "list"])
    def test_other_inputs_give_float64(self, x):
        net = self.net()
        out = net.forward_np(x)
        assert out.dtype == np.float64
        assert out.tobytes() == net.forward_np(np.asarray(x, dtype=np.float64)).tobytes()

    @pytest.mark.parametrize("activation", ["swish", "tanh"])
    def test_float32_agrees_with_graph(self, activation):
        net = self.net(activation)
        x = (2.0 * np.random.default_rng(4).normal(size=(64, 4))).astype(np.float32)
        x_before = x.copy()
        out = net.forward_np(x)
        assert x.tobytes() == x_before.tobytes()
        graph = net.forward(x.astype(np.float64)).data
        np.testing.assert_allclose(out, graph, rtol=0.0, atol=1e-5)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        net = Mlp(MlpSpec((4, 7, 3)), seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"kind": "test", "spec": net.spec.to_dict()},
                        param_arrays({"net": net}))
        header, arrays = load_checkpoint(path, "test")
        assert header["kind"] == "test"
        assert list(arrays) == ["net.w0", "net.b0", "net.w1", "net.b1"]
        restored = Mlp(MlpSpec(**header["spec"]), seed=0)
        set_params({"net": restored}, arrays)
        for a, b in zip(net.params, restored.params):
            assert a.data.tobytes() == b.data.tobytes()

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="junk.bin"):
            load_checkpoint(path, "test")

    def test_file_bytes_deterministic(self, tmp_path):
        net = Mlp(MlpSpec((3, 5, 2)), seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, {"kind": "x"}, param_arrays({"net": net}))
        save_checkpoint(p2, {"kind": "x"}, param_arrays({"net": net}))
        assert p1.read_bytes() == p2.read_bytes()
