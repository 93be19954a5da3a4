"""Likelihood heads, reparameterized sampling, and checkpoint round-trips."""

import numpy as np
import pytest
from scipy import integrate, stats

from minreal import autodiff as ad
from minreal.nets import (
    _CB_SEAM,
    CB_LOGIT_CLAMP,
    LOG_STD_MAX,
    LOG_STD_MIN,
    Mlp,
    MlpSpec,
    cb_log_prob_t,
    gaussian_head,
    gaussian_log_prob_t,
    load_checkpoint,
    param_arrays,
    reparam_sample,
    save_checkpoint,
    set_params,
)
from test_autodiff import fd_grad


def node_gradient(build, arr):
    """Gradient of mean_all(build(parameter)) at arr, by backward."""
    p = ad.parameter(arr.copy())
    ad.backward(ad.mean_all(build(p)))
    return p.grad


def node_value(build, arr):
    """mean_all(build(arr)) as a float, the function fd_grad differentiates."""
    return float(ad.mean_all(build(arr)).data)


# One row's log-std columns: inside, at and beyond the clamp.
CLAMP_LOG_STDS = np.array([LOG_STD_MIN + 0.5, LOG_STD_MAX - 0.5, LOG_STD_MIN, LOG_STD_MAX,
                           LOG_STD_MIN - 1.0, LOG_STD_MAX + 3.0])


def assert_gradient_near_at_and_beyond_clamp(build, mean):
    """build(raw)'s gradient in raw = [mean, CLAMP_LOG_STDS] (one row)
    against finite differences: central ones in the mean and inside the
    clamp, zero beyond it, and at it a second-order one-sided difference
    from inside, since the clamp passes the gradient at its ends."""
    w = CLAMP_LOG_STDS.size
    raw0 = np.concatenate([mean, CLAMP_LOG_STDS])[None, :]
    grad = node_gradient(build, raw0)
    num = fd_grad(lambda arr: node_value(build, arr), raw0.copy())
    np.testing.assert_allclose(grad[0, : w + 2], num[0, : w + 2], rtol=1e-6, atol=1e-9)
    # Beyond the clamp the value is flat and the gradient exactly zero.
    assert (grad[0, w + 4 :] == 0.0).all() and (num[0, w + 4 :] == 0.0).all()
    h = 1e-5
    for j, inward in ((w + 2, 1.0), (w + 3, -1.0)):
        def at(k, j=j, inward=inward):
            arr = raw0.copy()
            arr[0, j] += k * inward * h
            return node_value(build, arr)

        one_sided = -inward * (3 * at(0) - 4 * at(1) + at(2)) / (2 * h)
        assert grad[0, j] == pytest.approx(one_sided, rel=1e-6, abs=1e-9)
        assert grad[0, j] != 0.0


# Raw head outputs for a width-2 head that are not (batch, 4).
BAD_RAWS = [np.zeros(4), np.zeros((1, 3)), np.zeros((1, 5)), np.zeros((1, 2, 4))]


class TestGaussianHead:
    def test_splits_and_clamps(self):
        raw = np.array([[0.3, -0.4, -9.0, 1.5], [7.0, 0.0, 0.2, 4.0]])
        mean, log_std = gaussian_head(raw, 2)
        assert mean.tobytes() == raw[:, :2].tobytes()
        np.testing.assert_array_equal(log_std, [[LOG_STD_MIN, 1.5], [0.2, LOG_STD_MAX]])

    @pytest.mark.parametrize("raw", BAD_RAWS, ids=lambda r: str(r.shape))
    def test_raw_shape_rejected(self, raw):
        with pytest.raises(ValueError, match="raw head output"):
            gaussian_head(raw, 2)
        with pytest.raises(ValueError, match="raw head output"):
            gaussian_log_prob_t(raw, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="raw head output"):
            reparam_sample(raw, np.zeros((1, 2)))


class TestGaussianLogProb:
    def test_standard_normal_at_zero(self):
        out = gaussian_log_prob_t(np.zeros((1, 2)), np.zeros((1, 1)))
        assert float(out.data[0]) == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_at_mean(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(2, 3))
        ls = rng.uniform(-1, 1, size=(2, 3))
        out = gaussian_log_prob_t(np.hstack([mu, ls]), mu)
        expected = -ls.sum(axis=1) - 1.5 * np.log(2 * np.pi)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_matches_scipy_density_oracle(self):
        # Log-stds from beyond the floor to beyond the ceiling: the density
        # is the clamped one.
        rng = np.random.default_rng(1)
        mu = rng.normal(size=(4, 3))
        ls = rng.uniform(-8.0, 4.0, size=(4, 3))
        x = mu + rng.normal(size=(4, 3)) * np.exp(np.clip(ls, -6.0, 2.0))
        out = gaussian_log_prob_t(np.hstack([mu, ls]), x)
        oracle = stats.norm.logpdf(x, loc=mu, scale=np.exp(np.clip(ls, -6.0, 2.0))).sum(axis=1)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_log_prob_t(np.zeros((1, 4)), np.zeros((1, 3)))

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 2))
        raw0 = np.hstack([rng.normal(size=(3, 2)), rng.uniform(-1, 1, (3, 2))])

        def build(arr):
            return gaussian_log_prob_t(arr, x)

        grad = node_gradient(build, raw0)
        num = fd_grad(lambda arr: node_value(build, arr), raw0.copy())
        denom = np.maximum(np.abs(grad) + np.abs(num), 1e-6)
        assert np.max(np.abs(grad - num) / denom) <= 1e-4

    def test_gradient_near_at_and_beyond_clamp(self):
        rng = np.random.default_rng(14)
        mean = rng.normal(size=CLAMP_LOG_STDS.size)
        # x a std or so from the mean, so that no column's z is extreme.
        std = np.exp(np.clip(CLAMP_LOG_STDS, LOG_STD_MIN, LOG_STD_MAX))
        x = (mean + rng.uniform(0.5, 1.5, size=mean.size) * std)[None, :]
        assert_gradient_near_at_and_beyond_clamp(lambda arr: gaussian_log_prob_t(arr, x), mean)

    @pytest.mark.parametrize("stat_rows", [3, 1], ids=["per_row", "broadcast"])
    def test_gradients_of_mean_log_std_and_tracked_x(self, stat_rows):
        # stat_rows = 1: a (1, 2|Z|) raw head, such as the prior's,
        # broadcast over the batch; its gradient sums over it.
        rng = np.random.default_rng(11)
        args = [np.hstack([rng.normal(size=(stat_rows, 4)), rng.uniform(-1, 1, (stat_rows, 4))]),
                rng.normal(size=(3, 4))]
        for i in range(2):
            def build(arr, i=i):
                return gaussian_log_prob_t(*args[:i], arr, *args[i + 1:])

            grad = node_gradient(build, args[i])
            assert grad.shape == args[i].shape
            num = fd_grad(lambda arr: node_value(build, arr), args[i].copy())
            np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-9)

    def test_matches_replaced_op_chain(self):
        # The slice, clip and density ops it replaced, written out.
        rng = np.random.default_rng(12)
        raw = np.hstack([rng.normal(size=(7, 5)), rng.uniform(-8.0, 4.0, size=(7, 5))])
        x = rng.normal(size=(7, 5))
        mu, ls = raw[:, :5], np.clip(raw[:, 5:], -6.0, 2.0)
        z = (x - mu) * np.exp(-ls)
        chain = ((z * z) * -0.5 - ls).sum(axis=1) + -5 * 0.5 * np.log(2.0 * np.pi)
        np.testing.assert_allclose(gaussian_log_prob_t(raw, x).data, chain,
                                   rtol=1e-12, atol=0)

    def test_tape_free_value_equals_graph_value(self):
        rng = np.random.default_rng(13)
        raw = np.hstack([rng.normal(size=(6, 3)), rng.uniform(-8, 4, (6, 3))])
        x = rng.normal(size=(6, 3))
        graph = gaussian_log_prob_t(ad.parameter(raw), ad.parameter(x))
        assert graph.data.tobytes() == gaussian_log_prob_t(raw, x).data.tobytes()

    def test_one_call_records_one_node(self):
        raw = ad.parameter(np.zeros((2, 6)))
        x = ad.constant(np.ones((2, 3)))
        out = gaussian_log_prob_t(raw, x)
        assert len(out._parents) == 2
        assert all(a is b for a, b in zip(out._parents, (raw, x)))


class TestReparamSample:
    def test_zero_noise_returns_mean(self):
        mu = np.array([[0.4, -1.0]])
        out = reparam_sample(np.hstack([mu, np.zeros((1, 2))]), np.zeros((1, 2)))
        np.testing.assert_allclose(out.data, mu)

    def test_clamped_floor_sigma(self):
        noise = np.array([[1.0, -2.0, 0.5]])
        out = reparam_sample(np.hstack([np.zeros((1, 3)), np.full((1, 3), -9.0)]), noise)
        assert out.data.tobytes() == (np.exp(-6.0) * noise).tobytes()

    def test_log_std_gradient_is_sigma_noise(self):
        rng = np.random.default_rng(4)
        noise = rng.normal(size=(2, 3))
        raw0 = np.hstack([rng.normal(size=(2, 3)), rng.uniform(-1, 1, size=(2, 3))])

        def build(arr):
            return reparam_sample(arr, noise)

        grad = node_gradient(build, raw0)
        np.testing.assert_allclose(grad[:, :3], np.full((2, 3), 1.0 / 6.0), rtol=1e-15)
        np.testing.assert_allclose(grad[:, 3:], np.exp(raw0[:, 3:]) * noise / 6.0, rtol=1e-10)
        num = fd_grad(lambda arr: node_value(build, arr), raw0.copy())
        np.testing.assert_allclose(grad, num, rtol=1e-5)

    def test_gradient_near_at_and_beyond_clamp(self):
        rng = np.random.default_rng(15)
        noise = rng.normal(size=(1, CLAMP_LOG_STDS.size))
        assert_gradient_near_at_and_beyond_clamp(lambda arr: reparam_sample(arr, noise),
                                                 rng.normal(size=CLAMP_LOG_STDS.size))

    def test_matches_replaced_op_chain(self):
        # The slice, clip, exp, mul and add ops it replaced, written out.
        rng = np.random.default_rng(16)
        raw = np.hstack([rng.normal(size=(5, 4)), rng.uniform(-8.0, 4.0, size=(5, 4))])
        noise = rng.normal(size=(5, 4))
        chain = raw[:, :4] + np.exp(np.clip(raw[:, 4:], -6.0, 2.0)) * noise
        assert reparam_sample(raw, noise).data.tobytes() == chain.tobytes()

    def test_one_call_records_one_node(self):
        raw = ad.parameter(np.zeros((2, 6)))
        out = reparam_sample(raw, np.ones((2, 3)))
        assert len(out._parents) == 1 and out._parents[0] is raw

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reparam_sample(np.zeros((1, 6)), np.zeros((2, 3)))


def cb_logit(lam):
    """The logit log(lambda / (1 - lambda)) at which cb_log_prob_t has mean
    parameter lambda."""
    lam = np.asarray(lam, dtype=np.float64)
    return np.log(lam / (1.0 - lam))


def cb_log_norm(lam):
    """log C(lambda) per entry, read off cb_log_prob_t as log p(x = 0) -
    log(1 - lambda), one single-pixel row per lambda."""
    lam = np.asarray(lam, dtype=np.float64).reshape(-1, 1)
    log_p0 = cb_log_prob_t(cb_logit(lam), np.zeros_like(lam)).data
    return log_p0 - np.log1p(-lam[:, 0])


def cb_log_prob(lam, x):
    """cb_log_prob_t of one row at mean parameters lam, as a float."""
    return float(cb_log_prob_t(np.atleast_2d(cb_logit(lam)), np.atleast_2d(x)).data[0])


def op_chain_cb_log_prob(raw, x):
    """The op chain cb_log_prob_t replaced, straight-line: sigmoid of the
    clamped logits, the two logs, and the normalizer in t = lambda - 1/2
    with its series below |t| = 1e-3."""
    lam = 1.0 / (1.0 + np.exp(-np.clip(raw, -CB_LOGIT_CLAMP, CB_LOGIT_CLAMP)))
    t = lam - 0.5
    near = np.abs(t) < 1e-3
    safe = np.where(near, 0.25, t)
    log_norm = np.where(near, np.log(2.0) + (4.0 / 3.0) * t**2 + (104.0 / 45.0) * t**4,
                        np.log(2.0 * np.arctanh(-2.0 * safe) / (-2.0 * safe)))
    return (np.log(lam) * x + np.log(1.0 - lam) * (1.0 - x) + log_norm).sum(axis=1)


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

    def test_matches_replaced_op_chain(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(-6.0, 6.0, size=(16, 32))
        raw[0, :8] = [0.0, 1e-3, -1e-3, 4e-3, _CB_SEAM, -_CB_SEAM, 0.9 * _CB_SEAM, 0.06]
        x = rng.uniform(0.0, 1.0, size=raw.shape)
        np.testing.assert_allclose(cb_log_prob_t(raw, x).data, op_chain_cb_log_prob(raw, x),
                                   rtol=1e-12, atol=0)

    def test_series_meets_closed_form_at_seam(self):
        # Values and gradients just inside and outside |c| = _CB_SEAM,
        # against the closed forms x c + log(c / expm1(c)) and
        # x - 1 + 1/c - 1/expm1(c) evaluated on both sides.
        c = np.array([[_CB_SEAM * (1 - 1e-9), _CB_SEAM * (1 + 1e-9),
                       -_CB_SEAM * (1 - 1e-9), -_CB_SEAM * (1 + 1e-9)]]).T
        x = np.full_like(c, 0.3)
        closed = x * c + np.log(c / np.expm1(c))
        np.testing.assert_allclose(cb_log_prob_t(c, x).data, closed[:, 0], rtol=1e-14, atol=0)
        grad = node_gradient(lambda arr: cb_log_prob_t(arr, x), c)
        closed_grad = (x - 1.0 + 1.0 / c - 1.0 / np.expm1(c)) / c.shape[0]
        np.testing.assert_allclose(grad, closed_grad, rtol=1e-13, atol=0)

    def test_log_prob_gradient_check(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed + 20)
            x = rng.uniform(0, 1, size=(3, 4))
            raw0 = rng.uniform(-4.0, 4.0, size=(3, 4))

            def build(arr):
                return cb_log_prob_t(arr, x)

            num = fd_grad(lambda arr: node_value(build, arr), raw0.copy())
            np.testing.assert_allclose(node_gradient(build, raw0), num, rtol=1e-6, atol=1e-9)

    def test_log_norm_gradient_near_seam(self):
        # At c = 0 and on both sides of the series seam; a difference
        # straddles the seam at exactly +-_CB_SEAM.
        s = _CB_SEAM
        raw0 = np.array([[0.0, 1e-7, -1e-3, 0.5 * s, s * (1 - 1e-3), s, s * (1 + 1e-3),
                          -s * (1 - 1e-3), -s, -s * (1 + 1e-3), 2 * s]])
        x = np.random.default_rng(9).uniform(0, 1, size=raw0.shape)

        def build(arr):
            return cb_log_prob_t(arr, x)

        num = fd_grad(lambda arr: node_value(build, arr), raw0.copy(), h=1e-6)
        np.testing.assert_allclose(node_gradient(build, raw0), num, rtol=1e-6, atol=1e-9)

    def test_log_prob_gradient_near_at_and_beyond_clamp(self):
        clamp = CB_LOGIT_CLAMP
        raw0 = np.array([[clamp - 0.1, -clamp + 0.1, -7.5, clamp, -clamp, 15.5, -20.0, 1e3]])
        x = np.array([[0.2, 0.7, 0.4, 0.2, 0.7, 0.2, 0.7, 1.0]])

        def build(arr):
            return cb_log_prob_t(arr, x)

        grad = node_gradient(build, raw0)
        num = fd_grad(lambda arr: node_value(build, arr), raw0.copy())
        np.testing.assert_allclose(grad[0, :3], num[0, :3], rtol=1e-6, atol=1e-9)
        # Beyond the clamp the value is flat and the gradient exactly zero.
        assert (grad[0, 5:] == 0.0).all() and (num[0, 5:] == 0.0).all()
        # At the clamp the gradient is the inside one: a second-order
        # one-sided difference from inside.
        h = 1e-5
        for j, inward in ((3, -1.0), (4, 1.0)):
            def at(k, j=j, inward=inward):
                arr = raw0.copy()
                arr[0, j] += k * inward * h
                return node_value(build, arr)

            one_sided = -inward * (3 * at(0) - 4 * at(1) + at(2)) / (2 * h)
            assert grad[0, j] == pytest.approx(one_sided, rel=1e-6, abs=1e-9)
            assert grad[0, j] != 0.0

    def test_tape_free_value_equals_graph_value(self):
        rng = np.random.default_rng(10)
        raw = rng.uniform(-20.0, 20.0, size=(8, 16))
        raw[0, :3] = [0.0, 0.01, -CB_LOGIT_CLAMP]
        x = rng.uniform(0.0, 1.0, size=raw.shape)
        graph = cb_log_prob_t(ad.parameter(raw), x)
        assert graph.data.tobytes() == cb_log_prob_t(raw, x).data.tobytes()

    def test_one_call_records_one_node(self):
        raw = ad.parameter(np.zeros((2, 3)))
        out = cb_log_prob_t(raw, np.full((2, 3), 0.5))
        assert out._parents == (raw,)
        assert not cb_log_prob_t(np.zeros((2, 3)), np.zeros((2, 3)))._parents

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            cb_log_prob_t(np.zeros((2, 3)), np.zeros((2, 4)))


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
