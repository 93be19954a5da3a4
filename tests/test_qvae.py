"""Deformed-VAE objective: straight-line single-sample oracle, exact q = 1
reduction to the (beta-)VAE, bracket non-negativity, gradient checks, and
training-loop contracts. The loss's float64 oracle checks run with the graph
in float64 (the float64_graph fixture), and each has a float32 twin."""

import json

import numpy as np
import pytest

from minreal import autodiff as ad
from minreal import errors
from minreal.errors import ConfigError, TrainingAbort
from minreal.nets import CB_LOGIT_CLAMP, Mlp, MlpSpec, load_checkpoint
from minreal.qvae import (
    RECON_BLOCK_ROWS,
    ObservationClass,
    QvaeModel,
    TrainConfig,
    _bracket_values,
    _deformed_sum_t,
    bracket_term,
    build_qvae,
    load_qvae,
    qvae_loss,
    recon_mse,
    save_qvae,
    train_qvae,
)
from minreal.tsallis import QParams, q_log
from test_autodiff import F32_GRAD_TOL, F32_RTOL, assert_within_largest, fd_grad, in_float64

TINY_CLASSES = (
    ObservationClass("proprio", "diag_gaussian", 2),
    ObservationClass("image", "continuous_bernoulli", 4),
)

QP_TABLE = QParams(q=0.95, class_qs=(0.95, 0.999), class_weights=(50.0, 1.0),
                   beta=50.0, gamma=3.0)
QP_VAE = QParams(q=1.0, class_qs=(1.0, 1.0), class_weights=(1.0, 1.0),
                 beta=1.0, gamma=1.0)
# A strict chain: 30 > 20 > 5 (QParams.chain).
QP_STRICT = QParams(q=0.9, class_qs=(0.95, 0.999), class_weights=(10.0, 0.05),
                    beta=30.0, gamma=3.0)


def tiny_model(qparams=QP_TABLE, seed=0, latent_dim=3):
    return build_qvae(
        TINY_CLASSES,
        latent_dim=latent_dim,
        qparams=qparams,
        encoder_hidden=(6,),
        decoder_hidden=[(5,), (5,)],
        seed=seed,
    )


def tiny_batch(model, n, seed=0):
    rng = np.random.default_rng(seed)
    gauss = rng.normal(0.0, 0.5, size=(n, 2))
    img = rng.uniform(0.0, 1.0, size=(n, model.obs_dim - 2))
    x = np.hstack([gauss, img])
    noise = rng.standard_normal((n, model.latent_dim))
    return x, noise


def mlp_forward_oracle(net, x):
    """Straight-line MLP forward, independent of the graph machinery."""
    h = np.asarray(x, dtype=np.float64)
    arrays = net.arrays()
    n = net.n_layers
    for i in range(n):
        h = h @ arrays[2 * i] + arrays[2 * i + 1]
        if i < n - 1:
            if net.spec.activation == "swish":
                h = h / (1.0 + np.exp(-h))
            else:
                h = np.tanh(h)
            mu = h.mean(axis=-1, keepdims=True)
            xc = h - mu
            h = xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
    return h


def straight_line_loss(model, x, noise, qp, max_exponent=50.0):
    """Hand-rolled evaluation of the objective, term by term."""
    x = np.asarray(x, dtype=np.float64)
    z_dim = model.latent_dim
    enc = mlp_forward_oracle(model.encoder, x)
    mu, ls = enc[:, :z_dim], np.clip(enc[:, z_dim:], -6.0, 2.0)
    z = mu + np.exp(ls) * noise

    def gauss_lp(mean, log_std, v):
        zn = (v - mean) / np.exp(log_std)
        return np.sum(-0.5 * zn**2 - log_std - 0.5 * np.log(2 * np.pi), axis=1)

    log_pz = gauss_lp(np.zeros_like(z), np.zeros_like(z), z)
    log_pzx = gauss_lp(mu, ls, z)

    logps = []
    off = 0
    for cls, dec in zip(model.classes, model.decoders):
        block = x[:, off : off + cls.width]
        off += cls.width
        raw = mlp_forward_oracle(dec, z)
        if cls.kind == "diag_gaussian":
            m, s = raw[:, : cls.width], np.clip(raw[:, cls.width :], -6.0, 2.0)
            logps.append(gauss_lp(m, s, block))
        else:
            lam = 1.0 / (1.0 + np.exp(-np.clip(raw, -15.0, 15.0)))
            lnC = np.log(2.0 * np.arctanh(1.0 - 2.0 * lam) / (1.0 - 2.0 * lam))
            logps.append(
                np.sum(block * np.log(lam) + (1 - block) * np.log(1 - lam) + lnC, axis=1)
            )

    q = qp.q
    if q == 1.0:
        obj = sum(w * lp for w, lp in zip(qp.class_weights, logps))
        obj = obj + qp.beta * log_pz - qp.gamma * log_pzx
    else:
        u_z = np.minimum((1 - q) * log_pz, max_exponent)
        recon = np.zeros(x.shape[0])
        prefix = np.ones(x.shape[0])
        for lp, qc, w in zip(logps, qp.class_qs, qp.class_weights):
            u = np.minimum((1 - qc) * lp, max_exponent)
            recon += w * prefix * np.expm1(u) / (1 - qc)
            prefix = prefix * np.exp(u)
        obj = (
            np.exp(u_z) * recon
            + qp.beta * np.expm1(u_z) / (1 - q)
            - qp.gamma
            * np.expm1(np.minimum((1 - q) * log_pzx, max_exponent))
            / (1 - q)
        )
    return -float(np.mean(obj))


def assert_loss_gradient_matches_fd(model, x, noise, monkeypatch=None):
    """Every parameter's gradient of qvae_loss against central differences.
    With monkeypatch, the float32 twin: the differences run on the float64
    graph and each gradient is held to them by assert_within_largest."""
    loss, _ = qvae_loss(model, x, noise)
    grads = ad.backward(loss, model.parameters())
    for p, analytic in zip(model.parameters(), grads):

        def f(arr, p=p):
            old = p.data
            p.data = arr
            v, _ = qvae_loss(model, x, noise)
            p.data = old
            return float(v.data)

        if monkeypatch is None:
            numeric = fd_grad(f, p.data.copy())
            denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4
        else:
            numeric = in_float64(monkeypatch, lambda: fd_grad(f, p.data.copy()))
            assert_within_largest(analytic, numeric, F32_GRAD_TOL)


class TestObservationClass:
    @pytest.mark.parametrize("width", [2.5, 2.0, True, 0, -1])
    def test_width_must_be_a_positive_integer(self, width):
        # 2.5 was once accepted with raw_width 5.0, and True as width 1.
        with pytest.raises(ConfigError, match="width"):
            ObservationClass("a", "diag_gaussian", width)

    def test_numpy_integer_width_stored_as_int(self):
        cls = ObservationClass("a", "diag_gaussian", np.int64(3))
        assert type(cls.width) is int and cls.raw_width == 6


class TestModelWidths:
    """QvaeModel takes |Z| from its encoder, which outputs a mean and a
    log-std per latent dim, and checks every decoder against it."""

    def nets(self, encoder_out=6, decoder_in=3):
        encoder = Mlp(MlpSpec((6, 5, encoder_out)))
        decoders = [Mlp(MlpSpec((decoder_in, 5, c.raw_width))) for c in TINY_CLASSES]
        return encoder, decoders

    def test_latent_dim_from_encoder(self):
        model = QvaeModel(TINY_CLASSES, *self.nets(), QP_TABLE)
        assert model.latent_dim == 3 and model.obs_dim == 6
        assert tiny_model(latent_dim=5).latent_dim == 5

    def test_odd_encoder_output_rejected(self):
        with pytest.raises(ConfigError, match="encoder output"):
            QvaeModel(TINY_CLASSES, *self.nets(encoder_out=7), QP_TABLE)

    def test_decoder_input_must_be_latent_dim(self):
        with pytest.raises(ConfigError, match="decoder"):
            QvaeModel(TINY_CLASSES, *self.nets(decoder_in=4), QP_TABLE)

    def test_one_decoder_per_class(self):
        # One decoder short was once accepted, and recon_mse then raised
        # numpy's "Output array is the wrong shape".
        encoder, decoders = self.nets()
        with pytest.raises(ConfigError, match="decoders"):
            QvaeModel(TINY_CLASSES, encoder, decoders[:1], QP_TABLE)

    def test_checkpoint_header_holds_no_latent_dim(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_qvae(path, tiny_model(latent_dim=4))
        header, _ = load_checkpoint(path, "qvae")
        assert "latent_dim" not in header
        assert load_qvae(path).latent_dim == 4


class TestEncodeDecode:
    def test_zero_weight_encoder(self):
        model = tiny_model()
        model.encoder.param.data[...] = 0.0
        model.encoder.arrays()[-1][...] = np.concatenate([np.full(3, 0.25), np.full(3, -9.0)])
        belief = model.encode(np.zeros((2, model.obs_dim)))
        np.testing.assert_allclose(belief.mean, 0.25)
        np.testing.assert_allclose(belief.log_std, -6.0)  # clamped bias

    def test_encode_deterministic(self):
        model = tiny_model(seed=3)
        x, _ = tiny_batch(model, 4, seed=1)
        a, b = model.encode(x), model.encode(x)
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.log_std.tobytes() == b.log_std.tobytes()

    def test_encode_matches_oracle(self):
        model = tiny_model(seed=5)
        x, _ = tiny_batch(model, 6, seed=2)
        enc = mlp_forward_oracle(model.encoder, x)
        belief = model.encode(x)
        np.testing.assert_allclose(belief.mean, enc[:, :3], atol=1e-12)
        np.testing.assert_allclose(belief.log_std, np.clip(enc[:, 3:], -6, 2), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("col", [0, 5])  # the Gaussian and the image block
    def test_encode_rejects_non_finite_x(self, col, bad):
        model = tiny_model(seed=3)
        x, _ = tiny_batch(model, 4, seed=1)
        x[2, col] = bad
        with pytest.raises(ValueError, match="non-finite values in x"):
            model.encode(x)

    # With blocks of 4 rows of check_finite's scan, rows 3 and 4 are the
    # last and first of a block and row 10 the last of all.
    @pytest.mark.parametrize("row", [3, 4, 10])
    def test_encode_checks_every_block_of_rows(self, row, monkeypatch):
        model = tiny_model(seed=3)
        monkeypatch.setattr(errors, "FINITE_BLOCK_ELEMENTS", 4 * model.obs_dim)
        x, _ = tiny_batch(model, 11, seed=1)
        x[row, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite values in x"):
            model.encode(x)

    def test_zero_weight_cb_decoder(self):
        model = tiny_model()
        dec = model.decoders[1]
        dec.param.data[...] = 0.0
        dec.arrays()[-1][...] = 0.8
        out = model.decode(np.zeros((1, 3)))
        np.testing.assert_allclose(out[1], 1.0 / (1.0 + np.exp(-0.8)))

    def test_decode_matches_oracle(self):
        model = tiny_model(seed=6)
        z = np.random.default_rng(3).normal(size=(4, 3))
        out = model.decode(z)
        raw_g = mlp_forward_oracle(model.decoders[0], z)
        np.testing.assert_allclose(out[0][0], raw_g[:, :2], atol=1e-12)
        raw_c = mlp_forward_oracle(model.decoders[1], z)
        np.testing.assert_allclose(
            out[1], 1.0 / (1.0 + np.exp(-np.clip(raw_c, -15, 15))), atol=1e-12
        )

    def test_cb_lambda_bitwise_equal_to_sigmoid_expression(self):
        # decode's in-place sigmoid against the expression it replaced, on
        # logits both inside and beyond the clamp
        model = tiny_model(seed=6)
        model.decoders[1].arrays()[-1][...] = [-30.0, -1.0, 2.0, 30.0]
        z = np.random.default_rng(4).normal(size=(50, 3))
        raw = model.decoders[1].forward_np(z)
        expected = 1.0 / (1.0 + np.exp(-np.clip(raw, -CB_LOGIT_CLAMP, CB_LOGIT_CLAMP)))
        assert model.decode(z)[1].tobytes() == expected.tobytes()

    def test_class_order_validation(self):
        bad = (
            ObservationClass("image", "continuous_bernoulli", 4),
            ObservationClass("proprio", "diag_gaussian", 2),
        )
        with pytest.raises(ConfigError):
            build_qvae(bad, 3, QP_TABLE)


class TestLoss:
    # (model seed, data seed, rows) of one datum and of three batches
    SINGLE_DATUM = [(7, 4, 1)]
    BATCHES = [(seed, seed + 10, 9) for seed in (0, 1, 2)]

    @staticmethod
    def losses_and_oracles(cases):
        for model_seed, data_seed, rows in cases:
            model = tiny_model(seed=model_seed)
            x, noise = tiny_batch(model, rows, seed=data_seed)
            loss, _ = qvae_loss(model, x, noise)
            yield float(loss.data), straight_line_loss(model, x, noise, model.qparams)

    @pytest.mark.usefixtures("float64_graph")
    def test_matches_straight_line_oracle_single_datum(self):
        for loss, oracle in self.losses_and_oracles(self.SINGLE_DATUM):
            assert loss == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.usefixtures("float64_graph")
    def test_matches_straight_line_oracle_batch(self):
        for loss, oracle in self.losses_and_oracles(self.BATCHES):
            assert loss == pytest.approx(oracle, abs=1e-10)

    def test_matches_straight_line_oracle_float32(self):
        for loss, oracle in self.losses_and_oracles(self.SINGLE_DATUM + self.BATCHES):
            assert loss == pytest.approx(oracle, rel=F32_RTOL)

    @staticmethod
    def loss_and_neg_elbo():
        """qvae_loss at q = 1 and an independent negative ELBO: recon NLL
        plus a Monte-Carlo KL."""
        model = tiny_model(qparams=QP_VAE, seed=8)
        x, noise = tiny_batch(model, 7, seed=5)
        loss, _ = qvae_loss(model, x, noise)

        belief = model.encode(x)
        mu, ls = belief.mean, belief.log_std
        z = mu + np.exp(ls) * noise
        out = model.decode(z)
        m, s = out[0]
        zn = (x[:, :2] - m) / np.exp(s)
        lp1 = np.sum(-0.5 * zn**2 - s - 0.5 * np.log(2 * np.pi), axis=1)
        lam = out[1]
        lnC = np.log(2.0 * np.arctanh(1.0 - 2.0 * lam) / (1.0 - 2.0 * lam))
        xb = x[:, 2:]
        lp2 = np.sum(xb * np.log(lam) + (1 - xb) * np.log(1 - lam) + lnC, axis=1)
        zx = (z - mu) / np.exp(ls)
        log_pzx = np.sum(-0.5 * zx**2 - ls - 0.5 * np.log(2 * np.pi), axis=1)
        log_pz = np.sum(-0.5 * z**2 - 0.5 * np.log(2 * np.pi), axis=1)
        return float(loss.data), -np.mean(lp1 + lp2 - (log_pzx - log_pz))

    @pytest.mark.usefixtures("float64_graph")
    def test_q1_equals_weighted_elbo(self):
        loss, neg_elbo = self.loss_and_neg_elbo()
        assert loss == pytest.approx(neg_elbo, abs=1e-10)

    def test_q1_equals_weighted_elbo_float32(self):
        loss, neg_elbo = self.loss_and_neg_elbo()
        assert loss == pytest.approx(neg_elbo, rel=F32_RTOL)

    def test_q_near_1_close_to_q1(self):
        qp_near = QParams(
            q=1.0 - 1e-6,
            class_qs=(1.0 - 1e-6, 1.0 - 1e-6),
            class_weights=(1.0, 1.0),
            beta=1.0,
            gamma=1.0,
        )
        m1 = tiny_model(qparams=QP_VAE, seed=9)
        m2 = tiny_model(qparams=qp_near, seed=9)
        x, noise = tiny_batch(m1, 16, seed=6)
        l1, _ = qvae_loss(m1, x, noise)
        l2, _ = qvae_loss(m2, x, noise)
        assert float(l2.data) == pytest.approx(float(l1.data), rel=1e-3)

    def test_breakdown_identity(self):
        model = tiny_model(seed=10)
        x, noise = tiny_batch(model, 8, seed=7)
        loss, bd = qvae_loss(model, x, noise)
        combo = -(sum(bd.recon_per_class) + bd.prior_term + bd.entropy_term)
        assert bd.total == pytest.approx(combo, abs=1e-10)
        assert bd.total == float(loss.data)

    def test_bracket_nonnegative_on_random_batches(self):
        model = tiny_model(seed=11)
        for seed in range(5):
            x, noise = tiny_batch(model, 32, seed=seed)
            _, bd = qvae_loss(model, x, noise)
            assert bd.bracket_min >= 0.0

    def test_condition_violation_raises(self):
        # beta = 5 < 50 breaks the chain (train_qvae refuses it up front); far
        # proprio data then drive the bracket to about -900, which the loss
        # always checks for q < 1
        bad = QParams(q=0.95, class_qs=(0.95, 0.999), class_weights=(50.0, 1.0),
                      beta=5.0, gamma=3.0)
        model = tiny_model(qparams=bad, seed=12)
        x, noise = tiny_batch(model, 4, seed=8)
        x[:, :2] = 60.0
        with pytest.raises(TrainingAbort, match="bracket"):
            qvae_loss(model, x, noise)

    def test_exponent_clamp_counts_saturation(self):
        # one 24-wide Gaussian class, decoded exactly on the data with
        # log-std -6: log p = 24 * (6 - log(2 pi) / 2) ~ 122, and
        # (1 - q) * log p ~ 110 > 50 in every row
        width, rows = 24, 5
        qp = QParams(q=0.1, class_qs=(0.1,), class_weights=(1.0,), beta=1.0, gamma=1.0)
        model = build_qvae((ObservationClass("proprio", "diag_gaussian", width),),
                           latent_dim=3, qparams=qp, encoder_hidden=(6,),
                           decoder_hidden=[(5,)], seed=24)
        rng = np.random.default_rng(25)
        data = rng.normal(size=width)
        for net in (model.encoder, model.decoders[0]):
            net.param.data[...] = 0.0
        # z = noise, so (1 - q) * log p(z) and (1 - q) * log p(z|x) stay < 0
        model.decoders[0].arrays()[-1][...] = np.concatenate([data, np.full(width, -6.0)])
        x = np.tile(data, (rows, 1))
        noise = rng.standard_normal((rows, 3))
        log_p = width * (6.0 - 0.5 * np.log(2 * np.pi))
        assert (1 - 0.1) * log_p > 50.0
        loss, bd = qvae_loss(model, x, noise)
        oracle = straight_line_loss(model, x, noise, qp, max_exponent=50.0)
        assert float(loss.data) == pytest.approx(oracle, rel=1e-12)
        assert bd.saturation_count == rows

    def test_empty_batch_rejected(self):
        model = tiny_model(seed=13)
        with pytest.raises(ValueError):
            qvae_loss(model, np.zeros((0, model.obs_dim)), np.zeros((0, 3)))

    @staticmethod
    def gradient_cases():
        # |Z| = 3 with an 8-pixel image class, per the downsized contract.
        classes = (
            ObservationClass("proprio", "diag_gaussian", 2),
            ObservationClass("image", "continuous_bernoulli", 8),
        )
        for seed in (0, 1, 2):
            model = build_qvae(
                classes, latent_dim=3, qparams=QP_TABLE,
                encoder_hidden=(6,), decoder_hidden=[(4,), (4,)], seed=seed,
            )
            rng = np.random.default_rng(seed + 40)
            x = np.hstack(
                [rng.normal(0, 0.5, (4, 2)), rng.uniform(0, 1, (4, 8))]
            )
            yield model, x, rng.standard_normal((4, 3))

    @pytest.mark.usefixtures("float64_graph")
    def test_gradient_finite_difference(self):
        for model, x, noise in self.gradient_cases():
            assert_loss_gradient_matches_fd(model, x, noise)

    def test_gradient_finite_difference_float32(self, monkeypatch):
        for model, x, noise in self.gradient_cases():
            assert_loss_gradient_matches_fd(model, x, noise, monkeypatch)


class TestQLogPath:
    """The loss's one ln_q: a one-element _deformed_sum_t chain of weight 1
    is ln_q p from log p, its exponent clamped at 50."""

    @staticmethod
    def lnq(ell, q):
        return _deformed_sum_t([ad.constant(np.atleast_1d(ell))], (q,), (1.0,))[0].data

    def test_zero_log(self):
        assert self.lnq(0.0, 0.3)[0] == 0.0

    def test_matches_q_log(self):
        assert self.lnq(np.log(4.0), 0.5)[0] == pytest.approx(q_log(4.0, 0.5), rel=1e-12)

    def test_large_log_extended_precision_value(self):
        # (e^1 - 1)/0.001 evaluated with 50-digit arithmetic.
        expected = 1718.2818284590452354
        assert self.lnq(1000.0, 0.999)[0] == pytest.approx(expected, rel=1e-12)

    def test_q1_identity(self):
        log_p = ad.parameter(np.array([-123.4, 7.5]))
        out, _, us, saturated = _deformed_sum_t([log_p], (1.0,), (1.0,))
        assert out.data.tobytes() == log_p.data.tobytes()
        np.testing.assert_array_equal(us[0], 0.0)
        assert saturated == 0
        np.testing.assert_array_equal(out._backward(np.ones(2))[0], 1.0)

    def test_exponent_clamp_and_saturation(self):
        # (1-q)*ell = 100 and 60 > 50: clamped, counted and given no
        # gradient; 0 is not.
        log_p = ad.parameter(np.array([1000.0, 0.0, 600.0]))
        out, _, us, saturated = _deformed_sum_t([log_p], (0.9,), (1.0,))
        np.testing.assert_allclose(out.data, [np.expm1(50.0) / 0.1, 0.0, np.expm1(50.0) / 0.1],
                                   rtol=1e-12)
        np.testing.assert_array_equal(us[0], [50.0, 0.0, 50.0])
        assert saturated == 2
        np.testing.assert_array_equal(out._backward(np.ones(3))[0], [0.0, 1.0, 0.0])


THREE_CLASSES = (
    ObservationClass("proprio", "diag_gaussian", 2),
    ObservationClass("velocity", "diag_gaussian", 3),
    ObservationClass("image", "continuous_bernoulli", 4),
)
# A strict chain: 50 > 40 > 30 > 25.
QP_THREE = QParams(q=0.95, class_qs=(0.95, 0.99, 0.999), class_weights=(40.0, 6.0, 0.5),
                   beta=50.0, gamma=3.0)
QP_THREE_VAE = QParams(q=1.0, class_qs=(1.0, 1.0, 1.0), class_weights=(2.0, 1.0, 0.5),
                       beta=1.0, gamma=1.0)


def loss_node_count(loss):
    """Recorded nodes (tensors with parents) in the graph behind loss."""
    seen, stack, count = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            count += bool(t._parents)
            stack.extend(t._parents)
    return count


class TestDeformedChain:
    """_deformed_sum_t over more than one density: three classes put two
    terms in the suffix sum of the first class's gradient."""

    @staticmethod
    def three_class_model(qparams, seed):
        return build_qvae(THREE_CLASSES, latent_dim=3, qparams=qparams, encoder_hidden=(6,),
                          decoder_hidden=[(4,), (4,), (4,)], seed=seed)

    @staticmethod
    def three_class_batch(n, seed):
        rng = np.random.default_rng(seed)
        x = np.hstack([rng.normal(0, 0.5, (n, 5)), rng.uniform(0, 1, (n, 4))])
        return x, rng.standard_normal((n, 3))

    def three_class_losses(self, qparams):
        """(loss, oracle) of three models, checking the per-class breakdown."""
        for seed in (0, 1, 2):
            model = self.three_class_model(qparams, seed)
            x, noise = self.three_class_batch(9, seed + 20)
            loss, bd = qvae_loss(model, x, noise)
            assert len(bd.recon_per_class) == 3
            yield float(loss.data), straight_line_loss(model, x, noise, qparams)

    @pytest.mark.usefixtures("float64_graph")
    @pytest.mark.parametrize("qparams", [QP_THREE, QP_THREE_VAE])
    def test_three_classes_match_straight_line_oracle(self, qparams):
        for loss, oracle in self.three_class_losses(qparams):
            assert loss == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("qparams", [QP_THREE, QP_THREE_VAE])
    def test_three_classes_match_straight_line_oracle_float32(self, qparams):
        for loss, oracle in self.three_class_losses(qparams):
            assert loss == pytest.approx(oracle, rel=F32_RTOL)

    @pytest.mark.usefixtures("float64_graph")
    @pytest.mark.parametrize("qparams", [QP_THREE, QP_THREE_VAE])
    def test_three_classes_gradient_finite_difference(self, qparams):
        model = self.three_class_model(qparams, 3)
        x, noise = self.three_class_batch(4, 30)
        assert_loss_gradient_matches_fd(model, x, noise)

    @pytest.mark.parametrize("qparams", [QP_THREE, QP_THREE_VAE])
    def test_three_classes_gradient_finite_difference_float32(self, qparams, monkeypatch):
        model = self.three_class_model(qparams, 3)
        x, noise = self.three_class_batch(4, 30)
        assert_loss_gradient_matches_fd(model, x, noise, monkeypatch)

    @pytest.mark.parametrize("qparams", [QP_TABLE, QP_STRICT, QP_THREE])
    def test_slope_in_log_prior_is_the_bracket(self, qparams):
        # d chain / d log p(z) = (1-q) p(z)^(1-q) * bracket, per row: the
        # paper's reading of the bracket as the sign of that slope.
        rng = np.random.default_rng(50)
        rows = 7
        log_pz = ad.parameter(rng.normal(-5.0, 2.0, rows))
        log_pcs = [rng.normal(0.0, 30.0, rows) for _ in qparams.class_qs]
        chain, _, _, saturated = _deformed_sum_t(
            [log_pz, *log_pcs], (qparams.q, *qparams.class_qs),
            (qparams.beta, *qparams.class_weights))
        assert saturated == 0
        slope = chain._backward(np.ones(rows))[0]
        us = [(1.0 - qc) * lp for qc, lp in zip(qparams.class_qs, log_pcs)]
        q = qparams.q
        expected = (1.0 - q) * np.exp((1.0 - q) * log_pz.data) * _bracket_values(us, qparams)
        np.testing.assert_allclose(slope, expected, rtol=1e-12)

    @pytest.mark.parametrize("qparams", [QP_TABLE, QP_VAE])
    def test_loss_records_at_most_13_nodes(self, qparams):
        # encoder 1, the sample 1, two Gaussian densities, decoders 2, class
        # densities 2, the two chains and the add / mean / neg that finish
        # the loss.
        model = tiny_model(qparams=qparams, seed=1)
        x, noise = tiny_batch(model, 8)
        loss, _ = qvae_loss(model, x, noise)
        assert loss_node_count(loss) <= 13


class TestReconChain:
    """The reconstruction decomposition from the lower-bound chain: raising
    the class deformations suffix-first never increases the value."""

    @staticmethod
    def mixed_form(logps, qcs):
        total = np.zeros_like(logps[0])
        prefix = np.ones_like(logps[0])
        for lp, qc in zip(logps, qcs):
            total += prefix * np.expm1((1 - qc) * lp) / (1 - qc)
            prefix = prefix * np.exp((1 - qc) * lp)
        return total

    def test_chain_is_nonincreasing(self):
        rng = np.random.default_rng(50)
        for _ in range(300):
            logps = [rng.uniform(-5, 2, size=1) for _ in range(3)]
            q = rng.uniform(0.3, 0.95)
            q1 = rng.uniform(q, 0.97)
            q2 = rng.uniform(q1, 0.99)
            q3 = rng.uniform(q2, 0.995)
            full = q_log(float(np.exp(sum(lp[0] for lp in logps))), q)
            step1 = self.mixed_form(logps, (q1, q1, q1))[0]
            step2 = self.mixed_form(logps, (q1, q2, q2))[0]
            step3 = self.mixed_form(logps, (q1, q2, q3))[0]
            tol = 1e-9 * max(1.0, abs(full))
            assert full >= step1 - tol
            assert step1 >= step2 - tol
            assert step2 >= step3 - tol

    def test_raising_last_class_q_never_increases(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            logps = [rng.uniform(-5, 2, size=1) for _ in range(2)]
            q1 = rng.uniform(0.3, 0.95)
            q2 = rng.uniform(q1, 0.99)
            q2_hi = rng.uniform(q2, 0.999)
            lo = self.mixed_form(logps, (q1, q2))[0]
            hi = self.mixed_form(logps, (q1, q2_hi))[0]
            assert lo >= hi - 1e-9 * max(1.0, abs(lo))


class TestBracket:
    def test_equality_chain_reduces_to_first_term(self):
        model = tiny_model(seed=14)
        x, noise = tiny_batch(model, 6, seed=9)
        belief = model.encode(x)
        z = belief.mean + np.exp(belief.log_std) * noise
        vals = bracket_term(model, x, z)
        # gaps are exactly zero for the table-style parameters, so the value
        # is zeta_C * p(x_<C)^(1-q_<C) * p(x_C)^(1-q_C) / (1 - q_C) alone
        qp = model.qparams
        out = model.decode(z)
        m, s = out[0]
        zn = (x[:, :2] - m) / np.exp(s)
        lp1 = np.sum(-0.5 * zn**2 - s - 0.5 * np.log(2 * np.pi), axis=1)
        lam = out[1]
        lnC = np.log(2.0 * np.arctanh(1.0 - 2.0 * lam) / (1.0 - 2.0 * lam))
        xb = x[:, 2:]
        lp2 = np.sum(xb * np.log(lam) + (1 - xb) * np.log(1 - lam) + lnC, axis=1)
        first = (
            qp.class_weights[1]
            / (1 - qp.class_qs[1])
            * np.exp((1 - qp.class_qs[0]) * lp1)
            * np.exp((1 - qp.class_qs[1]) * lp2)
        )
        np.testing.assert_allclose(vals, first, rtol=1e-10)
        assert np.all(vals >= 0)

    @staticmethod
    def bracket_mins():
        """bracket_term's minimum at the loss's latents, and the loss's."""
        model = tiny_model(seed=14)
        x, noise = tiny_batch(model, 6, seed=9)
        belief = model.encode(x)
        z = belief.mean + np.exp(belief.log_std) * noise
        _, bd = qvae_loss(model, x, noise)
        return bracket_term(model, x, z).min(), bd.bracket_min

    @pytest.mark.usefixtures("float64_graph")
    def test_min_matches_loss_bracket_min(self):
        tape_free, loss = self.bracket_mins()
        assert tape_free == pytest.approx(loss, rel=1e-12)

    def test_min_matches_loss_bracket_min_float32(self):
        tape_free, loss = self.bracket_mins()
        assert tape_free == pytest.approx(loss, rel=F32_RTOL)

    def test_strict_chain_floor_at_vanishing_likelihood(self):
        qp = QParams(q=0.9, class_qs=(0.95, 0.999), class_weights=(10.0, 1.0),
                     beta=30.0, gamma=3.0)
        gap1 = qp.beta / (1 - qp.q) - qp.class_weights[0] / (1 - qp.class_qs[0])
        assert gap1 > 0
        model = tiny_model(qparams=qp, seed=15)
        # drive likelihoods to ~0 by evaluating far-off observations
        x = np.hstack([np.full((3, 2), 60.0), np.full((3, 4), 0.5)])
        z = np.zeros((3, 3))
        vals = bracket_term(model, x, z)
        assert np.all(vals > 0)
        assert np.all(vals >= gap1 - 1e-6)

    @pytest.mark.parametrize("qparams", [
        QP_TABLE, QP_STRICT, QP_THREE,
        # the equality chain (10, 10, 10), and a violating one (30, 40, 50)
        QParams(q=0.99, class_qs=(0.99, 0.999), class_weights=(10.0, 1.0), beta=10.0,
                gamma=3.0),
        QParams(q=0.95, class_qs=(0.95, 0.999), class_weights=(40.0, 1.0), beta=30.0,
                gamma=3.0),
    ])
    def test_values_equal_gap_formula_bitwise(self, qparams):
        # The bracket from the gaps zeta_{c-1}/(1-q_{c-1}) - zeta_c/(1-q_c),
        # written out; _bracket_values forms them from QParams.chain.
        rng = np.random.default_rng(51)
        rows = 100_000
        us = [np.minimum((1.0 - qc) * rng.normal(-20.0, 100.0, rows), 50.0)
              for qc in qparams.class_qs]
        qs = (qparams.q, *qparams.class_qs)
        zs = (qparams.beta, *qparams.class_weights)
        expected = np.zeros(rows)
        log_prefix = np.zeros(rows)
        for c in range(1, len(qs)):
            gap = zs[c - 1] / (1.0 - qs[c - 1]) - zs[c] / (1.0 - qs[c])
            expected += np.exp(log_prefix) * gap
            log_prefix = log_prefix + us[c - 1]
        expected += zs[-1] / (1.0 - qs[-1]) * np.exp(log_prefix)
        np.testing.assert_array_equal(_bracket_values(us, qparams), expected)

    def test_bracket_requires_q_below_1(self):
        model = tiny_model(qparams=QP_VAE, seed=16)
        with pytest.raises(ConfigError):
            bracket_term(model, np.zeros((1, model.obs_dim)), np.zeros((1, 3)))


class TestTraining:
    def test_zero_epochs_unchanged(self):
        model = tiny_model(seed=17)
        before = [p.data.copy() for p in model.parameters()]
        x, _ = tiny_batch(model, 32, seed=11)
        train_qvae(model, x, TrainConfig(epochs=0, batch_size=8, seed=0))
        for p, b in zip(model.parameters(), before):
            assert p.data.tobytes() == b.tobytes()

    def test_same_seed_bitwise_identical_checkpoints(self, tmp_path):
        def run(path):
            model = tiny_model(seed=18)
            x, _ = tiny_batch(model, 64, seed=12)
            train_qvae(
                model, x,
                TrainConfig(epochs=3, batch_size=16, seed=5, learning_rate=1e-3),
                ckpt_path=path,
            )

        run(tmp_path / "a.ckpt")
        run(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_training_reduces_loss_and_logs(self, tmp_path):
        model = tiny_model(seed=19)
        x, _ = tiny_batch(model, 128, seed=13)
        log = tmp_path / "train.log"
        records = train_qvae(
            model, x,
            TrainConfig(epochs=25, batch_size=32, seed=1, learning_rate=3e-3),
            log_path=log,
        )
        assert records[-1].total < records[0].total
        assert all(r.bracket_min >= 0 for r in records)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [(d["stage"], d["epoch"]) for d in lines] == [
            ("qvae", e) for e in range(1, 26)]
        assert [d["record"] for d in lines] == [vars(r) for r in records]

    def test_abort_saves_last_good_checkpoint(self, tmp_path):
        model = tiny_model(seed=20)
        x, _ = tiny_batch(model, 32, seed=14)
        model.encoder.arrays()[0][...] = np.inf
        # the poisoned weights blow up the forward pass on the first batch
        with pytest.raises(TrainingAbort):
            train_qvae(
                model, x, TrainConfig(epochs=1, batch_size=16, seed=2),
                ckpt_path=tmp_path / "abort.ckpt",
            )
        assert (tmp_path / "abort.ckpt").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected_before_training(self, tmp_path, bad):
        model = tiny_model(seed=24)
        before = [p.data.copy() for p in model.parameters()]
        x, _ = tiny_batch(model, 32, seed=18)
        x[5, 3] = bad
        log, ckpt = tmp_path / "train.log", tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="x_data"):
            train_qvae(model, x, TrainConfig(epochs=2, batch_size=8, seed=0),
                       log_path=log, ckpt_path=ckpt)
        assert not log.exists() and not ckpt.exists()
        for p, b in zip(model.parameters(), before):
            assert p.data.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", [3.0, -0.5])
    def test_continuous_bernoulli_data_outside_unit_interval_rejected(self, tmp_path, bad):
        model = tiny_model(seed=25)
        before = [p.data.copy() for p in model.parameters()]
        x, _ = tiny_batch(model, 32, seed=19)
        x[7, 2:] = bad  # the image (continuous-Bernoulli) block of one row
        log, ckpt = tmp_path / "train.log", tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="x_data.*image"):
            train_qvae(model, x, TrainConfig(epochs=2, batch_size=8, seed=0),
                       log_path=log, ckpt_path=ckpt)
        assert not log.exists() and not ckpt.exists()
        for p, b in zip(model.parameters(), before):
            assert p.data.tobytes() == b.tobytes()

    def test_condition_checked_before_training(self):
        bad = QParams(q=0.95, class_qs=(0.95, 0.999), class_weights=(50.0, 1.0),
                      beta=5.0, gamma=3.0)
        model = tiny_model(qparams=bad, seed=21)
        x, _ = tiny_batch(model, 16, seed=15)
        with pytest.raises(ConfigError):
            train_qvae(model, x, TrainConfig(epochs=1))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = tiny_model(seed=22)
        path = tmp_path / "m.ckpt"
        save_qvae(path, model)
        back = load_qvae(path)
        assert back.latent_dim == model.latent_dim
        assert back.qparams == model.qparams
        for a, b in zip(model.parameters(), back.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        x, _ = tiny_batch(model, 4, seed=16)
        np.testing.assert_array_equal(model.encode(x).mean, back.encode(x).mean)

    def test_recon_mse_runs(self):
        model = tiny_model(seed=23)
        x, _ = tiny_batch(model, 8, seed=17)
        v = recon_mse(model, x)
        assert np.isfinite(v) and v >= 0

    def test_recon_mse_rejects_zero_rows(self):
        model = tiny_model(seed=23)
        x, _ = tiny_batch(model, 8, seed=17)
        with pytest.raises(ValueError, match="x"):
            recon_mse(model, x[:0])

    def test_recon_mse_bitwise_equal_to_plain_expression(self):
        model = tiny_model(seed=24)
        x, _ = tiny_batch(model, 16, seed=18)
        expected = float(np.mean((model.reconstruct(x) - x) ** 2))
        assert recon_mse(model, x) == expected

    @pytest.mark.parametrize("n", [1, RECON_BLOCK_ROWS - 1, RECON_BLOCK_ROWS,
                                   RECON_BLOCK_ROWS + 1, 2 * RECON_BLOCK_ROWS + 3])
    def test_recon_mse_in_blocks_equals_one_piece(self, n):
        model = tiny_model(seed=25)
        x, _ = tiny_batch(model, n, seed=19)
        expected = float(np.mean((model.reconstruct(x) - x) ** 2))
        got = recon_mse(model, x)
        if n <= RECON_BLOCK_ROWS:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("col", [0, 5])  # the Gaussian and the image block
    def test_recon_mse_rejects_non_finite_x(self, col, bad):
        model = tiny_model(seed=24)
        x, _ = tiny_batch(model, 16, seed=18)
        x[11, col] = bad
        with pytest.raises(ValueError, match="non-finite values in x"):
            recon_mse(model, x)
