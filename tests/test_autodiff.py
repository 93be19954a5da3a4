"""Engine tests: finite-difference gradient checks for every op and for the
Mlp node, backward guard rails, and a straight-line MLP forward oracle. The
Mlp's float64 oracle checks run with the graph in float64 (the float64_graph
fixture), and each has a float32 twin."""

import itertools
import warnings

import numpy as np
import pytest

from minreal import autodiff as ad
from minreal import nets
from minreal.errors import ConfigError, TrainingAbort
from minreal.nets import Adam, Mlp, MlpSpec


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x (flattened loop)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * h)
    return g


def square(a):
    """a * a elementwise as one node: the tests' nonlinear loss piece, built
    with ad.make like the library's fused nodes."""
    a = ad.as_tensor(a)
    return ad.make(a.data * a.data, (a,), lambda g: (2.0 * g * a.data,))


# The float32 twins hold Mlp.forward's default float32 graph to the float64
# oracles of the float64 tests, with 10x headroom over the largest gaps
# measured on these tests' tiny nets: 2.0e-6 relative in a net's output
# values (1.3e-6 in a loss or bracket), and 1.9e-6 of the largest gradient
# magnitude against finite differences.
F32_RTOL = 2e-5  # values and losses, relative
F32_GRAD_TOL = 2e-5  # gradients, as a share of the oracle's largest magnitude


def assert_within_largest(actual, expected, tol):
    """max |actual - expected| <= tol * max |expected|: a gradient measure that
    float32 rounding in small entries of a large array does not trip."""
    assert np.max(np.abs(actual - expected)) <= tol * np.max(np.abs(expected))


def in_float64(monkeypatch, fn):
    """fn() with the graph in float64: a float32 twin's finite differences,
    which float32 rounding would swamp."""
    with monkeypatch.context() as m:
        m.setattr(nets, "GRAPH_DTYPE", np.float64)
        return fn()


def check_op(build, x0, seeds=(0, 1, 2), rel=1e-4):
    """FD-check d(sum of op output)/dx for op graph built by `build`.

    build gets a freshly-seeded rng on every call so any constants it draws
    are identical across finite-difference evaluations.
    """
    for seed in seeds:
        x = x0(np.random.default_rng(seed))

        def scalar(arr, seed=seed):
            p = ad.parameter(arr)
            return float(ad.mean_all(build(p, np.random.default_rng(seed + 1000))).data)

        p = ad.parameter(x.copy())
        out = ad.mean_all(build(p, np.random.default_rng(seed + 1000)))
        ad.backward(out)
        num = fd_grad(scalar, x.copy())
        denom = np.maximum(np.abs(p.grad) + np.abs(num), 1e-6)
        assert np.max(np.abs(p.grad - num) / denom) <= rel


class TestOpGradients:
    def test_add_broadcast(self):
        check_op(lambda p, rng: ad.add(p, np.arange(3.0)), lambda rng: rng.normal(size=(4, 3)))


def operand_shape(rng, full):
    """A shape that broadcasts to `full`: a random suffix of it (leading dims
    dropped) with random axes set to 1."""
    suffix = full[len(full) - int(rng.integers(0, len(full) + 1)):]
    return tuple(1 if rng.random() < 0.4 else n for n in suffix)


@pytest.mark.parametrize("op", [ad.add])
def test_broadcast_gradients_have_input_shapes_and_match_fd(op):
    rng = np.random.default_rng(60)
    for _ in range(30):
        full = tuple(int(n) for n in rng.integers(1, 4, size=rng.integers(1, 4)))
        shape_a, shape_b = operand_shape(rng, full), operand_shape(rng, full)
        a0, b0 = rng.normal(size=shape_a), rng.normal(size=shape_b)

        def loss(a, b):
            # Squared, so each output entry's gradient is distinct.
            return ad.mean_all(square(op(a, b)))

        a, b = ad.parameter(a0), ad.parameter(b0)
        ad.backward(loss(a, b))
        assert a.grad.shape == shape_a and b.grad.shape == shape_b
        num_a = fd_grad(lambda arr: float(loss(arr, b0).data), a0.copy())
        num_b = fd_grad(lambda arr: float(loss(a0, arr).data), b0.copy())
        np.testing.assert_allclose(a.grad, num_a, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(b.grad, num_b, rtol=1e-6, atol=1e-9)


class TestBackward:
    def test_sum_of_params_gradient_ones(self):
        # The sum is size times the mean.
        p = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.mean_all(p))
        np.testing.assert_allclose(p.grad * p.data.size, np.ones((2, 3)))

    def test_half_norm_gradient_is_p(self):
        # Half the squared norm is size / 2 times the mean square.
        x = np.array([[1.0, -2.0, 0.5]])
        p = ad.parameter(x)
        ad.backward(ad.mean_all(square(p)))
        np.testing.assert_allclose(p.grad * (0.5 * p.data.size), x)

    def test_non_scalar_rejected(self):
        p = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.backward(square(p))

    def test_double_backward_rejected(self):
        p = ad.parameter(np.ones(3))
        loss = ad.mean_all(square(p))
        ad.backward(loss)
        with pytest.raises(RuntimeError):
            ad.backward(loss)

    def test_shared_subgraph_accumulates(self):
        p = ad.parameter(np.array([2.0]))
        y = square(p)
        loss = ad.mean_all(ad.add(y, y))  # 2 p^2 -> d/dp = 4p
        ad.backward(loss)
        np.testing.assert_allclose(p.grad, [8.0])

    @pytest.mark.usefixtures("float64_graph")
    def test_constant_matmul_operands_get_no_gradient(self):
        # Mlp.forward's first dense product skips the gradient of an
        # untracked input, such as a data batch.
        net, x = self.constant_input_net()
        for p in net.params:
            np.testing.assert_allclose(p.grad, param_fd_grad(net, x.data, p),
                                       rtol=1e-6, atol=1e-9)

    def test_constant_matmul_operands_get_no_gradient_float32(self, monkeypatch):
        net, x = self.constant_input_net()
        for p in net.params:
            numeric = in_float64(monkeypatch, lambda: param_fd_grad(net, x.data, p))
            assert_within_largest(p.grad, numeric, F32_GRAD_TOL)

    @staticmethod
    def constant_input_net():
        """A net after backward from mean(net(x)^2) at a constant x, which
        gets no gradient."""
        net = Mlp(MlpSpec((3, 5, 2), activation="tanh"), seed=3)
        x = ad.constant(np.random.default_rng(3).normal(size=(4, 3)))
        out = net.forward(x)
        assert out._backward(np.ones_like(out.data))[0] is None
        ad.backward(ad.mean_all(square(out)))
        assert x.grad is None
        return net, x


def mlp_loss(net, x):
    """mean(net(x)^2) as a float."""
    out = net.forward(x).data
    return float((out * out).mean())


def param_fd_grad(net, x, p):
    """Finite-difference gradient of mlp_loss(net, x) in parameter p."""
    def loss_at(arr):
        old, p.data = p.data, arr
        try:
            return mlp_loss(net, x)
        finally:
            p.data = old

    return fd_grad(loss_at, p.data.copy())


class TestMlp:
    def test_zero_weight_network_outputs_bias(self):
        spec = MlpSpec((3, 4, 2), activation="tanh")
        net = Mlp(spec, seed=0)
        for p in net.params:
            p.data = np.zeros_like(p.data)
        net.params[-1].data = np.array([0.5, -1.0])
        out = net.forward_np(np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_allclose(out, np.tile([0.5, -1.0], (5, 1)))

    def test_identity_single_linear_layer(self):
        # identity weights and zero biases in both layers leave only the
        # hidden layer's tanh and layer norm
        spec = MlpSpec((3, 3, 3), activation="tanh")
        net = Mlp(spec, seed=1)
        net.params[0].data = np.eye(3)
        net.params[1].data = np.zeros(3)
        net.params[2].data = np.eye(3)
        net.params[3].data = np.zeros(3)
        v = np.array([[0.01, -0.02, 0.005]])
        t = np.tanh(v) - np.tanh(v).mean()
        expected = t / np.sqrt((t * t).mean() + 1e-5)
        np.testing.assert_allclose(net.forward_np(v), expected, rtol=1e-12)

    @staticmethod
    def straight_line_forward(net, x, dtype):
        """The layers computed step by step in dtype, feature-major as
        forward_np computes: h is (features, batch) and layer norm reduces
        along axis 0."""
        h = x.astype(dtype).T
        for i in range(3):
            w = net.params[2 * i].data.astype(dtype)
            b = net.params[2 * i + 1].data.astype(dtype)
            h = w.T @ h + b[:, None]
            if i < 2:
                h = h / (1.0 + np.exp(-h))
                mu = h.sum(axis=0) / h.shape[0]
                xc = h - mu
                var = np.einsum("ij,ij->j", xc, xc) / h.shape[0]
                h = xc / np.sqrt(var + 1e-5)
        return h.T

    @pytest.mark.usefixtures("float64_graph")
    def test_forward_matches_straight_line_reimplementation(self):
        net = Mlp(MlpSpec((4, 8, 6, 3), activation="swish"), seed=7)
        x = np.random.default_rng(3).normal(size=(5, 4))
        h = self.straight_line_forward(net, x, np.float64)
        # Same ops in the same order as the oracle, so the same bits, on
        # both passes.
        assert net.forward_np(x).tobytes() == h.tobytes()
        assert net.forward(x).data.tobytes() == h.tobytes()

    def test_forward_matches_straight_line_reimplementation_float32(self):
        net = Mlp(MlpSpec((4, 8, 6, 3), activation="swish"), seed=7)
        x = np.random.default_rng(3).normal(size=(5, 4))
        out = net.forward(x).data
        h = self.straight_line_forward(net, x, np.float32)
        assert out.tobytes() == h.astype(np.float64).tobytes()
        np.testing.assert_allclose(out, self.straight_line_forward(net, x, np.float64),
                                   rtol=F32_RTOL, atol=F32_RTOL)

    @pytest.mark.usefixtures("float64_graph")
    @pytest.mark.parametrize("activation", ["swish", "tanh"])
    def test_tape_free_matches_graph(self, activation):
        net, x, graph = self.graph_of_tracked_input(activation)
        assert graph.data.tobytes() == net.forward_np(x).tobytes()

    @pytest.mark.parametrize("activation", ["swish", "tanh"])
    def test_float32_graph_value_is_forward_np_of_float32_input(self, activation):
        # The gate of the float32 graph: its value is forward_np's float32
        # output, exactly, as a C-ordered float64 array.
        net, x, graph = self.graph_of_tracked_input(activation)
        out = net.forward_np(x.astype(np.float32))
        assert out.dtype == np.float32
        assert graph.data.dtype == np.float64 and graph.data.flags.c_contiguous
        assert graph.data.tobytes() == out.astype(np.float64).tobytes()

    @staticmethod
    def graph_of_tracked_input(activation):
        """(net, x, forward of x as a parameter), checking that neither pass
        writes x."""
        net = Mlp(MlpSpec((5, 16, 12, 3), activation=activation), seed=2)
        x = 2.0 * np.random.default_rng(4).normal(size=(64, 5))
        x_before = x.copy()
        net.forward_np(x)
        assert x.tobytes() == x_before.tobytes()
        graph = net.forward(ad.parameter(x))
        assert x.tobytes() == x_before.tobytes()
        return net, x, graph

    def test_graph_output_is_c_contiguous(self):
        # The heads slice columns and the log-densities sum along axis 1.
        # On forward_np's
        # transposed (F-ordered) view, q-VAE epochs ran about 14% slower
        # (medians of 6 alternating runs on 2 cores, 165 against 145 ms).
        net = Mlp(MlpSpec((3, 6, 4)), seed=1)
        out = net.forward(np.ones((5, 3)))
        assert out.data.flags.c_contiguous

    def test_one_call_records_one_node(self):
        net = Mlp(MlpSpec((3, 6, 5, 4)), seed=1)
        x = ad.parameter(np.ones((2, 3)))
        out = net.forward(x)
        assert len(out._parents) == 1 + 2 * net.n_layers
        assert out._parents[0] is x
        assert all(a is b for a, b in zip(out._parents[1:], net.params))
        assert all(p._parents == () for p in out._parents)

    def test_forward_bitwise_deterministic(self):
        spec = MlpSpec((4, 8, 2))
        net = Mlp(spec, seed=5)
        x = np.random.default_rng(9).normal(size=(6, 4))
        a = net.forward_np(x)
        b = net.forward_np(x)
        assert a.tobytes() == b.tobytes()

    @staticmethod
    def gradient_checks(fd):
        """(analytic, finite-difference) pairs of mean(net(x)^2) in a tracked
        x and every parameter, for both activations and three seeds; fd(fn)
        runs the differences."""
        for activation, seed in itertools.product(("swish", "tanh"), (0, 1, 2)):
            net = Mlp(MlpSpec((3, 5, 4, 2), activation=activation), seed=seed)
            x0 = np.random.default_rng(seed + 10).normal(size=(4, 3))
            x = ad.parameter(x0)
            out = net.forward(x)
            ad.backward(ad.mean_all(square(out)))
            yield x.grad, fd(lambda: fd_grad(lambda arr: mlp_loss(net, arr), x0.copy()))
            for p in net.params:
                yield p.grad, fd(lambda: param_fd_grad(net, x0, p))

    @pytest.mark.usefixtures("float64_graph")
    def test_mlp_gradient_check(self):
        for analytic, numeric in self.gradient_checks(lambda fn: fn()):
            denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4

    def test_mlp_gradient_check_float32(self, monkeypatch):
        for analytic, numeric in self.gradient_checks(lambda fn: in_float64(monkeypatch, fn)):
            assert analytic.dtype == np.float64
            assert_within_largest(analytic, numeric, F32_GRAD_TOL)

    def test_shape_mismatch(self):
        net = Mlp(MlpSpec((3, 4, 2)))
        with pytest.raises(ValueError):
            net.forward_np(np.zeros((2, 5)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_aborts_before_arithmetic(self, value):
        net = Mlp(MlpSpec((3, 4, 4, 2)))
        net.params[2].data[1, 1] = value  # layer 1's weight
        # a RuntimeWarning from matmul or layer norm would fail the test
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingAbort, match="parameter w1"):
                net.forward(np.ones((2, 3)))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            MlpSpec((3, 2))  # no hidden layer
        with pytest.raises(ConfigError):
            MlpSpec((3, 0, 2))
        with pytest.raises(ConfigError):
            MlpSpec((3, 4, 2), activation="relu")


class TestAdam:
    def test_zero_gradient_no_motion(self):
        net = Mlp(MlpSpec((2, 3, 1)), seed=0)
        before = [p.data.copy() for p in net.params]
        opt = Adam(net.params, learning_rate=0.1)
        for _ in range(5):
            for p in net.params:
                p.grad = np.zeros_like(p.data)
            opt.step()
        for p, b in zip(net.params, before):
            assert np.max(np.abs(p.data - b)) <= 1e-12

    def test_constant_gradient_moves_against_sign(self):
        p = ad.parameter(np.zeros(3))
        opt = Adam([p], learning_rate=0.01)
        g = np.array([1.0, -2.0, 0.5])
        for _ in range(50):
            p.grad = g.copy()
            opt.step()
        assert np.all(np.sign(p.data) == -np.sign(g))

    def test_first_step_magnitude_matches_closed_form(self):
        # t=1: m_hat = g, v_hat = g^2, step = lr * g / (|g| + eps) ~ lr*sign(g)
        p = ad.parameter(np.array([3.0, -1.0]))
        lr = 0.05
        opt = Adam([p], learning_rate=lr)
        g = np.array([0.7, -0.2])
        p.grad = g.copy()
        opt.step()
        expected = np.array([3.0, -1.0]) - lr * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    @pytest.mark.parametrize("learning_rate", [0.0, -1e-3, np.nan, np.inf])
    def test_learning_rate_must_be_positive_and_finite(self, learning_rate):
        # NaN once passed, because nan <= 0 is False.
        with pytest.raises(ConfigError, match="learning rate"):
            Adam([ad.parameter(np.zeros(2))], learning_rate=learning_rate)

    def test_deterministic_given_state(self):
        def run():
            net = Mlp(MlpSpec((2, 4, 1)), seed=3)
            opt = Adam(net.params, learning_rate=0.01)
            x = np.linspace(-1, 1, 8).reshape(4, 2)
            for _ in range(10):
                opt.zero_grad()
                out = net.forward(x)
                loss = ad.mean_all(square(out))
                ad.backward(loss)
                opt.step()
            return np.concatenate([p.data.ravel() for p in net.params])

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()
