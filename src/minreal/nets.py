"""Dense networks, the Adam optimizer, Gaussian and continuous-Bernoulli
log-likelihoods, reparameterized sampling, and the binary checkpoint format.

Networks come in two flavors per instance: forward() records the autodiff
graph for training; forward_np() is the tape-free inference path used for
dataset encoding and planning. The two compute the same function and agree to
rounding: the graph path's swish and layer norm multiply by a reciprocal where
the tape-free path divides.
"""

from __future__ import annotations

import dataclasses
import io
import json
import struct

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, TrainingAbort
from .tsallis import LOG_STD_MAX, LOG_STD_MIN

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

_CKPT_MAGIC = b"MRCKPT01"

ACTIVATIONS = ("swish", "tanh")
NORMALIZATIONS = ("layer_norm", "none")
NORM_POSITIONS = ("post", "pre")


@dataclasses.dataclass(frozen=True)
class MlpSpec:
    """Fully-connected architecture: the complete width chain (input,
    hidden..., output), hidden activation, and optional layer normalization
    whose placement relative to the activation is configurable."""

    layer_widths: tuple
    activation: str = "swish"
    normalization: str = "layer_norm"
    norm_position: str = "post"

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ConfigError(
                f"need at least one hidden layer, got widths {self.layer_widths}"
            )
        if any(w <= 0 for w in self.layer_widths):
            raise ConfigError(f"layer widths must be positive, got {self.layer_widths}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if self.norm_position not in NORM_POSITIONS:
            raise ConfigError(f"unknown norm_position {self.norm_position!r}")

    @property
    def in_dim(self):
        return self.layer_widths[0]

    @property
    def out_dim(self):
        return self.layer_widths[-1]

    def to_dict(self):
        return {
            "layer_widths": list(self.layer_widths),
            "activation": self.activation,
            "normalization": self.normalization,
            "norm_position": self.norm_position,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            layer_widths=tuple(d["layer_widths"]),
            activation=d["activation"],
            normalization=d["normalization"],
            norm_position=d.get("norm_position", "post"),
        )


class Mlp:
    """Dense network with per-layer weight/bias parameters.

    Weights are initialized N(0, 1/fan_in), biases zero; deterministic for a
    given seed.
    """

    def __init__(self, spec: MlpSpec, seed=0):
        self.spec = spec
        rng = np.random.default_rng(seed)
        self.params = []
        widths = spec.layer_widths
        for fan_in, fan_out in zip(widths, widths[1:]):
            w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
            self.params.append(ad.parameter(w))
            self.params.append(ad.parameter(np.zeros(fan_out)))

    @property
    def n_layers(self):
        return len(self.params) // 2

    def parameter_count(self):
        return sum(p.data.size for p in self.params)

    def _hidden(self, h, is_graph):
        spec = self.spec
        if is_graph:
            act = ad.swish if spec.activation == "swish" else ad.tanh
            if spec.normalization == "layer_norm":
                if spec.norm_position == "pre":
                    return act(ad.layer_norm(h))
                return ad.layer_norm(act(h))
            return act(h)
        act = _swish_np if spec.activation == "swish" else np.tanh
        if spec.normalization == "layer_norm":
            if spec.norm_position == "pre":
                return act(_layer_norm_np(h), out=h)
            return _layer_norm_np(act(h, out=h))
        return act(h, out=h)

    def forward(self, x) -> ad.Tensor:
        """Graph-recording forward pass; x is (batch, in_dim)."""
        x = ad.as_tensor(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.spec.in_dim:
            raise ValueError(
                f"expected input (batch, {self.spec.in_dim}), got {x.data.shape}"
            )
        h = x
        n = self.n_layers
        for i in range(n):
            w, b = self.params[2 * i], self.params[2 * i + 1]
            h = ad.add(ad.matmul(h, w), b)
            if i < n - 1:
                h = self._hidden(h, is_graph=True)
        if not np.all(np.isfinite(h.data)):
            raise TrainingAbort("non-finite values in forward pass")
        return h

    def forward_np(self, x) -> np.ndarray:
        """Tape-free forward pass over a plain array (batch, in_dim)."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim == 1:
            h = h[None, :]
        if h.shape[1] != self.spec.in_dim:
            raise ValueError(
                f"expected input (batch, {self.spec.in_dim}), got {h.shape}"
            )
        n = self.n_layers
        for i in range(n):
            w, b = self.params[2 * i], self.params[2 * i + 1]
            # The product is a fresh array, so the caller's x is never written.
            h = h @ w.data
            h += b.data
            if i < n - 1:
                h = self._hidden(h, is_graph=False)
        return h

    def state_arrays(self):
        return [p.data for p in self.params]

    def load_arrays(self, arrays):
        if len(arrays) != len(self.params):
            raise ValueError(f"expected {len(self.params)} arrays, got {len(arrays)}")
        for p, arr in zip(self.params, arrays):
            if arr.shape != p.data.shape:
                raise ValueError(f"array shape {arr.shape} != param shape {p.data.shape}")
            p.data = np.ascontiguousarray(arr, dtype=np.float64)


# Tape-free helpers: both write their result into an array passed in rather
# than a new one, which keeps forward_np's working set small.
def _swish_np(x, out):
    t = np.negative(x)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(x, t, out=out)


def _layer_norm_np(x, eps=1e-5):
    x -= x.mean(axis=-1, keepdims=True)
    var = (x * x).mean(axis=-1, keepdims=True)
    var += eps
    x /= np.sqrt(var, out=var)
    return x


class Adam:
    """First/second-moment adaptive update with bias correction."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        if learning_rate <= 0:
            raise ConfigError(f"learning rate must be positive, got {learning_rate}")
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1**t)
            v_hat = self.v[i] / (1.0 - b2**t)
            p.data = p.data - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        ad.zero_grads(self.params)


def gaussian_log_prob_t(mean, log_std, x) -> ad.Tensor:
    """Graph version: per-row log density of a diagonal Gaussian, shape (B,)."""
    mean = ad.as_tensor(mean)
    log_std = ad.as_tensor(log_std)
    x = ad.as_tensor(x)
    if x.data.shape[-1] != mean.data.shape[-1]:
        raise ValueError("dimension mismatch in gaussian_log_prob_t")
    inv_std = ad.exp(ad.neg(log_std))
    z = ad.mul(ad.sub(x, mean), inv_std)
    per_dim = ad.sub(ad.scale(ad.mul(z, z), -0.5), log_std)
    total = ad.sum_axis(per_dim, axis=1)
    d = x.data.shape[-1]
    return ad.add_const(total, -d * _HALF_LOG_2PI)


def reparam_sample(mean, log_std, noise) -> ad.Tensor:
    """mean + exp(log_std) * noise; gradients flow to mean and log_std."""
    mean = ad.as_tensor(mean)
    log_std = ad.as_tensor(log_std)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != mean.data.shape:
        raise ValueError(
            f"noise shape {noise.shape} != mean shape {mean.data.shape}"
        )
    return ad.add(mean, ad.mul(ad.exp(log_std), noise))


# --- continuous Bernoulli -------------------------------------------------

# Below this distance from 1/2 the exact normalizer is 0/0; switch to the
# series in t = lambda - 1/2. At the seam both branches agree to ~1e-18.
_CB_SEAM = 1e-3


def cb_log_norm(lam):
    """Log normalizing constant of the continuous Bernoulli on [0, 1].

    C(lam) = 2*atanh(1-2*lam)/(1-2*lam) away from 1/2 and 2 at 1/2.
    Accepts scalars or arrays; domain error outside (0, 1).
    """
    arr = np.asarray(lam, dtype=np.float64)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"cb_log_norm requires lambda in (0, 1), got {lam!r}")
    out = _cb_log_norm_core(arr)
    if np.ndim(lam) == 0:
        return float(out)
    return out


def _cb_log_norm_core(arr):
    t = arr - 0.5
    near = np.abs(t) < _CB_SEAM
    out = np.empty_like(arr)
    # series: log C = log 2 + (4/3) t^2 + (104/45) t^4 + O(t^6)
    ts = t[near]
    out[near] = np.log(2.0) + (4.0 / 3.0) * ts * ts + (104.0 / 45.0) * ts**4
    tf = t[~near]
    out[~near] = np.log(2.0 * np.arctanh(-2.0 * tf) / (-2.0 * tf))
    return out


def _cb_log_norm_deriv(arr):
    """d/d lambda of cb_log_norm, with the matching series branch."""
    t = arr - 0.5
    near = np.abs(t) < _CB_SEAM
    out = np.empty_like(arr)
    ts = t[near]
    out[near] = (8.0 / 3.0) * ts + (416.0 / 45.0) * ts**3
    lf = arr[~near]
    # logC = log(A) - log(B), A = atanh(1-2l)*2 = logit-l form: use
    # A' / A - B' / B with A = log(l/(1-l)) sign-folded, B = 2l - 1.
    out[~near] = 1.0 / (lf * (1.0 - lf) * np.log(lf / (1.0 - lf))) - 2.0 / (
        2.0 * lf - 1.0
    )
    return out


def cb_log_norm_t(lam) -> ad.Tensor:
    """Graph version of cb_log_norm."""
    return ad.custom_unary(lam, _cb_log_norm_core, _cb_log_norm_deriv)


def cb_log_prob(lam, x):
    """Continuous-Bernoulli log density, summed over the last axis.

    lam componentwise in (0, 1), x in [0, 1]; scalars or arrays.
    """
    lam_arr = np.asarray(lam, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("cb_log_prob requires x in [0, 1]")
    if np.any(lam_arr <= 0.0) or np.any(lam_arr >= 1.0):
        raise ValueError("cb_log_prob requires lambda in (0, 1)")
    if lam_arr.shape != x_arr.shape:
        raise ValueError(f"shape mismatch: {lam_arr.shape} vs {x_arr.shape}")
    per = (
        x_arr * np.log(lam_arr)
        + (1.0 - x_arr) * np.log1p(-lam_arr)
        + _cb_log_norm_core(lam_arr)
    )
    out = per.sum(axis=-1) if per.ndim else per
    if np.ndim(out) == 0:
        return float(out)
    return out


def cb_log_prob_t(lam, x) -> ad.Tensor:
    """Graph version: per-row CB log density, shape (B,). x is constant."""
    lam = ad.as_tensor(lam)
    x = np.asarray(x, dtype=np.float64)
    if lam.data.shape != x.shape:
        raise ValueError(f"shape mismatch: {lam.data.shape} vs {x.shape}")
    one_minus = ad.add_const(ad.neg(lam), 1.0)
    per = ad.add(
        ad.add(ad.mul(ad.log(lam), x), ad.mul(ad.log(one_minus), 1.0 - x)),
        cb_log_norm_t(lam),
    )
    return ad.sum_axis(per, axis=1)


def clamp_log_std_t(log_std) -> ad.Tensor:
    return ad.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)


def clamp_log_std_np(log_std):
    return np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)


# --- checkpoint io --------------------------------------------------------


def save_checkpoint(path, header: dict, arrays):
    """Binary layout: magic, u32 JSON header length, JSON header (carries the
    model spec and array shapes in declaration order), then the arrays as raw
    little-endian float64. Round-trips to bitwise-equal parameters."""
    header = dict(header)
    header["arrays"] = [list(a.shape) for a in arrays]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_CKPT_MAGIC)
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    for a in arrays:
        buf.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
    data = buf.getvalue()
    with open(path, "wb") as fh:
        fh.write(data)


def load_checkpoint(path):
    """Returns (header dict, list of float64 arrays)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint file")
    off = len(_CKPT_MAGIC)
    (hlen,) = struct.unpack_from("<I", raw, off)
    off += 4
    header = json.loads(raw[off : off + hlen].decode("utf-8"))
    off += hlen
    arrays = []
    for shape in header["arrays"]:
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(shape)
        arrays.append(arr.astype(np.float64))
        off += 8 * n
    if off != len(raw):
        raise ValueError(f"{path}: trailing bytes after parameter arrays")
    return header, arrays
