"""Dense networks, Adam, the training loop both stages run (fit, which
steps Adam on the gradients autodiff.backward returns), the diagonal-Gaussian
head with its log-std clamp, Gaussian and continuous-Bernoulli log-likelihoods,
reparameterized sampling, and the container of every saved artifact.

The Gaussian head split and its log-std clamp (gaussian_head) is one
plain-numpy function, which inference and the Gaussian nodes share. Each
log-likelihood (gaussian_log_prob_t and cb_log_prob_t) and the
reparameterized sample (reparam_sample) is one autodiff node over its net's
raw output, with a closed-form gradient. On plain arrays (forward_np output)
none of them records a tape, so inference and evaluation run the same head
and density code as the losses and read .data.

Every hidden layer is dense, then the activation (swish or tanh), then layer
normalization without an affine part. A network's weights and biases are
one float64 vector, its one autodiff leaf Mlp.param. Mlp._layers is the one
layer loop; it casts that vector once per call. forward_np() runs it
tape-free, for encoding, evaluation and planning; forward() runs it in
GRAPH_DTYPE (float32) and records the network as one autodiff node, whose
backward runs the layers in reverse in the same dtype into one gradient
vector. Training thus does its layer math in float32 under float64 master
weights: the parameters, Adam's moments, the heads and losses, the
checkpoints and every tape-free path stay float64. The node's value is
forward_np's output on the input cast to GRAPH_DTYPE, bit for bit, as
float64, and the gradients it passes back are float64.

The loop is feature-major: each layer computes W.T @ h + b[:, None] on
(features, batch), and the activation and layer norm (reducing along axis 0,
the feature axis) run in place. In float32 that layout made the planner 2.31x
faster at width 88 on 2 cores. forward_np() returns the (batch, out)
transpose, in float32 for a float32 input (the weights cast on each call)
and in float64 otherwise; forward() copies it to C order for the heads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, MissingArtifact, TrainingAbort, check_finite, check_int, check_real

_MAGIC = b"MRCKPT02"

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

ACTIVATIONS = ("swish", "tanh")

LAYER_NORM_EPS = 1e-5

# Compute dtype of Mlp.forward's layers and their backward: the training
# math. Parameters, Adam's moments, the heads, the losses, checkpoints and
# every tape-free path stay float64. On 2 CPUs (numpy 2.4.6, OpenBLAS
# 0.3.31), 10 paper-config q-VAE epochs on perfbench's training data took
# 0.50-0.56 s in float32 against 0.67-0.72 s in float64, and 20 world epochs
# at 7 kept dims 0.13-0.15 against 0.17-0.20 s (3 alternating in-process
# runs each). Per-epoch q-VAE totals stayed within 5e-5 relative and world
# val_total within 0.0016 nats of float64 training; tests/test_float32_training.py
# gates both against float64.
GRAPH_DTYPE = np.float32

# Adam's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Log-std clamp of every Gaussian head. Bracket chosen around the toy data
# scales: exp(-6) ~ 2.5e-3 is far below pixel resolution, exp(2) ~ 7.4 far
# above the unit box.
LOG_STD_MIN = -6.0
LOG_STD_MAX = 2.0


@dataclasses.dataclass(frozen=True)
class MlpSpec:
    """Fully-connected architecture: the complete width chain (input,
    hidden..., output) and the hidden activation. Each hidden layer computes
    layer_norm(activation(h @ W + b)); the output layer is linear."""

    layer_widths: tuple
    activation: str = "swish"

    def __post_init__(self):
        if not isinstance(self.layer_widths, (list, tuple)):
            raise ConfigError(f"layer_widths must be a list or tuple, got {self.layer_widths!r}")
        object.__setattr__(self, "layer_widths",
                           tuple(check_int("layer width", w, 1) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ConfigError(
                f"need at least one hidden layer, got widths {self.layer_widths}"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self):
        return self.layer_widths[0]

    @property
    def out_dim(self):
        return self.layer_widths[-1]

    def to_dict(self):
        """Header form; MlpSpec(**d) reads it back and rejects unknown keys."""
        return {"layer_widths": list(self.layer_widths), "activation": self.activation}


class Mlp:
    """Dense network whose weights and biases are one float64 autodiff leaf,
    param, laid out as w0, b0, w1, b1, ... with each weight (fan_in,
    fan_out) in C order; arrays() gives the per-layer views.

    Weights are initialized N(0, 1/fan_in), biases zero; deterministic for a
    given seed.
    """

    def __init__(self, spec: MlpSpec, seed=0):
        self.spec = spec
        widths = spec.layer_widths
        shapes = [s for fan_in, fan_out in zip(widths, widths[1:])
                  for s in ((fan_in, fan_out), (fan_out,))]
        stops = np.cumsum([math.prod(s) for s in shapes]).tolist()
        self._layout = list(zip([0, *stops], stops, shapes))  # (start, stop, shape)
        self.param = ad.parameter(np.zeros(stops[-1]))
        rng = np.random.default_rng(seed)
        for w in self.arrays()[::2]:
            w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[0]), size=w.shape)

    @property
    def n_layers(self):
        return len(self._layout) // 2

    def arrays(self, flat=None):
        """Views [w0, b0, w1, b1, ...] of flat, a vector in param's layout
        (param.data by default)."""
        flat = self.param.data if flat is None else flat
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._layout]

    def forward(self, x) -> ad.Tensor:
        """Graph-recording forward pass over x (batch, in_dim): one node with
        parents x and param. The layers and their backward run in
        GRAPH_DTYPE, with x and param cast once per call; the node's value
        is forward_np(x cast to GRAPH_DTYPE) as a C-ordered float64 array,
        and the gradients are float64, param's as one vector in its layout.
        An untracked x gets no gradient."""
        x = ad.as_tensor(x)
        # Checked first, so a diverged parameter aborts before it pushes NaN
        # through every layer.
        if not np.isfinite(self.param.data).all():
            j = next(j for j, a in enumerate(self.arrays()) if not np.isfinite(a).all())
            raise TrainingAbort(f"non-finite values in parameter {_param_name(j)}")
        dtype = GRAPH_DTYPE
        x_in = x.data.astype(dtype, copy=False)
        saved = []
        out = self._layers(x_in, dtype, saved)
        if not np.isfinite(out).all():
            raise TrainingAbort("non-finite values in forward pass")

        def backward_fn(g):
            # Feature-major like the layers. The linear output layer only
            # reads g; each later g is a fresh product, so it may be written.
            g = g.T.astype(dtype, copy=False)
            grad = np.empty_like(self.param.data)
            grads = self.arrays(grad)
            for i in reversed(range(self.n_layers)):
                w, pre, y, std = saved[i]
                # A layer's input is the previous layer's output.
                h_in = saved[i - 1][2] if i > 0 else x_in.T
                if pre is not None:
                    g = _hidden_grad(g, pre, y, std, self.spec.activation)
                grads[2 * i][...] = h_in @ g.T
                grads[2 * i + 1][...] = g.sum(axis=1)
                g = w @ g if i > 0 or ad.tracked(x) else None
            return None if g is None else g.T.astype(np.float64, copy=False), grad

        # C order, so the heads' column slices and axis=1 sums read rows.
        return ad.make(np.ascontiguousarray(out.T, dtype=np.float64), (x, self.param),
                       backward_fn)

    def forward_np(self, x) -> np.ndarray:
        """Tape-free forward pass over a plain array (batch, in_dim), in
        float32 for a float32 x and in float64 for any other input; see the
        module docstring for the layout."""
        dtype = float_dtype(x)
        x = np.asarray(x, dtype=dtype)
        if x.ndim == 1:
            x = x[None, :]
        return self._layers(x, dtype).T

    def _layers(self, x, dtype, saved=None):
        """The output layer's (out_dim, batch) array for x (batch, in_dim),
        computed feature-major in dtype. A list `saved` gets each layer's
        (weight in dtype, pre-activation, output, layer-norm std), the
        pre-activation and std None for the linear output layer."""
        if x.ndim != 2 or x.shape[1] != self.spec.in_dim:
            raise ValueError(f"expected input (batch, {self.spec.in_dim}), got {x.shape}")
        act = _swish_np if self.spec.activation == "swish" else np.tanh
        h = x.T
        arrays = self.arrays(self.param.data.astype(dtype, copy=False))
        n = self.n_layers
        for i in range(n):
            w, b = arrays[2 * i], arrays[2 * i + 1]
            # The product is a fresh array, so the caller's x is never written.
            h = w.T @ h
            h += b[:, None]
            pre = std = None
            if i < n - 1:
                pre = h
                # Into a new array when saving, so the pre-activation survives.
                h = act(pre, out=pre if saved is None else np.empty_like(pre))
                h, std = _layer_norm_np(h)
            if saved is not None:
                saved.append((w, pre, h, std))
        return h


def float_dtype(x):
    """float32 for a float32 array, float64 for anything else (other
    dtypes, lists, scalars): the dtype forward_np and the rollouts compute
    in."""
    return np.float32 if getattr(x, "dtype", None) == np.float32 else np.float64


# Layer helpers on feature-major (features, batch) arrays. The forward ones
# write into an array passed in, which keeps forward_np's working set small.
def _swish_np(x, out):
    t = np.negative(x)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(x, t, out=out)


def _layer_norm_np(x):
    """Normalizes each column of x in place; returns x and the columns'
    std (with LAYER_NORM_EPS added to the variance). The sums are sum and
    einsum calls: the same means as mean() without its per-call overhead,
    and no (features, batch) temporary for the squares."""
    n = x.shape[0]
    x -= x.sum(axis=0) / n
    var = np.einsum("ij,ij->j", x, x) / n
    var += LAYER_NORM_EPS
    x /= np.sqrt(var, out=var)
    return x, var


def _hidden_grad(g, pre, y, std, activation):
    """Gradient at a hidden layer's pre-activation from g at its output y,
    written into g: layer norm's backward, then the activation's. Each step
    takes at most one temporary: fresh arrays of a layer's size page-fault
    in, which made the activation's step twice as slow."""
    n = g.shape[0]
    gy = np.einsum("ij,ij->j", g, y) / n
    g -= g.sum(axis=0) / n
    g -= y * gy
    g /= std
    if activation == "tanh":
        t = np.tanh(pre)
        t *= t
        g *= np.subtract(1.0, t, out=t)
        return g
    # swish'(x) = s * (1 + x * (1 - s)) with s = sigmoid(x)
    s = np.negative(pre)
    np.exp(s, out=s)
    s += 1.0
    g *= np.reciprocal(s, out=s)
    np.subtract(1.0, s, out=s)
    s *= pre
    s += 1.0
    g *= s
    return g


class Adam:
    """First/second-moment adaptive update with bias correction, written in
    place into each leaf's data (one vector per network) and its moments."""

    def __init__(self, params, learning_rates):
        self.params = list(params)
        self.learning_rates = [check_real("learning_rates", lr) for lr in learning_rates]
        if (len(self.learning_rates) != len(self.params)
                or not all(0 < lr < math.inf for lr in self.learning_rates)):
            raise ConfigError(f"need one positive, finite learning rate per parameter, "
                              f"got {learning_rates}")
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads):
        """One update from grads, one per leaf in params' order, each leaf at
        its own learning rate."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for p, lr, m, v, g in zip(self.params, self.learning_rates, self.m, self.v, grads,
                                  strict=True):
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and p -= lr m_hat /
            # (sqrt(v_hat) + eps) op for op, so the bits are the formulas'. Two
            # temporaries only: a fresh network-sized array per op made the
            # step slower than one per-array update of each layer.
            m *= b1
            tmp = (1.0 - b1) * g
            m += tmp
            v *= b2
            np.multiply(1.0 - b2, g, out=tmp)
            tmp *= g
            v += tmp
            step = np.divide(m, 1.0 - b1**t, out=tmp)
            denom = v / (1.0 - b2**t)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step *= lr
            step /= denom
            p.data -= step


def fit(opt, n, epochs, batch_size, rng, loss, summarize, stage, log_path=None,
        save=None):
    """The minibatch loop every training stage runs; returns the epoch records.

    Each epoch draws rng.permutation(n). For each batch of at most batch_size
    of those indices in turn, loss(idx) gives (loss tensor, record) and opt,
    the stage's Adam, steps once on backward's gradients of opt.params.
    summarize(epoch, the records) makes the epoch's record. With log_path, each
    record is appended to that file as one JSON line {"stage", "epoch",
    "record"} (an object as its attribute dict, NaN as NaN) and flushed, so
    the stages of a run can share one log. On TrainingAbort opt.params
    are restored to their values after the last whole epoch (the start if
    none finished), the exception's diagnostics get the epoch it arose in
    (counted from 1) as "epoch", save() is called and the exception
    re-raised. save() is also called after the last epoch. epochs and
    batch_size are taken as given: the stages' configs check them when built.
    """

    def step(idx):
        loss_t, record = loss(idx)
        opt.step(ad.backward(loss_t, opt.params))
        return record  # loss_t's graph dies here, before the next batch's forward

    records = []
    last_good = [p.data.copy() for p in opt.params]
    with open(log_path, "a") if log_path else contextlib.nullcontext() as log:
        try:
            for epoch in range(1, epochs + 1):
                order = rng.permutation(n)
                outs = [step(order[i : i + batch_size]) for i in range(0, n, batch_size)]
                records.append(summarize(epoch, outs))
                last_good = [p.data.copy() for p in opt.params]
                if log:
                    line = {"stage": stage, "epoch": epoch, "record": records[-1]}
                    log.write(json.dumps(line, default=vars) + "\n")
                    log.flush()
        except TrainingAbort as exc:
            for p, data in zip(opt.params, last_good):
                np.copyto(p.data, data)
            exc.diagnostics["epoch"] = epoch
            if save:
                save()
            raise
    if save:
        save()
    return records


def gaussian_head(raw, width):
    """(mean, log_std) arrays of a diagonal-Gaussian head from its net's raw
    output (B, 2 * width): the first width columns are the mean, the next
    width the log-std, clamped to [LOG_STD_MIN, LOG_STD_MAX]. Any other raw
    shape is a ValueError."""
    if raw.ndim != 2 or raw.shape[1] != 2 * width:
        raise ValueError(f"expected a raw head output (batch, {2 * width}), got {raw.shape}")
    return raw[:, :width], np.clip(raw[:, width:], LOG_STD_MIN, LOG_STD_MAX)


def _head_grad(raw, log_std, g_mean, g_log_std):
    """The gradient at a head's raw output from those at its mean and
    clamped log-std: zero where the clamp cut, so the log-std columns pass
    g_log_std only where the clamp left raw as it was."""
    inside = log_std == raw[:, log_std.shape[1]:]
    return np.concatenate((g_mean, g_log_std * inside), axis=1)


def gaussian_log_prob_t(raw, x) -> ad.Tensor:
    """Per-row log density of the diagonal Gaussian gaussian_head(raw, W) at
    x (B, W), shape (B,), as one node over raw and x. With z = (x - mean) /
    std and g the upstream gradient, the gradients are g z / std for the
    mean, g (z^2 - 1) for the clamped log-std (see _head_grad) and -g z / std
    for x. A constant raw of one row, such as the prior's (1, 2|Z|) head,
    broadcasts over the batch; a tracked raw must have x's rows."""
    raw, x = ad.as_tensor(raw), ad.as_tensor(x)
    mean, log_std = gaussian_head(raw.data, x.data.shape[-1])
    inv_std = np.exp(-log_std)
    z = (x.data - mean) * inv_std
    per_dim = (z * z) * -0.5 - log_std
    total = per_dim.sum(axis=1) + -x.data.shape[-1] * _HALF_LOG_2PI

    def backward_fn(g):
        g = g[:, None]
        g_mean = g * z * inv_std
        return _head_grad(raw.data, log_std, g_mean, g * (z * z - 1.0)), -g_mean

    return ad.make(total, (raw, x), backward_fn)


def reparam_sample(raw, noise) -> ad.Tensor:
    """mean + exp(log_std) * noise for the head gaussian_head(raw, W) and
    noise (B, W), as one node over raw (B, 2W): the gradient is g for the
    mean and (g noise) exp(log_std) for the clamped log-std."""
    raw = ad.as_tensor(raw)
    noise = np.asarray(noise, dtype=np.float64)
    mean, log_std = gaussian_head(raw.data, noise.shape[-1])
    if noise.shape != mean.shape:
        raise ValueError(f"noise shape {noise.shape} != mean shape {mean.shape}")
    std = np.exp(log_std)
    return ad.make(mean + std * noise, (raw,),
                   lambda g: (_head_grad(raw.data, log_std, g, (g * noise) * std),))


# --- continuous Bernoulli -------------------------------------------------

# Continuous-Bernoulli logits are clamped here, keeping lambda = sigmoid(c)
# in (3e-7, 1 - 3e-7).
CB_LOGIT_CLAMP = 15.0

# Below this |c| the closed forms lose precision (c / expm1(c) is 0/0 at
# c = 0, and 1/c - 1/expm1(c) cancels), so the Taylor series to c^6 replaces
# value and derivative there. On both sides of the seam both forms are
# within 1e-15 of the exact values (checked against 50-digit arithmetic).
_CB_SEAM = 0.05


def _cb_series(c):
    """log(c / expm1(c)) and its derivative near c = 0."""
    c2 = c * c
    value = -c / 2 - c2 / 24 + c2 * c2 / 2880 - c2**3 / 181440
    deriv = -0.5 - c / 12 + c * c2 / 720 - c * c2 * c2 / 30240
    return value, deriv


def cb_log_prob_t(raw, x) -> ad.Tensor:
    """Per-row continuous-Bernoulli log density, shape (B,), as one node,
    from the decoder's raw output and x in [0, 1] (constant).

    With c = raw clamped to +-CB_LOGIT_CLAMP, lambda = sigmoid(c) and the
    normalizer C(lambda) = 2 atanh(1 - 2 lambda) / (1 - 2 lambda) of
    Loaiza-Ganem & Cunningham (2019), log p = x log lambda + (1 - x)
    log(1 - lambda) + log C = -softplus(-c) - (1 - x) c + log(c / tanh(c/2)),
    which is x c + log(c / expm1(c)): the softplus terms cancel. Its
    derivative is x - 1 + 1/c - 1/expm1(c), the same as x - sigmoid(c) + 1/c
    - 1/sinh(c). The gradient is zero where raw lies outside the clamp.
    """
    raw = ad.as_tensor(raw)
    x = np.asarray(x, dtype=np.float64)
    if raw.data.shape != x.shape:
        raise ValueError(f"shape mismatch: {raw.data.shape} vs {x.shape}")
    c = np.clip(raw.data, -CB_LOGIT_CLAMP, CB_LOGIT_CLAMP)
    # The closed forms run with c = 1 at the entries near 0, whose results
    # the series then replaces.
    near = np.flatnonzero(np.abs(c) < _CB_SEAM)
    c_near, x_near = c.flat[near], x.flat[near]
    c.flat[near] = 1.0
    em = np.expm1(c)
    per = np.divide(c, em)
    np.log(per, out=per)
    per += x * c
    series, series_deriv = _cb_series(c_near)
    per.flat[near] = x_near * c_near + series

    def backward_fn(g):
        d = np.reciprocal(c)
        d -= np.reciprocal(em)
        d += x
        d -= 1.0
        d.flat[near] = x_near + series_deriv
        d *= g[:, None]
        d[np.abs(raw.data) > CB_LOGIT_CLAMP] = 0.0
        return (d,)

    return ad.make(per.sum(axis=1), (raw,), backward_fn)


# --- the artifact container ------------------------------------------------


def _param_name(j):
    """Name of an Mlp's j-th parameter: w{i} or b{i} for layer i."""
    return f"{'wb'[j % 2]}{j // 2}"


def param_arrays(nets):
    """Views of the parameter arrays of {prefix: Mlp} by name
    ("{prefix}.w0", "{prefix}.b0", ...), in network order."""
    return {f"{prefix}.{_param_name(j)}": a
            for prefix, net in nets.items() for j, a in enumerate(net.arrays())}


def set_params(nets, arrays):
    """Copy arrays named as by param_arrays into the networks' parameter
    vectors, one concatenation per network; a ValueError from check_arrays
    unless the names, their order and the shapes all match and every value
    is finite."""
    shapes = {name: a.shape for name, a in param_arrays(nets).items()}
    values = iter(check_arrays("parameter arrays", arrays, shapes))
    for net in nets.values():
        np.concatenate([next(values).ravel() for _ in range(2 * net.n_layers)],
                       out=net.param.data)


def save_checkpoint(path, header: dict, arrays: dict):
    """Write an artifact: magic, u32 little-endian header length, the JSON
    header (sorted keys; "arrays" lists each array's [name, shape] in the
    order of the dict), then each array as raw little-endian float64. Equal
    inputs give equal bytes, and arrays round-trip bitwise."""
    header = dict(header)
    header["arrays"] = [[name, list(np.shape(a))] for name, a in arrays.items()]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + len(blob).to_bytes(4, "little") + blob)
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)


def _is_entry(entry):
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(d) is int for d in entry[1]))


def load_checkpoint(path, kind):
    """Read an artifact written by save_checkpoint whose header says `kind`.

    Returns (header dict, {name: float64 array}). Raises MissingArtifact if
    the file is absent, and a ValueError naming the file if it is shorter
    than the fixed prefix or has the wrong magic, if the header length runs
    past the end, if the header is not UTF-8 JSON with a list of
    [name, shape] entries, if the kind differs, if a name repeats or a
    dimension is negative, or if the payload is not exactly the declared
    byte count.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise MissingArtifact(f"{path}: no such file") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(_MAGIC) + 4)
        if len(prefix) < len(_MAGIC) + 4 or prefix[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{path} is not a minreal artifact")
        hlen = int.from_bytes(prefix[len(_MAGIC) :], "little")
        if len(prefix) + hlen > size:
            raise ValueError(f"{path}: header of {hlen} bytes runs past the end of the file")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both are
            raise ValueError(f"{path}: header is not UTF-8 JSON ({exc})") from None
        entries = header.get("arrays") if isinstance(header, dict) else None
        if not isinstance(entries, list) or not all(map(_is_entry, entries)):
            raise ValueError(f"{path}: header lacks a list of [name, shape] entries")
        if header.get("kind") != kind:
            raise ValueError(f"{path}: expected a {kind!r} artifact, got {header.get('kind')!r}")
        names = [name for name, _ in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"{path}: repeated array name in {names}")
        if any(d < 0 for _, shape in entries for d in shape):
            raise ValueError(f"{path}: negative dimension in {entries}")
        sizes = [math.prod(shape) for _, shape in entries]
        payload = size - len(prefix) - hlen
        if payload != 8 * sum(sizes):
            raise ValueError(f"{path}: payload is {payload} bytes, header declares {8 * sum(sizes)}")
        # Read straight into each array, so no copy of the whole file is held.
        arrays = {}
        for (name, shape), n in zip(entries, sizes):
            arr = np.fromfile(fh, dtype="<f8", count=n)
            arrays[name] = arr.astype(np.float64, copy=False).reshape(shape)
    return header, arrays


def check_shapes(label, arrays, shapes):
    """A ValueError starting with label unless each arrays[name] has shape
    shapes[name], a str dimension taking one value wherever it appears."""
    sizes = {}
    for name, want in shapes.items():
        got = arrays[name].shape
        if len(got) != len(want) or any(
            sizes.setdefault(w, g) != g if isinstance(w, str) else w != g
            for w, g in zip(want, got)
        ):
            raise ValueError(f"{label}: array {name!r} has shape {got}, expected {want}")


def check_arrays(path, arrays, shapes):
    """The arrays of an artifact in `shapes` order, after checking that
    their names are exactly `shapes`' keys, their shapes and that every
    value is finite; a ValueError naming the file otherwise."""
    if list(arrays) != list(shapes):
        raise ValueError(f"{path}: arrays {list(arrays)}, expected {list(shapes)}")
    check_shapes(path, arrays, shapes)
    for name, a in arrays.items():
        check_finite(f"{name!r} of {path}", a)
    return list(arrays.values())
