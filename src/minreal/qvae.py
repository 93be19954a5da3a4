"""The deformed variational objective with multi-class decoder decomposition,
its non-negativity bracket, and the training loop.

The objective maximized per sample z ~ p(z|x) is

    p(z)^(1-q) * sum_c zeta_c * p(x_<c|z)^(1-q_<c) * ln_{q_c} p(x_c|z)
    + beta * ln_q p(z) - gamma * ln_q p(z|x)

The prior and the classes form one chain and the entropy term another,
each a single autodiff node (_deformed_sum_t) that forms every power as
exp((1-q_j) * log p_j) under one exponent clamp (tsallis.MAX_EXPONENT) and
keeps gradients through all factors. At q = 1 every ln_q is the natural log
and every power is 1, so (with gamma = beta) this is exactly the beta-VAE
objective: the standard and beta baselines run through the same code path.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, TrainingAbort, check_finite, check_int, check_seed
from .nets import (
    CB_LOGIT_CLAMP,
    Adam,
    Mlp,
    MlpSpec,
    cb_log_prob_t,
    fit,
    gaussian_head,
    gaussian_log_prob_t,
    load_checkpoint,
    param_arrays,
    reparam_sample,
    save_checkpoint,
    set_params,
)
from .tsallis import MAX_EXPONENT, DiagGaussian, QParams

CLASS_KINDS = ("diag_gaussian", "continuous_bernoulli")


@dataclasses.dataclass(frozen=True)
class ObservationClass:
    name: str
    kind: str
    width: int

    def __post_init__(self):
        if self.kind not in CLASS_KINDS:
            raise ConfigError(f"unknown observation class kind {self.kind!r}")
        object.__setattr__(self, "width", check_int("class width", self.width, 1))

    @property
    def raw_width(self):
        """Width of its decoder's raw output: mean and log-std for a
        Gaussian class, one logit per value for a continuous-Bernoulli one."""
        return 2 * self.width if self.kind == "diag_gaussian" else self.width


def validate_classes(classes):
    classes = tuple(classes)
    if not classes:
        raise ConfigError("at least one observation class is required")
    widths = [c.width for c in classes]
    if any(a > b for a, b in zip(widths, widths[1:])):
        raise ConfigError(
            "observation classes must be ordered by nondecreasing width "
            f"(wider classes need larger q_c), got {widths}"
        )
    return classes


@dataclasses.dataclass
class LossBreakdown:
    total: float
    recon_per_class: list
    prior_term: float
    entropy_term: float
    bracket_min: float
    saturation_count: int


class QvaeModel:
    """Encoder + one decoder head per observation class + fixed standard
    normal prior over the latent space; |Z| follows from the encoder's mean
    and log-std per latent dim."""

    def __init__(self, classes, encoder, decoders, qparams: QParams):
        self.classes = validate_classes(classes)
        if len(self.classes) != qparams.n_classes:
            raise ConfigError(
                f"{len(self.classes)} observation classes but "
                f"{qparams.n_classes} class_qs"
            )
        self.latent_dim, odd = divmod(encoder.spec.out_dim, 2)
        self.encoder = encoder
        self.decoders = list(decoders)
        self.qparams = qparams
        self.obs_dim = sum(c.width for c in self.classes)
        if encoder.spec.in_dim != self.obs_dim:
            raise ConfigError(
                f"encoder input {encoder.spec.in_dim} != observation width {self.obs_dim}"
            )
        if odd:
            raise ConfigError("encoder output must be a mean and log-std per latent dim")
        if len(self.decoders) != len(self.classes):
            raise ConfigError(f"{len(self.decoders)} decoders for {len(self.classes)} classes")
        for cls, dec in zip(self.classes, self.decoders):
            if dec.spec.out_dim != cls.raw_width:
                raise ConfigError(f"decoder for {cls.name!r} outputs {dec.spec.out_dim}, "
                                  f"expected {cls.raw_width}")
            if dec.spec.in_dim != self.latent_dim:
                raise ConfigError(f"decoder for {cls.name!r} does not take |Z| inputs")

    def parameters(self):
        return [self.encoder.param, *(dec.param for dec in self.decoders)]

    def split_observation(self, x):
        """Split (B, obs_dim) into per-class blocks."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.obs_dim:
            raise ValueError(f"expected observations of width {self.obs_dim}, got {x.shape}")
        blocks = []
        off = 0
        for cls in self.classes:
            blocks.append(x[:, off : off + cls.width])
            off += cls.width
        return x, blocks

    # -- inference (tape-free) ------------------------------------------

    def encode(self, x) -> DiagGaussian:
        """Posterior belief over the latent space; deterministic. Non-finite
        x is a ValueError."""
        x, _ = self.split_observation(x)
        check_finite("x", x)
        mean, log_std = gaussian_head(self.encoder.forward_np(x), self.latent_dim)
        return DiagGaussian(mean=mean, log_std=log_std)

    def decode(self, z):
        """Per-class decoder parameters at latent z: (mean, log_std) for
        Gaussian heads, lambda in (0, 1) for continuous-Bernoulli heads."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z[None, :]
        if z.shape[1] != self.latent_dim:
            raise ValueError(f"expected latent of width {self.latent_dim}, got {z.shape}")
        out = []
        for cls, dec in zip(self.classes, self.decoders):
            raw = dec.forward_np(z)
            if cls.kind == "diag_gaussian":
                out.append(gaussian_head(raw, cls.width))
            else:
                # The sigmoid runs in place in raw, a fresh forward_np output,
                # so the sigmoid allocates no image-sized temporaries.
                lam = np.clip(raw, -CB_LOGIT_CLAMP, CB_LOGIT_CLAMP, out=raw)
                np.exp(np.negative(lam, out=lam), out=lam)
                lam += 1.0
                out.append(np.divide(1.0, lam, out=lam))
        return out

    def reconstruct(self, x):
        """Point reconstruction through the encoder mean: decoder means for
        Gaussian classes, lambda for continuous-Bernoulli classes."""
        belief = self.encode(x)
        parts = []
        for cls, params in zip(self.classes, self.decode(belief.mean)):
            parts.append(params[0] if cls.kind == "diag_gaussian" else params)
        # Row-major like x: concatenating the decoders' feature-major outputs
        # would give a column-major array, and a sum over it adds in another
        # order than a sum over x's rows.
        out = np.empty((belief.mean.shape[0], self.obs_dim))
        return np.concatenate(parts, axis=1, out=out)

    # -- graph paths ------------------------------------------------------

    def _class_log_prob(self, index, raw, x_block):
        """Per-row log p(x_c|z) tensor of class `index` from its decoder's raw
        output at z: a graph output in the loss, forward_np's in bracket_term."""
        if self.classes[index].kind == "diag_gaussian":
            return gaussian_log_prob_t(raw, x_block)
        return cb_log_prob_t(raw, x_block)


# recon_mse reconstructs and scores x this many rows at a time, so that the
# reconstruction, lambda and the error of all of x are never held at once. At
# the paper's observation width (260) a block's reconstruction is 1 024 x 260
# x 8 B = 2.1 MB; on 6 000 rows tracemalloc puts the peak of recon_mse at
# 6.6 MiB, against 26.7 MiB in one piece.
RECON_BLOCK_ROWS = 1024


def recon_mse(model: QvaeModel, x) -> float:
    """Mean squared reconstruction error per observation feature: the
    squared error of each block of RECON_BLOCK_ROWS rows summed in turn. Up
    to one block this is np.mean((model.reconstruct(x) - x) ** 2) bitwise;
    over more blocks it agrees to rounding."""
    x, _ = model.split_observation(x)
    if x.shape[0] == 0:
        raise ValueError("x must have at least one row")
    total = 0.0
    for start in range(0, x.shape[0], RECON_BLOCK_ROWS):
        block = x[start : start + RECON_BLOCK_ROWS]
        # In place in reconstruct's fresh output: no second array of its size.
        err = model.reconstruct(block)
        err -= block
        total += np.sum(np.square(err, out=err))
    return float(total / x.size)


def _deformed_sum_t(log_ps, qs, weights):
    """The deformed chain sum_k T_k per row, as one node, over log_ps =
    (log p_0, log p_1, ...) with deformations qs and weights w:

        T_k = w_k * (prod_{j<k} p_j^(1-q_j)) * ln_{q_k} p_k.

    Each exponent u_k = (1-q_k) log p_k is clamped from above at
    MAX_EXPONENT once; p_k^(1-q_k) is exp(u_k) and ln_{q_k} p_k is
    expm1(u_k) / (1-q_k), or log p_k itself at q_k = 1, where every power is
    exactly 1. With g the upstream gradient, log p_k's gradient is
    g (w_k prod_{j<k} e^{u_j} e^{u_k} + (1-q_k) sum_{j>k} T_j), and 0 where
    the clamp cut.

    Returns (the node, the T_k, the u_k, the number of clamped entries)."""
    log_ps = [ad.as_tensor(lp) for lp in log_ps]
    prefix = 1.0  # prod_{j<k} e^{u_j}
    prefixes, cuts, terms, us = [], [], [], []  # prefixes[k]: prod_{j<=k} e^{u_j}
    for lp, q, w in zip(log_ps, qs, weights):
        u = (1.0 - q) * lp.data
        cut = u > MAX_EXPONENT
        u[cut] = MAX_EXPONENT
        lnq = lp.data if q == 1.0 else np.expm1(u) / (1.0 - q)
        terms.append(prefix * (w * lnq))
        prefix = prefix * np.exp(u)
        prefixes.append(prefix)
        cuts.append(cut)
        us.append(u)

    def backward_fn(g):
        grads = []
        suffix = 0.0  # sum_{j>k} T_j
        for k in reversed(range(len(terms))):
            d = weights[k] * prefixes[k] + (1.0 - qs[k]) * suffix
            d[cuts[k]] = 0.0
            grads.append(g * d)
            suffix = suffix + terms[k]
        return grads[::-1]

    saturated = sum(int(np.count_nonzero(c)) for c in cuts)
    return ad.make(sum(terms), log_ps, backward_fn), terms, us, saturated


def _bracket_values(us, qparams: QParams):
    """Per-sample bracketed reconstruction quantity (q < 1 only) from the
    classes' clamped exponents u_c = (1-q_c) log p(x_c|z), (B,) arrays as
    _deformed_sum_t returns them: sum_c P_{c-1} (a_{c-1} - a_c) + a_C P_C
    with a = qparams.chain / (1-q), P_0 = 1 and P_c = P_{c-1} exp(u_c).
    Each gap is formed first, so it is exactly 0 at an equality chain, where
    an expanded sum would cancel large terms down to a tiny bracket."""
    a = [link / (1.0 - qparams.q) for link in qparams.chain]
    out = np.zeros(us[0].shape[0])
    log_prefix = np.zeros_like(out)
    for c in range(1, len(a)):
        out += np.exp(log_prefix) * (a[c - 1] - a[c])
        log_prefix = log_prefix + us[c - 1]
    out += a[-1] * np.exp(log_prefix)
    return out


def bracket_term(model: QvaeModel, x, z):
    """The bracketed quantity at given observations and latents, per row:
    qvae_loss's class heads (_class_log_prob) and class chain
    (_deformed_sum_t) run tape-free on the decoders' forward_np outputs."""
    qparams = model.qparams
    if qparams.q == 1.0:
        raise ConfigError("the bracket is defined only for q < 1")
    _, blocks = model.split_observation(x)
    logps = [model._class_log_prob(i, dec.forward_np(z), blocks[i])
             for i, dec in enumerate(model.decoders)]
    _, _, us, _ = _deformed_sum_t(logps, qparams.class_qs, qparams.class_weights)
    return _bracket_values(us, qparams)


def qvae_loss(model: QvaeModel, x, noise):
    """Monte-Carlo estimate (one z per datum) of minus the objective under
    model.qparams: one _deformed_sum_t chain over the prior and the classes,
    one over the posterior for the entropy term.

    Returns (loss tensor, LossBreakdown). Raises TrainingAbort when the
    bracket goes negative (q < 1) and on non-finite values. The bracket
    stays non-negative under QParams.sparsifying, which train_qvae requires.
    """
    qparams = model.qparams
    x, blocks = model.split_observation(x)
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")

    raw_t = model.encoder.forward(x)
    z_t = reparam_sample(raw_t, noise)

    # The standard normal prior: mean 0 and log-std 0 in raw head form.
    log_pz = gaussian_log_prob_t(np.zeros((1, 2 * model.latent_dim)), z_t)
    log_pzx = gaussian_log_prob_t(raw_t, z_t)
    log_pcs = [model._class_log_prob(i, dec.forward(z_t), blocks[i])
               for i, dec in enumerate(model.decoders)]

    chain_t, terms, us, saturation = _deformed_sum_t(
        [log_pz, *log_pcs], (qparams.q, *qparams.class_qs),
        (qparams.beta, *qparams.class_weights))
    entropy_t, _, _, saturated = _deformed_sum_t([log_pzx], (qparams.q,), (-qparams.gamma,))
    saturation += saturated

    bracket_min = float("nan")
    if qparams.q < 1.0:
        bracket_min = float(_bracket_values(us[1:], qparams).min())
        if bracket_min < 0.0:
            raise TrainingAbort(
                f"non-negativity bracket violated: min {bracket_min}",
                diagnostics={"bracket_min": bracket_min},
            )

    loss = ad.neg(ad.mean_all(ad.add(chain_t, entropy_t)))

    if not np.isfinite(loss.data):
        raise TrainingAbort(
            "non-finite loss",
            diagnostics={
                "saturation_count": saturation,
                "bracket_min": bracket_min,
                "log_pz_range": (float(log_pz.data.min()), float(log_pz.data.max())),
            },
        )

    breakdown = LossBreakdown(
        total=float(loss.data),
        recon_per_class=[float(t.mean()) for t in terms[1:]],
        prior_term=float(terms[0].mean()),
        entropy_term=float(entropy_t.data.mean()),
        bracket_min=bracket_min,
        saturation_count=saturation,
    )
    return loss, breakdown


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 256
    seed: int = 0
    learning_rate: float = 1e-3

    def __post_init__(self):
        check_seed("seed", self.seed)


def train_qvae(model: QvaeModel, x_data, cfg: TrainConfig, log_path=None, ckpt_path=None):
    """Deterministic minibatch training through nets.fit; returns one
    aggregate LossBreakdown per epoch (weighted means, the smallest bracket
    and the summed saturation count). Each epoch's record is appended to
    log_path as a JSON line of stage "qvae". The checkpoint at ckpt_path is
    written after the last epoch, or on TrainingAbort with the parameters of
    the last whole epoch before the abort is re-raised. Non-finite x_data,
    or continuous-Bernoulli values outside [0, 1], is a ValueError, and
    QParams that are not sparsifying a ConfigError, before any step, log
    line or checkpoint."""
    x_data, blocks = model.split_observation(x_data)
    if x_data.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    check_finite("x_data", x_data)
    for cls, block in zip(model.classes, blocks):
        if cls.kind == "continuous_bernoulli" and ((block < 0) | (block > 1)).any():
            raise ValueError(f"x_data values of continuous-Bernoulli class {cls.name!r} "
                             "must lie in [0, 1]")
    if not model.qparams.sparsifying:
        raise ConfigError(f"sparsification condition violated: chain "
                          f"{model.qparams.chain} must be nonincreasing")

    opt = Adam(model.parameters(), [cfg.learning_rate] * len(model.parameters()))
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x71AE]))

    def batch_loss(idx):
        noise = rng.standard_normal((idx.size, model.latent_dim))
        loss, bd = qvae_loss(model, x_data[idx], noise)
        return loss, (idx.size, bd)

    def summarize(epoch, outs):
        tot = np.zeros(3 + len(model.classes))  # total, recon_c.., prior, entropy
        for w, bd in outs:
            tot += w * np.array([bd.total, *bd.recon_per_class, bd.prior_term,
                                 bd.entropy_term])
        tot /= sum(w for w, _ in outs)
        total, *recon, prior, entropy = tot.tolist()
        return LossBreakdown(total, recon, prior, entropy,
                             bracket_min=min(bd.bracket_min for _, bd in outs),
                             saturation_count=sum(bd.saturation_count for _, bd in outs))

    save = functools.partial(save_qvae, ckpt_path, model) if ckpt_path else None
    return fit(opt, x_data.shape[0], cfg.epochs, cfg.batch_size, rng, batch_loss,
               summarize, "qvae", log_path, save)


# --- model construction and persistence ------------------------------------


def build_qvae(
    classes,
    latent_dim,
    qparams: QParams,
    encoder_hidden=(128, 64),
    decoder_hidden=None,
    seed=0,
) -> QvaeModel:
    """Construct swish encoder/decoder networks for the class layout.

    decoder_hidden is one width tuple per class; defaults to the reversed
    encoder widths for every class.
    """
    check_seed("seed", seed)
    classes = validate_classes(classes)
    obs_dim = sum(c.width for c in classes)
    if decoder_hidden is None:
        decoder_hidden = [tuple(reversed(encoder_hidden))] * len(classes)
    seeds = np.random.SeedSequence(seed).spawn(1 + len(classes))
    encoder = Mlp(MlpSpec((obs_dim, *encoder_hidden, 2 * latent_dim)), seed=seeds[0])
    decoders = [Mlp(MlpSpec((latent_dim, *hidden, cls.raw_width)), seed=ss)
                for cls, hidden, ss in zip(classes, decoder_hidden, seeds[1:])]
    return QvaeModel(classes, encoder, decoders, qparams)


def _nets(model: QvaeModel):
    return {"encoder": model.encoder,
            **{f"decoder{i}": d for i, d in enumerate(model.decoders)}}


def save_qvae(path, model: QvaeModel):
    header = {
        "kind": "qvae",
        "classes": [dataclasses.asdict(c) for c in model.classes],
        "encoder": model.encoder.spec.to_dict(),
        "decoders": [d.spec.to_dict() for d in model.decoders],
        "qparams": dataclasses.asdict(model.qparams),
    }
    save_checkpoint(path, header, param_arrays(_nets(model)))


def load_qvae(path) -> QvaeModel:
    """Raises MissingArtifact if the file is absent and a ValueError naming
    it if it is not a well-formed q-VAE checkpoint (see load_checkpoint),
    or if its header fields or parameter arrays do not describe a model."""
    header, arrays = load_checkpoint(path, "qvae")
    try:
        classes = tuple(ObservationClass(**c) for c in header["classes"])
        qparams = QParams(**header["qparams"])
        encoder = Mlp(MlpSpec(**header["encoder"]), seed=0)
        decoders = [Mlp(MlpSpec(**d), seed=0) for d in header["decoders"]]
        model = QvaeModel(classes, encoder, decoders, qparams)
        set_params(_nets(model), arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a q-VAE checkpoint ({exc!r})") from None
    return model
