"""The q-deformed logarithm, the diagonal-Gaussian belief that encoding
returns, and the hyperparameters of the deformed objective (QParams), which
also state the condition on them that keeps the sparsifying reconstruction
bracket non-negative (QParams.chain, QParams.sparsifying). The Gaussian
head with its log-std clamp (gaussian_head) and the Gaussian log-density
(gaussian_log_prob_t) live in nets, for training and inference alike.

Functions accept scalars or numpy arrays (float64 throughout). q_log at
q = 1 is the exact natural log, never a numerical limit. The loss forms its
ln_q inside qvae._deformed_sum_t, which clamps the exponent (1-q)*log p at
MAX_EXPONENT before exp(); q_log here is its test oracle.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError, check_finite

# Clamp for exponents of the form (1-q)*log p before exp(); the loss counts
# saturated entries so silent clipping is observable.
MAX_EXPONENT = 50.0


def _scalar_or_array(result, x):
    return float(result) if np.ndim(x) == 0 else result


@dataclasses.dataclass(frozen=True, eq=False)
class DiagGaussian:
    """Diagonal Gaussian given by mean and log standard deviation, both
    finite. Arrays may be vectors or batches; mean and log_std must share a
    shape. log_std is taken as given: QvaeModel.encode's head has already
    clamped it (nets.gaussian_head)."""

    mean: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        mean = check_finite("mean", self.mean)
        log_std = check_finite("log_std", self.log_std)
        if mean.shape != log_std.shape:
            raise ValueError(
                f"mean shape {mean.shape} != log_std shape {log_std.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_std", log_std)


@dataclasses.dataclass(frozen=True)
class QParams:
    """Hyperparameter bundle of the deformed objective.

    q is the base deformation, class_qs the per-class deformations
    (q <= q_1 <= ... <= q_C, each < 1 whenever q < 1), class_weights the
    per-class reconstruction weights, beta the prior weight and gamma the
    encoder-entropy weight.
    """

    q: float
    class_qs: tuple
    class_weights: tuple
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("q", "beta", "gamma", "class_qs", "class_weights"):
            value = check_finite(name, getattr(self, name), ConfigError).tolist()
            object.__setattr__(self, name, tuple(value) if name.startswith("class") else value)
        q = self.q
        if not (0.0 < q <= 1.0):
            raise ConfigError(f"q must be in (0, 1], got {q}")
        if len(self.class_qs) == 0:
            raise ConfigError("at least one observation class is required")
        if len(self.class_qs) != len(self.class_weights):
            raise ConfigError(
                f"class_qs has length {len(self.class_qs)} but class_weights "
                f"has length {len(self.class_weights)}"
            )
        if any(w <= 0 for w in self.class_weights):
            raise ConfigError(f"class_weights must be positive, got {self.class_weights}")
        if self.beta <= 0 or self.gamma <= 0:
            raise ConfigError("beta and gamma must be positive")
        if q < 1.0:
            prev = q
            for c, qc in enumerate(self.class_qs, start=1):
                if qc < prev:
                    raise ConfigError(
                        f"class_qs must be nondecreasing and >= q; "
                        f"q_{c}={qc} < {prev}"
                    )
                if qc >= 1.0:
                    raise ConfigError(
                        f"class_qs must stay below 1 when q < 1, got q_{c}={qc}"
                    )
                prev = qc
        else:
            # Exact standard-VAE path: every class uses the natural log.
            if any(qc != 1.0 for qc in self.class_qs):
                raise ConfigError("with q = 1 every class q_c must also be 1")

    @property
    def n_classes(self):
        return len(self.class_qs)

    @property
    def chain(self):
        """The links of the sparsity condition, (beta, (1-q)/(1-q_1) zeta_1,
        ..., (1-q)/(1-q_C) zeta_C), or (beta,) at q = 1, where the condition
        is vacuous."""
        if self.q == 1.0:
            return (self.beta,)
        return (self.beta, *((1.0 - self.q) / (1.0 - qc) * zc
                             for qc, zc in zip(self.class_qs, self.class_weights)))

    @property
    def sparsifying(self):
        """Whether chain is nonincreasing, the condition that keeps the
        reconstruction bracket non-negative; a tiny relative slack lets
        exactly equal links survive float rounding."""
        links = self.chain
        return all(left >= right - 1e-12 * max(1.0, abs(left), abs(right))
                   for left, right in zip(links, links[1:]))


def q_log(x, q):
    """Deformed logarithm ln_q(x) = (x^(1-q) - 1) / (1 - q), ln(x) at q = 1.

    x must be positive and finite; accepts scalars or arrays.
    """
    arr = check_finite("x", x)
    if np.any(arr <= 0.0):
        raise ValueError(f"q_log requires x > 0, got {x!r}")
    if q == 1.0:
        return _scalar_or_array(np.log(arr), x)
    # expm1 keeps precision as q -> 1 where x^(1-q) - 1 would cancel.
    out = np.expm1((1.0 - q) * np.log(arr)) / (1.0 - q)
    return _scalar_or_array(out, x)
