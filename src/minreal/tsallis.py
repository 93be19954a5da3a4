"""q-deformed logarithm/exponential, closed-form Tsallis divergence between
diagonal Gaussians, and the hyperparameter condition that guarantees the
sparsifying reconstruction bracket stays non-negative.

All functions are pure and accept scalars or numpy arrays (float64
throughout). The q = 1 case is always an exact natural-log branch, never a
numerical limit, so everything degrades to the standard (beta-)VAE exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError

# Posterior/decoder log-std clamp. Bracket chosen around the toy data scales:
# exp(-6) ~ 2.5e-3 is far below pixel resolution, exp(2) ~ 7.4 far above the
# unit box.
LOG_STD_MIN = -6.0
LOG_STD_MAX = 2.0

# Default clamp for exponents of the form (1-q)*log p before exp();
# saturation is counted by callers so silent clipping is observable.
DEFAULT_MAX_EXPONENT = 50.0

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def _scalar_or_array(result, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(result)
    return result


@dataclasses.dataclass(frozen=True)
class DiagGaussian:
    """Diagonal Gaussian given by mean and log standard deviation.

    log_std is clamped to [LOG_STD_MIN, LOG_STD_MAX] at construction.
    Arrays may be vectors or batches; mean and log_std must share a shape.
    """

    mean: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        mean = _as_float_array(self.mean, "mean")
        log_std = _as_float_array(self.log_std, "log_std")
        if mean.shape != log_std.shape:
            raise ValueError(
                f"mean shape {mean.shape} != log_std shape {log_std.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(
            self, "log_std", np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
        )

    @property
    def std(self):
        return np.exp(self.log_std)

    @property
    def dim(self):
        return self.mean.shape[-1]


# The encoder's posterior over the latent space is exactly a DiagGaussian.
LatentBelief = DiagGaussian


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
        object.__setattr__(self, "class_qs", tuple(float(v) for v in self.class_qs))
        object.__setattr__(
            self, "class_weights", tuple(float(v) for v in self.class_weights)
        )
        q = float(self.q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "gamma", float(self.gamma))
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


def q_log(x, q):
    """Deformed logarithm ln_q(x) = (x^(1-q) - 1) / (1 - q), ln(x) at q = 1.

    x must be positive and finite; accepts scalars or arrays.
    """
    arr = _as_float_array(x, "x")
    if np.any(arr <= 0.0):
        raise ValueError(f"q_log requires x > 0, got {x!r}")
    if q == 1.0:
        return _scalar_or_array(np.log(arr), x)
    # expm1 keeps precision as q -> 1 where x^(1-q) - 1 would cancel.
    out = np.expm1((1.0 - q) * np.log(arr)) / (1.0 - q)
    return _scalar_or_array(out, x)


def q_log_from_log(ell, q, max_exponent=DEFAULT_MAX_EXPONENT):
    """ln_q(p) computed from ell = ln(p) without ever forming p.

    The exponent (1-q)*ell is clamped from above at max_exponent; use
    exponent_saturation_count to detect clamping. Exact ell at q = 1.
    """
    arr = _as_float_array(ell, "ell")
    if q == 1.0:
        return _scalar_or_array(arr.copy(), ell)
    u = np.minimum((1.0 - q) * arr, max_exponent)
    out = np.expm1(u) / (1.0 - q)
    return _scalar_or_array(out, ell)


def exponent_saturation_count(ell, q, max_exponent=DEFAULT_MAX_EXPONENT):
    """Number of entries of (1-q)*ell that q_log_from_log would clamp."""
    arr = _as_float_array(ell, "ell")
    if q == 1.0:
        return 0
    return int(np.count_nonzero((1.0 - q) * arr > max_exponent))


def q_exp(y, q):
    """Inverse of q_log: exp(y) at q = 1, else (1 + (1-q) y)^(1/(1-q))."""
    arr = _as_float_array(y, "y")
    if q == 1.0:
        return _scalar_or_array(np.exp(arr), y)
    base = 1.0 + (1.0 - q) * arr
    if np.any(base <= 0.0):
        raise ValueError(
            f"q_exp requires 1 + (1-q) y > 0; got y={y!r} with q={q}"
        )
    out = np.exp(np.log(base) / (1.0 - q))
    return _scalar_or_array(out, y)


def pseudo_add(lq1, lq2, q):
    """Deformed product rule: ln_q(ab) from ln_q(a) and ln_q(b)."""
    a = _as_float_array(lq1, "lq1")
    b = _as_float_array(lq2, "lq2")
    out = a + b + (1.0 - q) * a * b
    return _scalar_or_array(out, lq1, lq2)


def gaussian_log_prob(mean, log_std, x):
    """Log density of a diagonal Gaussian with the given mean and log std,
    summed over the last axis. The one numpy copy; the graph version is
    nets.gaussian_log_prob_t."""
    z = (x - mean) / np.exp(log_std)
    out = np.sum(-0.5 * z * z - log_std - _HALF_LOG_2PI, axis=-1)
    if out.ndim == 0:
        return float(out)
    return out


def standard_kl_diag_gaussian(p1: DiagGaussian, p2: DiagGaussian):
    """KL(p1 || p2) for diagonal Gaussians (the q = 1 branch)."""
    if p1.mean.shape != p2.mean.shape:
        raise ValueError("dimension mismatch between p1 and p2")
    var1 = np.exp(2.0 * p1.log_std)
    var2 = np.exp(2.0 * p2.log_std)
    per_dim = (
        p2.log_std
        - p1.log_std
        + (var1 + (p1.mean - p2.mean) ** 2) / (2.0 * var2)
        - 0.5
    )
    return float(np.sum(per_dim))


def tsallis_kl_diag_gaussian(p1: DiagGaussian, p2: DiagGaussian, q):
    """Closed-form Tsallis divergence -E_{p1}[ln_q(p2/p1)] between diagonal
    Gaussians, for 0 < q <= 1.

    Derived by Gaussian integral completion:
        KL_q = (1 - prod_d I_d) / (1 - q)
        I_d  = sigma1^(1-q) * sigma2^q / sbar
               * exp(-q (1-q) (mu1 - mu2)^2 / (2 sbar^2))
        sbar^2 = q * sigma2^2 + (1-q) * sigma1^2
    The quadrature oracle in the test suite gates this closed form.
    """
    if p1.mean.shape != p2.mean.shape:
        raise ValueError("dimension mismatch between p1 and p2")
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1], got {q}")
    if q == 1.0:
        return standard_kl_diag_gaussian(p1, p2)
    s1 = p1.std
    s2 = p2.std
    sbar2 = q * s2 * s2 + (1.0 - q) * s1 * s1
    log_i = (
        (1.0 - q) * p1.log_std
        + q * p2.log_std
        - 0.5 * np.log(sbar2)
        - q * (1.0 - q) * (p1.mean - p2.mean) ** 2 / (2.0 * sbar2)
    )
    return float(-np.expm1(np.sum(log_i)) / (1.0 - q))


@dataclasses.dataclass(frozen=True)
class SparsityReport:
    """Result of the non-negativity condition check.

    chain holds (beta, (1-q)/(1-q_1) * zeta_1, ..., (1-q)/(1-q_C) * zeta_C);
    the condition requires it to be nonincreasing left to right. exact_vae
    marks the q = 1 case where the condition is vacuous.
    """

    satisfied: bool
    chain: tuple
    exact_vae: bool = False


def check_sparsity_condition(params: QParams) -> SparsityReport:
    """Evaluate the chain beta >= (1-q)/(1-q_1) zeta_1 >= ... >= (1-q)/(1-q_C) zeta_C."""
    if params.q == 1.0:
        return SparsityReport(satisfied=True, chain=(params.beta,), exact_vae=True)
    chain = [params.beta]
    for qc, zc in zip(params.class_qs, params.class_weights):
        chain.append((1.0 - params.q) / (1.0 - qc) * zc)
    ok = True
    for left, right in zip(chain, chain[1:]):
        # Tiny relative slack so exactly-equal chains survive float rounding.
        if left < right - 1e-12 * max(1.0, abs(left), abs(right)):
            ok = False
            break
    return SparsityReport(satisfied=ok, chain=tuple(chain))
