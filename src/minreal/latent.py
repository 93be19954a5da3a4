"""Hoyer sparsity of encoder means, per-dimension importance, and mask
construction/application for extracting the minimal-realization state."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .errors import check_finite, check_real
from .nets import check_arrays, load_checkpoint, save_checkpoint

DEFAULT_IMPORTANCE_THRESHOLD = 0.15


@dataclasses.dataclass(frozen=True, eq=False)
class LatentMask:
    """The dimensions to keep, from importance and threshold_used alone:
    those above the threshold or, if none is, the most important one
    (fallback_used). An importance that is not a nonempty finite vector, or
    a threshold that is not a real number >= 0, is a ValueError."""

    importance: np.ndarray
    threshold_used: float
    keep: np.ndarray = dataclasses.field(init=False)
    fallback_used: bool = dataclasses.field(init=False)

    def __post_init__(self):
        importance = check_finite("importance", self.importance).copy()
        if importance.ndim != 1 or importance.size == 0:
            raise ValueError(f"importance of shape {importance.shape} is not a vector")
        object.__setattr__(self, "threshold_used",
                           check_real("threshold_used", self.threshold_used))
        if not self.threshold_used >= 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold_used}")
        keep = importance > self.threshold_used
        fallback = not keep.any()
        if fallback:
            keep[np.argmax(importance)] = True
        object.__setattr__(self, "importance", importance)
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "fallback_used", fallback)

    @property
    def latent_dim(self):
        return self.keep.size

    @property
    def kept_dim(self):
        return int(self.keep.sum())


def hoyer_sparsity(encodings) -> float:
    """Mean of (sqrt(D) - |z|_1/|z|_2) / (sqrt(D) - 1) over samples.

    0 for uniform-magnitude vectors, 1 for one-hot vectors. An all-zero
    sample has an undefined ratio; it contributes 0 sparsity and triggers a
    warning since it signals a fully collapsed encoder. A non-finite value
    is a ValueError.
    """
    z = np.atleast_2d(check_finite("encodings", encodings))
    n, d = z.shape
    if n == 0:
        raise ValueError("need at least one encoding")
    if d < 2:
        raise ValueError(f"need latent dimension >= 2, got {d}")
    l1 = np.abs(z).sum(axis=1)
    l2 = np.sqrt((z * z).sum(axis=1))
    ratio = np.full(n, np.sqrt(d))
    nonzero = l2 > 0.0
    if not nonzero.all():
        warnings.warn(
            f"{int((~nonzero).sum())} all-zero encodings: treating their "
            "sparsity contribution as 0 (collapsed encoder?)",
            stacklevel=2,
        )
    ratio[nonzero] = l1[nonzero] / l2[nonzero]
    return float(np.mean((np.sqrt(d) - ratio) / (np.sqrt(d) - 1.0)))


def dim_importance(encodings) -> np.ndarray:
    """Unbiased sample standard deviation of each latent dimension. A
    non-finite value is a ValueError."""
    z = np.atleast_2d(check_finite("encodings", encodings))
    if z.shape[0] < 2:
        raise ValueError("need at least 2 samples for a sample std")
    return z.std(axis=0, ddof=1)


def build_mask(importance, threshold) -> LatentMask:
    """The LatentMask of importance at threshold (see LatentMask)."""
    return LatentMask(importance, threshold)


def apply_mask(z, mask: LatentMask):
    """Select the kept components, preserving order; works on vectors and
    (N, D) batches."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != mask.latent_dim:
        raise ValueError(
            f"latent width {z.shape[-1]} does not match mask over {mask.latent_dim}"
        )
    return z[..., mask.keep]


def save_mask(path, mask: LatentMask):
    """importance as the one array and threshold_used in the header: the
    two values the mask follows from. Round-trips exactly."""
    save_checkpoint(path, {"kind": "mask", "threshold_used": mask.threshold_used},
                    {"importance": mask.importance})


def load_mask(path) -> LatentMask:
    """Raises MissingArtifact if the file is absent and a ValueError naming
    it if it is not a well-formed mask file (see nets.load_checkpoint), if
    it holds other arrays than one finite importance vector (such as the
    keep array of earlier files), or if LatentMask rejects the mask, its
    threshold included."""
    header, arrays = load_checkpoint(path, "mask")
    (importance,) = check_arrays(path, arrays, {"importance": ("d",)})
    try:
        return LatentMask(importance, header.get("threshold_used"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
