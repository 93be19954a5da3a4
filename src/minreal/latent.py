"""Hoyer sparsity of encoder means, per-dimension importance, and mask
construction/application for extracting the minimal-realization state."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .nets import check_arrays, load_checkpoint, save_checkpoint

DEFAULT_IMPORTANCE_THRESHOLD = 0.15


@dataclasses.dataclass(frozen=True)
class LatentMask:
    """Boolean keep/drop vector over latent dimensions."""

    keep: np.ndarray
    threshold_used: float
    importance: np.ndarray
    fallback_used: bool = False

    def __post_init__(self):
        keep = np.asarray(self.keep, dtype=bool)
        importance = np.asarray(self.importance, dtype=np.float64)
        if keep.shape != importance.shape:
            raise ValueError("keep and importance must have equal length")
        if not np.isfinite(importance).all():
            raise ValueError(f"non-finite importance {importance}")
        if not keep.any():
            raise ValueError("a mask must keep at least one dimension")
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "importance", importance)

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
    z = np.atleast_2d(np.asarray(encodings, dtype=np.float64))
    if not np.isfinite(z).all():
        raise ValueError("non-finite encodings")
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
    z = np.atleast_2d(np.asarray(encodings, dtype=np.float64))
    if not np.isfinite(z).all():
        raise ValueError("non-finite encodings")
    if z.shape[0] < 2:
        raise ValueError("need at least 2 samples for a sample std")
    return z.std(axis=0, ddof=1)


def build_mask(importance, threshold) -> LatentMask:
    """Keep dimensions whose importance exceeds the threshold; if none
    survive, keep the single most important dimension and flag it. A
    negative or NaN threshold or a non-finite importance is a ValueError."""
    importance = np.asarray(importance, dtype=np.float64)
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    keep = importance > threshold
    fallback = False
    if not keep.any():
        keep = np.zeros_like(keep)
        keep[int(np.argmax(importance))] = True
        fallback = True
    return LatentMask(
        keep=keep, threshold_used=float(threshold), importance=importance,
        fallback_used=fallback,
    )


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
    """keep (as 0/1) and importance as arrays, the threshold and the
    fallback flag in the header. Round-trips exactly."""
    header = {"kind": "mask", "threshold_used": mask.threshold_used,
              "fallback_used": mask.fallback_used}
    save_checkpoint(path, header, {"keep": mask.keep, "importance": mask.importance})


def load_mask(path) -> LatentMask:
    """Raises MissingArtifact if the file is absent and a ValueError naming
    it if it is not a well-formed mask file (see nets.load_checkpoint), if
    its arrays have other names or shapes or hold a non-finite value, if a
    keep flag is not 0 or 1 or none is 1, or if the threshold is not a
    number or the fallback flag not a boolean."""
    header, arrays = load_checkpoint(path, "mask")
    keep, importance = check_arrays(path, arrays, {"keep": ("d",), "importance": ("d",)})
    threshold, fallback = header.get("threshold_used"), header.get("fallback_used")
    if type(threshold) not in (int, float) or type(fallback) is not bool:
        raise ValueError(f"{path}: bad threshold_used {threshold!r} or "
                         f"fallback_used {fallback!r}")
    if not np.isin(keep, (0.0, 1.0)).all() or not keep.any():
        raise ValueError(f"{path}: keep flags must be 0 or 1, at least one 1")
    return LatentMask(keep=keep == 1.0, threshold_used=float(threshold),
                      importance=importance, fallback_used=fallback)
