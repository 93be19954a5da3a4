"""Hoyer sparsity of encoder means, per-dimension importance, and mask
construction/application for extracting the minimal-realization state."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

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
    warning since it signals a fully collapsed encoder.
    """
    z = np.atleast_2d(np.asarray(encodings, dtype=np.float64))
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
    """Unbiased sample standard deviation of each latent dimension."""
    z = np.atleast_2d(np.asarray(encodings, dtype=np.float64))
    if z.shape[0] < 2:
        raise ValueError("need at least 2 samples for a sample std")
    return z.std(axis=0, ddof=1)


def build_mask(importance, threshold) -> LatentMask:
    """Keep dimensions whose importance exceeds the threshold; if none
    survive, keep the single most important dimension and flag it."""
    importance = np.asarray(importance, dtype=np.float64)
    if threshold < 0:
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
    """Text format: latent dim, threshold, then one line per dimension with
    importance (full precision) and keep flag. Round-trips exactly."""
    lines = [
        f"latent_dim\t{mask.latent_dim}",
        f"threshold\t{mask.threshold_used:.17g}",
        f"fallback_used\t{int(mask.fallback_used)}",
        "dim\timportance\tkeep",
    ]
    for i in range(mask.latent_dim):
        lines.append(f"{i}\t{mask.importance[i]:.17g}\t{int(mask.keep[i])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mask(path) -> LatentMask:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    meta = {}
    rows = []
    for ln in lines:
        parts = ln.split("\t")
        if parts[0] in ("latent_dim", "threshold", "fallback_used"):
            meta[parts[0]] = parts[1]
        elif parts[0] == "dim":
            continue
        else:
            rows.append(parts)
    missing = [key for key in ("latent_dim", "threshold") if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing header line {', '.join(missing)}")
    d = int(meta["latent_dim"])
    if len(rows) != d:
        raise ValueError(f"{path}: mask file lists {len(rows)} dims, header says {d}")
    # d rows with distinct in-range indices cover every dim exactly once.
    importance = np.empty(d)
    keep = np.zeros(d, dtype=bool)
    seen = set()
    for parts in rows:
        i = int(parts[0])
        if not 0 <= i < d:
            raise ValueError(f"{path}: dim index {i} outside [0, {d})")
        if i in seen:
            raise ValueError(f"{path}: dim index {i} listed twice")
        seen.add(i)
        importance[i] = float(parts[1])
        keep[i] = bool(int(parts[2]))
    return LatentMask(
        keep=keep,
        threshold_used=float(meta["threshold"]),
        importance=importance,
        fallback_used=bool(int(meta.get("fallback_used", "0"))),
    )
