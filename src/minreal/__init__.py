"""Sparse latent extraction with a Tsallis-deformed VAE, latent masking,
learned world models, and CEM planning on a toy dot-reacher environment."""

from .tsallis import (
    DiagGaussian,
    QParams,
    SparsityReport,
    check_sparsity_condition,
    q_log,
)

__all__ = [
    "DiagGaussian",
    "QParams",
    "SparsityReport",
    "check_sparsity_condition",
    "q_log",
]

__version__ = "0.1.0"
