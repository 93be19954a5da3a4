"""Sparse latent extraction with a Tsallis-deformed VAE, latent masking,
learned world models, and CEM planning on a toy dot-reacher environment."""

__version__ = "0.1.0"
