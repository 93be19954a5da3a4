"""Bounds on the memory the evaluation path allocates, traced with
tracemalloc: unlike the process's peak RSS, its count does not depend on
what earlier allocations left in the heap."""

import tracemalloc

import numpy as np

from minreal import env, qvae
from minreal.errors import check_finite
from minreal.tsallis import QParams

CLASSES = (
    qvae.ObservationClass("proprio", "diag_gaussian", env.PROPRIO_DIM),
    qvae.ObservationClass("image", "continuous_bernoulli", env.IMAGE_SIZE**2),
)
PAPER_QPARAMS = QParams(q=0.95, class_qs=(0.95, 0.999), class_weights=(50, 1),
                        beta=50, gamma=3)


def traced_peak(fn):
    """The peak bytes fn() allocates, counted from the call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recon_mse_peak_below_one_full_reconstruction():
    model = qvae.build_qvae(CLASSES, 20, PAPER_QPARAMS)
    x = np.random.default_rng(0).uniform(size=(6000, env.OBS_DIM))
    peak = traced_peak(lambda: qvae.recon_mse(model, x))
    assert peak < x.nbytes  # 12.5 MB, the bytes of reconstruct(x)


def test_rejoining_a_collection_copies_no_split():
    ds = env.collect_dataset(60, seed=3)
    peak = traced_peak(lambda: ds.train + ds.val + ds.test)
    assert peak < min(s.obs.nbytes for s in (ds.train, ds.val, ds.test))


def test_encode_checks_finiteness_without_an_x_sized_temporary():
    # A one-dim latent behind a two-unit layer keeps the forward's arrays
    # far below x.size bytes, the size of np.isfinite(x) (1.6 MB on 6 300
    # rows), so the peak shows the finiteness check.
    model = qvae.build_qvae(CLASSES, 1, PAPER_QPARAMS, encoder_hidden=(2,),
                            decoder_hidden=[(2,), (2,)])
    x = np.random.default_rng(0).uniform(size=(6300, env.OBS_DIM))
    peak = traced_peak(lambda: model.encode(x))
    assert peak < x.size // 4


def test_check_finite_allocates_less_than_a_bool_mask():
    # np.isfinite(x) whole would be a bool array of x.size bytes: 1.56 MB.
    x = np.random.default_rng(0).uniform(size=(6000, env.OBS_DIM))
    peak = traced_peak(lambda: check_finite("x", x))
    assert peak < x.size
