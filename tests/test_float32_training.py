"""Gates of float32 training (nets.GRAPH_DTYPE) against float64 training at
the paper configuration: the loss and every gradient at fixed parameters,
and a small collect -> q-VAE -> mask -> world pipeline trained both ways.
Each tolerance leaves at least 10x headroom over the largest gap measured
on these tests' inputs and on perfbench's training data (100 episodes, 10
q-VAE and 20 world epochs). Training twice in float32 gives byte-identical
checkpoints.

The pipeline's world artifacts repeat only at a fixed OpenBLAS thread count
(see minreal.world), so CI also runs this file with OPENBLAS_NUM_THREADS=1.
"""

import hashlib

import numpy as np
import pytest

from minreal import autodiff as ad
from minreal import env, latent, nets, qvae, world
from minreal.tsallis import QParams
from test_autodiff import square

CLASSES = (
    qvae.ObservationClass("proprio", "diag_gaussian", env.PROPRIO_DIM),
    qvae.ObservationClass("image", "continuous_bernoulli", env.IMAGE_SIZE**2),
)
PAPER_QPARAMS = QParams(q=0.95, class_qs=(0.95, 0.999), class_weights=(50, 1),
                        beta=50, gamma=3)

# Every gradient array within this share of its largest magnitude: measured
# 1.25e-6 (q-VAE loss), 7.9e-7 (encoder alone) and 6.7e-7 (world loss) here,
# and 1.04e-6 for the q-VAE on perfbench's first batch.
GRAD_TOL = 1.3e-5

# The small pipeline's gaps, measured (here / at perfbench's sizes): per-epoch
# q-VAE totals 1.3e-6 / 4.9e-5 relative, world val_total per epoch 2.9e-6 /
# 0.0015 nats, held-out world NLL 5.0e-6 nats, recon_mse 2.7e-7 / 2.9e-7 and
# hoyer 1.5e-5 / 1.05e-4 relative; the default mask kept the same dims (2
# here, 7 there).
EPOCH_TOTAL_RTOL = 5e-4
WORLD_NLL_ATOL = 0.016
RECON_MSE_RTOL = 4e-6
HOYER_RTOL = 1.1e-3


def in_float64(monkeypatch, fn):
    """fn() with Mlp.forward computing in float64."""
    with monkeypatch.context() as m:
        m.setattr(nets, "GRAPH_DTYPE", np.float64)
        return fn()


def loss_and_grads(loss_fn, params):
    """(loss value, copies of every parameter's gradient) of loss_fn()."""
    ad.zero_grads(params)
    loss = loss_fn()
    ad.backward(loss)
    return float(loss.data), [p.grad.copy() for p in params]


def assert_gate(monkeypatch, loss_fn, params, loss_rtol):
    """The loss and each gradient of loss_fn() on the default (float32)
    graph against the float64 graph."""
    loss32, grads32 = loss_and_grads(loss_fn, params)
    loss64, grads64 = in_float64(monkeypatch, lambda: loss_and_grads(loss_fn, params))
    assert loss32 == pytest.approx(loss64, rel=loss_rtol)
    for g32, g64 in zip(grads32, grads64):
        assert g32.dtype == np.float64
        assert np.max(np.abs(g32 - g64)) <= GRAD_TOL * np.max(np.abs(g64))


@pytest.fixture(scope="module")
def observations():
    return env.observation_matrix(env.collect_dataset(15, seed=23).train)


def test_mlp_gradients_match_float64(monkeypatch, observations):
    # mean(encoder(x)^2), measured 1.8e-8 relative
    net = qvae.build_qvae(CLASSES, 20, PAPER_QPARAMS).encoder
    x = ad.parameter(observations[:256])
    assert_gate(monkeypatch, lambda: ad.mean_all(square(net.forward(x))),
                [x, *net.params], loss_rtol=2e-7)


def test_qvae_loss_gradients_match_float64(monkeypatch, observations):
    # measured 2.9e-9 relative; 2.3e-9 on perfbench's first batch
    model = qvae.build_qvae(CLASSES, 20, PAPER_QPARAMS)
    x = observations[:256]
    noise = np.random.default_rng(1).standard_normal((x.shape[0], 20))
    assert_gate(monkeypatch, lambda: qvae.qvae_loss(model, x, noise)[0], model.parameters(),
                loss_rtol=3e-8)


def test_wm_loss_gradients_match_float64(monkeypatch):
    # At the 7 dims perfbench's default mask keeps; measured 6.9e-8 relative.
    model = world.build_world_model(7, env.ACTION_DIM)
    rng = np.random.default_rng(2)
    batch = world.WorldDataset(rng.normal(size=(512, 7)), rng.uniform(-1, 1, (512, 2)),
                               rng.normal(size=(512, 7)), rng.normal(size=512))
    assert_gate(monkeypatch, lambda: world.wm_loss(model, batch)[0], model.parameters(),
                loss_rtol=7e-7)


def train_pipeline(workdir):
    """collect -> q-VAE (12 epochs) -> default mask -> world model (10
    epochs) at the paper config, checkpoints in workdir; its records and
    held-out scores."""
    splits = env.collect_dataset(40, seed=5)
    heldout = env.collect_dataset(20, seed=6)
    heldout = heldout.train + heldout.val + heldout.test
    x = env.observation_matrix(splits.train)
    vae = qvae.build_qvae(CLASSES, 20, PAPER_QPARAMS)
    records = qvae.train_qvae(vae, x, qvae.TrainConfig(epochs=12),
                              ckpt_path=workdir / "qvae.ckpt")
    mask = latent.build_mask(latent.dim_importance(vae.encode(x).mean),
                             latent.DEFAULT_IMPORTANCE_THRESHOLD)
    train, val = (world.encode_dataset(vae, mask, d) for d in (splits.train, splits.val))
    wm = world.build_world_model(train.state_dim, env.ACTION_DIM)
    wrecords = world.train_world(wm, train, val, world.WorldTrainConfig(epochs=10),
                                 ckpt_path=workdir / "world.ckpt")
    x_held = env.observation_matrix(heldout)
    return {
        "qvae_totals": np.array([r.total for r in records]),
        "world_val": np.array([r["val_total"] for r in wrecords]),
        "heldout_nll": world.heldout_nll(wm, world.encode_dataset(vae, mask, heldout))[0],
        "recon_mse": qvae.recon_mse(vae, x_held),
        "hoyer": latent.hoyer_sparsity(vae.encode(x_held).mean),
        "keep": mask.keep,
        "sha256": [hashlib.sha256((workdir / name).read_bytes()).hexdigest()
                   for name in ("qvae.ckpt", "world.ckpt")],
    }


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    """The pipeline trained in float64, then twice on the default (float32)
    graph."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(nets, "GRAPH_DTYPE", np.float64)
        runs = [train_pipeline(tmp_path_factory.mktemp("run"))]
    return runs + [train_pipeline(tmp_path_factory.mktemp("run")) for _ in range(2)]


def test_pipeline_matches_float64(pipelines):
    f64, f32, _ = pipelines
    np.testing.assert_allclose(f32["qvae_totals"], f64["qvae_totals"], rtol=EPOCH_TOTAL_RTOL)
    np.testing.assert_allclose(f32["world_val"], f64["world_val"], rtol=0, atol=WORLD_NLL_ATOL)
    assert f32["heldout_nll"] == pytest.approx(f64["heldout_nll"], abs=WORLD_NLL_ATOL)
    assert f32["recon_mse"] == pytest.approx(f64["recon_mse"], rel=RECON_MSE_RTOL)
    assert f32["hoyer"] == pytest.approx(f64["hoyer"], rel=HOYER_RTOL)
    # Two of the 20 dims; the next is 0.003 below the threshold.
    assert np.count_nonzero(f64["keep"]) == 2
    np.testing.assert_array_equal(f32["keep"], f64["keep"])


def test_float32_training_repeats_bitwise(pipelines):
    _, first, second = pipelines
    assert first["sha256"] == second["sha256"]
