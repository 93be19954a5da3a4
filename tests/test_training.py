"""The training loop both stages share (nets.fit): parameters restored and
saved on TrainingAbort, and one JSONL epoch log for a whole run."""

import json
import math

import numpy as np
import pytest

from minreal import qvae, world
from minreal.errors import ConfigError, TrainingAbort
from minreal.nets import param_arrays
from test_qvae import QP_TABLE, QP_VAE, tiny_batch, tiny_model
from test_world import make_dataset

N, BATCH, BATCHES = 40, 16, 3  # samples, batch size, batches per epoch

# stage -> (module, name of the loss the loop calls, checkpoint loader)
STAGES = {
    "qvae": (qvae, "qvae_loss", qvae.load_qvae),
    "world": (world, "wm_loss", world.load_world),
}


def make_run(stage, qparams=QP_TABLE, batch_size=BATCH):
    """A fresh small model of the stage and train(epochs, **paths), which
    trains it with a fixed seed and returns the records."""
    if stage == "qvae":
        model = tiny_model(qparams=qparams, seed=30)
        x, _ = tiny_batch(model, N, seed=31)
        return model, lambda epochs, **paths: qvae.train_qvae(
            model, x, qvae.TrainConfig(epochs, batch_size=batch_size, seed=3), **paths)
    model = world.build_world_model(2, 2, seed=32)
    train, val = make_dataset(N, seed=33), make_dataset(8, seed=34)
    return model, lambda epochs, **paths: world.train_world(
        model, train, val, world.WorldTrainConfig(epochs, batch_size=batch_size, seed=3),
        **paths)


def param_bytes(model):
    return [p.data.tobytes() for p in model.parameters()]


# An abort on a later batch comes after steps of its own epoch, which the
# restore must undo.
@pytest.mark.parametrize("abort_batch", [1, 2])
@pytest.mark.parametrize("abort_epoch", [1, 2])
@pytest.mark.parametrize("stage", STAGES)
def test_abort_restores_last_whole_epoch_and_saves(stage, abort_epoch, abort_batch,
                                                   tmp_path, monkeypatch):
    module, loss_name, load = STAGES[stage]
    ref, train_ref = make_run(stage)
    train_ref(abort_epoch - 1)

    loss = getattr(module, loss_name)
    calls = []

    def loss_aborting_in_epoch(*args):
        calls.append(None)
        if len(calls) == BATCHES * (abort_epoch - 1) + abort_batch:
            raise TrainingAbort("injected")
        return loss(*args)

    monkeypatch.setattr(module, loss_name, loss_aborting_in_epoch)
    model, train = make_run(stage)
    path = tmp_path / "abort.ckpt"
    with pytest.raises(TrainingAbort) as info:
        train(3, ckpt_path=path)
    assert info.value.diagnostics["epoch"] == abort_epoch
    assert param_bytes(model) == param_bytes(ref)
    assert param_bytes(load(path)) == param_bytes(ref)


def assert_arrays_are_views(stage, model):
    """Each network's named arrays, which its checkpoint writes, are views of
    the network's one parameter vector."""
    for prefix, net in STAGES[stage][0]._nets(model).items():
        for a in param_arrays({prefix: net}).values():
            assert np.shares_memory(a, net.param.data)


@pytest.mark.parametrize("stage", STAGES)
def test_parameters_stay_one_vector_per_network(stage, tmp_path, monkeypatch):
    module, loss_name, load = STAGES[stage]
    model, train = make_run(stage)
    vectors = [p.data for p in model.parameters()]
    assert len(vectors) == {"qvae": 3, "world": 2}[stage]
    train(2)
    # Adam and the epoch snapshots work in place.
    assert all(p.data is v for p, v in zip(model.parameters(), vectors))
    assert_arrays_are_views(stage, model)

    def aborting(*args):
        raise TrainingAbort("injected")

    monkeypatch.setattr(module, loss_name, aborting)
    path = tmp_path / "abort.ckpt"
    with pytest.raises(TrainingAbort):
        train(1, ckpt_path=path)
    assert all(p.data is v for p, v in zip(model.parameters(), vectors))
    assert_arrays_are_views(stage, model)
    assert_arrays_are_views(stage, load(path))


def test_one_log_holds_both_stages_in_order(tmp_path):
    log = tmp_path / "run.jsonl"
    q_records = make_run("qvae")[1](3, log_path=log)
    w_records = make_run("world")[1](2, log_path=log)
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(d["stage"], d["epoch"]) for d in lines] == [
        ("qvae", 1), ("qvae", 2), ("qvae", 3), ("world", 1), ("world", 2)]
    assert [d["record"] for d in lines] == [vars(r) for r in q_records] + w_records


def test_nan_bracket_min_is_logged_as_nan(tmp_path):
    log = tmp_path / "vae.jsonl"
    records = make_run("qvae", qparams=QP_VAE)[1](1, log_path=log)
    text = log.read_text()
    assert '"bracket_min": NaN' in text
    record = json.loads(text)["record"]
    assert math.isnan(record["bracket_min"]) and math.isnan(records[0].bracket_min)
    np.testing.assert_equal(record, vars(records[0]))


@pytest.mark.parametrize("epochs, batch_size, match", [
    (2, 0, "batch_size"), (2, -4, "batch_size"), (-2, BATCH, "epochs"),
    # 1.5 epochs once left an empty log and raised a TypeError, and True
    # trained as 1.
    (1.5, BATCH, "epochs"), (True, BATCH, "epochs"), (2, True, "batch_size"),
    (2, 16.0, "batch_size")])
@pytest.mark.parametrize("stage", STAGES)
def test_bad_batch_size_or_epochs_is_config_error(stage, epochs, batch_size, match,
                                                  tmp_path):
    model, train = make_run(stage, batch_size=batch_size)
    before = param_bytes(model)
    log, ckpt = tmp_path / "run.jsonl", tmp_path / "model.ckpt"
    with pytest.raises(ConfigError, match=match):
        train(epochs, log_path=log, ckpt_path=ckpt)
    assert not log.exists() and not ckpt.exists()
    assert param_bytes(model) == before


@pytest.mark.parametrize("stage", STAGES)
def test_one_batch_moves_each_network_by_its_learning_rate(stage):
    # Adam's first step is lr * g / (|g| + eps) per entry, so each network's
    # largest move is its own learning rate.
    model, train = make_run(stage, batch_size=N)
    before = [p.data.copy() for p in model.parameters()]
    train(1)
    moves = [np.abs(p.data - b).max() for p, b in zip(model.parameters(), before)]
    rates = ([world.DYNAMICS_LEARNING_RATE, world.REWARD_LEARNING_RATE] if stage == "world"
             else [qvae.TrainConfig(1).learning_rate] * 3)
    np.testing.assert_allclose(moves, rates, rtol=1e-6)
