"""errors.check_int's lower bound, errors.check_seed, and the seed check at
every entry point that takes a seed: a bad seed is a ConfigError naming the
field before any draw. errors.check_finite, and the finiteness check at
every entry point that validates an array: a NaN or infinity is an error
naming the input. errors.check_real, and the real-number check of every
real-valued field: anything but a real, non-bool number is a ConfigError
naming the field when its config is built. The integer fields of the
training configs and the builders' widths are checked the same way."""

import re

import numpy as np
import pytest

from minreal import autodiff as ad
from minreal import cem, env, latent, nets, qvae, tsallis, world
from minreal.errors import (FINITE_BLOCK_ELEMENTS, ConfigError, check_finite, check_int,
                            check_real, check_seed)
from minreal.tsallis import QParams

CLASSES = (qvae.ObservationClass("proprio", "diag_gaussian", 2),
           qvae.ObservationClass("image", "continuous_bernoulli", 3))
QPARAMS = QParams(0.95, (0.95, 0.999), (50.0, 1.0), 50.0, 3.0)
CEM = cem.CemConfig(np.array([-1.0]), np.array([1.0]), horizon=1, candidates=100,
                    max_iters=2)

# entry point -> a call that takes seed and returns something to compare
TAKES_SEED = {
    "collect_dataset": lambda seed: env.collect_dataset(3, seed=seed).train.obs,
    "TrainConfig": lambda seed: qvae.TrainConfig(epochs=1, seed=seed).seed,
    "WorldTrainConfig": lambda seed: world.WorldTrainConfig(epochs=1, seed=seed).seed,
    "build_qvae": lambda seed: qvae.build_qvae(
        CLASSES, 2, QPARAMS, encoder_hidden=(4,), seed=seed).encoder.param.data,
    "build_world_model": lambda seed: world.build_world_model(
        1, 1, (4,), seed=seed).dynamics.param.data,
    "plan": lambda seed: cem.plan(world.build_world_model(1, 1, (4,)), np.zeros(1),
                                  CEM, seed=seed)[0],
}

# 1.5 once raised numpy's raw TypeError, True ran as seed 1, and -1 raised
# numpy's unnamed "expected non-negative integer".
BAD_SEEDS = [1.5, np.float64(2.0), True, np.bool_(True), -1, np.int64(-3), None, "3",
             [1, 1.5], [1, -1], (True, 2), [[1, 2]]]


def test_check_int_minimum():
    assert check_int("count", np.int64(1), 1) == 1 and check_int("count", -5, -5) == -5
    with pytest.raises(ConfigError, match="count must be >= 1, got 0"):
        check_int("count", 0, 1)
    with pytest.raises(ConfigError, match="count must be an integer"):
        check_int("count", 1.5, 1)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_check_seed_rejects(seed):
    with pytest.raises(ConfigError, match="my_seed"):
        check_seed("my_seed", seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint8(7), [7, 1], (7, np.int32(1)), []],
                         ids=repr)
def test_check_seed_accepts(seed):
    check_seed("seed", seed)


@pytest.mark.parametrize("seed", [1.5, True, -1, [1, -1]], ids=repr)
@pytest.mark.parametrize("entry", TAKES_SEED)
def test_bad_seed_is_config_error(entry, seed):
    with pytest.raises(ConfigError, match="seed"):
        TAKES_SEED[entry](seed)


@pytest.mark.parametrize("entry", TAKES_SEED)
def test_numpy_and_sequence_seeds_run_as_their_ints(entry):
    run = TAKES_SEED[entry]
    assert np.array_equal(run(np.int64(3)), run(3))
    assert np.array_equal(run((np.uint8(3), 1)), run([3, 1]))


def test_check_finite_returns_a_float64_array():
    a = np.arange(6.0).reshape(2, 3)
    assert check_finite("a", a) is a
    assert check_finite("a", [1, 2]).dtype == np.float64
    assert check_finite("a", 2.5).shape == ()
    assert check_finite("a", np.zeros((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("shape", [(FINITE_BLOCK_ELEMENTS + 5,), (1030, 260), (3, 2, 50_000)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_scans_every_block(shape, bad):
    # The first and last row of each block of rows (of 262 144 elements or
    # fewer) and the last row of all, each at its last element.
    rows = max(1, FINITE_BLOCK_ELEMENTS // int(np.prod(shape[1:])))
    n = shape[0]
    for row in sorted({0, n - 1, *range(rows - 1, n, rows), *range(rows, n, rows)}):
        a = np.zeros(shape)
        a.reshape(n, -1)[row, -1] = bad
        with pytest.raises(ConfigError, match="non-finite values in a"):
            check_finite("a", a, ConfigError)


def _spoiled(a, bad):
    """A float copy of a with its last value replaced by bad."""
    a = np.array(a, dtype=np.float64)
    a.flat[-1] = bad
    return a


def _dataset(n=6, **spoil):
    """A WorldDataset of 1-dim states and actions; spoil maps a field to the
    value its last entry takes."""
    rng = np.random.default_rng(0)
    arrays = {"states": rng.normal(size=(n, 1)), "actions": rng.normal(size=(n, 1)),
              "next_states": rng.normal(size=(n, 1)), "rewards": rng.normal(size=n)}
    return world.WorldDataset(**{name: _spoiled(a, spoil[name]) if name in spoil else a
                                 for name, a in arrays.items()})


def _save_and_load(path, kind, arrays, load, **header):
    nets.save_checkpoint(path, {"kind": kind, **header}, arrays)
    return load(path)


def _qparams(**spoil):
    kwargs = {"q": 0.95, "class_qs": (0.95, 0.999), "class_weights": (50.0, 1.0),
              "beta": 50.0, "gamma": 3.0}
    kwargs.update(spoil)
    return QParams(**kwargs)


TINY_WORLD = world.build_world_model(1, 1, (4,))
TINY_QVAE = qvae.build_qvae(CLASSES, 2, QPARAMS, encoder_hidden=(4,))

# entry point -> (a call with a value that is NaN or infinite, the error it
# raises, the label its message names; {path} stands for the file the call
# loads from)
CHECKS_FINITE = {
    "PolicyParams.mean": (lambda bad, path: cem.PolicyParams(
        _spoiled(np.zeros((2, 1)), bad), np.ones((2, 1))), ValueError, "mean"),
    "PolicyParams.std": (lambda bad, path: cem.PolicyParams(
        np.zeros((2, 1)), _spoiled(np.ones((2, 1)), bad)), ValueError, "std"),
    "plan": (lambda bad, path: cem.plan(TINY_WORLD, _spoiled([0.0], bad), CEM, seed=0),
             ValueError, "s0"),
    "CemConfig.action_low": (lambda bad, path: cem.CemConfig(
        _spoiled([-1.0, -1.0], bad), np.ones(2)), ConfigError, "action_low"),
    "CemConfig.action_high": (lambda bad, path: cem.CemConfig(
        -np.ones(2), _spoiled([1.0, 1.0], bad)), ConfigError, "action_high"),
    "QParams.q": (lambda bad, path: _qparams(q=bad), ConfigError, "q"),
    "QParams.beta": (lambda bad, path: _qparams(beta=bad), ConfigError, "beta"),
    "QParams.gamma": (lambda bad, path: _qparams(gamma=bad), ConfigError, "gamma"),
    "QParams.class_qs": (lambda bad, path: _qparams(class_qs=(0.95, bad)),
                         ConfigError, "class_qs"),
    "QParams.class_weights": (lambda bad, path: _qparams(class_weights=(bad, 1.0)),
                              ConfigError, "class_weights"),
    "LatentMask": (lambda bad, path: latent.LatentMask(_spoiled([0.3, 0.1], bad), 0.15),
                   ValueError, "importance"),
    "hoyer_sparsity": (lambda bad, path: latent.hoyer_sparsity(_spoiled(np.ones((3, 2)), bad)),
                       ValueError, "encodings"),
    "dim_importance": (lambda bad, path: latent.dim_importance(_spoiled(np.ones((3, 2)), bad)),
                       ValueError, "encodings"),
    "check_arrays": (lambda bad, path: nets.check_arrays(
        path, {"w": _spoiled(np.ones(3), bad)}, {"w": ("n",)}), ValueError, "'w' of {path}"),
    "load_mask": (lambda bad, path: _save_and_load(
        path, "mask", {"importance": _spoiled([0.3, 0.1], bad)}, latent.load_mask,
        threshold_used=0.15), ValueError, "'importance' of {path}"),
    "load_world_dataset": (lambda bad, path: _save_and_load(
        path, "world_dataset", vars(_dataset(rewards=bad)), world.load_world_dataset),
        ValueError, "'rewards' of {path}"),
    "QvaeModel.encode": (lambda bad, path: TINY_QVAE.encode(_spoiled(np.zeros((3, 5)), bad)),
                         ValueError, "x"),
    "train_qvae": (lambda bad, path: qvae.train_qvae(
        TINY_QVAE, _spoiled(np.full((4, 5), 0.5), bad), qvae.TrainConfig(epochs=1)),
        ValueError, "x_data"),
    "DiagGaussian.mean": (lambda bad, path: tsallis.DiagGaussian(
        _spoiled(np.zeros(2), bad), np.zeros(2)), ValueError, "mean"),
    "DiagGaussian.log_std": (lambda bad, path: tsallis.DiagGaussian(
        np.zeros(2), _spoiled(np.zeros(2), bad)), ValueError, "log_std"),
    "q_log": (lambda bad, path: tsallis.q_log(_spoiled(np.ones(3), bad), 0.5), ValueError, "x"),
    "heldout_nll": (lambda bad, path: world.heldout_nll(TINY_WORLD, _dataset(states=bad)),
                    ValueError, "ds.states"),
    "train_world.train_ds": (lambda bad, path: world.train_world(
        TINY_WORLD, _dataset(rewards=bad), _dataset(), world.WorldTrainConfig(epochs=1)),
        ValueError, "train_ds.rewards"),
    "train_world.val_ds": (lambda bad, path: world.train_world(
        TINY_WORLD, _dataset(), _dataset(next_states=bad), world.WorldTrainConfig(epochs=1)),
        ValueError, "val_ds.next_states"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", CHECKS_FINITE)
def test_non_finite_input_is_rejected_by_name(entry, bad, tmp_path):
    call, error, label = CHECKS_FINITE[entry]
    path = tmp_path / "input.art"
    message = "non-finite values in " + label.format(path=path)
    with pytest.raises(error, match=re.escape(message) + "$") as info:
        call(bad, path)
    assert type(info.value) is error


def test_check_real_returns_a_float():
    for value in [2, 0.5, np.float32(0.5), np.int64(2), np.float64(-np.inf), np.nan]:
        real = check_real("x", value)
        assert type(real) is float and np.array_equal(real, float(value), equal_nan=True)
    for value in [True, np.bool_(False), "1", None, [0.5], 1j, np.array([0.5])]:
        message = f"x must be a real number, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            check_real("x", value)


def _mask_file(value, path):
    nets.save_checkpoint(path, {"kind": "mask", "threshold_used": value},
                         {"importance": np.array([0.3, 0.1])})
    return latent.load_mask(path)


# real-valued field -> (a call that builds its config, or Adam, with value
# in that field, the label its message names, a value the field accepts)
TAKES_REAL = {
    "CemConfig.elite_ratio": (lambda value, path: cem.CemConfig(
        -np.ones(1), np.ones(1), elite_ratio=value), "elite_ratio", 0.5),
    "CemConfig.smoothing": (lambda value, path: cem.CemConfig(
        -np.ones(1), np.ones(1), smoothing=value), "smoothing", 0.5),
    "CemConfig.time_budget": (lambda value, path: cem.CemConfig(
        -np.ones(1), np.ones(1), time_budget=value), "time_budget", 2),
    "QParams.q": (lambda value, path: _qparams(q=value), "q", 0.5),
    "QParams.beta": (lambda value, path: _qparams(beta=value), "beta", 2),
    "QParams.gamma": (lambda value, path: _qparams(gamma=value), "gamma", 2),
    "QParams.class_qs": (lambda value, path: _qparams(class_qs=(0.95, value)),
                         "class_qs", 0.999),
    "QParams.class_weights": (lambda value, path: _qparams(class_weights=(value, 1.0)),
                              "class_weights", 2),
    "TrainConfig.learning_rate": (lambda value, path: qvae.TrainConfig(
        1, learning_rate=value), "learning_rate", 0.5),
    "Adam": (lambda value, path: nets.Adam([ad.parameter(np.zeros(2))], [value]),
             "learning_rates", 0.5),
    "LatentMask": (lambda value, path: latent.LatentMask(np.array([0.3, 0.1]), value),
                   "threshold_used", 1),
    "load_mask": (_mask_file, "{path}: threshold_used", None),
}


# "1" and None once passed or raised a raw TypeError, and True ran as 1.0.
@pytest.mark.parametrize("value", [True, "1", None, [0.5]], ids=repr)
@pytest.mark.parametrize("entry", TAKES_REAL)
def test_non_real_field_is_rejected_by_name(entry, value, tmp_path):
    call, label, _ = TAKES_REAL[entry]
    path = tmp_path / "input.art"
    error = ValueError if entry == "load_mask" else ConfigError
    if entry == "CemConfig.time_budget" and value is None:
        assert call(value, path).time_budget is None  # None is no budget
        return
    message = f"{label.format(path=path)} must be a real number, got {value!r}"
    with pytest.raises(error, match=re.escape(message) + "$") as info:
        call(value, path)
    assert type(info.value) is error


# A JSON header cannot hold a numpy scalar, so load_mask is left out.
@pytest.mark.parametrize("entry", [name for name in TAKES_REAL if name != "load_mask"])
def test_numpy_reals_accepted(entry, tmp_path):
    call, _, good = TAKES_REAL[entry]
    call(np.float32(good), tmp_path / "input.art")
    call(np.float64(good), tmp_path / "input.art")
    if float(good).is_integer():
        call(np.int64(good), tmp_path / "input.art")


def test_cem_config_keeps_its_reals_as_given():
    # As a float64, np.float32(0.01) * 10 000 floors to 99 elites, not 100.
    cfg = cem.CemConfig(-np.ones(1), np.ones(1), elite_ratio=np.float32(0.01))
    assert cem.select_elites(np.zeros(cfg.candidates), cfg.elite_ratio).size == 100


@pytest.mark.parametrize("kwargs, label", [
    ({"epochs": 1.5}, "epochs"), ({"epochs": -1}, "epochs"), ({"epochs": True}, "epochs"),
    ({"epochs": 1, "batch_size": 0}, "batch_size"),
    ({"epochs": 1, "batch_size": 16.0}, "batch_size"),
    ({"epochs": 1, "batch_size": "8"}, "batch_size")], ids=repr)
@pytest.mark.parametrize("config", [qvae.TrainConfig, world.WorldTrainConfig])
def test_training_config_checks_its_integers_when_built(config, kwargs, label):
    with pytest.raises(ConfigError, match=f"^{label} must be"):
        config(**kwargs)
    assert config(np.int64(0), batch_size=np.int32(1)).epochs == 0


# Each of these once built, and Adam rejected it only inside train_qvae.
@pytest.mark.parametrize("rate", [-1.0, 0.0, float("inf"), float("nan")], ids=repr)
def test_learning_rate_range_checked_when_built(rate):
    with pytest.raises(ConfigError, match="^learning_rate must be positive and finite"):
        qvae.TrainConfig(1, learning_rate=rate)
    assert qvae.TrainConfig(1, learning_rate=np.float32(0.5)).learning_rate == 0.5


# builder call with an argument replaced -> the name its message gives
TAKES_WIDTH = {
    "build_qvae.latent_dim": (lambda value: qvae.build_qvae(CLASSES, value, QPARAMS),
                              "latent_dim"),
    "build_world_model.state_dim": (lambda value: world.build_world_model(value, 2),
                                    "state_dim"),
    "build_world_model.action_dim": (lambda value: world.build_world_model(2, value),
                                     "action_dim"),
}


# 2.0 once raised "layer width must be an integer, got 4.0", which names
# neither, and action_dim 0 a ValueError about the dynamics net's input.
@pytest.mark.parametrize("value, rule", [(2.0, "an integer, got 2.0"), (True, "an integer"),
                                         (0, ">= 1, got 0")], ids=repr)
@pytest.mark.parametrize("entry", TAKES_WIDTH)
def test_builders_name_a_bad_width(entry, value, rule):
    call, name = TAKES_WIDTH[entry]
    with pytest.raises(ConfigError, match=re.escape(f"{name} must be {rule}")):
        call(value)


# MlpSpec(5) once raised a raw "'int' object is not iterable".
@pytest.mark.parametrize("widths", [5, "345", np.array([3, 4, 2]), None], ids=repr)
def test_layer_widths_must_be_a_list_or_tuple(widths):
    with pytest.raises(ConfigError, match="^layer_widths must be a list or tuple"):
        nets.MlpSpec(widths)
    assert nets.MlpSpec([3, 4, 2]).layer_widths == (3, 4, 2)


@pytest.mark.parametrize("field", ["class_qs", "class_weights"])
@pytest.mark.parametrize("value", [0.95, "0.95", np.array([0.95, 0.999]), None], ids=repr)
def test_class_fields_must_be_a_list_or_tuple(field, value):
    # A scalar or a string once raised a raw TypeError, and an array passed.
    with pytest.raises(ConfigError, match=f"^{field} must be a list or tuple"):
        _qparams(**{field: value})
    assert _qparams(**{field: [1.0, 1.0] if field == "class_weights" else [0.95, 0.999]})
