"""errors.check_int's lower bound, errors.check_seed, and the seed check at
every entry point that takes a seed: a bad seed is a ConfigError naming the
field before any draw."""

import numpy as np
import pytest

from minreal import cem, env, qvae, world
from minreal.errors import ConfigError, check_int, check_seed
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
