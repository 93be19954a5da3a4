"""Records that hold arrays compare by identity (eq=False): a field-wise ==
would compare arrays, whose truth value is ambiguous, and a frozen record's
field-wise hash would hash arrays, which are unhashable."""

import numpy as np
import pytest

from minreal import cem, env, latent, tsallis, world


def _observation():
    return env.Observation(image=np.zeros((env.IMAGE_SIZE, env.IMAGE_SIZE)),
                           proprio=np.zeros(env.PROPRIO_DIM))


def _policy():
    return cem.PolicyParams(mean=np.zeros((2, 1)), std=np.ones((2, 1)))


# record class -> a call that builds a fresh instance, equal in content to
# every other instance it builds
RECORDS = {
    env.DotReacherState: lambda: env.DotReacherState(
        pos=np.array([0.5, 0.5]), vel=np.zeros(2), target_height=0.5),
    env.Observation: _observation,
    env.Transition: lambda: env.Transition(_observation(), np.zeros(env.ACTION_DIM),
                                           _observation(), 0.0),
    latent.LatentMask: lambda: latent.LatentMask(np.array([0.3, 0.1]), 0.15),
    cem.PolicyParams: _policy,
    cem.CemConfig: lambda: cem.CemConfig(np.array([-1.0]), np.array([1.0]), candidates=100),
    cem.PlanDiagnostics: lambda: cem.PlanDiagnostics(1, 0.0, 0.0, _policy()),
    world.WorldDataset: lambda: world.WorldDataset(np.zeros((3, 2)), np.zeros((3, 1)),
                                                   np.zeros((3, 2)), np.zeros(3)),
    tsallis.DiagGaussian: lambda: tsallis.DiagGaussian(np.zeros(2), np.zeros(2)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_compares_by_identity(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls
    assert a == a and not a != a
    assert a != b and not a == b
    if cls.__dataclass_params__.frozen:
        assert hash(a) == hash(a) and len({a, b}) == 2
