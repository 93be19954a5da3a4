"""Adversarial inputs to the five artifact loaders (q-VAE and world-model
checkpoints, transitions, world datasets, masks). Each writes the one
container format; every malformed file must raise a ValueError naming it,
and a missing file MissingArtifact."""

import json

import numpy as np
import pytest

from minreal import env, latent, qvae, world
from minreal.errors import MissingArtifact
from minreal.nets import load_checkpoint, save_checkpoint
from minreal.tsallis import QParams


def _save_qvae(path):
    classes = (
        qvae.ObservationClass("proprio", "diag_gaussian", 2),
        qvae.ObservationClass("image", "continuous_bernoulli", 3),
    )
    qparams = QParams(0.95, (0.95, 0.999), (50.0, 1.0), 50.0, 3.0)
    qvae.save_qvae(path, qvae.build_qvae(classes, 2, qparams, encoder_hidden=(4,)))


def _save_world_dataset(path):
    rng = np.random.default_rng(0)
    world.save_world_dataset(path, world.WorldDataset(
        states=rng.normal(size=(5, 3)), actions=rng.normal(size=(5, 2)),
        next_states=rng.normal(size=(5, 3)), rewards=rng.normal(size=5),
    ))


# kind -> (write a well-formed file, loader)
KINDS = {
    "qvae": (_save_qvae, qvae.load_qvae),
    "world": (lambda p: world.save_world(p, world.build_world_model(2, 2, (4,))),
              world.load_world),
    "transitions": (lambda p: env.save_transitions(p, env.collect_dataset(1).train),
                    env.load_transitions),
    "world_dataset": (_save_world_dataset, world.load_world_dataset),
    "mask": (lambda p: latent.save_mask(p, latent.build_mask(np.array([0.3, 0.1]), 0.15)),
             latent.load_mask),
}


@pytest.fixture(params=list(KINDS))
def artifact(request, tmp_path):
    """(path of a well-formed file of the kind, its loader, the kind)."""
    save, load = KINDS[request.param]
    path = tmp_path / f"{request.param}.art"
    save(path)
    return path, load, request.param


def split(raw):
    """(magic, header dict, payload bytes) of a container file."""
    hlen = int.from_bytes(raw[8:12], "little")
    return raw[:8], json.loads(raw[12 : 12 + hlen]), raw[12 + hlen :]


def join(magic, header, payload):
    blob = json.dumps(header).encode()
    return magic + len(blob).to_bytes(4, "little") + blob + payload


def rejects(path, load, data, why=""):
    path.write_bytes(data)
    with pytest.raises(ValueError, match=path.name + ".*" + why):
        load(path)


def test_well_formed_file_loads(artifact):
    path, load, _ = artifact
    assert load(path) is not None


def test_truncated_in_header(artifact):
    path, load, _ = artifact
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    for cut in range(12 + hlen):
        rejects(path, load, raw[:cut])


def test_truncated_in_payload(artifact):
    path, load, _ = artifact
    raw = path.read_bytes()
    start = len(raw) - len(split(raw)[2])
    for cut in sorted({start + 1, start + 7, start + 8, (start + len(raw)) // 2,
                       len(raw) - 8, len(raw) - 1}):
        rejects(path, load, raw[:cut])


@pytest.mark.parametrize("past", [1, 1 << 31])
def test_header_length_past_the_end(artifact, past):
    path, load, _ = artifact
    raw = path.read_bytes()
    hlen = min(len(raw) - 12 + past, 2**32 - 1)
    rejects(path, load, raw[:8] + hlen.to_bytes(4, "little") + raw[12:], "past the end")


@pytest.mark.parametrize("extra", [1, 8])
def test_header_length_too_large(artifact, extra):
    path, load, _ = artifact
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little") + extra
    rejects(path, load, raw[:8] + hlen.to_bytes(4, "little") + raw[12:])


def test_header_not_utf8(artifact):
    path, load, _ = artifact
    raw = path.read_bytes()
    rejects(path, load, raw[:12] + b"\xff" + raw[13:])


def test_header_not_json(artifact):
    path, load, _ = artifact
    raw = path.read_bytes()
    rejects(path, load, raw[:12] + b"[" + raw[13:])


@pytest.mark.parametrize("arrays", [None, "x", [["a"]], [[1, [2]]], [["a", [2.0]]],
                                    [["a", [True]]]])
def test_header_arrays_of_wrong_type(artifact, arrays):
    path, load, _ = artifact
    magic, header, payload = split(path.read_bytes())
    header["arrays"] = arrays
    rejects(path, load, join(magic, header, payload))


def test_wrong_magic(artifact):
    path, load, _ = artifact
    raw = path.read_bytes()
    rejects(path, load, b"MRTRANS1" + raw[8:])


def test_wrong_kind(artifact):
    path, load, kind = artifact
    magic, header, payload = split(path.read_bytes())
    header["kind"] = "qvae" if kind != "qvae" else "world"
    rejects(path, load, join(magic, header, payload))


def test_negative_dimension(artifact):
    path, load, _ = artifact
    magic, header, payload = split(path.read_bytes())
    name, shape = header["arrays"][0]
    header["arrays"][0] = [name, [-1, *shape]]
    rejects(path, load, join(magic, header, payload), "negative dimension")


@pytest.mark.parametrize("extra", [b"\0", b"\0" * 8])
def test_trailing_bytes(artifact, extra):
    path, load, _ = artifact
    rejects(path, load, path.read_bytes() + extra)


def test_array_missing(artifact):
    path, load, kind = artifact
    header, arrays = load_checkpoint(path, kind)
    arrays.popitem()
    save_checkpoint(path, header, arrays)
    with pytest.raises(ValueError, match=path.name):
        load(path)


@pytest.mark.parametrize("kind, net", [("qvae", "encoder"), ("world", "dynamics")])
@pytest.mark.parametrize("key, value", [("normalization", "none"),
                                        ("norm_position", "pre"), ("dropout", 0.1)])
def test_network_spec_with_unknown_key(tmp_path, kind, net, key, value):
    # a spec field this code does not know would build a different network
    save, load = KINDS[kind]
    path = tmp_path / f"{kind}.art"
    save(path)
    magic, header, payload = split(path.read_bytes())
    header[net][key] = value
    rejects(path, load, join(magic, header, payload), key)


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_data(tmp_path, kind, value):
    # In a checkpoint, the last network's last bias: a NaN there once loaded
    # silently, and the planner then ranked every candidate -inf.
    save, load = KINDS[kind]
    path = tmp_path / f"{kind}.art"
    save(path)
    header, arrays = load_checkpoint(path, kind)
    last = list(arrays)[-1]
    arrays[last].flat[-1] = value
    save_checkpoint(path, header, arrays)
    with pytest.raises(ValueError, match=path.name):
        load(path)


@pytest.mark.parametrize("kind", list(KINDS))
def test_missing_file(tmp_path, kind):
    with pytest.raises(MissingArtifact, match="absent.art"):
        KINDS[kind][1](tmp_path / "absent.art")


def test_empty_episodes_round_trip(tmp_path):
    path = tmp_path / "empty.art"
    empty = env.Episodes(np.zeros((0, env.EPISODE_LEN + 1, env.OBS_DIM)),
                         np.zeros((0, env.EPISODE_LEN, env.ACTION_DIM)),
                         np.zeros((0, env.EPISODE_LEN)))
    env.save_transitions(path, empty)
    back = env.load_transitions(path)
    assert len(back) == 0 and list(back) == []
    for name in ("obs", "action", "reward"):
        assert getattr(back, name).shape == getattr(empty, name).shape


@pytest.mark.parametrize("obs_steps", [env.EPISODE_LEN, env.EPISODE_LEN + 2])
def test_transitions_obs_without_one_more_step_rejected(tmp_path, obs_steps):
    path = tmp_path / "steps.art"
    save_checkpoint(path, {"kind": "transitions"}, {
        "obs": np.zeros((2, obs_steps, env.OBS_DIM)),
        "action": np.zeros((2, env.EPISODE_LEN, env.ACTION_DIM)),
        "reward": np.zeros((2, env.EPISODE_LEN)),
    })
    with pytest.raises(ValueError, match=path.name + ".*obs"):
        env.load_transitions(path)
