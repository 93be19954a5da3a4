"""Deterministic dot-reacher environment: a velocity-controlled dot in the
unit box must stop at a target point whose height is only visible in the
rendered image (horizontal bar), while the dot position/velocity are also
available as a 4-vector. A scripted feedback controller with action noise
collects transition datasets.

Minimal realization of the system is 5 numbers: position (2), velocity (2),
and the per-episode target height.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError
from .nets import check_arrays, load_checkpoint, save_checkpoint

DT = 0.1
V_MAX = 1.0
IMAGE_SIZE = 16
EPISODE_LEN = 20
ACTION_DIM = 2
PROPRIO_DIM = 4
OBS_DIM = IMAGE_SIZE * IMAGE_SIZE + PROPRIO_DIM

VEL_PENALTY = 0.3
SUCCESS_REWARD = -0.02

TARGET_X = 0.5
TARGET_HEIGHT_RANGE = (0.15, 0.45)

# Scripted data-collection controller (position + velocity feedback). With
# these gains a noise-free episode reaches the success threshold in <= 15
# steps from anywhere in the spawn region; collected episodes add Gaussian
# action noise of DEFAULT_NOISE_STD.
CONTROLLER_KP = 12.0
CONTROLLER_KD = 5.0
DEFAULT_NOISE_STD = 0.1

# Spawn region: offset from the target point, so every episode is solvable
# well inside the step cap.
SPAWN_DX = 0.15
SPAWN_DY = (0.2, 0.4)


@dataclasses.dataclass(frozen=True)
class DotReacherState:
    pos: np.ndarray  # (2,) in [0, 1]^2
    vel: np.ndarray  # (2,) in [-V_MAX, V_MAX]^2
    target_height: float  # fixed per episode

    def __post_init__(self):
        object.__setattr__(self, "pos", np.asarray(self.pos, dtype=np.float64))
        object.__setattr__(self, "vel", np.asarray(self.vel, dtype=np.float64))
        object.__setattr__(self, "target_height", float(self.target_height))

    @property
    def target_point(self):
        return np.array([TARGET_X, self.target_height])


@dataclasses.dataclass(frozen=True)
class Observation:
    image: np.ndarray  # (16, 16) grayscale in [0, 1]
    proprio: np.ndarray  # (4,) = (pos, vel)

    def vector(self):
        """Flattened observation in encoder class order: proprio (narrow
        class first), then the image row-major."""
        return np.concatenate([self.proprio, self.image.ravel()])


def render(state: DotReacherState) -> np.ndarray:
    """Rasterize: 0.5 bar row at the target height, intensity-1 dot at the
    agent position, both bilinearly anti-aliased over one pixel; clipped
    to [0, 1]."""
    n = IMAGE_SIZE
    img = np.zeros((n, n))

    # bar rows (axis 0 indexes the y coordinate)
    bar_y = state.target_height * (n - 1)
    bar_row = int(np.floor(bar_y))
    bar_frac = bar_y - bar_row
    img[bar_row, :] += 0.5 * (1.0 - bar_frac)
    if bar_row + 1 < n:
        img[bar_row + 1, :] += 0.5 * bar_frac

    # dot splat
    px, py = state.pos
    cx, cy = px * (n - 1), py * (n - 1)
    col, row = int(np.floor(cx)), int(np.floor(cy))
    fx, fy = cx - col, cy - row
    for dr, dc, w in (
        (0, 0, (1 - fy) * (1 - fx)),
        (0, 1, (1 - fy) * fx),
        (1, 0, fy * (1 - fx)),
        (1, 1, fy * fx),
    ):
        r, c = row + dr, col + dc
        if r < n and c < n:
            img[r, c] += w

    return np.clip(img, 0.0, 1.0)


def observe(state: DotReacherState) -> Observation:
    return Observation(
        image=render(state),
        proprio=np.concatenate([state.pos, state.vel]),
    )


def reward_of(state: DotReacherState) -> float:
    e = float(np.linalg.norm(state.pos - state.target_point))
    speed = float(np.linalg.norm(state.vel))
    return -(e + VEL_PENALTY * speed)


def is_success(reward: float) -> bool:
    return reward >= SUCCESS_REWARD


def env_step(state: DotReacherState, action):
    """Double-integrator update; returns (next_state, reward, observation).

    Reward is evaluated at the post-step state; deterministic and pure.
    """
    action = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    vel = np.clip(state.vel + DT * action, -V_MAX, V_MAX)
    pos = np.clip(state.pos + DT * vel, 0.0, 1.0)
    nxt = DotReacherState(pos=pos, vel=vel, target_height=state.target_height)
    return nxt, reward_of(nxt), observe(nxt)


def initial_state(rng) -> DotReacherState:
    """Spawn above the target with zero velocity."""
    z = rng.uniform(*TARGET_HEIGHT_RANGE)
    px = np.clip(TARGET_X + rng.uniform(-SPAWN_DX, SPAWN_DX), 0.0, 1.0)
    py = np.clip(z + rng.uniform(*SPAWN_DY), 0.0, 1.0)
    return DotReacherState(pos=np.array([px, py]), vel=np.zeros(2), target_height=z)


def scripted_action(state: DotReacherState, rng=None, noise_std=0.0):
    """Feedback controller toward the target plus optional Gaussian noise."""
    a = CONTROLLER_KP * (state.target_point - state.pos) - CONTROLLER_KD * state.vel
    if noise_std > 0.0:
        a = a + rng.normal(0.0, noise_std, size=2)
    return np.clip(a, -1.0, 1.0)


@dataclasses.dataclass(frozen=True)
class Transition:
    obs: Observation
    action: np.ndarray
    next_obs: Observation
    reward: float


@dataclasses.dataclass(frozen=True)
class DatasetSplits:
    train: list
    val: list
    test: list

    @property
    def total(self):
        return len(self.train) + len(self.val) + len(self.test)


def collect_episode(rng) -> list:
    """One full-length scripted episode (data collection never terminates
    early, so near-target hovering is well covered)."""
    state = initial_state(rng)
    obs = observe(state)
    out = []
    for _ in range(EPISODE_LEN):
        action = scripted_action(state, rng, DEFAULT_NOISE_STD)
        state, reward, next_obs = env_step(state, action)
        out.append(Transition(obs=obs, action=action, next_obs=next_obs, reward=reward))
        obs = next_obs
    return out


def collect_dataset(n_episodes, seed=0) -> DatasetSplits:
    """Scripted-controller dataset with a fixed 90/5/5 split by episode."""
    if n_episodes < 1:
        raise ConfigError(f"n_episodes must be >= 1, got {n_episodes}")
    master = np.random.SeedSequence(seed)
    episodes = []
    for child in master.spawn(n_episodes):
        rng = np.random.default_rng(child)
        episodes.append(collect_episode(rng))
    n_val = max(1, n_episodes // 20) if n_episodes >= 3 else 0
    n_test = n_val
    n_train = n_episodes - n_val - n_test
    flat = lambda eps: [t for ep in eps for t in ep]
    return DatasetSplits(
        train=flat(episodes[:n_train]),
        val=flat(episodes[n_train : n_train + n_val]),
        test=flat(episodes[n_train + n_val :]),
    )


# --- transition file io -----------------------------------------------------

# Array name -> (per-record value, per-record shape).
_TRANSITION_FIELDS = {
    "image": (lambda t: t.obs.image, (IMAGE_SIZE, IMAGE_SIZE)),
    "proprio": (lambda t: t.obs.proprio, (PROPRIO_DIM,)),
    "action": (lambda t: t.action, (ACTION_DIM,)),
    "next_image": (lambda t: t.next_obs.image, (IMAGE_SIZE, IMAGE_SIZE)),
    "next_proprio": (lambda t: t.next_obs.proprio, (PROPRIO_DIM,)),
    "reward": (lambda t: t.reward, ()),
}


def save_transitions(path, transitions):
    n = len(transitions)
    arrays = {
        name: np.array([get(t) for t in transitions], dtype=np.float64).reshape(n, *shape)
        for name, (get, shape) in _TRANSITION_FIELDS.items()
    }
    save_checkpoint(path, {"kind": "transitions"}, arrays)


def load_transitions(path):
    """Raises MissingArtifact if the file is absent and a ValueError naming
    it if it is not a well-formed transition file (see nets.load_checkpoint),
    or if its arrays have other names or shapes or hold a non-finite value."""
    _, arrays = load_checkpoint(path, "transitions")
    shapes = {name: ("n", *shape) for name, (_, shape) in _TRANSITION_FIELDS.items()}
    return [
        Transition(obs=Observation(image=img, proprio=pro), action=act,
                   next_obs=Observation(image=img2, proprio=pro2), reward=float(r))
        for img, pro, act, img2, pro2, r in zip(*check_arrays(path, arrays, shapes))
    ]


def observation_matrix(transitions):
    """Stack flattened current observations into an (N, OBS_DIM) array."""
    return np.stack([t.obs.vector() for t in transitions])
