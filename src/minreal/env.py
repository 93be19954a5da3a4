"""Deterministic dot-reacher environment: a velocity-controlled dot in the
unit box must stop at a target point whose height is only visible in the
rendered image (horizontal bar), while the dot position/velocity are also
available as a 4-vector. A scripted feedback controller with action noise
collects datasets of whole episodes.

A dataset is an Episodes of three arrays: obs (E, T+1, OBS_DIM) holds each
episode's flattened observations (proprio, then the image row-major) from
its start state on, action is (E, T, ACTION_DIM) and reward (E, T). Step t
goes from obs[:, t] to obs[:, t+1], so each observation is stored once.
save_transitions writes these arrays, by name, to one nets.save_checkpoint
file of kind "transitions".

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


@dataclasses.dataclass(frozen=True, eq=False)
class Episodes:
    """E episodes of T steps (see the module docstring); len() counts the
    E * T transitions and + concatenates episodes. Iteration yields one
    Transition view per step, in episode order, only for code that reads
    records one at a time (perfbench fingerprints them)."""

    obs: np.ndarray
    action: np.ndarray
    reward: np.ndarray

    def __post_init__(self):
        r = self.reward.shape
        if (len(r) != 2 or self.action.shape != (*r, ACTION_DIM)
                or self.obs.shape != (r[0], r[1] + 1, OBS_DIM)):
            raise ValueError(
                f"episode arrays obs {self.obs.shape}, action {self.action.shape}, "
                f"reward {r}; expected (E, T+1, {OBS_DIM}), (E, T, {ACTION_DIM}), (E, T)")

    def __len__(self):
        return self.reward.size

    def __add__(self, other):
        return Episodes(*(np.concatenate([getattr(self, f.name), getattr(other, f.name)])
                          for f in dataclasses.fields(self)))

    def __iter__(self):
        for obs, action, reward in zip(self.obs, self.action, self.reward):
            views = [Observation(image=o[PROPRIO_DIM:].reshape(IMAGE_SIZE, IMAGE_SIZE),
                                 proprio=o[:PROPRIO_DIM]) for o in obs]
            for t, a in enumerate(action):
                yield Transition(views[t], a, views[t + 1], float(reward[t]))


@dataclasses.dataclass(frozen=True)
class DatasetSplits:
    train: Episodes
    val: Episodes
    test: Episodes

    @property
    def total(self):
        return len(self.train) + len(self.val) + len(self.test)


def collect_dataset(n_episodes, seed=0) -> DatasetSplits:
    """Full-length scripted episodes (collection never terminates early, so
    near-target hovering is well covered), one RNG stream per episode, with
    a fixed 90/5/5 split by episode."""
    if n_episodes < 1:
        raise ConfigError(f"n_episodes must be >= 1, got {n_episodes}")
    obs = np.empty((n_episodes, EPISODE_LEN + 1, OBS_DIM))
    action = np.empty((n_episodes, EPISODE_LEN, ACTION_DIM))
    reward = np.empty((n_episodes, EPISODE_LEN))
    for e, child in enumerate(np.random.SeedSequence(seed).spawn(n_episodes)):
        rng = np.random.default_rng(child)
        state = initial_state(rng)
        obs[e, 0] = observe(state).vector()
        for t in range(EPISODE_LEN):
            action[e, t] = scripted_action(state, rng, DEFAULT_NOISE_STD)
            state, reward[e, t], next_obs = env_step(state, action[e, t])
            obs[e, t + 1] = next_obs.vector()
    n_val = max(1, n_episodes // 20) if n_episodes >= 3 else 0
    n_train = n_episodes - 2 * n_val
    part = lambda lo, hi: Episodes(obs[lo:hi], action[lo:hi], reward[lo:hi])
    return DatasetSplits(train=part(0, n_train), val=part(n_train, n_train + n_val),
                         test=part(n_train + n_val, n_episodes))


# --- transition file io -----------------------------------------------------

# Array name -> shape; the names are the Episodes fields. check_arrays ties
# E and T across arrays, and Episodes checks that obs has T+1 steps.
_EPISODE_SHAPES = {"obs": ("e", "t+1", OBS_DIM), "action": ("e", "t", ACTION_DIM),
                   "reward": ("e", "t")}


def save_transitions(path, episodes: Episodes):
    save_checkpoint(path, {"kind": "transitions"},
                    {name: getattr(episodes, name) for name in _EPISODE_SHAPES})


def load_transitions(path) -> Episodes:
    """The Episodes saved at path. Raises MissingArtifact if the file is
    absent and a ValueError naming it if it is not a well-formed transition
    file (see nets.load_checkpoint), if its arrays have other names or shapes
    (obs needs one step more than action and reward) or a non-finite value."""
    _, arrays = load_checkpoint(path, "transitions")
    obs, action, reward = check_arrays(path, arrays, _EPISODE_SHAPES)
    try:
        return Episodes(obs, action, reward)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def observation_matrix(episodes: Episodes):
    """The (E * T, OBS_DIM) current observations, in episode order."""
    return episodes.obs[:, :-1].reshape(-1, OBS_DIM)
