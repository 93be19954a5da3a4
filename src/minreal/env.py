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

Each formula has one implementation, a *_batch kernel over a leading
episode axis E: step, reward, render and the scripted controller. The
renderer writes straight into the caller's array: it sets each image to 0
and then writes only its lit pixels, the bar's two rows and the dot's
2 x 2 pixels. Positions and target heights must lie in [0, 1], and
velocities and actions must be finite 2-vectors; DotReacherState, env_step
and render_batch raise ValueError otherwise. The one-episode API
(env_step, observe, render, reward_of, scripted_action, initial_state)
calls the same kernels at E = 1. collect_dataset first draws every
episode's RNG stream in full, in the order one episode at a time would
consume it (the three spawn uniforms, then the (T, ACTION_DIM) action
noise), and then advances all episodes together, so its arrays equal an
episode-by-episode collection bit for bit. The one trap is the norm:
np.linalg.norm of a 2-vector is the square root of a BLAS dot, which
rounds differently from sqrt(x*x + y*y), norm(axis=1) or np.hypot in a few
percent of rows, so row_norm takes its per-row dot through a stacked
matmul.

Minimal realization of the system is 5 numbers: position (2), velocity (2),
and the per-episode target height.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import check_int, check_seed
from .nets import check_arrays, check_shapes, load_checkpoint, save_checkpoint

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


@dataclasses.dataclass(frozen=True, eq=False)
class DotReacherState:
    pos: np.ndarray  # (2,) in [0, 1]^2
    vel: np.ndarray  # (2,) in [-V_MAX, V_MAX]^2
    target_height: float  # fixed per episode

    def __post_init__(self):
        pos = np.asarray(self.pos, dtype=np.float64)
        vel = np.asarray(self.vel, dtype=np.float64)
        height = float(self.target_height)
        if pos.shape != (2,) or vel.shape != (2,):
            raise ValueError(f"pos and vel must be 2-vectors, got {pos} and {vel}")
        # On Python floats: numpy reductions over 2-vectors cost more than this.
        (x, y), (vx, vy) = pos.tolist(), vel.tolist()
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and 0.0 <= height <= 1.0
                and math.isfinite(vx) and math.isfinite(vy)):
            raise ValueError(f"pos and target_height must lie in [0, 1] and vel be finite, "
                             f"got {pos}, {height} and {vel}")
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "vel", vel)
        object.__setattr__(self, "target_height", height)

    def rows(self):
        """(pos, vel, target height) with a leading episode axis of 1, the
        arguments of the *_batch kernels."""
        return self.pos[None], self.vel[None], np.array([self.target_height])


@dataclasses.dataclass(frozen=True, eq=False)
class Observation:
    image: np.ndarray  # (16, 16) grayscale in [0, 1]
    proprio: np.ndarray  # (4,) = (pos, vel)

    def vector(self):
        """Flattened observation in encoder class order: proprio (narrow
        class first), then the image row-major."""
        return np.concatenate([self.proprio, self.image.ravel()])


# --- batched kernels: arrays with a leading episode axis E -------------------


def row_norm(d):
    """Euclidean norm of each row of an (E, 2) array, bitwise equal to
    np.linalg.norm of that row: the square root of a BLAS dot per row (see
    the module docstring)."""
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


def _target_points(height):
    """(E, 2) target points (TARGET_X, height)."""
    target = np.empty((len(height), 2))
    target[:, 0] = TARGET_X
    target[:, 1] = height
    return target


def render_batch(out, pos, height):
    """Rasterize into out (E, IMAGE_SIZE, IMAGE_SIZE), which may be a strided
    view such as observe_batch's: a 0.5 bar at the target height across
    every column and an intensity-1 dot at the agent position, each
    bilinearly anti-aliased over one pixel, their sum capped at 1.

    pos (E, 2) and height (E,) must lie in [0, 1], else ValueError. Each
    coordinate c in pixel units has weight 1 - frac on pixel floor(c) and
    frac on the next one. Each image is set to 0, and then only those
    pixels are written: the bar's two rows (0.5 times the row weight), then
    the dot's 2 x 2 pixels (row weight times column weight plus that row's
    bar value, capped at 1). At c = IMAGE_SIZE - 1, the last pixel, the pair
    is (c - 1, c) with weights (0, 1): no index runs past the image, and
    every pixel gets the same bits as with weight 1 on the last pixel alone.
    """
    n = IMAGE_SIZE - 1
    # Per episode, in pixel units: bar row, dot row, dot column.
    coord = np.empty((len(height), 3))
    coord[:, 0] = height
    coord[:, 1:] = pos[:, ::-1]
    coord *= n
    if len(coord) and not (coord.min() >= 0.0 and coord.max() <= n):
        bad = np.argmin(((coord >= 0.0) & (coord <= n)).all(axis=1))
        raise ValueError(f"render_batch needs pos and height in [0, 1], got pos "
                         f"{pos[bad]} and height {height[bad]} in row {bad}")
    cell = np.minimum(np.floor(coord), n - 1)
    frac = coord - cell
    # Each coordinate's two pixels and their weights, (E, 3, 2).
    pixel = cell.astype(np.intp)[:, :, None] + np.arange(2)
    w = np.empty(pixel.shape)
    w[:, :, 0] = 1.0 - frac
    w[:, :, 1] = frac
    e = np.arange(len(out))[:, None]
    out.fill(0.0)
    out[e, pixel[:, 0]] = 0.5 * w[:, 0, :, None]
    e, rows, cols = e[:, :, None], pixel[:, 1, :, None], pixel[:, 2, None, :]
    out[e, rows, cols] = np.minimum(w[:, 1, :, None] * w[:, 2, None, :] + out[e, rows, cols], 1.0)


def observe_batch(out, pos, vel, height):
    """Write each episode's observation vector (proprio, then the image
    row-major) into the rows of out (E, OBS_DIM)."""
    out[:, :2] = pos
    out[:, 2:PROPRIO_DIM] = vel
    render_batch(out[:, PROPRIO_DIM:].reshape(-1, IMAGE_SIZE, IMAGE_SIZE), pos, height)


def reward_batch(pos, vel, height):
    """(E,) rewards: minus the distance to the target point and
    VEL_PENALTY times the speed."""
    return -(row_norm(pos - _target_points(height)) + VEL_PENALTY * row_norm(vel))


def step_batch(pos, vel, action):
    """Double-integrator update of (E, 2) positions and velocities under
    (E, 2) actions, each clipped to its box; returns (pos, vel)."""
    action = np.clip(action, -1.0, 1.0)
    vel = np.clip(vel + DT * action, -V_MAX, V_MAX)
    return np.clip(pos + DT * vel, 0.0, 1.0), vel


def scripted_action_batch(pos, vel, height, noise=None):
    """Feedback controller toward the target, plus (E, 2) noise if given,
    clipped to the action box."""
    a = CONTROLLER_KP * (_target_points(height) - pos) - CONTROLLER_KD * vel
    if noise is not None:
        a = a + noise
    return np.clip(a, -1.0, 1.0)


# Low end and width of the spawn region: target height, x and y offsets.
_SPAWN_LOW = np.array([TARGET_HEIGHT_RANGE[0], -SPAWN_DX, SPAWN_DY[0]])
_SPAWN_SPAN = np.array([TARGET_HEIGHT_RANGE[1], SPAWN_DX, SPAWN_DY[1]]) - _SPAWN_LOW


def _spawn_draws(rng):
    """One episode's three spawn uniforms, (3,), in stream order: target
    height, then the x and y offsets of the start position. Three doubles
    from one draw, scaled by Generator.uniform's own formula low + span * u,
    equal three scalar rng.uniform calls bit for bit. (An array-argument
    rng.uniform gives the same bits, but its argument checks cost about
    four times as much as the three calls.)"""
    return _SPAWN_LOW + _SPAWN_SPAN * rng.random(3)


def spawn_batch(draws):
    """(pos, target height) of the episodes whose _spawn_draws are the rows
    of draws (E, 3): start above the target, inside the box."""
    height, dx, dy = draws.T
    return np.clip(np.stack([TARGET_X + dx, height + dy], axis=1), 0.0, 1.0), height


# --- one episode: the kernels at E = 1 ----------------------------------------


def observe(state: DotReacherState) -> Observation:
    v = np.empty((1, OBS_DIM))
    observe_batch(v, *state.rows())
    return Observation(image=v[0, PROPRIO_DIM:].reshape(IMAGE_SIZE, IMAGE_SIZE),
                       proprio=v[0, :PROPRIO_DIM])


def render(state: DotReacherState) -> np.ndarray:
    """The (IMAGE_SIZE, IMAGE_SIZE) image of state (see render_batch)."""
    return observe(state).image


def reward_of(state: DotReacherState) -> float:
    return float(reward_batch(*state.rows())[0])


def is_success(reward: float) -> bool:
    return reward >= SUCCESS_REWARD


def env_step(state: DotReacherState, action):
    """Double-integrator update; returns (next_state, reward, observation).

    Reward is evaluated at the post-step state; deterministic and pure.
    An action that is not a finite ACTION_DIM-vector is a ValueError.
    """
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (ACTION_DIM,) or not all(map(math.isfinite, action.tolist())):
        raise ValueError(f"action must be a finite {ACTION_DIM}-vector, got {action}")
    pos, vel = step_batch(state.pos[None], state.vel[None], action[None])
    nxt = DotReacherState(pos=pos[0], vel=vel[0], target_height=state.target_height)
    return nxt, reward_of(nxt), observe(nxt)


def initial_state(rng) -> DotReacherState:
    """Spawn above the target with zero velocity."""
    pos, height = spawn_batch(_spawn_draws(rng)[None])
    return DotReacherState(pos=pos[0], vel=np.zeros(2), target_height=height[0])


def scripted_action(state: DotReacherState, rng=None, noise_std=0.0):
    """Feedback controller toward the target plus optional Gaussian noise."""
    noise = rng.normal(0.0, noise_std, size=(1, ACTION_DIM)) if noise_std > 0.0 else None
    return scripted_action_batch(*state.rows(), noise)[0]


@dataclasses.dataclass(frozen=True, eq=False)
class Transition:
    obs: Observation
    action: np.ndarray
    next_obs: Observation
    reward: float


def _owner(a):
    """The array at the end of a's chain of views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _join(a, b):
    """a and b stacked along axis 0. When b's rows directly follow a's in
    one C-contiguous buffer, as collect_dataset's splits do in split order,
    the result is a view of that buffer and nothing is copied; any other
    pair goes through np.concatenate."""
    owner = _owner(a)
    if (a.size and b.size and a.dtype == b.dtype and a.shape[1:] == b.shape[1:]
            and a.flags.c_contiguous and b.flags.c_contiguous
            and owner.flags.c_contiguous and _owner(b) is owner
            and a.ctypes.data + a.nbytes == b.ctypes.data):
        return np.ndarray((len(a) + len(b), *a.shape[1:]), a.dtype, buffer=owner,
                          offset=a.ctypes.data - owner.ctypes.data)
    return np.concatenate([a, b])


# Array name -> shape; the names are the Episodes fields. nets.check_shapes
# ties E and T across arrays, and Episodes checks that obs has T+1 steps.
_EPISODE_SHAPES = {"obs": ("e", "t+1", OBS_DIM), "action": ("e", "t", ACTION_DIM),
                   "reward": ("e", "t")}


@dataclasses.dataclass(frozen=True, eq=False)
class Episodes:
    """E episodes of T steps (see the module docstring); len() counts the
    E * T transitions and + concatenates episodes: a view of the shared
    arrays for splits that follow each other in one collection (see _join),
    a copy otherwise. Iteration yields one Transition view per step, in
    episode order, only for code that reads records one at a time
    (perfbench fingerprints them)."""

    obs: np.ndarray
    action: np.ndarray
    reward: np.ndarray

    def __post_init__(self):
        check_shapes("Episodes", vars(self), _EPISODE_SHAPES)
        if self.obs.shape[1] != self.reward.shape[1] + 1:
            raise ValueError(f"Episodes: obs has {self.obs.shape[1]} steps, expected T+1")

    def __len__(self):
        return self.reward.size

    def __add__(self, other):
        return Episodes(*(_join(getattr(self, f.name), getattr(other, f.name))
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
    a fixed 90/5/5 split by episode. All episodes advance together. An
    n_episodes that is not a positive integer, or a bad seed
    (errors.check_seed), is a ConfigError."""
    n_episodes = check_int("n_episodes", n_episodes, 1)
    check_seed("seed", seed)
    draws = np.empty((n_episodes, 3))
    noise = np.empty((n_episodes, EPISODE_LEN, ACTION_DIM))
    for e, child in enumerate(np.random.SeedSequence(seed).spawn(n_episodes)):
        rng = np.random.default_rng(child)
        draws[e] = _spawn_draws(rng)
        noise[e] = rng.normal(0.0, DEFAULT_NOISE_STD, size=(EPISODE_LEN, ACTION_DIM))
    pos, height = spawn_batch(draws)
    vel = np.zeros_like(pos)
    obs = np.empty((n_episodes, EPISODE_LEN + 1, OBS_DIM))
    action = np.empty((n_episodes, EPISODE_LEN, ACTION_DIM))
    reward = np.empty((n_episodes, EPISODE_LEN))
    observe_batch(obs[:, 0], pos, vel, height)
    for t in range(EPISODE_LEN):
        action[:, t] = scripted_action_batch(pos, vel, height, noise[:, t])
        pos, vel = step_batch(pos, vel, action[:, t])
        reward[:, t] = reward_batch(pos, vel, height)
        observe_batch(obs[:, t + 1], pos, vel, height)
    n_val = max(1, n_episodes // 20) if n_episodes >= 3 else 0
    n_train = n_episodes - 2 * n_val
    part = lambda lo, hi: Episodes(obs[lo:hi], action[lo:hi], reward[lo:hi])
    return DatasetSplits(train=part(0, n_train), val=part(n_train, n_train + n_val),
                         test=part(n_train + n_val, n_episodes))


# --- transition file io -----------------------------------------------------

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
