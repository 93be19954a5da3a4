"""Learned dynamics p(s'|s,a) and reward p(r|s,a) as Gaussian-headed dense
networks trained by negative log-likelihood on (masked) latent states, plus
deterministic mean-propagation rollouts for planning.

The training loss and the held-out NLL read the heads through one function,
_log_probs: the loss on the graph outputs of Mlp.forward, the held-out NLL
tape-free on those of Mlp.forward_np. It passes each net's raw output
straight to nets.gaussian_log_prob_t, whose head split and log-std clamp
are nets.gaussian_head's.

rollout() accepts anything exposing dynamics_mean(s, a) and reward_mean(s, a)
over batched arrays, so analytic test models plug in directly. Both rollouts
run the model in the dtype of their actions, float32 for a float32 array and
float64 otherwise (the planner passes float32), and keep rewards and scores
in float64.

rollout_batch() scores candidates in blocks of ROLLOUT_BLOCK_ROWS rows on
n = min(ROLLOUT_WORKERS, blocks) threads, ROLLOUT_WORKERS being the number of
CPUs in the process's affinity set: the calling thread takes blocks 0, n,
2n, ... and each of n - 1 pool threads every n-th block from its own offset.
The planner's K = 10 000 candidates are two blocks, one per core of a 2-CPU
host, and K = 1 000 is one block, which the calling thread scores alone.
Most of a block's time is single-threaded numpy (tanh, layer norm, bias
adds) that releases the interpreter lock, so the threads overlap. Each call
holds numpy's bundled OpenBLAS at one thread through ctypes, under a module
lock, so that its own threads do not compete with them; the pool starts its
threads on first use, and a forked child gets a fresh pool and lock. Scores
stay bitwise equal to scoring the blocks one after another, in either dtype:
each block runs the same code on the same rows, depends on nothing outside
itself and writes its own slice.

train_world runs at whatever OpenBLAS thread count the process has, so
world artifacts repeat bitwise only at a fixed thread count: at some state
widths (7 kept dims, say) the products round differently at one thread than
at two, and the trained parameters differ in the last bits after a few
epochs.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
import glob
import os
import threading
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import TrainingAbort
from .nets import (
    Adam,
    Mlp,
    MlpSpec,
    check_arrays,
    fit,
    float_dtype,
    gaussian_log_prob_t,
    load_checkpoint,
    param_arrays,
    save_checkpoint,
    set_params,
)
from .latent import apply_mask

# Candidates are scored in blocks of this many rows, each block over the whole
# horizon before the next starts. A block costs 2L - 1 model calls of about ten
# numpy ops each, and at planner widths an op on 1 024 rows lasts only
# microseconds, so small blocks spend their time in per-call overhead and in
# handing the interpreter lock between rollout threads. At 5 000 rows the
# planner's K = 10 000 is one block per thread on 2 CPUs. There (numpy 2.4.6,
# OpenBLAS 0.3.31) a float32 K = 10 000, L = 6 rollout at S = 5 took 12-21 ms
# against 27-29 ms in 1 024-row blocks; at S = 20 it barely moved. 2 500-row
# blocks looked faster at S = 20 only while their arrays page-faulted in; with
# no page faults, as inside a long-running planner, 5 000-row blocks took 33.9
# against 38.8 ms per float32 K = 10 000 rollout. The size is fixed rather than K / ROLLOUT_WORKERS: the
# block a candidate runs in, and so the last bits of its score, then depend on
# K alone and not on the host, and K = 1 000 stays one block (two 500-row
# blocks took twice as long at S = 5).
ROLLOUT_BLOCK_ROWS = 5000

# rollout_batch scores its blocks on this many threads, one per CPU this
# process may run on.
ROLLOUT_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)

# Hidden widths scale with the input so masking shrinks the whole network,
# not just its first layer (the planner's per-candidate cost then drops
# roughly quadratically with the kept state size).
HIDDEN_SCALE = 4

# Adam learning rates of the dynamics and reward networks.
DYNAMICS_LEARNING_RATE = 1e-3
REWARD_LEARNING_RATE = 3e-4


def default_hidden(state_dim, action_dim):
    w = HIDDEN_SCALE * (state_dim + action_dim)
    return (w, w)


class WorldModel:
    def __init__(self, state_dim, action_dim, dynamics: Mlp, reward: Mlp):
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        if dynamics.spec.in_dim != self.state_dim + self.action_dim:
            raise ValueError("dynamics input must be state_dim + action_dim")
        if dynamics.spec.out_dim != 2 * self.state_dim:
            raise ValueError("dynamics must output mean and log-std per state dim")
        if reward.spec.in_dim != self.state_dim + self.action_dim:
            raise ValueError("reward input must be state_dim + action_dim")
        if reward.spec.out_dim != 2:
            raise ValueError("reward must output a scalar mean and log-std")
        self.dynamics = dynamics
        self.reward = reward

    def parameters(self):
        return list(self.dynamics.params) + list(self.reward.params)

    def _join(self, s, a):
        """(batch, state + action) network input, float32 when s is and
        float64 otherwise. It is the transpose of a feature-major array, the
        layout Mlp.forward_np works in, so its first product reads it
        without a copy."""
        s = np.atleast_2d(s)
        a = np.atleast_2d(a)
        if (s.ndim != 2 or a.ndim != 2 or s.shape[1] != self.state_dim
                or a.shape[1] != self.action_dim or s.shape[0] != a.shape[0]):
            raise ValueError(
                f"expected state {self.state_dim} / action {self.action_dim}, "
                f"got {s.shape} / {a.shape}"
            )
        x = np.empty((self.state_dim + self.action_dim, s.shape[0]), dtype=float_dtype(s))
        x[: self.state_dim] = s.T
        x[self.state_dim :] = a.T
        return x.T

    # The planner reads only the means, so these skip the log-std clamp.
    def dynamics_mean(self, s, a):
        return self.dynamics.forward_np(self._join(s, a))[:, : self.state_dim]

    def reward_mean(self, s, a):
        return self.reward.forward_np(self._join(s, a))[:, 0]


def build_world_model(state_dim, action_dim, dyn_hidden=None, rew_hidden=None,
                      seed=0) -> WorldModel:
    """Dynamics and reward networks with tanh hidden layers; hidden widths
    default to default_hidden(state_dim, action_dim)."""
    dyn_hidden = dyn_hidden or default_hidden(state_dim, action_dim)
    rew_hidden = rew_hidden or default_hidden(state_dim, action_dim)
    s_dyn, s_rew = np.random.SeedSequence(seed).spawn(2)
    width_in = state_dim + action_dim
    dyn = Mlp(MlpSpec((width_in, *dyn_hidden, 2 * state_dim), activation="tanh"), seed=s_dyn)
    rew = Mlp(MlpSpec((width_in, *rew_hidden, 2), activation="tanh"), seed=s_rew)
    return WorldModel(state_dim, action_dim, dyn, rew)


@dataclasses.dataclass(frozen=True)
class WorldDataset:
    states: np.ndarray  # (N, S)
    actions: np.ndarray  # (N, A)
    next_states: np.ndarray  # (N, S)
    rewards: np.ndarray  # (N,)

    def __post_init__(self):
        for name, dims in _DATASET_SHAPES.items():
            shape = getattr(self, name).shape
            if len(shape) != len(dims):
                raise ValueError(f"{name} must be {len(dims)}-D, got shape {shape}")
        n = self.states.shape[0]
        if not (self.actions.shape[0] == self.next_states.shape[0] == self.rewards.shape[0] == n):
            raise ValueError("inconsistent record counts")
        if self.states.shape[1] != self.next_states.shape[1]:
            raise ValueError("state and next_state widths differ")

    def __len__(self):
        return self.states.shape[0]

    @property
    def state_dim(self):
        return self.states.shape[1]

    @property
    def action_dim(self):
        return self.actions.shape[1]


def encode_dataset(vae, mask, episodes) -> WorldDataset:
    """Map env.Episodes into latent space through the frozen encoder mean,
    optionally dropping masked-out dimensions. Every observation of every
    episode is encoded once, in one call; step t's state is row t of its
    episode and its next state row t+1. Rows are in episode order."""
    if len(episodes) == 0:
        raise ValueError("episodes must be nonempty")
    e, steps, width = episodes.obs.shape
    z = vae.encode(episodes.obs.reshape(e * steps, width)).mean
    if mask is not None:
        z = apply_mask(z, mask)
    z = z.reshape(e, steps, -1)
    rows = lambda a: a.reshape(e * (steps - 1), *a.shape[2:])
    return WorldDataset(states=rows(z[:, :-1]), actions=rows(episodes.action),
                        next_states=rows(z[:, 1:]), rewards=rows(episodes.reward))


def _log_probs(dyn_out, rew_out, ds: WorldDataset):
    """Per-row log p(s'|s,a) and log p(r|s,a) over ds, as tensors, from the
    dynamics and reward nets' raw outputs (Gaussian heads, see
    nets.gaussian_head)."""
    return (gaussian_log_prob_t(dyn_out, ds.next_states),
            gaussian_log_prob_t(rew_out, ds.rewards[:, None]))


def wm_loss(model: WorldModel, batch: WorldDataset):
    """Mean over the batch of -log p(s'|s,a) - log p(r|s,a).

    Returns (loss tensor, (dynamics nll, reward nll) floats).
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    x = np.hstack([batch.states, batch.actions])
    dyn_lp, rew_lp = _log_probs(model.dynamics.forward(x), model.reward.forward(x), batch)
    loss = ad.neg(ad.mean_all(ad.add(dyn_lp, rew_lp)))
    if not np.isfinite(loss.data):
        raise TrainingAbort("non-finite world-model loss")
    return loss, (-float(dyn_lp.data.mean()), -float(rew_lp.data.mean()))


def _check_finite(ds: WorldDataset, label):
    """A ValueError naming the array (label.field) that holds a non-finite
    value."""
    for name in _DATASET_SHAPES:
        if not np.isfinite(getattr(ds, name)).all():
            raise ValueError(f"non-finite values in {label}.{name}")


def heldout_nll(model: WorldModel, ds: WorldDataset):
    """Held-out NLL: wm_loss's heads (_log_probs) run tape-free on the
    forward_np outputs. Returns (total, dynamics, reward) means. An empty ds
    or a non-finite value in it is a ValueError naming the array."""
    if len(ds) == 0:
        raise ValueError("ds must be nonempty")
    _check_finite(ds, "ds")
    x = np.hstack([ds.states, ds.actions])
    dyn_lp, rew_lp = _log_probs(model.dynamics.forward_np(x), model.reward.forward_np(x), ds)
    dyn_nll = -float(dyn_lp.data.mean())
    rew_nll = -float(rew_lp.data.mean())
    return dyn_nll + rew_nll, dyn_nll, rew_nll


def rollout(model, s0, actions):
    """Propagate dynamics means from s0 under one action sequence, a step at
    a time: the straight-line reference that tests hold rollout_batch to.

    Returns (states, reward_means), one entry per action: states[t] follows
    actions[t], and rewards[t] is evaluated at the pre-transition pair
    (s_t, a_t). Empty actions give empty outputs. A non-finite reward r_t
    truncates the rollout: states from t on are NaN and rewards from t on are
    -inf markers. A non-finite state s_{t+1} does the same from states[t] and
    rewards[t + 1] on, since r_t was computed before it; the final state feeds
    no reward. The reward sum thus equals rollout_batch's score to rounding.

    The model runs in float32 when actions is a float32 array and in
    float64 otherwise; s0 is cast to that dtype, and states have it.
    """
    dtype = float_dtype(actions)
    actions = np.asarray(actions, dtype=dtype)
    s0 = np.asarray(s0, dtype=dtype)
    h = actions.shape[0]
    states = np.empty((h, s0.shape[-1]), dtype=dtype)
    rewards = np.full(h, -np.inf)
    s = np.atleast_2d(s0)
    for t in range(h):
        a = actions[t : t + 1]
        rewards[t] = float(model.reward_mean(s, a)[0])
        s = np.atleast_2d(model.dynamics_mean(s, a))
        states[t] = s[0]
        if not np.isfinite(rewards[t]):
            states[t:] = np.nan
            rewards[t:] = -np.inf
            return states, rewards
        if not np.all(np.isfinite(s)):
            states[t:] = np.nan
            rewards[t + 1 :] = -np.inf
            return states, rewards
    return states, rewards


def rollout_batch(model, s0, action_seqs):
    """Vectorized mean-propagation rollout over K candidates.

    action_seqs is (K, L, A); returns total scores (K,), with -inf for
    candidates with a non-finite reward or a non-finite state that feeds a
    later reward. Such a dead candidate runs on with a zero state for the
    rest of the horizon, so that no non-finite state reaches the model.
    Candidates run in blocks of ROLLOUT_BLOCK_ROWS rows, each over the
    whole horizon, so the model is called 2L - 1 times per block
    and large blocks keep per-call overhead small (see the constant). The
    state after the last action is never scored, so the dynamics run L - 1
    times per block. Scores equal the reward sums of K independent rollout()
    calls within rounding (BLAS may round a block's rows differently from a
    single row), each summed in step order.

    The model runs in float32 when action_seqs is a float32 array and in
    float64 otherwise, with s0 cast to that dtype; scores are float64
    either way, and each candidate's rewards are added to its float64 total.

    The blocks are spread over threads as the module docstring says, with
    OpenBLAS held at one thread and its earlier count restored on return or
    raise. An exception raised in a pool thread reaches the caller
    unchanged. The scores are bitwise equal to scoring the blocks one after
    another on one thread, in either dtype.
    """
    dtype = float_dtype(action_seqs)
    action_seqs = np.asarray(action_seqs, dtype=dtype)
    k, horizon, _ = action_seqs.shape
    s0 = np.asarray(s0, dtype=dtype)
    scores = np.empty(k)

    def score(starts):
        for lo in starts:
            block = action_seqs[lo : lo + ROLLOUT_BLOCK_ROWS]
            s = np.tile(s0, (block.shape[0], 1))
            total = np.zeros(block.shape[0])
            alive = np.ones(block.shape[0], dtype=bool)
            for t in range(horizon):
                a = block[:, t, :]
                r = model.reward_mean(s, a)
                alive &= np.isfinite(r)
                total = np.where(alive, total + r, -np.inf)
                if t + 1 < horizon:
                    s = model.dynamics_mean(s, a)
                    alive &= np.all(np.isfinite(s), axis=1)
                    if not alive.all():
                        # Dead rows go on with state 0, so no inf or NaN
                        # goes through the nets; their score stays -inf.
                        s = np.where(alive[:, None], s, 0.0)
            scores[lo : lo + ROLLOUT_BLOCK_ROWS] = total

    starts = range(0, k, ROLLOUT_BLOCK_ROWS)
    # max(1, ...) keeps K = 0 an empty result: starts[::0] would raise.
    n = max(1, min(ROLLOUT_WORKERS, len(starts)))
    with _one_blas_thread():
        futures = [_threads.pool.submit(score, starts[i::n]) for i in range(1, n)]
        try:
            score(starts[::n])
        finally:
            concurrent.futures.wait(futures)
        for future in futures:
            future.result()
    return scores


class _RolloutThreads:
    """rollout_batch's pool, which starts its threads on first submit, and
    the lock that lets one caller at a time hold OpenBLAS's process-wide
    thread count. A forked child inherits the pool's record of its threads
    but not the threads, so its first multi-block rollout would wait
    forever, and it may inherit the lock held: it builds both afresh."""

    def __init__(self):
        # ThreadPoolExecutor needs a worker even where n is always 1.
        self.pool = concurrent.futures.ThreadPoolExecutor(
            max(1, ROLLOUT_WORKERS - 1), thread_name_prefix="minreal-rollout")
        self.lock = threading.Lock()


_threads = _RolloutThreads()
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_threads.__init__)


@functools.cache
def _openblas_thread_functions():
    """(get, set) ctypes functions for the thread count of the OpenBLAS that
    numpy bundles (numpy.libs/libscipy_openblas*), or None if there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread under _threads.lock and restore
    its count on exit; without OpenBLAS, only take the lock. Its threads
    would compete with rollout_batch's: on 2 CPUs (numpy 2.4.6, OpenBLAS
    0.3.31) a float32 K = 10 000 rollout took 101 against 55 ms without the
    hold at S = 20 (slower in 12 of 12 interleaved rounds) and 21 against
    17 ms at S = 5."""
    get, set_ = _openblas_thread_functions() or (lambda: None, lambda count: None)
    with _threads.lock:
        before = get()
        set_(1)
        try:
            yield
        finally:
            set_(before)


# --- training ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class WorldTrainConfig:
    epochs: int
    batch_size: int = 512
    seed: int = 0


def train_world(model: WorldModel, train_ds: WorldDataset, val_ds: WorldDataset,
                cfg: WorldTrainConfig, log_path=None, ckpt_path=None):
    """NLL training through nets.fit with per-epoch held-out reporting;
    deterministic per seed. Returns a list of per-epoch dicts (train/val
    total, dynamics, reward). Each is appended to log_path as a JSON line of
    stage "world". The checkpoint at ckpt_path is written after the last
    epoch, or on TrainingAbort with the parameters of the last whole epoch
    before the abort is re-raised. A non-finite value in train_ds or val_ds
    is a ValueError naming the array before any step, log line or
    checkpoint."""
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ValueError("train_ds and val_ds must be nonempty")
    _check_finite(train_ds, "train_ds")
    _check_finite(val_ds, "val_ds")
    opt_dyn = Adam(model.dynamics.params, learning_rate=DYNAMICS_LEARNING_RATE)
    opt_rew = Adam(model.reward.params, learning_rate=REWARD_LEARNING_RATE)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x37D1]))

    def step(idx):
        batch = WorldDataset(*(getattr(train_ds, name)[idx] for name in _DATASET_SHAPES))
        loss, (dyn_nll, rew_nll) = wm_loss(model, batch)
        opt_dyn.zero_grad()
        opt_rew.zero_grad()
        ad.backward(loss)
        opt_dyn.step()
        opt_rew.step()
        return idx.size, dyn_nll, rew_nll

    def summarize(epoch, outs):
        seen = sum(w for w, _, _ in outs)
        dyn_sum = sum(dyn_nll * w for w, dyn_nll, _ in outs)
        rew_sum = sum(rew_nll * w for w, _, rew_nll in outs)
        val_total, val_dyn, val_rew = heldout_nll(model, val_ds)
        return {
            "epoch": epoch,
            "train_dyn": dyn_sum / seen,
            "train_rew": rew_sum / seen,
            "train_total": (dyn_sum + rew_sum) / seen,
            "val_total": val_total,
            "val_dyn": val_dyn,
            "val_rew": val_rew,
        }

    save = functools.partial(save_world, ckpt_path, model) if ckpt_path else None
    return fit(model.parameters(), len(train_ds), cfg.epochs, cfg.batch_size, rng,
               step, summarize, "world", log_path, save)


# --- persistence ---------------------------------------------------------


def _nets(model: WorldModel):
    return {"dynamics": model.dynamics, "reward": model.reward}


def save_world(path, model: WorldModel):
    header = {
        "kind": "world",
        "state_dim": model.state_dim,
        "action_dim": model.action_dim,
        "dynamics": model.dynamics.spec.to_dict(),
        "reward": model.reward.spec.to_dict(),
    }
    save_checkpoint(path, header, param_arrays(_nets(model)))


def load_world(path) -> WorldModel:
    """Raises MissingArtifact if the file is absent and a ValueError naming
    it if it is not a well-formed world-model checkpoint (see
    load_checkpoint), or if its header fields or parameter arrays do not
    describe a model."""
    header, arrays = load_checkpoint(path, "world")
    try:
        dyn = Mlp(MlpSpec(**header["dynamics"]), seed=0)
        rew = Mlp(MlpSpec(**header["reward"]), seed=0)
        model = WorldModel(header["state_dim"], header["action_dim"], dyn, rew)
        set_params(_nets(model), arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a world-model checkpoint ({exc!r})") from None
    return model


# Array name -> shape; the names are the WorldDataset fields.
_DATASET_SHAPES = {"states": ("n", "s"), "actions": ("n", "a"),
                   "next_states": ("n", "s"), "rewards": ("n",)}


def save_world_dataset(path, ds: WorldDataset):
    save_checkpoint(path, {"kind": "world_dataset"},
                    {name: getattr(ds, name) for name in _DATASET_SHAPES})


def load_world_dataset(path) -> WorldDataset:
    """Raises MissingArtifact if the file is absent and a ValueError naming
    it if it is not a well-formed world dataset (see load_checkpoint), or if
    its arrays have other names or shapes or hold a non-finite value."""
    _, arrays = load_checkpoint(path, "world_dataset")
    return WorldDataset(*check_arrays(path, arrays, _DATASET_SHAPES))
