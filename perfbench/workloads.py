"""The benchmark's three workloads, run through the public API of ``minreal``.

offline_train  collect -> train q-VAE -> mask -> encode -> train world model,
               with every artifact saved and reloaded once (the write path).
mpc_s20        closed loop, one controller, over the full 20-dim latent.
mpc_s5         the same loop over the top-5 latent dims (the masked planner).

Training data and model seeds are fixed, so every seed trains the same
models; the workload seed draws the held-out evaluation episodes and, on
mpc_*, the planner's sampling streams. The closed loop starts from one fixed
state, so the return measures the planner and model rather than how hard the
start was.

Each round of offline_train trains the pipeline and then runs one
closed-loop episode of the model it trained, at K = 1 000 and with fixed
planner streams, so that it reports the planner's end-to-end metrics too;
train_s does not include the episode.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from minreal import cem, env, latent, qvae, world
from minreal.tsallis import QParams

from tracing import Tracer

# Paper configuration: proprio (Gaussian, 4) and image (continuous Bernoulli,
# 256) classes, |Z| = 20.
CLASSES = (
    qvae.ObservationClass("proprio", "diag_gaussian", env.PROPRIO_DIM),
    qvae.ObservationClass("image", "continuous_bernoulli", env.IMAGE_SIZE**2),
)
LATENT_DIM = 20
QPARAMS = QParams(q=0.95, class_qs=(0.95, 0.999), class_weights=(50, 1), beta=50, gamma=3)
MASKED_DIMS = 5

TRAIN_DATA_SEED = 2208  # training transitions; fixed for every workload seed
EVAL_START_SEED = 3936  # the closed loop's start state
# offline_train's planner streams: at K = 1 000 the return moves by about 12%
# between streams, so that episode is a fixed one.
EVAL_PLAN_SEED = 1


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much work one run does."""

    episodes: int = 100  # training episodes (90 train / 5 val / 5 test)
    heldout_episodes: int = 300
    qvae_epochs: int = 10
    world_epochs: int = 20
    candidates: int = 10_000  # CEM samples per iteration (paper: K = 10 000)
    eval_candidates: int = 1_000  # offline_train's closed-loop check
    steps: int = env.EPISODE_LEN
    setups: int = 2  # mpc_*: set-ups, each training the models and drawing held-out data
    retrains: int = 2  # mpc_*: pipeline runs after the closed loop, for train_s


PAPER = Sizes()


class Checks:
    """Correctness checks counted as operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclasses.dataclass
class Trained:
    vae: qvae.QvaeModel
    mask: latent.LatentMask | None
    wm: world.WorldModel
    qvae_records: list


@dataclasses.dataclass
class Episode:
    wall_s: float
    step_s: list  # per control step: encode + plan + env step
    plan_s: list
    ret: float
    first_action: np.ndarray


@dataclasses.dataclass
class Result:
    checks: Checks
    metrics: dict  # end-to-end: name -> (value, unit)
    notes: list  # lines printed before the result
    candidates: int  # CEM samples per iteration in the closed loop
    tracer: Tracer | None = None
    layers: dict | None = None  # per-layer, traced runs only


# --- bitwise fingerprints of artifacts -------------------------------------


def _arrays_key(arrays):
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)


def _transitions_key(transitions):
    return _arrays_key(
        a
        for t in transitions
        for a in (t.obs.image, t.obs.proprio, t.action, t.next_obs.image,
                  t.next_obs.proprio, [t.reward])
    )


def _qvae_key(vae):
    return (vae.classes, vae.qparams, vae.latent_dim,
            _arrays_key(p.data for p in vae.parameters()))


def _mask_key(mask):
    return (mask.keep.tobytes(), mask.importance.tobytes(), mask.threshold_used,
            mask.fallback_used)


def _dataset_key(ds):
    return _arrays_key((ds.states, ds.actions, ds.next_states, ds.rewards))


def _world_key(wm):
    return (wm.state_dim, wm.action_dim, _arrays_key(p.data for p in wm.parameters()))


def _round_trip(checks, what, save, load, path, obj, key):
    """Save, reload and check the reloaded copy bitwise; return the copy."""
    save(path, obj)
    back = load(path)
    checks.check(key(back) == key(obj), f"{what} reloads bitwise")
    return back


# --- the training pipeline ---------------------------------------------------


def make_mask(importance, rule):
    """The mask for a rule: none for "full", the paper's threshold for
    "default", and for "top5" the five most important dims, so that the
    state width does not depend on how training turns out."""
    if rule == "full":
        return None
    if rule == "default":
        return latent.build_mask(importance, latent.DEFAULT_IMPORTANCE_THRESHOLD)
    threshold = np.sort(importance)[::-1][MASKED_DIMS]
    return latent.build_mask(importance, threshold)


def train_pipeline(sizes, mask_rule, checks, workdir=None) -> Trained:
    """collect -> train q-VAE -> mask -> encode -> train world model.

    With a workdir every artifact is saved and reloaded once, and the
    reloaded copy feeds the next stage.
    """
    splits = env.collect_dataset(sizes.episodes, seed=TRAIN_DATA_SEED)
    checks.check(splits.total == sizes.episodes * env.EPISODE_LEN, "collect size")
    train, val = splits.train, splits.val
    if workdir is not None:
        train, val = (
            _round_trip(checks, f"{name} transitions", env.save_transitions,
                        env.load_transitions, workdir / f"{name}.trans", data,
                        _transitions_key)
            for name, data in (("train", train), ("val", val))
        )

    x = env.observation_matrix(train)
    vae = qvae.build_qvae(CLASSES, LATENT_DIM, QPARAMS)
    ckpt = workdir / "qvae.ckpt" if workdir is not None else None
    records = qvae.train_qvae(vae, x, qvae.TrainConfig(epochs=sizes.qvae_epochs),
                              ckpt_path=ckpt)
    checks.check(all(np.isfinite(r.total) for r in records), "q-VAE loss finite")
    checks.check(min(r.bracket_min for r in records) >= 0.0, "bracket_min >= 0")
    if workdir is not None:
        loaded = qvae.load_qvae(ckpt)
        checks.check(_qvae_key(loaded) == _qvae_key(vae), "q-VAE checkpoint reloads bitwise")
        vae = loaded

    mask = make_mask(latent.dim_importance(vae.encode(x).mean), mask_rule)
    if mask is not None:
        want = range(1, LATENT_DIM + 1) if mask_rule == "default" else [MASKED_DIMS]
        checks.check(mask.kept_dim in want, f"kept dims {mask.kept_dim}")
        if workdir is not None:
            mask = _round_trip(checks, "mask", latent.save_mask, latent.load_mask,
                               workdir / "mask.tsv", mask, _mask_key)

    wtrain, wval = (world.encode_dataset(vae, mask, data) for data in (train, val))
    checks.check(all(np.isfinite(ds.states).all() for ds in (wtrain, wval)),
                 "encoded states finite")
    if workdir is not None:
        wtrain, wval = (
            _round_trip(checks, f"{name} world dataset", world.save_world_dataset,
                        world.load_world_dataset, workdir / f"{name}.world", ds,
                        _dataset_key)
            for name, ds in (("train", wtrain), ("val", wval))
        )

    wm = world.build_world_model(wtrain.state_dim, env.ACTION_DIM)
    ckpt = workdir / "world.ckpt" if workdir is not None else None
    wrecords = world.train_world(wm, wtrain, wval,
                                 world.WorldTrainConfig(epochs=sizes.world_epochs),
                                 ckpt_path=ckpt)
    checks.check(all(np.isfinite(r["val_total"]) for r in wrecords), "world loss finite")
    if workdir is not None:
        loaded = world.load_world(ckpt)
        checks.check(_world_key(loaded) == _world_key(wm), "world checkpoint reloads bitwise")
        wm = loaded
    return Trained(vae, mask, wm, records)


def _timed_pipeline(sizes, mask_rule, checks, rundir, tracer=None):
    """train_pipeline with artifacts under rundir (removed afterwards),
    traced when a tracer is given. Returns (Trained, wall seconds)."""
    rundir.mkdir(parents=True)
    t = time.perf_counter()
    with tracer or contextlib.nullcontext():
        trained = train_pipeline(sizes, mask_rule, checks, rundir)
    seconds = time.perf_counter() - t
    shutil.rmtree(rundir)
    return trained, seconds


def heldout_transitions(sizes, seed):
    splits = env.collect_dataset(sizes.heldout_episodes, seed=[seed, 1])
    return splits.train + splits.val + splits.test


def quality(trained, heldout):
    """The paper's quality columns on held-out data, as (metrics, note).

    The world model's held-out NLL (nats per transition) can sit at or cross
    0, which a bound stated as a share of the median cannot handle, so it is
    reported as the per-predicted-dimension perplexity exp(nll / (S + 1)):
    positive, lower is better, and a ratio of two of them is exp of the
    per-dimension NLL difference.
    """
    x = env.observation_matrix(heldout)
    ds = world.encode_dataset(trained.vae, trained.mask, heldout)
    nll = world.heldout_nll(trained.wm, ds)[0]
    metrics = {
        "recon_mse": (qvae.recon_mse(trained.vae, x), "1"),
        "hoyer": (latent.hoyer_sparsity(trained.vae.encode(x).mean), "1"),
        "world_val_ppl": (float(np.exp(nll / (ds.state_dim + 1))), "1"),
    }
    return metrics, f"world_val_nll = {nll!r} nat per held-out transition"


# --- the closed loop ------------------------------------------------------------


def cem_config(candidates):
    """Paper CEM defaults: H = 5, 10 iterations, elite ratio 0.01, no time
    budget, actions in [-1, 1]."""
    ones = np.ones(env.ACTION_DIM)
    return cem.CemConfig(action_low=-ones, action_high=ones, candidates=candidates)


def _start():
    state = env.initial_state(np.random.default_rng(EVAL_START_SEED))
    return state, env.observe(state)


def _latent_state(trained, obs):
    z = trained.vae.encode(obs.vector()).mean[0]
    return z if trained.mask is None else latent.apply_mask(z, trained.mask)


def first_plan(trained, config, seed):
    """The first control step's plan, for the reproducibility check."""
    _, obs = _start()
    return cem.plan(trained.wm, _latent_state(trained, obs), config, seed=[seed, 0])[0]


def closed_loop(trained, config, seed, steps, checks) -> Episode:
    """One episode with one controller: encode -> plan (warm-started by
    shift_policy) -> env step, from the fixed start state."""
    state, obs = _start()
    policy = None
    ret = 0.0
    step_s = []
    plan_s = []
    actions = []
    start = time.perf_counter()
    for step in range(steps):
        t_step = time.perf_counter()
        s = _latent_state(trained, obs)
        t = time.perf_counter()
        action, diag = cem.plan(trained.wm, s, config, seed=[seed, step],
                                initial_policy=policy)
        plan_s.append(time.perf_counter() - t)
        checks.check(
            bool(np.all((action >= config.action_low) & (action <= config.action_high)))
            and diag.iterations_completed == config.max_iters
            and not diag.no_iteration_warning,
            f"control step {step}",
        )
        policy = cem.shift_policy(diag.final_policy, config)
        state, reward, obs = env.env_step(state, action)
        ret += reward
        actions.append(action)
        step_s.append(time.perf_counter() - t_step)
    return Episode(time.perf_counter() - start, step_s, plan_s, ret, actions[0])


def _evaluate(trained, config, seed, steps, seconds, checks, tracer):
    """Reference first plan untraced, then episodes (traced when tracing)
    until `seconds` have passed. Returns (episodes, reference plan seconds)."""
    t = time.perf_counter()
    reference = first_plan(trained, config, seed)
    reference_s = time.perf_counter() - t
    episodes = []
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        while not episodes or time.perf_counter() - start < seconds:
            episodes.append(closed_loop(trained, config, seed, steps, checks))
    _check_replays(checks, episodes, reference)
    return episodes, reference_s


def _check_replays(checks, episodes, reference):
    checks.check(all(ep.first_action.tobytes() == reference.tobytes() for ep in episodes),
                 "re-planning the first step reproduces its action")
    checks.check(len({ep.ret for ep in episodes}) == 1, "repeated episodes agree")


def _loop_metrics(episodes, config):
    """episode_s is the number of steps times the median control-step time,
    so that a burst of load from other processes during a few steps of the
    run does not set it; the measured episode wall times are in the note."""
    plan_s = [t for ep in episodes for t in ep.plan_s]
    step_s = [t for ep in episodes for t in ep.step_s]
    p50 = statistics.median(plan_s)
    beyond = sum(t > p50 for t in plan_s)
    metrics = {
        "plan_ms_p50": (1e3 * p50, "ms"),
        "episode_s": (len(episodes[0].step_s) * statistics.median(step_s), "s"),
        "mean_cost": (-episodes[0].ret, "1"),
    }
    note = (f"plan_ms_p50: median of {len(plan_s)} plan() calls, {beyond} beyond it; "
            f"K = {config.candidates} samples per iteration, "
            f"{config.max_iters} iterations, H = {config.horizon}; "
            f"closed loop, 1 controller, {len(episodes)} episode(s) of "
            f"{', '.join(f'{ep.wall_s:.3f}' for ep in episodes)} s wall; "
            f"mean_return = {episodes[0].ret!r}")
    return metrics, note


# --- workloads ---------------------------------------------------------------


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_offline_train(seed, seconds, workdir, trace=False, sizes=None) -> Result:
    sizes = sizes or PAPER
    checks = Checks()
    tracer = Tracer() if trace else None
    config = cem_config(sizes.eval_candidates)

    setup_s = []
    runs = []  # (wall seconds, quality, traced)
    episodes = []
    reference = None
    start = time.perf_counter()
    # Each round draws the held-out data (the set-up), trains the pipeline and
    # runs one closed-loop episode of the model it trained, so that every
    # metric samples the whole run. Traced runs time the first round
    # untraced, as the overhead base.
    while len(runs) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        heldout = heldout_transitions(sizes, seed)
        setup_s.append(time.perf_counter() - t)
        traced = trace and bool(runs)
        trained, wall = _timed_pipeline(sizes, "default", checks,
                                        Path(workdir) / f"pipeline-{len(runs)}",
                                        tracer if traced else None)
        runs.append((wall, quality(trained, heldout), traced))
        if reference is None:
            reference = first_plan(trained, config, EVAL_PLAN_SEED)
        with tracer if traced else contextlib.nullcontext():
            episodes.append(closed_loop(trained, config, EVAL_PLAN_SEED, sizes.steps, checks))
    checks.check(all(r[1] == runs[0][1] for r in runs), "repeated pipelines agree bitwise")
    _check_replays(checks, episodes, reference)
    loop, loop_note = _loop_metrics(episodes, config)

    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_s": (statistics.median(r[0] for r in runs if not r[2]), "s"),
        **runs[0][1][0],
        **loop,
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup_s)} held-out draws; "
        f"train_s: median of {sum(not r[2] for r in runs)} untraced pipeline run(s); "
        f"kept dims {trained.mask.kept_dim} of {LATENT_DIM}",
        runs[0][1][1],
        "offline_train's closed loop checks the freshly trained masked model at "
        + loop_note,
    ]
    result = Result(checks, metrics, notes, config.candidates, tracer)
    if trace:
        untraced = [r[0] for r in runs if not r[2]]
        traced = [r[0] for r in runs if r[2]]
        overhead = statistics.median(traced) - statistics.median(untraced)
        result.layers = layer_metrics(tracer, trained, sizes, len(traced),
                                      1e3 * overhead)
    return result


def run_mpc(mask_rule, seed, seconds, workdir, trace=False, sizes=None) -> Result:
    """Set-up trains the frozen models (the pipeline with its artifact round
    trips, traced in traced runs) and draws the held-out data; then the
    closed loop runs."""
    sizes = sizes or PAPER
    checks = Checks()
    tracer = Tracer() if trace else None
    setup_s = []
    train_s = []
    keys = set()
    for i in range(sizes.setups):
        t = time.perf_counter()
        trained, wall = _timed_pipeline(sizes, mask_rule, checks,
                                        Path(workdir) / f"setup-{i}", tracer)
        train_s.append(wall)
        heldout = heldout_transitions(sizes, seed)
        setup_s.append(time.perf_counter() - t)
        keys.add((_qvae_key(trained.vae), _world_key(trained.wm)))
    q_metrics, q_note = quality(trained, heldout)

    config = cem_config(sizes.candidates)
    episodes, reference_s = _evaluate(trained, config, seed, sizes.steps, seconds,
                                      checks, tracer)
    loop, loop_note = _loop_metrics(episodes, config)

    # Retrain after the loop too, so that train_s samples both ends of the run
    # and a burst of load from other processes at its start does not set it.
    for i in range(sizes.retrains):
        again, wall = _timed_pipeline(sizes, mask_rule, checks,
                                      Path(workdir) / f"retrain-{i}", tracer)
        train_s.append(wall)
        keys.add((_qvae_key(again.vae), _world_key(again.wm)))
    checks.check(len(keys) == 1, "repeated set-ups and retrains train identical models")
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_s": (statistics.median(train_s), "s"),
        **q_metrics,
        **loop,
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    notes = [
        f"setup_s: median of {sizes.setups} set-ups, each training the frozen q-VAE "
        f"and world model (state width {trained.wm.state_dim}); train_s: median of "
        f"those {sizes.setups} pipeline runs and {sizes.retrains} after the closed loop",
        q_note,
        loop_note,
    ]
    result = Result(checks, metrics, notes, config.candidates, tracer)
    if trace:
        overhead = episodes[0].plan_s[0] - reference_s
        result.layers = layer_metrics(tracer, trained, sizes,
                                      sizes.setups + sizes.retrains, 1e3 * overhead)
    return result


WORKLOADS = {
    "offline_train": run_offline_train,
    "mpc_s20": functools.partial(run_mpc, "full"),
    "mpc_s5": functools.partial(run_mpc, "top5"),
}


# --- per-layer metrics from the trace -------------------------------------------

# metric name -> (unit, span layers it reads)
LAYER_METRICS = {
    "env.collect_s": ("s", ["env.collect"]),
    "env.transitions_io_s": ("s", ["env.transitions_io"]),
    "env.transitions_bytes": ("B", ["env.transitions_io"]),
    "env.step_ms": ("ms", ["env.step"]),
    "qvae.epoch_s": ("s", ["qvae.train"]),
    "qvae.loss_ms": ("ms", ["qvae.loss"]),
    "autodiff.backward_ms": ("ms", ["autodiff.backward"]),
    "nets.adam_step_ms": ("ms", ["nets.adam_step"]),
    "qvae.saturation_count": ("count", []),
    "qvae.bracket_min": ("1", []),
    "qvae.encode_ms": ("ms", ["qvae.encode"]),
    "latent.mask_ms": ("ms", ["latent.mask"]),
    "nets.checkpoint_io_s": ("s", ["nets.checkpoint_io"]),
    "nets.checkpoint_bytes": ("B", ["nets.checkpoint_io"]),
    "world.encode_dataset_s": ("s", ["world.encode_dataset"]),
    "world.dataset_io_s": ("s", ["world.dataset_io"]),
    "world.train_epoch_s": ("s", ["world.train"]),
    "world.wm_loss_ms": ("ms", ["world.wm_loss"]),
    "cem.plan_ms": ("ms", ["cem.plan"]),
    "cem.self_ms": ("ms", ["cem.plan"]),
    "cem.sample_ms": ("ms", ["cem.plan", "cem.sample"]),
    "cem.elite_ms": ("ms", ["cem.plan", "cem.elite"]),
    "cem.refit_ms": ("ms", ["cem.plan", "cem.refit"]),
    "cem.iterations": ("count", ["cem.plan"]),
    "cem.candidates": ("count", ["cem.plan", "world.rollout"]),
    "cem.finite_ratio": ("1", ["world.rollout"]),
    "world.rollout_ms": ("ms", ["world.rollout"]),
    "world.rollout_self_ms": ("ms", ["world.rollout"]),
    "world.dynamics_ms": ("ms", ["world.dynamics"]),
    "world.reward_ms": ("ms", ["world.reward"]),
    "world.rollout_mflop": ("Mflop_computed", ["world.rollout"]),
    "world.rollout_mbytes": ("MB_computed", ["world.rollout"]),
    "world.rollout_gflop_s": ("Gflop/s", ["world.rollout"]),
    "trace.overhead_ms": ("ms", []),
}


def _per(total, n):
    return total / n if n else 0.0


def layer_metrics(tracer, trained, sizes, pipelines, overhead_ms):
    """Per-layer metrics: *_s per traced pipeline run (per epoch for the
    training loops), cem.* per plan() call, other *_ms per call of the
    layer's public functions."""
    t = tracer
    ms = lambda name: 1e3 * _per(t.total(name), t.count(name))
    plans = t.count("cem.plan")
    rollouts = t.count("world.rollout")
    rows = sum(t.info("world.rollout", "rows"))
    flop = sum(t.info("world.rollout", "flop"))
    encode_b1 = [s[2] - s[1] for s in t.spans
                 if s[0] == "qvae.encode" and s[4].get("rows") == 1]
    values = {
        "env.collect_s": _per(t.total("env.collect"), pipelines),
        "env.transitions_io_s": _per(t.total("env.transitions_io"), pipelines),
        "env.transitions_bytes": _per(sum(t.info("env.transitions_io", "bytes")), pipelines),
        "env.step_ms": ms("env.step"),
        "qvae.epoch_s": _per(t.total("qvae.train"), pipelines * sizes.qvae_epochs),
        "qvae.loss_ms": ms("qvae.loss"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "nets.adam_step_ms": ms("nets.adam_step"),
        "qvae.saturation_count": sum(r.saturation_count for r in trained.qvae_records),
        "qvae.bracket_min": min(r.bracket_min for r in trained.qvae_records),
        "qvae.encode_ms": 1e3 * _per(sum(encode_b1), len(encode_b1)),
        "latent.mask_ms": 1e3 * _per(t.total("latent.mask"), pipelines),
        "nets.checkpoint_io_s": _per(t.total("nets.checkpoint_io"), pipelines),
        "nets.checkpoint_bytes": _per(sum(t.info("nets.checkpoint_io", "bytes")), pipelines),
        "world.encode_dataset_s": _per(t.total("world.encode_dataset"), pipelines),
        "world.dataset_io_s": _per(t.total("world.dataset_io"), pipelines),
        "world.train_epoch_s": _per(t.total("world.train"), pipelines * sizes.world_epochs),
        "world.wm_loss_ms": ms("world.wm_loss"),
        "cem.plan_ms": ms("cem.plan"),
        "cem.self_ms": 1e3 * _per(t.self_time("cem.plan"), plans),
        "cem.sample_ms": 1e3 * _per(t.total("cem.sample"), plans),
        "cem.elite_ms": 1e3 * _per(t.total("cem.elite"), plans),
        "cem.refit_ms": 1e3 * _per(t.total("cem.refit"), plans),
        "cem.iterations": _per(sum(t.info("cem.plan", "iterations")), plans),
        "cem.candidates": _per(rows, plans),
        "cem.finite_ratio": _per(sum(t.info("world.rollout", "finite")), rows),
        "world.rollout_ms": ms("world.rollout"),
        "world.rollout_self_ms": 1e3 * _per(t.self_time("world.rollout"), rollouts),
        "world.dynamics_ms": ms("world.dynamics"),
        "world.reward_ms": ms("world.reward"),
        "world.rollout_mflop": 1e-6 * _per(flop, rollouts),
        "world.rollout_mbytes": 1e-6 * _per(sum(t.info("world.rollout", "bytes")), rollouts),
        "world.rollout_gflop_s": 1e-9 * _per(flop, t.total("world.rollout")),
        "trace.overhead_ms": overhead_ms,
    }
    return {name: (float(values[name]), unit) for name, (unit, _) in LAYER_METRICS.items()}


def absent_metrics(tracer):
    """Per-layer metrics whose layers have no public name left to wrap."""
    gone = set(tracer.absent_layers)
    return [name for name, (_, layers) in LAYER_METRICS.items() if gone.intersection(layers)]
