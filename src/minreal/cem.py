"""Sampling-based MPC by the cross-entropy method: Gaussian candidate
sampling, world-model scoring, elite refit by maximum likelihood, and a
smoothed policy update, iterated under an optional wall-clock budget.

A planned sequence covers horizon + 1 control steps (rewards are summed from
the current step through the horizon), so policy tensors have H + 1 rows.
Candidate scoring is a pure, vectorized rollout against a frozen model;
scores are reduced in candidate-index order so elite tie-breaking is
deterministic. plan() ranks candidates in float32: it scores a float32 copy
of the candidates, so rollout_batch runs the model on float32 states and
actions, which halves the bytes every layer op moves, while scores
accumulate in float64. The elites are refitted
from the float64 candidates in candidate order, so whenever float32 scoring
selects the same elite set as float64 scoring would, in whatever order, the
policy is bitwise the same.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .errors import ConfigError, check_finite, check_int, check_real, check_seed
from .world import rollout_batch

STD_FLOOR = 1e-3


@dataclasses.dataclass(frozen=True, eq=False)
class PolicyParams:
    """Per-(step, action dim) mean and standard deviation of the proposal."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = check_finite("mean", self.mean)
        std = check_finite("std", self.std)
        if mean.shape != std.shape:
            raise ValueError("mean and std must have the same shape")
        if np.any(std <= 0.0):
            raise ValueError("std must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", np.maximum(std, STD_FLOOR))


@dataclasses.dataclass(frozen=True, eq=False)
class CemConfig:
    """Planner settings; a ConfigError names a field that is not of its type
    or range. Bounds are nonempty vectors, low < high; reals are kept as given."""

    action_low: np.ndarray
    action_high: np.ndarray
    horizon: int = 5
    candidates: int = 10_000
    elite_ratio: float = 0.01
    smoothing: float = 0.4
    max_iters: int = 10
    time_budget: float | None = None  # seconds; None = unlimited

    def __post_init__(self):
        for name, minimum in (("horizon", 0), ("candidates", 1), ("max_iters", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        for name in ("elite_ratio", "smoothing"):
            value = getattr(self, name)
            if not 0 < check_real(name, value) < 1:
                raise ConfigError(f"{name} must be in (0, 1), got {value!r}")
        if self.time_budget is not None and np.isnan(check_real("time_budget", self.time_budget)):
            raise ConfigError("time_budget must not be NaN")
        lo = check_finite("action_low", self.action_low, ConfigError).copy()
        hi = check_finite("action_high", self.action_high, ConfigError).copy()
        if lo.ndim != 1 or lo.size == 0 or lo.shape != hi.shape:
            raise ConfigError(f"action_low and action_high must be nonempty vectors of one "
                              f"shape, got shapes {lo.shape} and {hi.shape}")
        if np.any(lo >= hi):
            raise ConfigError("action bounds must satisfy low < high per dim")
        object.__setattr__(self, "action_low", lo)
        object.__setattr__(self, "action_high", hi)
        if int(np.floor(self.elite_ratio * self.candidates)) < 1:
            raise ConfigError(
                f"floor(elite_ratio * candidates) must be >= 1, got "
                f"{self.elite_ratio} * {self.candidates}"
            )

    @property
    def action_dim(self):
        return self.action_low.size

    @property
    def plan_steps(self):
        return self.horizon + 1

    def initial_policy(self) -> PolicyParams:
        shape = (self.plan_steps, self.action_dim)
        return PolicyParams(
            mean=np.zeros(shape),
            std=np.tile(0.5 * (self.action_high - self.action_low), (self.plan_steps, 1)),
        )


@dataclasses.dataclass(eq=False)
class PlanDiagnostics:
    iterations_completed: int
    best_score: float
    wall_seconds: float
    final_policy: PolicyParams | None = None

    @property
    def no_iteration_warning(self):
        """No iteration completed: the plan is the initial policy's mean."""
        return self.iterations_completed == 0


def sample_candidates(policy: PolicyParams, k, low, high, rng):
    """k Gaussian draws around the policy from the Generator rng, clipped to
    the action bounds [low, high].

    The draws are scaled and shifted in place, and clipped against bounds
    tiled to the policy's (steps, adim) shape: numpy's clip loop then runs
    over steps * adim contiguous elements per candidate, not over adim."""
    draws = rng.standard_normal((k, *policy.mean.shape))
    draws *= policy.std
    draws += policy.mean
    low, high = (np.broadcast_to(b, policy.mean.shape).copy() for b in (low, high))
    return np.clip(draws, low, high, out=draws)


def select_elites(scores, elite_ratio):
    """Indices of the top floor(ratio * K) scores (at least one), descending,
    ties broken by lower index, NaN scores last: np.argsort(-scores,
    kind="stable")[:n]. Only the candidates at least as good as the n-th
    best are sorted, found by a partition."""
    neg = -np.asarray(scores)
    k = neg.shape[0]
    n = max(1, int(np.floor(elite_ratio * k)))
    nth = np.partition(neg, n - 1)[n - 1]
    # With fewer than n non-NaN scores, the n-th best is NaN and every
    # candidate is kept.
    keep = np.arange(k) if np.isnan(nth) else np.flatnonzero(neg <= nth)
    return keep[np.argsort(neg[keep], kind="stable")[:n]]


def refit_policy(elites) -> PolicyParams:
    """Maximum-likelihood Gaussian fit: mean and population std per
    (step, dim), std floored."""
    elites = np.asarray(elites, dtype=np.float64)
    mean = elites.mean(axis=0)
    std = elites.std(axis=0)  # ddof=0: the MLE
    return PolicyParams(mean=mean, std=np.maximum(std, STD_FLOOR))


def smooth_update(old: PolicyParams, new: PolicyParams, eta) -> PolicyParams:
    """theta <- eta * old + (1 - eta) * new, applied to mean and std."""
    if old.mean.shape != new.mean.shape:
        raise ValueError("policy shapes differ")
    return PolicyParams(
        mean=eta * old.mean + (1.0 - eta) * new.mean,
        std=eta * old.std + (1.0 - eta) * new.std,
    )


def plan(model, s0, config: CemConfig, seed, initial_policy=None):
    """Iterate sample -> score -> elite refit -> smooth update until the
    iteration cap or time budget (checked between iterations) runs out.

    Candidates are ranked by float32 rollouts and refitted in float64 (see
    the module docstring).

    Returns (first action, PlanDiagnostics). With a fixed seed and no time
    budget the result is deterministic. If no iteration completes, the
    initial policy mean is returned with a warning flag. A non-finite s0, or
    an iteration that scores no candidate finite, is a ValueError, and a bad
    seed a ConfigError (errors.check_seed).
    """
    check_seed("seed", seed)
    check_finite("s0", s0)
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    policy = initial_policy if initial_policy is not None else config.initial_policy()
    if policy.mean.shape != (config.plan_steps, config.action_dim):
        raise ConfigError(
            f"policy shape {policy.mean.shape} does not match plan steps "
            f"{(config.plan_steps, config.action_dim)}"
        )
    best_score = -np.inf
    iters = 0
    budget = config.time_budget
    for _ in range(config.max_iters):
        # A budget <= 0 allows no iteration; a positive one at least one.
        if (budget is not None and (iters > 0 or budget <= 0.0)
                and time.perf_counter() - start >= budget):
            break
        candidates = sample_candidates(policy, config.candidates, config.action_low,
                                       config.action_high, rng)
        scores = rollout_batch(model, s0, candidates.astype(np.float32))
        if not np.isfinite(scores).any():
            raise ValueError(f"no candidate scored finite in iteration {iters + 1}")
        elite_idx = select_elites(scores, config.elite_ratio)
        best_score = max(best_score, float(scores[elite_idx[0]]))
        # Refitted in candidate order: the policy depends on the elite set
        # alone, not on how float32 scores order it.
        policy = smooth_update(policy, refit_policy(candidates[np.sort(elite_idx)]),
                               config.smoothing)
        iters += 1

    wall = time.perf_counter() - start
    diag = PlanDiagnostics(
        iterations_completed=iters,
        best_score=best_score if iters > 0 else float("nan"),
        wall_seconds=wall,
        final_policy=policy,
    )
    return np.clip(policy.mean[0], config.action_low, config.action_high), diag


def shift_policy(policy: PolicyParams, config: CemConfig) -> PolicyParams:
    """Warm start for the next control step: drop the executed first row,
    append a zero-mean row, reset std to the initial spread."""
    init = config.initial_policy()
    mean = np.vstack([policy.mean[1:], np.zeros((1, config.action_dim))])
    return PolicyParams(mean=mean, std=init.std)
