"""Cross-entropy-method planner operations and the analytic planning test."""

import numpy as np
import pytest

from minreal import env
from minreal.cem import (
    CemConfig,
    PlanDiagnostics,
    PolicyParams,
    plan,
    refit_policy,
    sample_candidates,
    select_elites,
    shift_policy,
    smooth_update,
)
from minreal.errors import ConfigError
from minreal.world import build_world_model, rollout_batch

UNBOUNDED = (-np.inf, np.inf)


class ShiftModel:
    """s' = s + a with reward -(s - 1)^2, the quadratic planning test."""

    def dynamics_mean(self, s, a):
        return np.atleast_2d(s) + np.atleast_2d(a)

    def reward_mean(self, s, a):
        s = np.atleast_2d(s)
        return -np.sum((s - 1.0) ** 2, axis=1)


class TrueDynamics:
    """The dot reacher itself over the state (pos, vel, target height):
    env's step kernel, and its reward at the stepped state."""

    def dynamics_mean(self, s, a):
        pos, vel = env.step_batch(s[:, :2], s[:, 2:4], a)
        return np.column_stack([pos, vel, s[:, 4]])

    def reward_mean(self, s, a):
        return env.reward_batch(*env.step_batch(s[:, :2], s[:, 2:4], a), s[:, 4])


def config(**kw):
    base = dict(
        action_low=np.array([-2.0]),
        action_high=np.array([2.0]),
        horizon=1,
        candidates=1000,
        elite_ratio=0.01,
        smoothing=0.4,
        max_iters=10,
    )
    base.update(kw)
    return CemConfig(**base)


class TestSampleCandidates:
    def test_shape_and_determinism(self):
        policy = PolicyParams(mean=np.zeros((3, 2)), std=np.ones((3, 2)))
        a = sample_candidates(policy, 50, *UNBOUNDED, np.random.default_rng(123))
        b = sample_candidates(policy, 50, *UNBOUNDED, np.random.default_rng(123))
        assert a.shape == (50, 3, 2)
        np.testing.assert_array_equal(a, b)

    def test_equals_unfused_formula(self):
        # Oracle: mean + std * z, clipped against the (adim,) bounds. Random
        # policies whose draws cross both bounds, with other bounds per dim.
        low, high = np.array([-1.0, -0.3, 0.0]), np.array([0.5, 2.0, 0.1])
        for seed in range(5):
            prng = np.random.default_rng(seed)
            policy = PolicyParams(mean=prng.uniform(-1.5, 1.5, (4, 3)),
                                  std=prng.uniform(0.1, 2.0, (4, 3)))
            got = sample_candidates(policy, 500, low, high, np.random.default_rng(seed))
            z = np.random.default_rng(seed).standard_normal((500, 4, 3))
            want = np.clip(policy.mean + policy.std * z, low, high)
            assert (got == low).any() and (got == high).any()
            assert got.tobytes() == want.tobytes()
            assert got.astype(np.float32).tobytes() == want.astype(np.float32).tobytes()

    def test_floor_std_concentrates_on_mean(self):
        mean = np.array([[0.3, -0.7]])
        policy = PolicyParams(mean=mean, std=np.full((1, 2), 1e-12))
        draws = sample_candidates(policy, 200, *UNBOUNDED, np.random.default_rng(0))
        assert np.max(np.abs(draws - mean)) < 1e-2  # std floored at 1e-3

    def test_clipping_to_bounds(self):
        policy = PolicyParams(mean=np.full((2, 1), 5.0), std=np.full((2, 1), 0.1))
        draws = sample_candidates(policy, 100, -1.0, 1.0, np.random.default_rng(1))
        assert np.all(draws <= 1.0) and np.all(draws >= -1.0)
        assert np.all(draws == 1.0)  # mean far outside: everything lands on the edge

    def test_empirical_mean_within_three_stderr(self):
        mean = np.array([[0.2, -0.4], [0.0, 0.9]])
        std = np.array([[0.5, 1.0], [0.3, 0.2]])
        policy = PolicyParams(mean=mean, std=std)
        n = 100_000
        draws = sample_candidates(policy, n, *UNBOUNDED, np.random.default_rng(7))
        stderr = std / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 3.0 * stderr)


class TestScoreCandidates:
    def test_single_step_sum_starts_at_h0(self):
        model = ShiftModel()
        cands = np.array([[[0.5]], [[-0.5]]])  # horizon 0: one action each
        scores = rollout_batch(model, np.zeros(1), cands)
        np.testing.assert_allclose(scores, [-1.0, -1.0])  # r(s0, a0) only

    def test_analytic_two_step(self):
        class SquareModel(ShiftModel):
            def reward_mean(self, s, a):
                s = np.atleast_2d(s)
                return -np.sum(s * s, axis=1)

        scores = rollout_batch(SquareModel(), np.zeros(1), np.array([[[1.0], [-1.0]]]))
        np.testing.assert_allclose(scores, [-1.0])  # -0^2 + -(1)^2

    def test_identical_candidates_identical_scores(self):
        model = ShiftModel()
        cand = np.tile(np.array([[[0.3], [0.1]]]), (5, 1, 1))
        scores = rollout_batch(model, np.zeros(1), cand)
        assert np.all(scores == scores[0])


class TestSelectElites:
    def test_stable_tie_break(self):
        idx = select_elites(np.array([1.0, 3.0, 2.0, 3.0]), 0.5)
        np.testing.assert_array_equal(idx, [1, 3])

    def test_table_scale(self):
        rng = np.random.default_rng(0)
        idx = select_elites(rng.normal(size=10_000), 0.01)
        assert idx.size == 100

    def test_all_equal_takes_first(self):
        idx = select_elites(np.zeros(10), 0.3)
        np.testing.assert_array_equal(idx, [0, 1, 2])

    def test_threshold_semantics(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=500)
        idx = select_elites(scores, 0.05)
        threshold = scores[idx].min()
        assert np.all(scores[idx] >= threshold)
        assert (scores >= threshold).sum() == idx.size  # exactly the elites

    @pytest.mark.parametrize("ratio", [0.01, 0.1, 0.5, 1.0])
    def test_matches_stable_argsort_oracle(self, ratio):
        # The full stable sort is the oracle, on scores with many ties,
        # -inf and NaN (sorted last), signed zeros, all-NaN and all--inf
        # inputs, and ratio 1.0 (n = k).
        rng = np.random.default_rng(3)
        cases = [np.full(7, np.nan), np.full(7, -np.inf), np.array([0.0, -0.0, 0.0]),
                 np.array([np.nan, 1.0, np.nan, -np.inf, 1.0]),
                 rng.normal(size=10_000).astype(np.float32).astype(np.float64)]
        for _ in range(400):
            scores = rng.integers(-3, 4, size=rng.integers(1, 80)).astype(np.float64)
            kind = rng.random(scores.size)
            scores[kind < 0.2] = -np.inf
            scores[kind > 0.8] = np.nan
            cases.append(scores)
        for scores in cases:
            n = max(1, int(np.floor(ratio * scores.size)))
            want = np.argsort(-scores, kind="stable")[:n]
            got = select_elites(scores, ratio)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestRefitPolicy:
    def test_single_elite(self):
        p = refit_policy(np.array([[[0.4, -0.2]]]))
        np.testing.assert_allclose(p.mean, [[0.4, -0.2]])
        np.testing.assert_allclose(p.std, 1e-3)

    def test_population_std(self):
        p = refit_policy(np.array([[[0.0]], [[2.0]]]))
        assert p.mean[0, 0] == pytest.approx(1.0)
        assert p.std[0, 0] == pytest.approx(1.0)  # MLE, not ddof=1

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        elites = rng.normal(size=(40, 3, 2))
        p = refit_policy(elites)
        mean = elites.sum(axis=0) / 40
        var = ((elites - mean) ** 2).sum(axis=0) / 40
        np.testing.assert_allclose(p.mean, mean, rtol=1e-12)
        np.testing.assert_allclose(p.std, np.sqrt(var), rtol=1e-12)


class TestSmoothUpdate:
    def test_limits(self):
        old = PolicyParams(mean=np.zeros((2, 1)), std=np.ones((2, 1)))
        new = PolicyParams(mean=np.ones((2, 1)), std=np.full((2, 1), 0.5))
        near_new = smooth_update(old, new, 1e-9)
        np.testing.assert_allclose(near_new.mean, new.mean, atol=1e-8)
        near_old = smooth_update(old, new, 1.0 - 1e-9)
        np.testing.assert_allclose(near_old.mean, old.mean, atol=1e-8)

    def test_arithmetic(self):
        old = PolicyParams(mean=np.zeros((1, 1)), std=np.ones((1, 1)))
        new = PolicyParams(mean=np.ones((1, 1)), std=np.full((1, 1), 0.5))
        out = smooth_update(old, new, 0.4)
        assert out.mean[0, 0] == pytest.approx(0.6)
        assert out.std[0, 0] == pytest.approx(0.7)


class TestPlan:
    def test_recovers_quadratic_optimum(self):
        action, diag = plan(ShiftModel(), np.zeros(1), config(), seed=0)
        assert action[0] == pytest.approx(1.0, abs=1e-2)
        # score = -(s0 - 1)^2 - (a0 - 1)^2 with s0 = 0, at most -1
        assert -1.0 - 1e-3 < diag.best_score <= -1.0
        assert diag.iterations_completed == 10

    def test_deterministic_with_fixed_seed(self):
        a1, d1 = plan(ShiftModel(), np.zeros(1), config(), seed=3)
        a2, d2 = plan(ShiftModel(), np.zeros(1), config(), seed=3)
        np.testing.assert_array_equal(a1, a2)
        assert d1.best_score == d2.best_score

    def test_unlimited_budget_completes_max_iters(self):
        _, diag = plan(ShiftModel(), np.zeros(1), config(max_iters=3), seed=0)
        assert diag.iterations_completed == 3

    def test_zero_budget_warns_and_returns_initial_mean(self):
        action, diag = plan(
            ShiftModel(), np.zeros(1), config(time_budget=0.0), seed=0
        )
        assert diag.no_iteration_warning
        assert diag.iterations_completed == 0
        np.testing.assert_allclose(action, 0.0)

    @pytest.mark.parametrize("iterations", [0, 1, 10])
    def test_no_iteration_warning_follows_iterations_completed(self, iterations):
        diag = PlanDiagnostics(iterations_completed=iterations, best_score=float("nan"),
                               wall_seconds=0.0)
        assert diag.no_iteration_warning == (iterations == 0)
        diag.iterations_completed = 1 - min(iterations, 1)
        assert diag.no_iteration_warning == (iterations != 0)

    def test_budget_checked_between_iterations(self):
        # a tiny budget still completes exactly one iteration
        _, diag = plan(ShiftModel(), np.zeros(1), config(time_budget=1e-9), seed=0)
        assert diag.iterations_completed == 1

    def test_mean_stays_in_convex_hull(self):
        model = ShiftModel()
        cfg = config(max_iters=6, candidates=400, elite_ratio=0.05)
        rng = np.random.default_rng(9)
        policy = cfg.initial_policy()
        lo = np.minimum(policy.mean.min(), 0.0)
        hi = np.maximum(policy.mean.max(), 0.0)
        seen_lo, seen_hi = np.full_like(policy.mean, lo), np.full_like(policy.mean, hi)
        for _ in range(cfg.max_iters):
            cands = sample_candidates(policy, cfg.candidates, cfg.action_low,
                                      cfg.action_high, rng)
            scores = rollout_batch(model, np.zeros(1), cands)
            elite = cands[select_elites(scores, cfg.elite_ratio)]
            refit = refit_policy(elite)
            seen_lo = np.minimum(seen_lo, refit.mean)
            seen_hi = np.maximum(seen_hi, refit.mean)
            policy = smooth_update(policy, refit, cfg.smoothing)
            assert np.all(policy.mean >= seen_lo - 1e-12)
            assert np.all(policy.mean <= seen_hi + 1e-12)

    def test_closed_loop_matches_float64_reference(self):
        # plan() ranks in float32 and refits in float64. Over a warm-started
        # loop at planner width it must select what float64 scores select,
        # so its actions and policies equal, byte for byte, those of a
        # float64 loop built from cem's own steps.
        model = build_world_model(20, 2, seed=3)
        cfg = CemConfig(action_low=-np.ones(2), action_high=np.ones(2))
        s = np.random.default_rng(4).normal(scale=0.3, size=20)
        policy = ref = cfg.initial_policy()
        for step in range(5):
            action, diag = plan(model, s, cfg, seed=[9, step], initial_policy=policy)
            rng = np.random.default_rng([9, step])
            for _ in range(cfg.max_iters):
                cands = sample_candidates(ref, cfg.candidates, cfg.action_low,
                                          cfg.action_high, rng)
                idx = select_elites(rollout_batch(model, s, cands), cfg.elite_ratio)
                elites = cands[np.sort(idx)]
                ref = smooth_update(ref, refit_policy(elites), cfg.smoothing)
            ref_action = np.clip(ref.mean[0], cfg.action_low, cfg.action_high)
            assert action.tobytes() == ref_action.tobytes()
            assert diag.final_policy.mean.tobytes() == ref.mean.tobytes()
            assert diag.final_policy.std.tobytes() == ref.std.tobytes()
            policy = shift_policy(diag.final_policy, cfg)
            ref = shift_policy(ref, cfg)
            s = model.dynamics_mean(s, action)[0]

    def test_shift_policy_warm_start(self):
        cfg = config(horizon=2)
        policy = PolicyParams(
            mean=np.array([[0.1], [0.2], [0.3]]), std=np.full((3, 1), 0.5)
        )
        shifted = shift_policy(policy, cfg)
        np.testing.assert_allclose(shifted.mean[:, 0], [0.2, 0.3, 0.0])
        np.testing.assert_allclose(shifted.std, cfg.initial_policy().std)


class TestConfigValidation:
    def test_elite_floor(self):
        with pytest.raises(ConfigError):
            config(candidates=50, elite_ratio=0.01)  # floor = 0

    def test_bad_bounds(self):
        with pytest.raises(ConfigError):
            config(action_low=np.array([1.0]), action_high=np.array([-1.0]))

    def test_policy_std_positive(self):
        with pytest.raises(ValueError):
            PolicyParams(mean=np.zeros((1, 1)), std=np.zeros((1, 1)))

    @pytest.mark.parametrize("low, high", [
        ([np.nan, -1.0], [1.0, 1.0]),
        ([-1.0, -1.0], [1.0, np.nan]),
        ([-np.inf], [1.0]),
        ([-1.0], [np.inf]),
    ], ids=["nan_low", "nan_high", "inf_low", "inf_high"])
    def test_non_finite_bounds(self, low, high):
        # A NaN low bound once reached plan's action, and an infinite one
        # became an infinite initial std.
        with pytest.raises(ConfigError, match="finite"):
            config(action_low=np.array(low), action_high=np.array(high))

    @pytest.mark.parametrize("low, high", [
        # Each was once accepted: empty bounds as action_dim 0, (2, 2) ones
        # as action_dim 4, scalar ones as action_dim 1, and (1, 2) ones made
        # plan return a (1, 2) action.
        (np.zeros(0), np.zeros(0)),
        (-np.ones((2, 2)), np.ones((2, 2))),
        (-1.0, 1.0),
        (-np.ones((1, 2)), np.ones((1, 2))),
        (-np.ones(2), np.ones(3)),
    ], ids=["empty", "2x2", "scalar", "1x2", "mismatch"])
    def test_bounds_must_be_nonempty_vectors(self, low, high):
        with pytest.raises(ConfigError, match="action_low and action_high"):
            config(action_low=low, action_high=high)

    @pytest.mark.parametrize("field, value", [
        # The strings and None once raised a raw TypeError, and True was
        # accepted as a one-second budget.
        ("time_budget", "1"), ("elite_ratio", "0.1"), ("smoothing", None),
        ("time_budget", True), ("elite_ratio", np.bool_(False)), ("smoothing", [0.4]),
    ])
    def test_rates_and_budget_must_be_real_numbers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a real number"):
            config(**{field: value})

    def test_numpy_reals_accepted(self):
        cfg = config(elite_ratio=np.float32(0.01), smoothing=np.float64(0.4),
                     time_budget=np.int64(2))
        assert (cfg.elite_ratio, cfg.smoothing, cfg.time_budget) == (
            np.float32(0.01), 0.4, 2)
        assert config(time_budget=None).time_budget is None

    def test_negative_max_iters(self):
        with pytest.raises(ConfigError, match="max_iters"):
            config(max_iters=-3)
        assert config(max_iters=0).max_iters == 0

    def test_nan_time_budget(self):
        # A NaN budget never compares as spent, so it never stopped the loop.
        with pytest.raises(ConfigError, match="time_budget"):
            config(time_budget=np.nan)

    @pytest.mark.parametrize("field, value", [
        ("candidates", 1000.5), ("horizon", 2.5), ("max_iters", 2.0),
        # True was once accepted, and kept as the horizon.
        ("candidates", True), ("horizon", True), ("max_iters", True),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            config(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = config(horizon=np.int64(3), candidates=np.int32(200), max_iters=np.uint8(2))
        assert (cfg.horizon, cfg.candidates, cfg.max_iters) == (3, 200, 2)

    @pytest.mark.parametrize("field, value", [
        ("mean", np.nan), ("mean", np.inf), ("std", np.nan), ("std", np.inf),
    ])
    def test_policy_must_be_finite(self, field, value):
        # A NaN std passed the positivity check, and np.maximum kept it NaN.
        arrays = {"mean": np.zeros((2, 1)), "std": np.ones((2, 1))}
        arrays[field][1, 0] = value
        with pytest.raises(ValueError, match="finite"):
            PolicyParams(**arrays)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_plan_rejects_non_finite_start(self, value):
        # plan once ranked candidates by all -inf scores from a NaN start.
        with pytest.raises(ValueError, match="s0"):
            plan(ShiftModel(), np.array([value]), config(), seed=0)

    @staticmethod
    def nan_world_model():
        model = build_world_model(4, 2)
        model.reward.arrays()[-1][0] = np.nan
        return model

    def test_plan_rejects_a_model_that_scores_no_candidate_finite(self):
        # A NaN parameter once gave an arbitrary in-bounds action with
        # best_score -inf and no flag.
        cfg = CemConfig(action_low=-np.ones(2), action_high=np.ones(2), candidates=1000,
                        max_iters=3)
        with pytest.raises(ValueError, match="no candidate"):
            plan(self.nan_world_model(), np.zeros(4), cfg, seed=0)

    def test_plan_rejects_an_analytic_model_that_scores_no_candidate_finite(self):
        class DeadModel(ShiftModel):
            def reward_mean(self, s, a):
                return np.full(np.atleast_2d(s).shape[0], -np.inf)

        with pytest.raises(ValueError, match="no candidate"):
            plan(DeadModel(), np.zeros(1), config(), seed=0)

    def test_plan_without_iterations_keeps_its_warning_on_a_dead_model(self):
        # No iteration scores anything, so nothing is rejected: the flag
        # says the action is the initial mean.
        cfg = CemConfig(action_low=-np.ones(2), action_high=np.ones(2), candidates=1000,
                        max_iters=0)
        action, diag = plan(self.nan_world_model(), np.zeros(4), cfg, seed=0)
        assert diag.no_iteration_warning and np.isnan(diag.best_score)
        np.testing.assert_array_equal(action, np.zeros(2))


class TestTrueDynamicsClosedLoop:
    @pytest.mark.parametrize("start_seed", [3936, 0, 1])
    def test_reaches_the_target(self, start_seed):
        # Paper CEM (H = 5, 10 iterations, elite ratio 0.01) at K = 1 000,
        # warm-started by shift_policy, planning on the true dynamics.
        cfg = CemConfig(action_low=-np.ones(2), action_high=np.ones(2), candidates=1000)
        state = env.initial_state(np.random.default_rng(start_seed))
        policy = None
        for step in range(env.EPISODE_LEN):
            s = np.concatenate([state.pos, state.vel, [state.target_height]])
            action, diag = plan(TrueDynamics(), s, cfg, seed=[start_seed, step],
                                initial_policy=policy)
            policy = shift_policy(diag.final_policy, cfg)
            state, reward, _ = env.env_step(state, action)
            if env.is_success(reward):
                return
        pytest.fail(f"no success in {env.EPISODE_LEN} steps from seed {start_seed}")
