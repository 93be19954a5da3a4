"""World model: NLL loss, rollouts, dataset encoding, persistence."""

import ctypes
import glob
import json
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from minreal import autodiff as ad
from minreal import cem, world
from minreal.latent import build_mask
from minreal.nets import Mlp, MlpSpec, load_checkpoint
from minreal.qvae import ObservationClass, build_qvae
from minreal.tsallis import QParams
from minreal.world import (
    ROLLOUT_WORKERS,
    WorldDataset,
    WorldModel,
    WorldTrainConfig,
    build_world_model,
    encode_dataset,
    heldout_nll,
    load_world,
    load_world_dataset,
    rollout,
    rollout_batch,
    save_world,
    save_world_dataset,
    train_world,
    wm_loss,
)
from test_autodiff import F32_RTOL
from test_env import make_state
from test_qvae import loss_node_count
from minreal import env


class AnalyticModel:
    """s' = s + a, r = -s^2 (summed over dims), evaluated pre-transition."""

    def dynamics_mean(self, s, a):
        return np.atleast_2d(s) + np.atleast_2d(a)

    def reward_mean(self, s, a):
        s = np.atleast_2d(s)
        return -np.sum(s * s, axis=1)


class Explodes(AnalyticModel):
    """AnalyticModel whose next state is NaN once it leaves [-2, 2]."""

    def dynamics_mean(self, s, a):
        out = super().dynamics_mean(s, a)
        return np.where(np.abs(out) > 2.0, np.nan, out)


class CountingModel(AnalyticModel):
    # rollout_batch may call it from several threads at once.
    def __init__(self):
        self.dyn_calls = 0
        self._lock = threading.Lock()

    def dynamics_mean(self, s, a):
        with self._lock:
            self.dyn_calls += 1
        return super().dynamics_mean(s, a)


# Block size the block-structure tests patch in, so that they stay small
# and their ids do not depend on the module's ROLLOUT_BLOCK_ROWS.
SMALL_BLOCK_ROWS = 64


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(world, "ROLLOUT_BLOCK_ROWS", SMALL_BLOCK_ROWS)
    return SMALL_BLOCK_ROWS


def sequential_rollout_batch(model, s0, action_seqs):
    """rollout_batch's blocks scored one after another on the calling
    thread, with no BLAS thread limit: the oracle rollout_batch must equal
    bit for bit. The model runs in float32 for float32 action_seqs, and the
    block size is world.ROLLOUT_BLOCK_ROWS at call time."""
    action_seqs = np.asarray(action_seqs)
    if action_seqs.dtype != np.float32:
        action_seqs = action_seqs.astype(np.float64)
    k, horizon, _ = action_seqs.shape
    s0 = np.asarray(s0, dtype=action_seqs.dtype)
    scores = np.empty(k)
    rows = world.ROLLOUT_BLOCK_ROWS
    for lo in range(0, k, rows):
        block = action_seqs[lo : lo + rows]
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
        scores[lo : lo + rows] = total
    return scores


def _find_blas_thread_count():
    """The thread-count getter of numpy's bundled OpenBLAS, found apart
    from minreal's own lookup, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn
    return None


BLAS_THREADS = _find_blas_thread_count()


def blas_threads():
    """OpenBLAS's thread count, or None when no OpenBLAS is found (the
    count assertions then compare None with None)."""
    return None if BLAS_THREADS is None else BLAS_THREADS()


def numpy_blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy < 1.26 has no mode="dicts"
        return None


class RecordingModel(AnalyticModel):
    """Records the BLAS thread count, the thread and the row count of every
    reward call."""

    def __init__(self):
        self.seen = []

    def reward_mean(self, s, a):
        self.seen.append((blas_threads(), threading.current_thread(), len(s)))
        return super().reward_mean(s, a)


class FailsInPoolThread(AnalyticModel):
    """Raises one ValueError object from any thread but the main one."""

    error = ValueError("raised in a pool thread")

    def reward_mean(self, s, a):
        if threading.current_thread() is not threading.main_thread():
            raise self.error
        return super().reward_mean(s, a)


def constant_world_model(mean_bias=0.0, ls_bias=0.0, r_bias=0.0, r_ls_bias=0.0):
    """1-D world model whose nets always output fixed parameters."""
    model = build_world_model(1, 1, hidden=(4, 4), seed=0)
    for net, biases in ((model.dynamics, (mean_bias, ls_bias)),
                        (model.reward, (r_bias, r_ls_bias))):
        net.param.data[...] = 0.0
        net.arrays()[-1][...] = biases
    return model


def make_dataset(n=32, sd=2, ad_=2, seed=0):
    rng = np.random.default_rng(seed)
    return WorldDataset(
        states=rng.normal(size=(n, sd)),
        actions=rng.normal(size=(n, ad_)),
        next_states=rng.normal(size=(n, sd)),
        rewards=rng.normal(size=n),
    )


class TestWorldDataset:
    @pytest.mark.parametrize("field, shape", [
        ("states", (8,)), ("states", (8, 2, 1)), ("actions", (8,)),
        ("next_states", (8,)), ("rewards", (8, 1)), ("rewards", ()),
    ])
    def test_wrong_rank_rejected_naming_the_field(self, field, shape):
        # Rewards of shape (N, 1) once broadcast against (N,) in
        # heldout_nll and wm_loss and scored a wrong NLL.
        arrays = dict(vars(make_dataset(n=8)))
        arrays[field] = np.zeros(shape)
        with pytest.raises(ValueError, match=field):
            WorldDataset(**arrays)


class TestWmLoss:
    def test_exact_mean_unit_sigma_nll(self):
        model = constant_world_model(mean_bias=0.7, r_bias=-0.3)
        ds = WorldDataset(
            states=np.zeros((5, 1)),
            actions=np.zeros((5, 1)),
            next_states=np.full((5, 1), 0.7),
            rewards=np.full(5, -0.3),
        )
        _, (dyn_nll, rew_nll) = wm_loss(model, ds)
        assert dyn_nll == pytest.approx(0.9189385332046727, abs=1e-12)
        assert rew_nll == pytest.approx(0.9189385332046727, abs=1e-12)

    @staticmethod
    def doubled_sigma_nlls():
        base = constant_world_model(mean_bias=0.7, r_bias=-0.3)
        wide = constant_world_model(mean_bias=0.7, ls_bias=np.log(2.0), r_bias=-0.3)
        ds = WorldDataset(
            states=np.zeros((4, 1)),
            actions=np.zeros((4, 1)),
            next_states=np.full((4, 1), 0.7),
            rewards=np.full(4, -0.3),
        )
        _, (d0, _) = wm_loss(base, ds)
        _, (d1, _) = wm_loss(wide, ds)
        return d0, d1

    @pytest.mark.usefixtures("float64_graph")
    def test_doubling_sigma_adds_log2(self):
        d0, d1 = self.doubled_sigma_nlls()
        assert d1 - d0 == pytest.approx(np.log(2.0), abs=1e-12)

    def test_doubling_sigma_adds_log2_float32(self):
        d0, d1 = self.doubled_sigma_nlls()
        assert d1 - d0 == pytest.approx(np.log(2.0), rel=F32_RTOL)

    @staticmethod
    def clamped_head_nlls():
        """(dynamics, reward) NLLs on the graph and on the tape-free path of
        a model whose log-std biases lie beyond the clamp, 5.0 and -10.0;
        neither bias gets a gradient."""
        model = constant_world_model(mean_bias=0.7, ls_bias=5.0, r_bias=-0.3,
                                     r_ls_bias=-10.0)
        ds = WorldDataset(
            states=np.zeros((4, 1)),
            actions=np.zeros((4, 1)),
            next_states=np.full((4, 1), 0.7),
            rewards=np.full(4, -0.3),
        )
        loss, graph = wm_loss(model, ds)
        _, dyn, rew = heldout_nll(model, ds)
        grads = ad.backward(loss, model.parameters())
        for net, grad in zip((model.dynamics, model.reward), grads):
            assert net.arrays(grad)[-1][1] == 0.0
        return graph, (dyn, rew)

    # The clamped biases score as the bracket's ends, 2.0 and -6.0: at the
    # mean the NLL is log sigma + log(2 pi) / 2.
    CLAMPED_NLLS = (2.0 + 0.5 * np.log(2.0 * np.pi), -6.0 + 0.5 * np.log(2.0 * np.pi))

    @pytest.mark.usefixtures("float64_graph")
    def test_log_std_heads_clamped(self):
        for nlls in self.clamped_head_nlls():
            assert nlls == pytest.approx(self.CLAMPED_NLLS, abs=1e-12)

    def test_log_std_heads_clamped_float32(self):
        graph, tape_free = self.clamped_head_nlls()
        assert graph == pytest.approx(self.CLAMPED_NLLS, rel=F32_RTOL)
        assert tape_free == pytest.approx(self.CLAMPED_NLLS, abs=1e-12)

    @staticmethod
    def loss_and_heldout_nll():
        model = build_world_model(3, 2, seed=4)
        ds = make_dataset(n=16, sd=3, ad_=2, seed=5)
        loss, (dyn_nll, rew_nll) = wm_loss(model, ds)
        return (float(loss.data), dyn_nll, rew_nll), heldout_nll(model, ds)

    @pytest.mark.usefixtures("float64_graph")
    def test_matches_tape_free_oracle(self):
        graph, tape_free = self.loss_and_heldout_nll()
        assert graph == pytest.approx(tape_free, rel=1e-12)

    def test_matches_tape_free_oracle_float32(self):
        graph, tape_free = self.loss_and_heldout_nll()
        assert graph == pytest.approx(tape_free, rel=F32_RTOL)

    def test_empty_batch_rejected(self):
        model = build_world_model(2, 2, seed=0)
        with pytest.raises(ValueError):
            wm_loss(model, make_dataset(n=0))

    def test_loss_records_at_most_7_nodes(self):
        # the two nets, their two Gaussian densities and the add / mean /
        # neg that finish the loss.
        loss, _ = wm_loss(build_world_model(3, 2, seed=4), make_dataset(n=16, sd=3, ad_=2))
        assert loss_node_count(loss) <= 7

    def test_heldout_nll_rejects_empty_dataset(self):
        model = build_world_model(2, 2, seed=0)
        with pytest.raises(ValueError, match="ds"):
            heldout_nll(model, make_dataset(n=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["states", "actions", "next_states", "rewards"])
    def test_heldout_nll_rejects_non_finite_data(self, field, bad):
        model = build_world_model(2, 2, seed=0)
        ds = make_dataset(n=8, seed=1)
        getattr(ds, field)[3] = bad
        with pytest.raises(ValueError, match=rf"ds\.{field}"):
            heldout_nll(model, ds)


class TestRollout:
    def test_empty_actions(self):
        states, rewards = rollout(AnalyticModel(), np.zeros(1), np.zeros((0, 1)))
        assert states.shape == (0, 1) and rewards.shape == (0,)

    def test_analytic_hand_simulation(self):
        states, rewards = rollout(
            AnalyticModel(), np.zeros(1), np.array([[1.0], [-1.0]])
        )
        np.testing.assert_allclose(states[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(rewards, [0.0, -1.0])

    def test_deterministic(self):
        model = build_world_model(2, 2, seed=7)
        actions = np.random.default_rng(0).normal(size=(5, 2))
        a = rollout(model, np.zeros(2), actions)
        b = rollout(model, np.zeros(2), actions)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_calls_dynamics_exactly_h_times(self):
        model = CountingModel()
        rollout(model, np.zeros(2), np.zeros((7, 2)))
        assert model.dyn_calls == 7

    def test_nonfinite_truncates_with_neg_inf(self):
        # s_3 = 3 explodes: r_2 = -4 was scored before it, rewards from 3 on
        # are -inf, and states from s_3 (states[2]) on are NaN.
        states, rewards = rollout(Explodes(), np.zeros(1), np.full((5, 1), 1.0))
        np.testing.assert_array_equal(rewards, [0.0, -1.0, -4.0, -np.inf, -np.inf])
        np.testing.assert_array_equal(states[:2, 0], [1.0, 2.0])
        assert np.all(np.isnan(states[2:]))

    @pytest.mark.parametrize("k", [
        6,
        pytest.param(SMALL_BLOCK_ROWS, id="one_block"),
        pytest.param(2 * SMALL_BLOCK_ROWS + 20, id="ragged_last_block"),
    ])
    def test_batch_matches_single(self, small_blocks, k):
        # below one block, exactly one block, ragged last block
        model = build_world_model(2, 2, seed=8)
        rng = np.random.default_rng(1)
        cands = rng.normal(size=(k, 4, 2))
        s0 = rng.normal(size=2)
        batch_scores = rollout_batch(model, s0, cands)
        for i in range(k):
            _, rewards = rollout(model, s0, cands[i])
            total = rewards.sum()
            assert abs(batch_scores[i] - total) <= 1e-12 * max(1.0, abs(total))

    @pytest.mark.parametrize("horizon", [0, 1, 4])
    def test_batch_skips_unscored_last_dynamics_step(self, small_blocks, horizon):
        model = CountingModel()
        k = 2 * small_blocks + 5
        rollout_batch(model, np.zeros(2), np.zeros((k, horizon, 2)))
        assert model.dyn_calls == max(horizon - 1, 0) * 3

    def test_nonfinite_final_state_is_not_scored(self):
        # s_3 = 3 explodes, but no reward is computed at s_3.
        actions = np.full((3, 1), 1.0)
        states, rewards = rollout(Explodes(), np.zeros(1), actions)
        assert np.isnan(states[-1, 0])
        np.testing.assert_array_equal(rewards, [0.0, -1.0, -4.0])
        score = rollout_batch(Explodes(), np.zeros(1), actions[None])
        np.testing.assert_array_equal(score, [rewards.sum()])

    def test_exploding_candidate_in_second_block(self, small_blocks):
        rng = np.random.default_rng(2)
        cands = rng.uniform(-0.5, 0.5, size=(small_blocks + 40, 3, 1))
        bad = small_blocks + 7
        cands[bad] = 1.5  # s_2 = 3 explodes and feeds r_2
        scores = rollout_batch(Explodes(), np.zeros(1), cands)
        assert np.isneginf(scores[bad])
        rest = np.delete(np.arange(cands.shape[0]), bad)
        np.testing.assert_array_equal(
            scores[rest], rollout_batch(Explodes(), np.zeros(1), cands[rest])
        )
        assert np.all(np.isfinite(scores[rest]))


def planner_candidates(k, state_dim, seed):
    """k planner-shaped candidates (6 steps, 2 action dims) and a start
    state; the last candidate's actions turn NaN at step 1, so it explodes
    in the last block."""
    rng = np.random.default_rng(seed)
    cands = rng.uniform(-1.0, 1.0, size=(k, 6, 2))
    if k:
        cands[-1, 1:] = np.nan
    return rng.normal(scale=0.3, size=state_dim), cands


def assert_bitwise_equal_to_sequential_blocks(state_dim, k):
    model = build_world_model(state_dim, 2, seed=state_dim)
    s0, cands = planner_candidates(k, state_dim, seed=k)
    for dtype in (np.float64, np.float32):
        scores = rollout_batch(model, s0, cands.astype(dtype))
        assert scores.dtype == np.float64
        expected = sequential_rollout_batch(model, s0, cands.astype(dtype))
        assert scores.tobytes() == expected.tobytes()
        if k:
            assert np.isneginf(scores[-1]) and np.all(np.isfinite(scores[:-1]))


class DiesWhenPushed:
    """A world model whose next state is +inf in each row whose action's
    first component exceeds 0.9. With strict, a non-finite state reaching
    its nets fails the call."""

    def __init__(self, model, strict=True):
        self.model = model
        self.strict = strict

    def dynamics_mean(self, s, a):
        out = self.model.dynamics_mean(self._checked(s), a)
        out[a[:, 0] > 0.9] = np.inf
        return out

    def reward_mean(self, s, a):
        return self.model.reward_mean(self._checked(s), a)

    def _checked(self, s):
        assert not self.strict or np.isfinite(s).all(), "a dead state reached the nets"
        return s


class TestDeadCandidates:
    """Candidates whose state turned non-finite score -inf, and their rows
    get a finite state, so no inf or NaN goes through the nets (which warns
    'invalid value encountered in matmul') for the rest of the horizon."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [pytest.param(1000, id="one_block"),
                                   pytest.param(10_000, id="pool_blocks")])
    def test_dead_rows_feed_no_inf_to_the_nets(self, monkeypatch, k, dtype):
        monkeypatch.setattr(world, "ROLLOUT_WORKERS", max(2, ROLLOUT_WORKERS))
        model = build_world_model(5, 2, seed=7)
        rng = np.random.default_rng(8)
        s0 = rng.normal(scale=0.3, size=5)
        cands = rng.uniform(-1.0, 1.0, size=(k, 6, 2)).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scores = rollout_batch(DiesWhenPushed(model), s0, cands)
        # The last action's next state is never computed.
        dead = np.any(cands[:, :-1, 0] > 0.9, axis=1)
        assert 0 < dead.sum() < k
        assert np.all(np.isneginf(scores[dead]))
        # The live rows as scored while dead rows still ran on non-finite
        # states.
        with np.errstate(all="ignore"):
            expected = sequential_rollout_batch(DiesWhenPushed(model, strict=False), s0, cands)
        assert np.all(np.isneginf(expected[dead]))
        assert scores[~dead].tobytes() == expected[~dead].tobytes()


class TestParallelRollout:
    # Planner sizes, at the module's block size.
    @pytest.mark.parametrize("k", [0, 1, 1000, 10_000])
    @pytest.mark.parametrize("state_dim", [20, 5])
    def test_bitwise_equal_to_sequential_blocks(self, state_dim, k):
        assert_bitwise_equal_to_sequential_blocks(state_dim, k)

    @pytest.mark.parametrize("k", [
        pytest.param(SMALL_BLOCK_ROWS, id="one_block"),
        pytest.param(SMALL_BLOCK_ROWS + 1, id="one_block_plus_one"),
    ])
    @pytest.mark.parametrize("state_dim", [20, 5])
    def test_block_edges_bitwise_equal_to_sequential(self, small_blocks, state_dim, k):
        assert_bitwise_equal_to_sequential_blocks(state_dim, k)

    def test_planner_size_scores_one_block_per_thread(self, monkeypatch):
        # K = 10 000 is two 5 000-row blocks, one per thread, with the BLAS
        # count held at one.
        monkeypatch.setattr(world, "ROLLOUT_WORKERS", max(2, ROLLOUT_WORKERS))
        model = RecordingModel()
        rollout_batch(model, np.zeros(1), np.zeros((10_000, 6, 1)))
        rows = {}
        for _, thread, n in model.seen:
            rows.setdefault(thread, []).append(n)
        assert threading.main_thread() in rows
        assert sorted(rows.values()) == [[5_000] * 6] * 2
        if BLAS_THREADS is not None:
            assert {count for count, _, _ in model.seen} == {1}

    @pytest.mark.parametrize("state_dim", [20, 5])
    def test_planner_size_scores_do_not_depend_on_cpu_count(self, monkeypatch, state_dim):
        model = build_world_model(state_dim, 2, seed=state_dim)
        s0, cands = planner_candidates(10_000, state_dim, seed=state_dim)
        for dtype in (np.float64, np.float32):
            default = rollout_batch(model, s0, cands.astype(dtype))
            with monkeypatch.context() as m:
                m.setattr(world, "ROLLOUT_WORKERS", 1)
                one = rollout_batch(model, s0, cands.astype(dtype))
            assert one.tobytes() == default.tobytes()

    @pytest.mark.parametrize("state_dim", [20, 5])
    def test_float32_scores_rank_like_float64(self, state_dim):
        # The planner ranks in float32: same elites as float64 scores, each
        # score within 1e-4 relative, and the exploding candidate -inf in both.
        model = build_world_model(state_dim, 2, seed=state_dim)
        s0, cands = planner_candidates(10_000, state_dim, seed=10_000)
        s64 = rollout_batch(model, s0, cands)
        s32 = rollout_batch(model, s0.astype(np.float32), cands.astype(np.float32))
        np.testing.assert_array_equal(cem.select_elites(s32, 0.01),
                                      cem.select_elites(s64, 0.01))
        assert np.isneginf(s64[-1]) and np.isneginf(s32[-1])
        finite = s64[:-1]
        assert np.all(np.abs(s32[:-1] - finite) <= 1e-4 * np.maximum(1.0, np.abs(finite)))

    def test_plan_at_planner_size_repeats_bytes(self):
        model = build_world_model(20, 2, seed=11)
        cfg = cem.CemConfig(action_low=-np.ones(2), action_high=np.ones(2),
                            candidates=10_000, max_iters=3)
        s0 = np.random.default_rng(3).normal(scale=0.3, size=20)
        (a1, d1), (a2, d2) = (cem.plan(model, s0, cfg, seed=5) for _ in range(2))
        assert a1.tobytes() == a2.tobytes()
        assert d1.final_policy.mean.tobytes() == d2.final_policy.mean.tobytes()
        assert d1.best_score == d2.best_score

    def test_blocks_share_threads_and_blas_held_at_one(self, small_blocks):
        model = RecordingModel()
        before = blas_threads()
        rollout_batch(model, np.zeros(1), np.zeros((3 * small_blocks, 2, 1)))
        assert blas_threads() == before
        threads = {thread for _, thread, _ in model.seen}
        assert threading.main_thread() in threads
        assert (len(threads) > 1) == (ROLLOUT_WORKERS > 1)
        if before is not None:
            assert {count for count, _, _ in model.seen} == {1}

    def test_single_block_runs_on_calling_thread_at_one_blas_thread(self, small_blocks):
        model = RecordingModel()
        before = blas_threads()
        rollout_batch(model, np.zeros(1), np.zeros((small_blocks, 2, 1)))
        assert blas_threads() == before
        held = None if before is None else 1
        assert set(model.seen) == {(held, threading.main_thread(), small_blocks)}

    @pytest.mark.skipif(numpy_blas_name() != "scipy-openblas",
                        reason="numpy does not bundle scipy-openblas")
    def test_bundled_openblas_is_found(self):
        # Without it every BLAS count assertion compares None with None.
        assert world._openblas_thread_functions() is not None
        assert BLAS_THREADS is not None

    def test_blas_count_restored_after_wrong_state_width(self, small_blocks):
        model = build_world_model(3, 2, seed=0)
        before = blas_threads()
        with pytest.raises(ValueError, match="expected state 3"):
            rollout_batch(model, np.zeros(4), np.zeros((3 * small_blocks, 2, 2)))
        assert blas_threads() == before

    @pytest.mark.skipif(ROLLOUT_WORKERS < 2, reason="one CPU: no pool thread")
    def test_pool_thread_error_reaches_caller_unchanged(self, small_blocks):
        before = blas_threads()
        with pytest.raises(ValueError) as info:
            rollout_batch(FailsInPoolThread(), np.zeros(1),
                          np.zeros((2 * small_blocks, 2, 1)))
        assert info.value is FailsInPoolThread.error
        assert blas_threads() == before

    def test_concurrent_callers_get_their_own_scores(self, small_blocks):
        # More callers than CPUs, switching threads often: each must get the
        # scores it gets alone, and the BLAS count must end where it began.
        model = build_world_model(5, 2, seed=1)
        jobs = [planner_candidates(2 * small_blocks + 100, 5, seed=i)
                for i in range(2 * ROLLOUT_WORKERS + 1)]
        alone = [rollout_batch(model, s0, cands) for s0, cands in jobs]
        before = blas_threads()
        results = [None] * len(jobs)

        def call(i):
            results[i] = rollout_batch(model, *jobs[i])

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, alone):
            assert got is not None and got.tobytes() == want.tobytes()
        assert blas_threads() == before


def run_python(script, timeout=60):
    """Runs script in a fresh interpreter that imports this minreal."""
    src = str(Path(world.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestRolloutThreadsAcrossProcesses:
    def test_import_starts_no_pool_thread(self):
        result = run_python("""
            import threading
            import minreal.world
            names = [t.name for t in threading.enumerate()]
            assert not any(n.startswith("minreal-rollout") for n in names), names
        """)
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_rollout_finishes(self):
        # The parent has run a two-block rollout on the pool, so the child
        # inherits a pool whose threads it does not have. The child kills
        # itself by SIGALRM if its rollout hangs, so no process outlives the
        # test.
        result = run_python("""
            import os, signal, sys, warnings
            import numpy as np
            from minreal import world

            world.ROLLOUT_WORKERS = 2
            world.ROLLOUT_BLOCK_ROWS = 64
            model = world.build_world_model(2, 2, seed=0)
            s0, cands = np.zeros(2), np.zeros((128, 3, 2))
            expected = world.rollout_batch(model, s0, cands)
            # Python 3.12+ warns on forking a process with threads.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                signal.alarm(20)
                got = world.rollout_batch(model, s0, cands)
                os._exit(0 if got.tobytes() == expected.tobytes() else 1)
            _, status = os.waitpid(pid, 0)
            sys.exit(os.waitstatus_to_exitcode(status))
        """)
        assert result.returncode == 0, (result.returncode, result.stderr)


class TestEncodeDataset:
    def setup_method(self):
        classes = (
            ObservationClass("proprio", "diag_gaussian", env.PROPRIO_DIM),
            ObservationClass("image", "continuous_bernoulli", env.IMAGE_SIZE**2),
        )
        qp = QParams(q=0.95, class_qs=(0.95, 0.999), class_weights=(50.0, 1.0),
                     beta=50.0, gamma=3.0)
        self.vae = build_qvae(
            classes, latent_dim=6, qparams=qp, encoder_hidden=(32,),
            decoder_hidden=[(8,), (32,)], seed=0,
        )
        self.episodes = env.collect_dataset(2, seed=3).train

    def test_identity_mask_keeps_width(self):
        ds = encode_dataset(self.vae, None, self.episodes)
        assert ds.state_dim == 6
        assert len(ds) == len(self.episodes)

    def test_masked_width(self):
        mask = build_mask(np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]), 0.5)
        ds = encode_dataset(self.vae, mask, self.episodes)
        assert ds.state_dim == 3

    def test_states_are_masked_encoder_means(self):
        mask = build_mask(np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]), 0.5)
        ds = encode_dataset(self.vae, mask, self.episodes)
        obs = np.stack([t.obs.vector() for t in self.episodes])
        expected = self.vae.encode(obs).mean[:, mask.keep]
        np.testing.assert_array_equal(ds.states, expected)

    @pytest.mark.parametrize("keep", [None, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
    def test_equals_two_stack_oracle(self, keep):
        # the straight-line form: encode every record's obs and next_obs
        # separately, then mask each
        mask = None if keep is None else build_mask(np.array(keep), 0.5)
        splits = env.collect_dataset(3, seed=5)
        episodes = splits.train + splits.val + splits.test
        obs = np.stack([t.obs.vector() for t in episodes])
        nxt = np.stack([t.next_obs.vector() for t in episodes])
        s, sp = self.vae.encode(obs).mean, self.vae.encode(nxt).mean
        if mask is not None:
            s, sp = s[:, mask.keep], sp[:, mask.keep]
        ds = encode_dataset(self.vae, mask, episodes)
        for got, want in ((ds.states, s), (ds.next_states, sp),
                          (ds.actions, np.stack([t.action for t in episodes])),
                          (ds.rewards, np.array([t.reward for t in episodes]))):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("col", [0, env.PROPRIO_DIM + 7])  # proprio, image
    def test_non_finite_observation_rejected(self, col, bad):
        obs = self.episodes.obs.copy()
        obs[1, 4, col] = bad
        episodes = env.Episodes(obs, self.episodes.action, self.episodes.reward)
        with pytest.raises(ValueError, match="non-finite values in x"):
            encode_dataset(self.vae, None, episodes)

    def test_deterministic(self):
        a = encode_dataset(self.vae, None, self.episodes)
        b = encode_dataset(self.vae, None, self.episodes)
        assert a.states.tobytes() == b.states.tobytes()


def parameter_count(model):
    return sum(p.data.size for p in model.parameters())


class TestParameterCounts:
    def test_masked_smaller_than_unmasked(self):
        full = parameter_count(build_world_model(12, 2, seed=0))
        masked = parameter_count(build_world_model(5, 2, seed=0))
        assert masked < full
        assert masked / full <= 0.40

    def test_count_is_exact(self):
        model = build_world_model(3, 2, hidden=(4,), seed=0)
        # dynamics: 5*4+4 + 4*6+6 = 54; reward: 5*4+4 + 4*2+2 = 34
        assert parameter_count(model) == 54 + 34


class TestTrainWorld:
    def test_zero_epochs_unchanged(self):
        model = build_world_model(2, 2, seed=1)
        before = [p.data.copy() for p in model.parameters()]
        train_world(model, make_dataset(24), make_dataset(8, seed=9),
                    WorldTrainConfig(epochs=0))
        for p, b in zip(model.parameters(), before):
            assert p.data.tobytes() == b.tobytes()

    def test_same_seed_identical_checkpoints(self, tmp_path):
        def run(path):
            model = build_world_model(2, 2, seed=2)
            train_world(
                model, make_dataset(48, seed=3), make_dataset(12, seed=4),
                WorldTrainConfig(epochs=3, batch_size=16, seed=7), ckpt_path=path,
            )

        run(tmp_path / "a.ckpt")
        run(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("split", ["train_ds", "val_ds"])
    @pytest.mark.parametrize("field", ["states", "actions", "next_states", "rewards"])
    def test_non_finite_data_rejected_before_training(self, tmp_path, split, field):
        model = build_world_model(2, 2, seed=4)
        before = [p.data.copy() for p in model.parameters()]
        data = {"train_ds": make_dataset(24, seed=5), "val_ds": make_dataset(8, seed=6)}
        getattr(data[split], field)[3] = np.inf
        log, ckpt = tmp_path / "world.log", tmp_path / "w.ckpt"
        with pytest.raises(ValueError, match=rf"{split}\.{field}"):
            train_world(model, data["train_ds"], data["val_ds"],
                        WorldTrainConfig(epochs=2, batch_size=8, seed=0),
                        log_path=log, ckpt_path=ckpt)
        assert not log.exists() and not ckpt.exists()
        for p, b in zip(model.parameters(), before):
            assert p.data.tobytes() == b.tobytes()

    def test_empty_val_ds_rejected_before_training(self, tmp_path):
        model = build_world_model(2, 2, seed=4)
        log, ckpt = tmp_path / "world.log", tmp_path / "w.ckpt"
        with pytest.raises(ValueError, match="val_ds"):
            train_world(model, make_dataset(24, seed=5), make_dataset(0),
                        WorldTrainConfig(epochs=2, batch_size=8, seed=0),
                        log_path=log, ckpt_path=ckpt)
        assert not log.exists() and not ckpt.exists()

    def test_learns_predictable_dynamics(self, tmp_path):
        # s' = s + a with small noise is easily learnable; NLL should drop
        rng = np.random.default_rng(11)
        s = rng.uniform(-1, 1, size=(600, 2))
        a = rng.uniform(-1, 1, size=(600, 2))
        sp = s + 0.1 * a + rng.normal(0, 0.01, size=(600, 2))
        r = -np.sum(s * s, axis=1)
        ds = WorldDataset(states=s[:500], actions=a[:500], next_states=sp[:500],
                          rewards=r[:500])
        val = WorldDataset(states=s[500:], actions=a[500:], next_states=sp[500:],
                           rewards=r[500:])
        model = build_world_model(2, 2, seed=3)
        log = tmp_path / "world.log"
        records = train_world(
            model, ds, val, WorldTrainConfig(epochs=40, batch_size=128, seed=1),
            log_path=log,
        )
        assert records[-1]["val_total"] < records[0]["val_total"]
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [(d["stage"], d["epoch"]) for d in lines] == [
            ("world", e) for e in range(1, 41)]
        assert [d["record"] for d in lines] == records


class TestModelWidths:
    """WorldModel takes its state width from the dynamics output, a mean and
    a log-std per state dim, and its action width from the rest of the
    input, which the reward net shares."""

    @staticmethod
    def nets(dynamics=(5, 4, 6), reward=(5, 4, 2)):
        return Mlp(MlpSpec(dynamics, "tanh")), Mlp(MlpSpec(reward, "tanh"))

    def test_widths_from_dynamics_net(self):
        model = WorldModel(*self.nets())
        assert (model.state_dim, model.action_dim) == (3, 2)
        model = build_world_model(4, 1, hidden=(3,))
        assert (model.state_dim, model.action_dim) == (4, 1)

    @pytest.mark.parametrize("dynamics, reward, match", [
        ((5, 4, 7), (5, 4, 2), "dynamics output"),
        ((5, 4, 10), (5, 4, 2), "action"),  # a state of 5 leaves no action
        ((5, 4, 6), (4, 4, 2), "reward input"),
        ((5, 4, 6), (6, 4, 2), "reward input"),
        ((5, 4, 6), (5, 4, 4), "reward output"),
    ])
    def test_inconsistent_nets_rejected(self, dynamics, reward, match):
        with pytest.raises(ValueError, match=match):
            WorldModel(*self.nets(dynamics, reward))

    def test_checkpoint_header_holds_no_widths(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_world(path, build_world_model(3, 2, hidden=(4,)))
        header, _ = load_checkpoint(path, "world")
        assert "state_dim" not in header and "action_dim" not in header


class TestWorldPersistence:
    def test_model_round_trip(self, tmp_path):
        model = build_world_model(3, 2, seed=5)
        path = tmp_path / "w.ckpt"
        save_world(path, model)
        back = load_world(path)
        assert back.state_dim == 3 and back.action_dim == 2
        for a, b in zip(model.parameters(), back.parameters()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_dataset_round_trip(self, tmp_path):
        ds = make_dataset(17, sd=4, ad_=2, seed=6)
        path = tmp_path / "d.bin"
        save_world_dataset(path, ds)
        back = load_world_dataset(path)
        assert back.states.tobytes() == ds.states.tobytes()
        assert back.actions.tobytes() == ds.actions.tobytes()
        assert back.next_states.tobytes() == ds.next_states.tobytes()
        assert back.rewards.tobytes() == ds.rewards.tobytes()

    def test_dataset_file_deterministic(self, tmp_path):
        ds = make_dataset(9, seed=7)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_world_dataset(a, ds)
        save_world_dataset(b, ds)
        assert a.read_bytes() == b.read_bytes()
