"""World model: NLL loss, rollouts, dataset encoding, persistence."""

import json

import numpy as np
import pytest

from minreal.latent import build_mask
from minreal.qvae import ObservationClass, build_qvae
from minreal.tsallis import QParams
from minreal.world import (
    ROLLOUT_BLOCK_ROWS,
    WorldDataset,
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
from test_env import make_state
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
    def __init__(self):
        self.dyn_calls = 0

    def dynamics_mean(self, s, a):
        self.dyn_calls += 1
        return super().dynamics_mean(s, a)


def constant_world_model(mean_bias=0.0, ls_bias=0.0, r_bias=0.0, r_ls_bias=0.0):
    """1-D world model whose nets always output fixed parameters."""
    model = build_world_model(1, 1, dyn_hidden=(4, 4), rew_hidden=(4, 4), seed=0)
    for net, biases in ((model.dynamics, (mean_bias, ls_bias)),
                        (model.reward, (r_bias, r_ls_bias))):
        for p in net.params:
            p.data = np.zeros_like(p.data)
        net.params[-1].data = np.array(biases)
    return model


def make_dataset(n=32, sd=2, ad_=2, seed=0):
    rng = np.random.default_rng(seed)
    return WorldDataset(
        states=rng.normal(size=(n, sd)),
        actions=rng.normal(size=(n, ad_)),
        next_states=rng.normal(size=(n, sd)),
        rewards=rng.normal(size=n),
    )


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

    def test_doubling_sigma_adds_log2(self):
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
        assert d1 - d0 == pytest.approx(np.log(2.0), abs=1e-12)

    def test_matches_tape_free_oracle(self):
        model = build_world_model(3, 2, seed=4)
        ds = make_dataset(n=16, sd=3, ad_=2, seed=5)
        loss, (dyn_nll, rew_nll) = wm_loss(model, ds)
        total, dyn, rew = heldout_nll(model, ds)
        assert float(loss.data) == pytest.approx(total, rel=1e-12)
        assert dyn_nll == pytest.approx(dyn, rel=1e-12)
        assert rew_nll == pytest.approx(rew, rel=1e-12)

    def test_empty_batch_rejected(self):
        model = build_world_model(2, 2, seed=0)
        with pytest.raises(ValueError):
            wm_loss(model, make_dataset(n=0))


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

    @pytest.mark.parametrize(
        "k", [6, ROLLOUT_BLOCK_ROWS, 2 * ROLLOUT_BLOCK_ROWS + 452]
    )
    def test_batch_matches_single(self, k):
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
    def test_batch_skips_unscored_last_dynamics_step(self, horizon):
        model = CountingModel()
        k = 2 * ROLLOUT_BLOCK_ROWS + 5
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

    def test_exploding_candidate_in_second_block(self):
        rng = np.random.default_rng(2)
        cands = rng.uniform(-0.5, 0.5, size=(ROLLOUT_BLOCK_ROWS + 40, 3, 1))
        bad = ROLLOUT_BLOCK_ROWS + 7
        cands[bad] = 1.5  # s_2 = 3 explodes and feeds r_2
        scores = rollout_batch(Explodes(), np.zeros(1), cands)
        assert np.isneginf(scores[bad])
        rest = np.delete(np.arange(cands.shape[0]), bad)
        np.testing.assert_array_equal(
            scores[rest], rollout_batch(Explodes(), np.zeros(1), cands[rest])
        )
        assert np.all(np.isfinite(scores[rest]))


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

    def test_deterministic(self):
        a = encode_dataset(self.vae, None, self.episodes)
        b = encode_dataset(self.vae, None, self.episodes)
        assert a.states.tobytes() == b.states.tobytes()


class TestParameterCounts:
    def test_masked_smaller_than_unmasked(self):
        full = build_world_model(12, 2, seed=0)
        masked = build_world_model(5, 2, seed=0)
        assert masked.parameter_count() < full.parameter_count()
        assert masked.parameter_count() / full.parameter_count() <= 0.40

    def test_count_is_exact(self):
        model = build_world_model(3, 2, dyn_hidden=(4,), rew_hidden=(4,), seed=0)
        # dynamics: 5*4+4 + 4*6+6 = 54; reward: 5*4+4 + 4*2+2 = 34
        assert model.parameter_count() == 54 + 34


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
