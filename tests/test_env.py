"""Dot-reacher environment: dynamics, reward, rendering, data collection."""

import numpy as np
import pytest

from minreal import env
from minreal.errors import ConfigError


def make_state(pos, vel=(0.0, 0.0), target_height=0.3):
    return env.DotReacherState(
        pos=np.asarray(pos, dtype=float),
        vel=np.asarray(vel, dtype=float),
        target_height=target_height,
    )


def decode_image(img):
    """Oracle: recover (pos, target_height) from a rendered image.

    The bar intensity per row is the column median (robust to the dot, which
    touches at most two columns); its centroid gives the target height.
    Subtracting the bar leaves only the dot splat, whose weighted centroid
    gives the position.
    """
    n = env.IMAGE_SIZE
    profile = np.median(img, axis=1)
    bar_height = float((profile * np.arange(n)).sum() / profile.sum()) / (n - 1)
    residual = np.clip(img - profile[:, None], 0.0, None)
    rows, cols = np.nonzero(residual)
    w = residual[rows, cols]
    pos = np.array(
        [(cols * w).sum() / w.sum() / (n - 1), (rows * w).sum() / w.sum() / (n - 1)]
    )
    return pos, bar_height


def straight_line_splits(n_episodes, seed):
    """Oracle: per-record collection, one Transition at a time with one RNG
    stream per episode, split 90/5/5 by episode into flat record lists."""
    episodes = []
    for child in np.random.SeedSequence(seed).spawn(n_episodes):
        rng = np.random.default_rng(child)
        state = env.initial_state(rng)
        obs = env.observe(state)
        records = []
        for _ in range(env.EPISODE_LEN):
            action = env.scripted_action(state, rng, env.DEFAULT_NOISE_STD)
            state, reward, next_obs = env.env_step(state, action)
            records.append(env.Transition(obs, action, next_obs, reward))
            obs = next_obs
        episodes.append(records)
    n_val = max(1, n_episodes // 20) if n_episodes >= 3 else 0
    bounds = [0, n_episodes - 2 * n_val, n_episodes - n_val, n_episodes]
    return [[t for ep in episodes[lo:hi] for t in ep] for lo, hi in zip(bounds, bounds[1:])]


def assert_records_equal(got, want):
    got = list(got)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in ("obs", "next_obs"):
            for part in ("image", "proprio"):
                x, y = getattr(getattr(a, field), part), getattr(getattr(b, field), part)
                assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert a.action.tobytes() == b.action.tobytes()
        assert type(a.reward) is float and a.reward == b.reward


class TestEnvStep:
    def test_reward_zero_at_target_rest(self):
        s = make_state([env.TARGET_X, 0.3], target_height=0.3)
        assert env.reward_of(s) == pytest.approx(0.0)

    def test_reward_success_example(self):
        # e = 0.01, |v| = 0.02 -> r = -(0.01 + 0.3*0.02) = -0.016, success
        s = make_state([env.TARGET_X + 0.01, 0.3], vel=[0.02, 0.0], target_height=0.3)
        r = env.reward_of(s)
        assert r == pytest.approx(-0.016)
        assert env.is_success(r)

    def test_reward_not_success_at_distance(self):
        s = make_state([env.TARGET_X + 0.1, 0.3], target_height=0.3)
        r = env.reward_of(s)
        assert r == pytest.approx(-0.1)
        assert not env.is_success(r)

    def test_double_integrator_update(self):
        s = make_state([0.5, 0.5], vel=[0.1, -0.2])
        nxt, _, obs = env.env_step(s, np.array([1.0, 0.5]))
        np.testing.assert_allclose(nxt.vel, [0.2, -0.15])
        np.testing.assert_allclose(nxt.pos, [0.52, 0.485])
        np.testing.assert_allclose(obs.proprio, np.concatenate([nxt.pos, nxt.vel]))

    def test_clamping(self):
        s = make_state([0.99, 0.01], vel=[1.0, -1.0])
        nxt, _, _ = env.env_step(s, np.array([5.0, -5.0]))  # action clipped to +-1
        assert nxt.vel[0] <= env.V_MAX and nxt.vel[1] >= -env.V_MAX
        assert 0.0 <= nxt.pos[0] <= 1.0 and 0.0 <= nxt.pos[1] <= 1.0

    def test_pure_function(self):
        s = make_state([0.4, 0.6], vel=[0.05, 0.0])
        a = np.array([0.3, -0.3])
        r1 = env.env_step(s, a)
        r2 = env.env_step(s, a)
        np.testing.assert_array_equal(r1[0].pos, r2[0].pos)
        assert r1[1] == r2[1]
        np.testing.assert_array_equal(r1[2].image, r2[2].image)

    def test_reward_bounded(self):
        rng = np.random.default_rng(0)
        bound = np.sqrt(2.0) + 0.3 * np.sqrt(2.0) * env.V_MAX
        for _ in range(200):
            s = make_state(rng.uniform(0, 1, 2), rng.uniform(-1, 1, 2), rng.uniform(0.15, 0.45))
            r = env.reward_of(s)
            assert -bound <= r <= 0.0


class TestRender:
    def test_corner_dot(self):
        s = make_state([0.0, 0.0], target_height=0.45)
        img = env.render(s)
        assert img[0, 0] == pytest.approx(1.0)

    def test_bar_rows_only_differ(self):
        a = env.render(make_state([0.2, 0.8], target_height=0.2))
        b = env.render(make_state([0.2, 0.8], target_height=0.4))
        diff_rows = np.unique(np.nonzero(np.any(a != b, axis=1))[0])
        bar_rows = set()
        for z in (0.2, 0.4):
            r = int(np.floor(z * (env.IMAGE_SIZE - 1)))
            bar_rows.update((r, r + 1))
        assert set(diff_rows).issubset(bar_rows)

    def test_pixel_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = make_state(rng.uniform(0, 1, 2), target_height=rng.uniform(0.15, 0.45))
            img = env.render(s)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_decode_oracle_recovers_state(self):
        rng = np.random.default_rng(2)
        px_tol = 1.0 / (env.IMAGE_SIZE - 1)
        for _ in range(60):
            pos = rng.uniform(0.05, 0.95, 2)
            z = rng.uniform(0.15, 0.45)
            img = env.render(make_state(pos, target_height=z))
            dec_pos, dec_z = decode_image(img)
            assert np.max(np.abs(dec_pos - pos)) <= px_tol
            assert abs(dec_z - z) <= px_tol


class TestCollect:
    def test_noise_free_controller_succeeds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = env.initial_state(rng)
            done = False
            for _ in range(env.EPISODE_LEN):
                state, r, _ = env.env_step(state, env.scripted_action(state))
                if env.is_success(r):
                    done = True
                    break
            assert done, f"controller failed from {state}"

    def test_same_seed_identical(self):
        a = env.collect_dataset(5, seed=42)
        b = env.collect_dataset(5, seed=42)
        for ta, tb in zip(a.train, b.train):
            np.testing.assert_array_equal(ta.obs.image, tb.obs.image)
            np.testing.assert_array_equal(ta.action, tb.action)
            assert ta.reward == tb.reward

    def test_split_sizes(self):
        ds = env.collect_dataset(100, seed=0)
        assert ds.total == 100 * env.EPISODE_LEN
        assert len(ds.val) == 5 * env.EPISODE_LEN
        assert len(ds.test) == 5 * env.EPISODE_LEN

    def test_transition_count_scale(self):
        ds = env.collect_dataset(300, seed=1)
        assert 3000 <= ds.total <= 6000

    def test_zero_episodes_rejected(self):
        with pytest.raises(ConfigError):
            env.collect_dataset(0)


def make_episodes(e=2, t=3, seed=0):
    rng = np.random.default_rng(seed)
    return env.Episodes(rng.uniform(size=(e, t + 1, env.OBS_DIM)),
                        rng.normal(size=(e, t, env.ACTION_DIM)), rng.normal(size=(e, t)))


class TestEpisodes:
    @pytest.mark.parametrize("obs, action, reward", [
        ((2, 3, env.OBS_DIM), (2, 3, env.ACTION_DIM), (2, 3)),  # obs lacks a step
        ((2, 5, env.OBS_DIM), (2, 3, env.ACTION_DIM), (2, 3)),
        ((2, 4, env.OBS_DIM - 1), (2, 3, env.ACTION_DIM), (2, 3)),
        ((2, 4, env.OBS_DIM), (2, 3, env.ACTION_DIM + 1), (2, 3)),
        ((2, 4, env.OBS_DIM), (2, 2, env.ACTION_DIM), (2, 3)),
        ((2, 4, env.OBS_DIM), (2, 3, env.ACTION_DIM), (1, 3)),
        ((2, 4, env.OBS_DIM), (2, 3, env.ACTION_DIM), (6,)),
        ((8, env.OBS_DIM), (2, 3, env.ACTION_DIM), (2, 3)),
    ])
    def test_shape_mismatch_rejected(self, obs, action, reward):
        with pytest.raises(ValueError, match="expected"):
            env.Episodes(np.zeros(obs), np.zeros(action), np.zeros(reward))

    def test_len_counts_transitions(self):
        assert len(make_episodes(e=2, t=3)) == 6
        assert len(make_episodes(e=0, t=3)) == 0

    def test_add_concatenates_in_episode_order(self):
        a, b = make_episodes(e=2, seed=1), make_episodes(e=1, seed=2)
        for x, y in ((a + b, (a, b)), (b + a, (b, a))):
            assert len(x) == 9
            for name in ("obs", "action", "reward"):
                np.testing.assert_array_equal(
                    getattr(x, name), np.concatenate([getattr(y[0], name), getattr(y[1], name)]))
        assert_records_equal(a + b, list(a) + list(b))

    def test_record_views_equal_straight_line_records(self):
        ds = env.collect_dataset(25, seed=11)
        want = straight_line_splits(25, seed=11)
        assert [len(s) // env.EPISODE_LEN for s in want] == [23, 1, 1]
        for got, records in zip((ds.train, ds.val, ds.test), want):
            assert_records_equal(got, records)
        assert_records_equal(ds.train + ds.val + ds.test, [t for s in want for t in s])

    def test_observation_matrix_equals_stacked_vectors(self):
        ds = env.collect_dataset(3, seed=4)
        for episodes in (ds.train, ds.train + ds.val + ds.test, make_episodes()):
            got = env.observation_matrix(episodes)
            want = np.stack([t.obs.vector() for t in episodes])
            assert got.tobytes() == want.tobytes() and got.shape == want.shape


class TestTransitionFile:
    def test_round_trip(self, tmp_path):
        ds = env.collect_dataset(2, seed=7)
        path = tmp_path / "t.bin"
        env.save_transitions(path, ds.train)
        back = env.load_transitions(path)
        assert len(back) == len(ds.train)
        for a, b in zip(ds.train, back):
            np.testing.assert_array_equal(a.obs.image, b.obs.image)
            np.testing.assert_array_equal(a.obs.proprio, b.obs.proprio)
            np.testing.assert_array_equal(a.action, b.action)
            np.testing.assert_array_equal(a.next_obs.image, b.next_obs.image)
            assert a.reward == b.reward

    def test_file_bytes_deterministic(self, tmp_path):
        ds = env.collect_dataset(2, seed=7)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        env.save_transitions(p1, ds.train)
        env.save_transitions(p2, ds.train)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"garbage")
        with pytest.raises(ValueError):
            env.load_transitions(p)
