"""Dot-reacher environment: dynamics, reward, rendering, data collection."""

import hashlib

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


def oracle_vector(pos, vel, target_height):
    """Oracle: one observation vector, straight-line, with a per-pixel loop
    for the dot splat (the one-episode renderer the batched one replaced)."""
    n = env.IMAGE_SIZE
    img = np.zeros((n, n))
    bar_y = target_height * (n - 1)
    bar_row = int(np.floor(bar_y))
    bar_frac = bar_y - bar_row
    img[bar_row, :] += 0.5 * (1.0 - bar_frac)
    if bar_row + 1 < n:
        img[bar_row + 1, :] += 0.5 * bar_frac
    cx, cy = pos[0] * (n - 1), pos[1] * (n - 1)
    col, row = int(np.floor(cx)), int(np.floor(cy))
    fx, fy = cx - col, cy - row
    for dr, dc, w in ((0, 0, (1 - fy) * (1 - fx)), (0, 1, (1 - fy) * fx),
                      (1, 0, fy * (1 - fx)), (1, 1, fy * fx)):
        if row + dr < n and col + dc < n:
            img[row + dr, col + dc] += w
    return np.concatenate([pos, vel, np.clip(img, 0.0, 1.0).ravel()])


def oracle_step(pos, vel, target_height, action):
    """Oracle: one double-integrator step and its reward, each norm taken by
    np.linalg.norm of one 2-vector."""
    action = np.clip(action, -1.0, 1.0)
    vel = np.clip(vel + env.DT * action, -env.V_MAX, env.V_MAX)
    pos = np.clip(pos + env.DT * vel, 0.0, 1.0)
    e = float(np.linalg.norm(pos - np.array([env.TARGET_X, target_height])))
    return pos, vel, -(e + env.VEL_PENALTY * float(np.linalg.norm(vel)))


def oracle_collect(n_episodes, seed):
    """Oracle: the per-episode collector, one episode and one step at a
    time, each step drawing its own 2-vector of action noise. Returns the
    (obs, action, reward) arrays of all episodes in order."""
    obs, actions, rewards = [], [], []
    for child in np.random.SeedSequence(seed).spawn(n_episodes):
        rng = np.random.default_rng(child)
        z = rng.uniform(*env.TARGET_HEIGHT_RANGE)
        px = np.clip(env.TARGET_X + rng.uniform(-env.SPAWN_DX, env.SPAWN_DX), 0.0, 1.0)
        py = np.clip(z + rng.uniform(*env.SPAWN_DY), 0.0, 1.0)
        pos, vel = np.array([px, py]), np.zeros(2)
        obs.append([oracle_vector(pos, vel, z)])
        actions.append([])
        rewards.append([])
        for _ in range(env.EPISODE_LEN):
            a = (env.CONTROLLER_KP * (np.array([env.TARGET_X, z]) - pos)
                 - env.CONTROLLER_KD * vel)
            a = np.clip(a + rng.normal(0.0, env.DEFAULT_NOISE_STD, size=2), -1.0, 1.0)
            pos, vel, r = oracle_step(pos, vel, z, a)
            obs[-1].append(oracle_vector(pos, vel, z))
            actions[-1].append(a)
            rewards[-1].append(r)
    return np.array(obs), np.array(actions), np.array(rewards)


def dense_sum(pos, height):
    """Oracle: the dense rasterizer that render_batch replaced, before its
    clip. Per image axis every pixel gets an anti-aliasing weight: 1 - frac
    on floor(coord), frac on the next pixel, 0 elsewhere. The dot is the
    outer product of its row and column weights, and the bar adds 0.5 times
    its row weight across every column. Returns (E, IMAGE_SIZE, IMAGE_SIZE)."""
    coord = np.column_stack([height, pos[:, ::-1]]) * (env.IMAGE_SIZE - 1)
    cell = np.floor(coord)[..., None]
    frac = coord[..., None] - cell
    pixel = np.arange(env.IMAGE_SIZE)
    w = np.where(pixel == cell, 1.0 - frac, np.where(pixel == cell + 1.0, frac, 0.0))
    img = w[:, 1, :, None] * w[:, 2, None, :]
    img += 0.5 * w[:, 0, :, None]
    return img


def render_into_view(pos, height):
    """render_batch into an observe_batch-style strided view of a NaN-filled
    (E, 3, OBS_DIM) buffer. Returns (images, buffer) so a test can check
    that every pixel was written and nothing outside the images was."""
    buf = np.full((len(pos), 3, env.OBS_DIM), np.nan)
    images = buf[:, 1, env.PROPRIO_DIM:].reshape(-1, env.IMAGE_SIZE, env.IMAGE_SIZE)
    assert np.shares_memory(images, buf)
    env.render_batch(images, pos, height)
    return images, buf


def collection_digest(n, seed):
    """sha256 of the obs, action and reward bytes of collect_dataset(n, seed)."""
    ds = env.collect_dataset(n, seed=seed)
    joined = ds.train + ds.val + ds.test
    h = hashlib.sha256()
    for a in (joined.obs, joined.action, joined.reward):
        h.update(a.tobytes())
    return h.hexdigest()


def edge_batch(e=32, seed=0):
    """(pos, vel, target height, action) rows with walls and clamps: the
    position at 0 and 1 on each axis (the dot on the last image row or
    column), |velocity| at V_MAX, actions outside the box, steps that end
    on a wall, and bars on the first and last rows."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, (e, 2))
    vel = rng.uniform(-env.V_MAX, env.V_MAX, (e, 2))
    height = rng.uniform(*env.TARGET_HEIGHT_RANGE, e)
    action = rng.uniform(-2.0, 2.0, (e, 2))
    pos[:6] = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.3], [0.3, 1.0], [0.0, 1.0], [1.0, 0.0]]
    vel[6:10] = [[env.V_MAX, -env.V_MAX], [-env.V_MAX, env.V_MAX], [env.V_MAX, 0.0],
                 [0.0, -env.V_MAX]]
    pos[6:10] = [[0.99, 0.01], [0.01, 0.99], [1.0, 0.5], [0.5, 0.0]]
    action[6:10] = [[5.0, -5.0], [-5.0, 5.0], [1.0, 0.0], [0.0, -1.0]]
    height[10:12] = [0.0, 1.0]
    return pos, vel, height, action


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


def render_cases():
    """(name, pos, height) batches for the dense-oracle tests."""
    n = env.IMAGE_SIZE - 1
    rng = np.random.default_rng(5)
    centres = np.arange(n + 1) / n  # coord * n is an integer: frac = 0
    y, x = np.meshgrid(centres, centres, indexing="ij")
    grid = np.column_stack([x.ravel(), y.ravel()])
    heights = rng.choice(centres, len(grid))
    edges = np.array([0.0, 1.0, 0.5, rng.uniform()])
    ex, ey, eh = (a.ravel() for a in np.meshgrid(edges, edges, edges, indexing="ij"))
    bar_rows = np.array([0.0, 0.5 / n, 1.0 / n, (n - 1.5) / n, (n - 0.5) / n, 1.0, 1.0 - 1e-12])
    on_bar = np.concatenate([centres, rng.uniform(size=50), [0.0, 1.0]])
    return [
        ("pixel centres", grid, heights),
        ("0 and 1 on each axis", np.column_stack([ex, ey]), eh),
        ("bar on the first and last rows", rng.uniform(size=(len(bar_rows), 2)), bar_rows),
        ("dot on a bar row", np.column_stack([rng.uniform(size=len(on_bar)), on_bar]), on_bar),
        ("one row", rng.uniform(size=(1, 2)), rng.uniform(size=1)),
        ("10 000 random rows", rng.uniform(size=(10_000, 2)), rng.uniform(size=10_000)),
    ]


RENDER_CASES = {name: (pos, height) for name, pos, height in render_cases()}


class TestDenseOracle:
    @pytest.mark.parametrize("name", RENDER_CASES)
    def test_render_batch_equals_dense_rasterizer(self, name):
        pos, height = RENDER_CASES[name]
        images, buf = render_into_view(pos, height)
        want = np.clip(dense_sum(pos, height), 0.0, 1.0)
        assert images.tobytes() == want.tobytes(), name
        assert np.isnan(buf[:, 1, :env.PROPRIO_DIM]).all() and np.isnan(buf[:, ::2]).all()

    def test_cases_reach_the_edges_and_the_clip(self):
        n = env.IMAGE_SIZE - 1
        pos, height = RENDER_CASES["pixel centres"]
        coord = np.column_stack([pos, height]) * n
        assert (coord == np.floor(coord)).all()
        pos, height = RENDER_CASES["0 and 1 on each axis"]
        for a in (pos[:, 0], pos[:, 1], height):
            assert (a == 0.0).any() and (a == 1.0).any()
        _, height = RENDER_CASES["bar on the first and last rows"]
        assert {0, n} <= set(np.floor(height * n).astype(int))
        pos, height = RENDER_CASES["dot on a bar row"]
        assert dense_sum(pos, height).max() > 1.0

    @pytest.mark.parametrize("n, seed, digest", [
        # perfbench's training draw and its held-out draw at seed 1.
        (100, 2208, "1624191e435ee0da53d3a7a19204f310cfa96e30eca8f038d38bf8a0f63a7e22"),
        (300, [1, 1], "a19bc3d653eb5b28e83a4901ba486df0e7bf250c054cc65c32d8e01901765e7d"),
    ])
    def test_collection_bytes_pinned(self, n, seed, digest):
        # The bytes the dense rasterizer and three scalar spawn draws gave.
        assert collection_digest(n, seed) == digest

    def test_spawn_draws_equal_three_scalar_uniforms(self):
        for seed in range(2000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [ref.uniform(*env.TARGET_HEIGHT_RANGE),
                    ref.uniform(-env.SPAWN_DX, env.SPAWN_DX), ref.uniform(*env.SPAWN_DY)]
            assert np.asarray(env._spawn_draws(rng)).tobytes() == np.array(want).tobytes()
            assert rng.random() == ref.random()  # the same point in the stream


# Seeds of every form SeedSequence reads: ints of one to four 32-bit words
# (0 is the word [0], 2**32 - 1 the largest one-word int), a numpy int, and
# lists and tuples of fewer, exactly and more than the pool's four words.
SEEDS = [0, 1, 2208, 2**32 - 1, 2**32, 2**64 + 5, 3**80, np.int64(5), [101, 1], [], (5,),
         [1, 2, 3, 4, 5, 6], [np.uint8(3), 2**33]]


def spawned_state_oracle(seed, n):
    """Oracle: each spawned child's state words, built one child at a time."""
    return np.array([child.generate_state(4, np.uint64)
                     for child in np.random.SeedSequence(seed).spawn(n)])


class TestSpawnedState:
    @pytest.mark.parametrize("n", [1, 2, 300, 1025])
    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_equals_numpy_spawn(self, seed, n):
        got = env._spawned_state(seed, n)
        want = spawned_state_oracle(seed, n)
        assert got.dtype == np.uint64 and got.shape == (n, 4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 2208, [1, 1], [1, 2, 3, 4, 5, 6]], ids=repr)
    def test_generator_draws_as_default_rng(self, seed):
        children = np.random.SeedSequence(seed).spawn(5)
        for words, child in zip(env._spawned_state(seed, 5), children):
            rng = np.random.Generator(np.random.PCG64(env._StateWords(words)))
            ref = np.random.default_rng(child)
            assert rng.random(64).tobytes() == ref.random(64).tobytes()
            assert rng.standard_normal(64).tobytes() == ref.standard_normal(64).tobytes()


NAN, INF = float("nan"), float("inf")


class TestMalformedInput:
    @pytest.mark.parametrize("pos, vel, height", [
        ((NAN, 0.5), (0.0, 0.0), 0.3),
        ((0.5, INF), (0.0, 0.0), 0.3),
        ((0.5,), (0.0, 0.0), 0.3),
        ((0.5, 0.5, 0.5), (0.0, 0.0), 0.3),
        ([[0.5, 0.5]], (0.0, 0.0), 0.3),
        ((1.3, -0.2), (0.0, 0.0), 0.3),
        ((-1e-12, 0.5), (0.0, 0.0), 0.3),
        ((0.5, 1.0 + 1e-12), (0.0, 0.0), 0.3),
        ((0.5, 0.5), (NAN, 0.0), 0.3),
        ((0.5, 0.5), (0.0, -INF), 0.3),
        ((0.5, 0.5), (0.0,), 0.3),
        ((0.5, 0.5), (0.0, 0.0, 0.0), 0.3),
        ((0.5, 0.5), (0.0, 0.0), NAN),
        ((0.5, 0.5), (0.0, 0.0), INF),
        ((0.5, 0.5), (0.0, 0.0), -0.1),
        ((0.5, 0.5), (0.0, 0.0), 1.5),
    ])
    def test_state_rejected(self, pos, vel, height):
        with pytest.raises(ValueError, match=r"2-vectors|\[0, 1\]"):
            env.DotReacherState(pos=pos, vel=vel, target_height=height)

    def test_state_on_the_box_accepted(self):
        for pos, height in (((0.0, 0.0), 0.0), ((1.0, 1.0), 1.0)):
            s = env.DotReacherState(pos=pos, vel=(-5.0, 5.0), target_height=height)
            assert env.render(s).max() == 1.0

    @pytest.mark.parametrize("action", [
        (NAN, 0.1), (0.1, INF), (0.1,), (0.1, 0.2, 0.3), [[0.1, 0.2]]])
    def test_env_step_rejects_action(self, action):
        s = env.initial_state(np.random.default_rng(0))
        with pytest.raises(ValueError, match="action"):
            env.env_step(s, action)

    @pytest.mark.parametrize("pos, height", [
        ((NAN, 0.5), 0.3), ((0.5, NAN), 0.3), ((0.5, 0.5), NAN),
        ((-0.1, 0.5), 0.3), ((0.5, -1e-12), 0.3), ((1.3, 0.5), 0.3),
        ((0.5, 0.5), -0.1), ((0.5, 0.5), 1.0 + 1e-12)])
    def test_render_batch_rejects_coordinate_outside_the_box(self, pos, height):
        # A good row next to the bad one: the whole batch is rejected.
        pos = np.array([(0.5, 0.5), pos])
        height = np.array([0.3, height])
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            env.render_batch(np.empty((2, env.IMAGE_SIZE, env.IMAGE_SIZE)), pos, height)


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

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_non_integer_episode_count_rejected(self, n):
        # 2.5 and True once raised a raw TypeError.
        with pytest.raises(ConfigError, match="n_episodes"):
            env.collect_dataset(n)

    def test_numpy_integer_episode_count_accepted(self):
        assert len(env.collect_dataset(np.int64(3)).train) == len(env.collect_dataset(3).train)


class TestBatchedKernels:
    @pytest.mark.parametrize("seed", [0, 12])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100])
    def test_collect_equals_per_episode_oracle(self, n, seed):
        ds = env.collect_dataset(n, seed=seed)
        got = ds.train + ds.val + ds.test
        for name, want in zip(("obs", "action", "reward"), oracle_collect(n, seed)):
            x = getattr(got, name)
            assert x.shape == want.shape and x.tobytes() == want.tobytes(), name

    def test_edge_batch_hits_every_clamp(self):
        pos, vel, height, action = edge_batch()
        nxt, nvel = env.step_batch(pos, vel, action)
        for p in (pos, nxt):
            assert (p == 0.0).any(axis=0).all() and (p == 1.0).any(axis=0).all()
        assert (np.abs(nvel) == env.V_MAX).any(axis=0).all()
        assert (np.abs(action) > 1.0).any()

    def test_scalar_api_equals_batched_rows_and_oracle(self):
        pos, vel, height, action = edge_batch()
        images = np.empty((len(pos), env.IMAGE_SIZE, env.IMAGE_SIZE))
        env.render_batch(images, pos, height)
        vectors = np.empty((len(pos), env.OBS_DIM))
        env.observe_batch(vectors, pos, vel, height)
        rewards = env.reward_batch(pos, vel, height)
        controls = env.scripted_action_batch(pos, vel, height)
        nxt_pos, nxt_vel = env.step_batch(pos, vel, action)
        nxt_vectors = np.empty_like(vectors)
        env.observe_batch(nxt_vectors, nxt_pos, nxt_vel, height)
        nxt_rewards = env.reward_batch(nxt_pos, nxt_vel, height)
        for e in range(len(pos)):
            s = make_state(pos[e], vel[e], height[e])
            assert env.render(s).tobytes() == images[e].tobytes()
            assert env.observe(s).vector().tobytes() == vectors[e].tobytes()
            assert vectors[e].tobytes() == oracle_vector(pos[e], vel[e], height[e]).tobytes()
            assert env.reward_of(s) == rewards[e]
            assert env.scripted_action(s).tobytes() == controls[e].tobytes()
            nxt, r, o = env.env_step(s, action[e])
            want_pos, want_vel, want_r = oracle_step(pos[e], vel[e], height[e], action[e])
            for got, batched, want in ((nxt.pos, nxt_pos[e], want_pos),
                                       (nxt.vel, nxt_vel[e], want_vel),
                                       (o.vector(), nxt_vectors[e],
                                        oracle_vector(want_pos, want_vel, height[e]))):
                assert got.tobytes() == batched.tobytes() == want.tobytes()
            assert r == nxt_rewards[e] == want_r

    def test_noisy_scripted_action_equals_batched_row(self):
        pos, vel, height, _ = edge_batch()
        noise = np.random.default_rng(4).normal(0.0, 0.1, (len(pos), env.ACTION_DIM))
        batched = env.scripted_action_batch(pos, vel, height, noise)
        for e in range(len(pos)):
            rng = np.random.default_rng(4)
            rng.normal(0.0, 0.1, (e, env.ACTION_DIM))  # skip the rows before e
            got = env.scripted_action(make_state(pos[e], vel[e], height[e]), rng, 0.1)
            assert got.tobytes() == batched[e].tobytes()

    def test_row_norm_equals_linalg_norm_per_row(self):
        # np.linalg.norm of a 2-vector is sqrt of a BLAS dot; sqrt(x*x + y*y)
        # and norm(axis=1) round differently in a few percent of rows.
        rng = np.random.default_rng(9)
        d = rng.normal(size=(100_000, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (100_000, 1))
        want = np.array([np.linalg.norm(row) for row in d])
        assert env.row_norm(d).tobytes() == want.tobytes()

    def test_spawn_batch_equals_initial_state(self):
        draws = [env._spawn_draws(np.random.default_rng(s)) for s in range(5)]
        pos, height = env.spawn_batch(np.array(draws))
        for s in range(5):
            state = env.initial_state(np.random.default_rng(s))
            assert state.pos.tobytes() == pos[s].tobytes()
            assert state.target_height == height[s]
            assert not state.vel.any()


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

    def test_rejoined_splits_are_a_view_of_the_collection(self):
        ds = env.collect_dataset(25, seed=12)
        joined = ds.train + ds.val + ds.test
        for name in ("obs", "action", "reward"):
            parts = [getattr(s, name) for s in (ds.train, ds.val, ds.test)]
            want = np.concatenate(parts)
            got = getattr(joined, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert np.shares_memory(got, parts[0]) and np.shares_memory(got, parts[2])

    def test_other_pairs_are_copied(self, tmp_path):
        ds, other = env.collect_dataset(25, seed=12), env.collect_dataset(25, seed=13)
        for name, split in (("train", ds.train), ("val", ds.val)):
            env.save_transitions(tmp_path / name, split)
        loaded = [env.load_transitions(tmp_path / name) for name in ("train", "val")]
        for a, b in ((ds.val, ds.train), (ds.train, other.val), tuple(loaded)):
            joined = a + b
            for name in ("obs", "action", "reward"):
                got, parts = getattr(joined, name), [getattr(a, name), getattr(b, name)]
                want = np.concatenate(parts)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not any(np.shares_memory(got, p) for p in parts)

    def test_empty_operand(self):
        ds = env.collect_dataset(2, seed=14)  # too few episodes for val and test
        assert len(ds.val) == len(ds.test) == 0
        for a, b in ((ds.train, ds.val), (ds.test, ds.train), (ds.val, ds.test)):
            joined = a + b
            for name in ("obs", "action", "reward"):
                want = np.concatenate([getattr(a, name), getattr(b, name)])
                got = getattr(joined, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("e", [0, 2])
    def test_add_rejects_mismatched_steps(self, e):
        with pytest.raises(ValueError):
            make_episodes(e=e, t=3) + make_episodes(e=2, t=4)

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

    def test_file_bytes_pinned(self, tmp_path):
        # The bytes the one-episode-at-a-time collector wrote for this seed.
        path = tmp_path / "t.bin"
        env.save_transitions(path, env.collect_dataset(10, seed=3).train)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "429ee49f220c8173ceeb57e2a0f6b09bdbbf5af79fe759bead2bcba7cc8b04d9")

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"garbage")
        with pytest.raises(ValueError):
            env.load_transitions(p)
