import numpy as np
import pytest
from scipy import stats

from costbound.replay import ReplayBuffer


def fill_episode(buf, length, ep_id, done_last=True):
    # frames are 8-bit pixels; each holds the code ep_id * 20 + t
    for t in range(length):
        obs = np.full((2,), (ep_id * 20.0 + t) / 255.0)
        action = np.array([ep_id + 0.5, t * 1.0])
        buf.append(obs, action, reward=ep_id * 10.0 + t, cost=float(t % 2), done=done_last and t == length - 1)


def make_buffer(capacity=1000, obs_shape=(2,), seed=0):
    return ReplayBuffer(capacity, obs_shape, action_dim=2, seed=seed)


def decode(obs):
    """(episode id, timestep) of fill_episode frames."""
    code = np.rint(obs * 255.0)
    return np.floor(code / 20.0), code % 20.0


def test_size_counts_appended_transitions():
    buf = make_buffer()
    fill_episode(buf, 7, 0)
    fill_episode(buf, 5, 1, done_last=False)
    assert len(buf) == 12
    assert buf.num_episodes == 2


def test_eviction_drops_whole_oldest_episodes():
    buf = make_buffer(capacity=10)
    fill_episode(buf, 6, 0)
    fill_episode(buf, 6, 1)
    assert len(buf) <= 10
    assert buf.num_episodes == 1
    batch = buf.sample_sequences(4, 3)
    # only episode 1 remains
    assert np.all(decode(batch.observations[:, :, 0])[0] >= 1.0)


def test_round_trip_is_bit_exact():
    buf = make_buffer()
    rng = np.random.default_rng(1)
    obs = rng.integers(0, 256, size=(4, 2)) / 255.0
    acts = rng.uniform(-1, 1, size=(4, 2))
    rews = rng.normal(size=4)
    costs = np.array([0.0, 1.0, 0.0, 2.0])
    for t in range(4):
        buf.append(obs[t], acts[t], rews[t], costs[t], done=t == 3)
    batch = buf.sample_sequences(1, 3)
    assert np.array_equal(batch.observations[0], obs)
    assert np.array_equal(batch.actions[0], acts[:3])
    assert np.array_equal(batch.rewards[0], rews[:3])
    assert np.array_equal(batch.costs[0], costs[:3])


def test_uint8_storage_round_trips_quantized_pixels():
    buf = ReplayBuffer(100, (1, 2, 2), action_dim=1)
    rng = np.random.default_rng(2)
    frames = rng.integers(0, 256, size=(3, 1, 2, 2)).astype(np.uint8).astype(np.float64) / 255.0
    for t in range(3):
        buf.append(frames[t], np.zeros(1), 0.0, 0.0, done=t == 2)
    batch = buf.sample_sequences(1, 2)
    assert np.array_equal(batch.observations[0], frames)


def test_single_episode_of_exactly_window_size_returns_unique_window():
    buf = make_buffer()
    fill_episode(buf, 4, 0)  # L+1 = 4 transitions for L = 3
    for _ in range(10):
        batch = buf.sample_sequences(2, 3)
        assert np.array_equal(batch.observations[0], batch.observations[1])
        assert batch.observations[0, 0, 1] == 0.0  # starts at t=0


def test_insufficient_data_raises():
    buf = make_buffer()
    fill_episode(buf, 3, 0)
    with pytest.raises(ValueError):
        buf.sample_sequences(1, 3)


def test_windows_never_cross_episode_boundaries():
    buf = make_buffer()
    for ep in range(5):
        fill_episode(buf, 6, ep)
    for _ in range(50):
        batch = buf.sample_sequences(8, 3)
        ep_ids, ts = decode(batch.observations[:, :, 0])
        assert np.all(ep_ids == ep_ids[:, :1])
        # consecutive timestamps within the window
        assert np.all(np.diff(ts, axis=1) == 1.0)


def test_alignment_action_between_observations():
    buf = make_buffer()
    fill_episode(buf, 8, 3)
    batch = buf.sample_sequences(16, 4)
    # action[t][1] encodes the timestep of the observation it was taken at
    ts = decode(batch.observations[:, :-1, 0])[1]
    assert np.all(batch.actions[:, :, 1] == ts)
    assert np.all(batch.rewards == 30.0 + ts)


def test_start_positions_uniform_chi_squared():
    buf = make_buffer(seed=7)
    for ep in range(3):
        fill_episode(buf, 10 + 2 * ep, ep)  # 10, 12, 14 transitions
    length = 5
    position_counts: dict[tuple, int] = {}
    draws = 100_000
    n_windows = buf.num_windows(length)
    batch = buf.sample_sequences(draws, length)
    eps, starts = (a.astype(int) for a in decode(batch.observations[:, 0, 0]))
    for e, s in zip(eps, starts):
        position_counts[(e, s)] = position_counts.get((e, s), 0) + 1
    assert len(position_counts) == n_windows
    observed = np.array(list(position_counts.values()))
    _, p_value = stats.chisquare(observed)
    assert p_value > 0.01


def test_sampling_deterministic_under_seed():
    def draw(seed):
        buf = make_buffer(seed=seed)
        for ep in range(3):
            fill_episode(buf, 9, ep)
        batch = buf.sample_sequences(6, 4)
        return batch.observations

    assert np.array_equal(draw(11), draw(11))
    assert not np.array_equal(draw(11), draw(12))


def test_in_progress_episode_is_sampleable():
    buf = make_buffer()
    fill_episode(buf, 6, 0, done_last=False)  # still open
    batch = buf.sample_sequences(3, 4)
    assert batch.observations.shape == (3, 5, 2)


def test_end_episode_cuts_without_done():
    buf = make_buffer()
    fill_episode(buf, 6, 0, done_last=False)
    buf.end_episode()
    fill_episode(buf, 6, 1, done_last=False)
    batch = buf.sample_sequences(32, 5)
    ep_ids = decode(batch.observations[:, :, 0])[0]
    assert np.all(ep_ids == ep_ids[:, :1])  # no window spans the cut


def test_state_round_trip_preserves_content_and_rng():
    buf = make_buffer(seed=3)
    for ep in range(3):
        fill_episode(buf, 7, ep)
    fill_episode(buf, 4, 9, done_last=False)
    meta, arrays = buf.state()
    clone = make_buffer(seed=99)
    for name, rows in clone.load_state(meta).items():
        rows[...] = arrays[name]
    assert len(clone) == len(buf)
    a = buf.sample_sequences(5, 3)
    b = clone.sample_sequences(5, 3)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.actions, b.actions)


def test_ring_wraparound_keeps_episodes_whole_and_state_chronological():
    buf = make_buffer(capacity=10, seed=5)
    episodes = []  # reference: every episode appended, as (id, length, closed)
    for ep, length in enumerate([4, 5, 3, 6, 4, 2, 5, 3, 4]):
        closed = ep < 8
        fill_episode(buf, length, ep, done_last=closed)
        episodes.append((ep, length, closed))
        # the reference drops whole oldest closed episodes while over capacity
        while sum(n for _, n, _ in episodes) > 10 and episodes[0][2]:
            episodes.pop(0)
        assert len(buf) == sum(n for _, n, _ in episodes)
    meta, arrays = buf.state()
    assert meta["lengths"] == [n for _, n, _ in episodes] and meta["open"]
    assert np.array_equal(arrays["obs"][:, 0], [ep * 20 + t for ep, n, _ in episodes for t in range(n)])
    assert np.array_equal(arrays["rew"], [ep * 10.0 + t for ep, n, _ in episodes for t in range(n)])
    assert np.array_equal(arrays["done"], [c and t == n - 1 for _, n, c in episodes for t in range(n)])
    assert buf.num_windows(2) == sum(max(0, n - 2) for _, n, _ in episodes)
    batch = buf.sample_sequences(200, 2)
    ep_ids, ts = decode(batch.observations[:, :, 0])
    assert np.all(ep_ids == ep_ids[:, :1])
    assert np.all(np.diff(ts, axis=1) == 1.0)
    assert np.array_equal(batch.rewards, ep_ids[:, :-1] * 10.0 + ts[:, :-1])


def test_append_rejects_frames_that_are_not_8_bit_pixels():
    buf = make_buffer()
    for value in (0.5, 256 / 255.0, -1 / 255.0, np.nan):
        with pytest.raises(ValueError):
            buf.append(np.full((2,), value), np.zeros(2), 0.0, 0.0, done=False)
    assert len(buf) == 0


def test_append_rejects_open_episode_longer_than_capacity():
    buf = make_buffer(capacity=5)
    fill_episode(buf, 5, 0, done_last=False)
    with pytest.raises(ValueError):
        buf.append(np.zeros(2), np.zeros(2), 0.0, 0.0, done=False)
    assert len(buf) == 5 and buf.num_windows(4) == 1


def test_load_state_rejects_more_records_than_capacity():
    buf = make_buffer()
    fill_episode(buf, 6, 0)
    fill_episode(buf, 6, 1)
    meta, _ = buf.state()
    with pytest.raises(ValueError):
        make_buffer(capacity=11).load_state(meta)


def test_sampled_frames_are_a_batch_major_view_of_time_major_memory():
    rng = np.random.default_rng(7)
    buf = ReplayBuffer(50, (3, 4, 4), action_dim=1, seed=5)
    count = 0
    for length in (13, 9, 17, 11, 20, 14):  # 84 records: the ring wraps and evicts
        for t in range(length):
            frame = rng.integers(0, 256, size=(3, 4, 4)) / 255.0
            buf.append(frame, np.array([float(count)]), 0.0, 0.0, done=t == length - 1)
            count += 1
    batch = buf.sample_sequences(7, 4)
    # each action holds its record's counter, so the first one locates the window
    rows = (batch.actions[:, 0, 0].astype(np.intp)[:, None] + np.arange(5)) % 50
    want = buf._records["obs"][rows].astype(np.float64) / 255.0
    assert batch.observations.shape == want.shape == (7, 5, 3, 4, 4)
    assert np.ascontiguousarray(batch.observations).tobytes() == want.tobytes()
    assert batch.observations.transpose(1, 0, 2, 3, 4).flags.c_contiguous
