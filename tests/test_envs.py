import bisect
import json
from types import SimpleNamespace

import numpy as np
import pytest

from costbound.envs import (
    ActionRepeat,
    ChainEnvConfig,
    HazardWorld,
    HazardWorldConfig,
    StepResult,
    TabularChainEnv,
)
from costbound.oracle import TabularCMDP, mc_policy_value, mc_return, value_iteration
from costbound.verify import hazard_corridor_cmdp, hazard_corridor_policy


def make_env(**kw):
    return HazardWorld(HazardWorldConfig(**kw))


def test_reset_same_seed_identical_observation():
    env = make_env(seed=3)
    a = env.reset(seed=42)
    b = env.reset(seed=42)
    assert np.array_equal(a, b)


def test_observation_in_unit_range_and_quantized():
    env = make_env()
    obs = env.reset(seed=0)
    assert obs.shape == (3, 16, 16)
    assert obs.min() >= 0.0 and obs.max() <= 1.0
    assert np.array_equal(np.rint(obs * 255.0).astype(np.uint8).astype(np.float64) / 255.0, obs)


def test_different_seeds_give_different_layouts():
    env = make_env()
    differing = 0
    for k in range(100):
        a = env.reset(seed=2 * k)
        b = env.reset(seed=2 * k + 1)
        differing += int(not np.array_equal(a, b))
    assert differing >= 99


def test_cost_zero_far_from_hazards_and_one_inside():
    env = make_env()
    env.reset(seed=1)
    # spawn has clearance from every hazard, so a zero action is safe
    result = env.step(np.zeros(2))
    assert result.cost == 0.0
    env._pos = env._hazards[0].copy()  # place agent exactly on a hazard center
    result = env.step(np.zeros(2))
    assert result.cost == 1.0


def test_scripted_trajectory_counts_hazard_steps_exactly():
    env = make_env(hazard_count=1, episode_limit=10)
    env.reset(seed=5)
    env._hazards = [np.array([5.0, 5.0])]
    env._goal = np.array([9.5, 9.5])
    env._goal_dist = float(np.linalg.norm(env._pos - env._goal))
    env._pos = np.array([5.0, 5.0])
    total_cost = 0.0
    for _ in range(3):
        total_cost += env.step(np.zeros(2)).cost  # sit inside the hazard
    env._pos = np.array([1.0, 1.0])
    for _ in range(7):
        total_cost += env.step(np.zeros(2)).cost
    assert total_cost == 3.0


def test_reward_shaping_tracks_goal_distance():
    env = make_env()
    env.reset(seed=7)
    env._hazards = []
    env._goal = env._pos + np.array([3.0, 0.0])
    env._goal_dist = 3.0
    result = env.step(np.array([1.0, 0.0]))  # straight toward the goal
    assert np.isclose(result.reward, env.cfg.shaping_scale * env.cfg.agent_speed)


def test_goal_contact_pays_bonus_and_relocates():
    env = make_env()
    env.reset(seed=8)
    env._hazards = []
    env._goal = env._pos + np.array([env.cfg.goal_radius * 0.5, 0.0])
    env._goal_dist = float(np.linalg.norm(env._pos - env._goal))
    old_goal = env._goal.copy()
    result = env.step(np.zeros(2))
    assert result.reward >= env.cfg.goal_bonus
    assert not np.array_equal(env._goal, old_goal)


def test_episode_ends_exactly_at_cap_and_step_after_raises():
    env = make_env(episode_limit=4)
    env.reset(seed=9)
    for i in range(4):
        result = env.step(np.zeros(2))
        assert result.done == (i == 3)
    with pytest.raises(RuntimeError):
        env.step(np.zeros(2))


def test_determinism_seed_plus_actions():
    actions = np.random.default_rng(10).uniform(-1, 1, size=(20, 2))

    def run():
        env = make_env()
        env.reset(seed=11)
        out = []
        for a in actions:
            r = env.step(a)
            out.append((r.observation.copy(), r.reward, r.cost, r.done))
        return out

    for (o1, r1, c1, d1), (o2, r2, c2, d2) in zip(run(), run()):
        assert np.array_equal(o1, o2) and r1 == r2 and c1 == c2 and d1 == d2


def test_partial_observability_two_states_same_observation():
    env = make_env(hazard_count=1)
    env.reset(seed=12)
    # hazard far outside the view window: moving it does not change the view
    env._hazards = [np.array([0.5, 0.5])]
    env._pos = np.array([9.0, 9.0])
    obs_a = env._observe()
    env._hazards = [np.array([0.5, 1.5])]
    obs_b = env._observe()
    assert np.array_equal(obs_a, obs_b)
    assert not np.array_equal(env._hazards[0], np.array([0.5, 0.5]))


def test_state_round_trip():
    env = make_env()
    env.reset(seed=13)
    env.step(np.array([0.3, -0.2]))
    state = json.loads(json.dumps(env.get_state()))
    a = env.step(np.array([0.1, 0.9]))
    env.set_state(state)
    b = env.step(np.array([0.1, 0.9]))
    assert np.array_equal(a.observation, b.observation)
    assert a.reward == b.reward and a.cost == b.cost


# -- action repeat ---------------------------------------------------------------


class _ScriptedEnv:
    obs_shape = (1, 1, 1)
    action_dim = 1

    def __init__(self, rewards, costs):
        self.rewards = list(rewards)
        self.costs = list(costs)
        self.i = 0

    def reset(self, seed=None):
        self.i = 0
        return np.zeros((1, 1, 1))

    def step(self, action):
        r, c = self.rewards[self.i], self.costs[self.i]
        self.i += 1
        done = self.i >= len(self.rewards)
        return StepResult(np.full((1, 1, 1), float(self.i)), r, c, done)


def test_action_repeat_one_is_identity():
    env = _ScriptedEnv([0.5, 0.7], [1.0, 0.0])
    wrapped = ActionRepeat(env, 1)
    wrapped.reset()
    r = wrapped.step(np.zeros(1))
    assert r.reward == 0.5 and r.cost == 1.0 and not r.done


def test_action_repeat_sums_rewards_and_costs():
    env = _ScriptedEnv([0.1, 0.2, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0])
    wrapped = ActionRepeat(env, 2)
    wrapped.reset()
    r = wrapped.step(np.zeros(1))
    assert np.isclose(r.reward, 0.3)
    assert r.cost == 2.0
    assert env.i == 2


def test_action_repeat_stops_early_at_done():
    env = _ScriptedEnv([1.0, 2.0, 4.0], [0.0, 0.0, 0.0])
    wrapped = ActionRepeat(env, 5)
    wrapped.reset()
    r = wrapped.step(np.zeros(1))
    assert r.done
    assert np.isclose(r.reward, 7.0)
    assert env.i == 3


def test_wrapper_preserves_episode_cost_accounting():
    env = make_env(episode_limit=20)
    wrapped = ActionRepeat(env, 2)
    rng = np.random.default_rng(14)

    base = make_env(episode_limit=20)
    base.reset(seed=15)
    wrapped.reset(seed=15)
    actions = rng.uniform(-1, 1, size=(10, 2))
    base_cost = 0.0
    for a in actions:
        base_cost += base.step(a).cost
        base_cost += base.step(a).cost
    wrapped_cost = sum(wrapped.step(a).cost for a in actions)
    assert base_cost == wrapped_cost


# -- tabular chain env ---------------------------------------------------------------


def two_state_chain(gamma_c=0.995):
    # state 1 is absorbing and hazardous under action "stay" (0)
    transitions = np.zeros((2, 2, 2))
    transitions[0, 0, 0] = 1.0  # stay in safe state
    transitions[0, 1, 1] = 1.0  # move to hazard
    transitions[1, 0, 1] = 1.0  # stay in hazard
    transitions[1, 1, 0] = 1.0  # escape
    rewards = np.zeros((2, 2))
    costs = np.array([[0.0, 0.0], [1.0, 1.0]])
    return TabularCMDP(transitions, rewards, costs, gamma=0.99, cost_gamma=gamma_c)


def test_chain_discounted_cost_matches_geometric_series():
    m = two_state_chain()
    stay = np.array([[1.0, 0.0], [1.0, 0.0]])
    q = value_iteration(m, stay, signal="cost")
    assert np.isclose(q[1, 0], 1.0 / (1.0 - 0.995), atol=1e-6)


def test_chain_env_deterministic_rollout_matches_tables():
    m = two_state_chain()
    env = TabularChainEnv(ChainEnvConfig(m, episode_limit=5, seed=0))
    env.reset(seed=1)
    r = env.step(1)  # move into hazard
    assert r.cost == 0.0  # cost is charged for the state-action pair occupied
    r = env.step(0)  # stay in hazard
    assert r.cost == 1.0
    assert np.isclose(r.observation[0, 0, 0], 1.0)


def test_chain_env_empirical_returns_match_oracle():
    m = two_state_chain(gamma_c=0.9)
    policy_table = np.array([[0.7, 0.3], [0.5, 0.5]])
    q = value_iteration(m, policy_table, signal="cost")
    v0 = float(policy_table[0] @ q[0])
    (mean, se), _ = _scalar_mc_value(m, policy_table, 14, episodes=4000, horizon=200, signal="cost")
    assert abs(mean - v0) <= 3 * se + 1e-6


def test_chain_env_rejects_out_of_range_action():
    env = TabularChainEnv(ChainEnvConfig(two_state_chain(), episode_limit=3))
    env.reset(seed=0)
    with pytest.raises(ValueError):
        env.step(5)


class _NumpyChainEnv:
    """``TabularChainEnv``'s reset, step and observation as they were on
    numpy arrays: the reference for the Python-scalar path."""

    def __init__(self, config: ChainEnvConfig):
        m = config.cmdp
        self.cfg = config
        self.cmdp = m
        self._rng = np.random.default_rng(config.seed)
        cdf = np.cumsum(m.transitions, axis=2)
        self._cdf = cdf / cdf[..., -1:]
        self._state = m.initial_state
        self._steps = 0
        self._done = True

    def _observe(self) -> np.ndarray:
        denom = max(self.cmdp.num_states - 1, 1)
        return np.array([[[self._state / denom]]], dtype=np.float64)

    def reset(self, seed=None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._state = self.cmdp.initial_state
        self._steps = 0
        self._done = False
        return self._observe()

    def step(self, action) -> StepResult:
        a = int(action)
        reward = float(self.cmdp.rewards[self._state, a])
        cost = float(self.cmdp.costs[self._state, a])
        self._state = int(self._cdf[self._state, a].searchsorted(self._rng.random(), side="right"))
        self._steps += 1
        self._done = self._steps >= self.cfg.episode_limit
        return StepResult(self._observe(), reward, cost, self._done)


def random_ten_state_cmdp():
    """10 states, 3 actions; about a third of the transition entries are zero,
    so CDF rows hold ties that a draw can land on."""
    rng = np.random.default_rng(21)
    t = rng.uniform(size=(10, 3, 10)) * (rng.uniform(size=(10, 3, 10)) < 0.65)
    t[:, :, 0] += 1e-3
    t /= t.sum(axis=2, keepdims=True)
    return TabularCMDP(t, rng.normal(size=(10, 3)), rng.uniform(size=(10, 3)), initial_state=4)


@pytest.mark.parametrize("make_cmdp", [hazard_corridor_cmdp, random_ten_state_cmdp])
def test_scalar_chain_env_matches_the_numpy_reference(make_cmdp):
    m = make_cmdp()
    config = ChainEnvConfig(m, episode_limit=37, seed=5)
    env, ref = TabularChainEnv(config), _NumpyChainEnv(config)
    actions = np.random.default_rng(8).integers(m.num_actions, size=100_000).tolist()
    reset_seeds = [None, 0, 1, None, 2**40 + 3, 99, None]
    steps = episodes = 0
    while steps < len(actions):
        seed = reset_seeds[episodes % len(reset_seeds)]
        prev = env.reset(seed=seed)
        assert prev.tobytes() == ref.reset(seed=seed).tobytes()
        episodes += 1
        done = False
        while not done and steps < len(actions):
            r, q = env.step(actions[steps]), ref.step(actions[steps])
            steps += 1
            assert (env._state, r.reward, r.cost, r.done) == (ref._state, q.reward, q.cost, q.done)
            assert type(r.reward) is float and type(r.cost) is float
            obs = r.observation
            assert obs.shape == (1, 1, 1) and obs.dtype == np.float64
            assert obs.tobytes() == q.observation.tobytes()
            assert obs.flags.writeable and not np.shares_memory(obs, prev)
            obs[...] = -1.0  # a cached or shared array would show this in a later step
            prev, done = obs, r.done
    assert episodes > 100
    assert env._rng.bit_generator.state == ref._rng.bit_generator.state


def test_chain_env_draw_equal_to_a_cdf_entry_moves_past_it():
    # searchsorted(side="right") as Generator.choice does: u == cdf[k] picks k + 1
    t = np.tile([0.0, 0.5, 0.5], (3, 1, 1))
    config = ChainEnvConfig(TabularCMDP(t, np.zeros((3, 1)), np.zeros((3, 1))), episode_limit=9)
    for env in (TabularChainEnv(config), _NumpyChainEnv(config)):
        env.reset()
        env._rng = SimpleNamespace(random=iter([0.0, 0.5, 0.25, 0.0]).__next__)
        states = []
        for _ in range(4):
            env.step(0)
            states.append(env._state)
        assert states == [1, 2, 1, 1]


def _scalar_mc_value(m, policy, seed, episodes, horizon, signal):
    """``mc_return`` over ``TabularChainEnv`` with one scalar ``bisect_right``
    draw per action from ``default_rng(seed + 2)``, episodes seeded from
    ``seed + 3``: the reference for ``mc_policy_value``. Returns the estimate
    and the policy generator's final state."""
    env = TabularChainEnv(ChainEnvConfig(m, episode_limit=horizon))
    rng = np.random.default_rng(seed + 2)
    cdf = np.cumsum(policy, axis=1)
    cdf = (cdf / cdf[:, -1:]).tolist()  # as Generator.choice normalises it, so the draws equal choice(p=row)
    top = m.num_states - 1

    def act(obs):
        return bisect.bisect_right(cdf[round(obs.item() * top)], rng.random())

    discount = m.cost_gamma if signal == "cost" else m.gamma
    estimate = mc_return(env, act, episodes=episodes, discount=discount, signal=signal, seed=seed + 3)
    return estimate, rng.bit_generator.state


def _ten_state_policy():
    """10 states, 3 actions, with zero entries so that CDF rows hold ties."""
    rng = np.random.default_rng(32)
    table = rng.uniform(size=(10, 3)) * (rng.uniform(size=(10, 3)) < 0.6)
    table[:, 2] += 1e-3
    return table / table.sum(axis=1, keepdims=True)


@pytest.mark.parametrize(
    "m, policy, episodes, horizon, signal",
    [
        # the suite's entry, with episodes that leave a partial block
        (hazard_corridor_cmdp(gamma_c=0.95), hazard_corridor_policy(), 130, 300, "cost"),
        (random_ten_state_cmdp(), _ten_state_policy(), 150, 40, "cost"),
        (random_ten_state_cmdp(), _ten_state_policy(), 150, 40, "reward"),
    ],
    ids=["corridor-cost", "ten-state-cost", "ten-state-reward"],
)
def test_batched_mc_value_matches_scalar_mc_return_bit_for_bit(m, policy, episodes, horizon, signal):
    expected, expected_state = _scalar_mc_value(m, policy, 11, episodes, horizon, signal)
    assert expected[1] > 0.0
    rng = np.random.default_rng(11 + 2)
    got = mc_policy_value(m, policy, rng, 11 + 3, episodes=episodes, horizon=horizon, signal=signal)
    assert [x.hex() for x in got] == [x.hex() for x in expected]
    assert rng.bit_generator.state == expected_state
