import tracemalloc

import numpy as np
import pytest

from costbound import autodiff as ad
from costbound.autodiff import Tensor
from costbound.nn import MLP
from costbound.oracle import (
    TabularCMDP,
    finite_diff_grad,
    grad_rel_error,
    mc_policy_value,
    mc_return,
    value_iteration,
)
from costbound.verify import hazard_corridor_cmdp, hazard_corridor_policy


def test_fd_on_square():
    g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-5)
    assert abs(g[0] - 6.0) <= 1e-8


def test_fd_on_constant_is_zero():
    g = finite_diff_grad(lambda x: 4.2, np.array([1.0, -2.0]), h=1e-5)
    assert np.array_equal(g, np.zeros(2))


def test_fd_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        finite_diff_grad(lambda x: float("nan"), np.array([0.0]))


def test_fd_cross_checks_reverse_mode_on_mlp():
    rng = np.random.default_rng(0)
    net = MLP(4, (6,), 1, rng)
    x_val = rng.normal(size=(3, 4))
    ad.backward(net(Tensor(x_val)).sum())
    p = net.layers[0].w
    base = p.data.copy()

    def f(v):
        p.data = v.reshape(base.shape)
        out = net(Tensor(x_val)).sum().item()
        p.data = base.copy()
        return out

    fd = finite_diff_grad(f, base.ravel())
    assert grad_rel_error(p.grad, fd) <= 1e-4


# -- tabular policy evaluation ------------------------------------------------------


def test_absorbing_unit_cost_gives_one_over_one_minus_gamma():
    transitions = np.ones((1, 1, 1))
    m = TabularCMDP(transitions, np.zeros((1, 1)), np.ones((1, 1)), cost_gamma=0.995)
    q = value_iteration(m, np.ones((1, 1)), signal="cost")
    assert np.isclose(q[0, 0], 200.0, atol=1e-6)


def test_zero_cost_table_gives_zero_values():
    rng = np.random.default_rng(1)
    t = rng.uniform(size=(4, 2, 4))
    t /= t.sum(axis=2, keepdims=True)
    m = TabularCMDP(t, rng.normal(size=(4, 2)), np.zeros((4, 2)))
    q = value_iteration(m, np.full((4, 2), 0.5), signal="cost")
    assert np.allclose(q, 0.0)


def test_row_stochasticity_enforced():
    bad = np.ones((2, 1, 2))
    with pytest.raises(ValueError):
        TabularCMDP(bad, np.zeros((2, 1)), np.zeros((2, 1)))


def test_negative_costs_rejected():
    t = np.zeros((1, 1, 1))
    t[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        TabularCMDP(t, np.zeros((1, 1)), -np.ones((1, 1)))


def test_non_stochastic_policy_rejected():
    t = np.zeros((1, 1, 1))
    t[0, 0, 0] = 1.0
    m = TabularCMDP(t, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        value_iteration(m, np.array([[0.7]]), signal="cost")


def random_cmdp(rng, s=5, a=2, gamma=0.9):
    t = rng.uniform(size=(s, a, s)) ** 2
    t /= t.sum(axis=2, keepdims=True)
    rewards = rng.normal(size=(s, a))
    costs = rng.uniform(size=(s, a))
    return TabularCMDP(t, rewards, costs, gamma=gamma, cost_gamma=gamma)


def test_value_iteration_matches_vectorized_monte_carlo():
    rng = np.random.default_rng(2)
    m = random_cmdp(rng, gamma=0.9)
    policy = rng.uniform(size=(5, 2))
    policy /= policy.sum(axis=1, keepdims=True)
    q = value_iteration(m, policy, signal="cost", tol=1e-12)
    v0 = float(policy[0] @ q[0])

    # vectorized sampler: a million trajectories, horizon to the 1e-6 tail
    n = 1_000_000
    horizon = int(np.ceil(np.log(1e-6 * (1 - m.cost_gamma)) / np.log(m.cost_gamma)))
    states = np.zeros(n, dtype=np.int64)
    returns = np.zeros(n)
    weight = 1.0
    cdf_policy = np.cumsum(policy, axis=1)
    n_actions = cdf_policy.shape[1]
    # one column per threshold; a draw's index is how many thresholds it exceeds
    flat_trans = np.cumsum(m.transitions, axis=2).reshape(-1, m.transitions.shape[2])
    for _ in range(horizon):
        u = rng.uniform(size=n)
        actions = np.zeros(n, dtype=np.int64)
        for j in range(n_actions):
            actions += u > cdf_policy[states, j]
        returns += weight * m.costs[states, actions]
        u2 = rng.uniform(size=n)
        key = states * n_actions + actions
        states = np.zeros(n, dtype=np.int64)
        for j in range(flat_trans.shape[1]):
            states += u2 > flat_trans[key, j]
        weight *= m.cost_gamma
    se = returns.std(ddof=1) / np.sqrt(n)
    assert abs(returns.mean() - v0) <= 3 * se + 1e-5


# -- Monte-Carlo returns -----------------------------------------------------------


class _FixedEnv:
    """Deterministic 3-step env paying rewards 1, 2, 3."""

    def __init__(self):
        self.t = 0

    def reset(self, seed=None):
        self.t = 0
        return np.zeros(1)

    def step(self, action):
        from costbound.envs import StepResult

        self.t += 1
        return StepResult(np.zeros(1), float(self.t), 0.5, self.t >= 3)


def test_mc_return_deterministic_env_zero_stderr():
    mean, se = mc_return(_FixedEnv(), lambda obs: 0, episodes=10)
    assert mean == 6.0 and se == 0.0


def test_mc_return_discount_zero_keeps_first_step_only():
    mean, _ = mc_return(_FixedEnv(), lambda obs: 0, episodes=4, discount=0.0)
    assert mean == 1.0


def test_mc_return_cost_signal():
    mean, se = mc_return(_FixedEnv(), lambda obs: 0, episodes=5, signal="cost")
    assert mean == 1.5 and se == 0.0


def test_mc_return_requires_positive_episodes():
    with pytest.raises(ValueError):
        mc_return(_FixedEnv(), lambda obs: 0, episodes=0)


def test_mc_policy_value_rejects_bad_arguments():
    m = hazard_corridor_cmdp()
    policy = hazard_corridor_policy()
    for kwargs in ({"episodes": 0}, {"horizon": 0}, {"signal": "regret"}):
        args = {"episodes": 2, "horizon": 3, "signal": "cost", **kwargs}
        with pytest.raises(ValueError):
            mc_policy_value(m, policy, np.random.default_rng(0), 0, **args)
    with pytest.raises(ValueError):
        mc_policy_value(m, policy[:, :1], np.random.default_rng(0), 0, episodes=2, horizon=3)


def test_mc_policy_value_holds_one_block_of_draws_at_a_time():
    # the oracle suite's call: 3,000 episodes of 300 steps, 7.2 MB per stream
    # if every draw were held at once
    m, policy = hazard_corridor_cmdp(gamma_c=0.95), hazard_corridor_policy()
    # the first SeedSequence in a process imports `secrets`, about 1 MiB
    mc_policy_value(m, policy, np.random.default_rng(2), 3, episodes=1, horizon=1)
    tracemalloc.start()
    try:
        mc_policy_value(m, policy, np.random.default_rng(2), 3, episodes=3000, horizon=300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
