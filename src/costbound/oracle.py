"""Independent verification utilities: finite differences, tabular policy
evaluation, and Monte-Carlo return estimation.

Nothing here touches the autodiff substrate or the learned critics; these
are the reference implementations the rest of the package is checked
against, so they must stay structurally separate.

There are two Monte-Carlo estimators. ``mc_return`` steps any env through a
policy callable, one scalar draw at a time. ``mc_policy_value`` runs a policy
table on a ``TabularCMDP`` for a block of episodes at once and returns, bit
for bit, what ``mc_return`` returns for the same table on ``TabularChainEnv``;
the oracle suite runs it, because stepping 900k env steps in Python took
most of the suite's time. ``mc_return`` stays for envs without a table, and
as the reference that tests hold the batched sampler to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``x``.

    ``f`` must accept an array shaped like ``x`` and return a float.
    Raises if any evaluation is non-finite.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite evaluation at index {idx}")
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def grad_rel_error(computed: np.ndarray, reference: np.ndarray) -> float:
    """L2 relative error between a gradient and its reference."""
    computed = np.asarray(computed, dtype=np.float64).ravel()
    reference = np.asarray(reference, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(reference), 1e-12)
    return float(np.linalg.norm(computed - reference) / denom)


@dataclass
class TabularCMDP:
    """Finite MDP with separate reward and cost tables.

    transitions: [S, A, S] row-stochastic, rewards/costs: [S, A].
    """

    transitions: np.ndarray
    rewards: np.ndarray
    costs: np.ndarray
    gamma: float = 0.99
    cost_gamma: float = 0.995
    initial_state: int = 0

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.costs = np.asarray(self.costs, dtype=np.float64)
        if self.transitions.ndim != 3 or self.transitions.shape[0] != self.transitions.shape[2]:
            raise ValueError(f"transitions must be [S, A, S], got {self.transitions.shape}")
        s, a, _ = self.transitions.shape
        if self.rewards.shape != (s, a) or self.costs.shape != (s, a):
            raise ValueError("reward/cost tables must be [S, A]")
        row_sums = self.transitions.sum(axis=2)
        if not np.all(np.abs(row_sums - 1.0) <= 1e-12):
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if np.any(self.costs < 0.0):
            raise ValueError("costs must be nonnegative")

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[1]


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative sum of ``p`` along its last axis, divided by its last entry.

    This is how ``Generator.choice(p=row)`` normalises a row before it draws:
    a uniform ``u`` picks the count of entries <= u, which is what
    ``searchsorted(u, side="right")`` and ``bisect.bisect_right`` return.
    """
    cdf = np.cumsum(p, axis=-1)
    return cdf / cdf[..., -1:]


def _policy_table(m: TabularCMDP, policy) -> np.ndarray:
    policy = np.asarray(policy, dtype=np.float64)
    if policy.shape != (m.num_states, m.num_actions):
        raise ValueError("policy table must be [S, A]")
    if not np.all(np.abs(policy.sum(axis=1) - 1.0) <= 1e-9) or np.any(policy < 0.0):
        raise ValueError("policy rows must be stochastic")
    return policy


def _signal(m: TabularCMDP, signal: str):
    """The (table, discount) pair that ``signal`` names."""
    if signal == "cost":
        return m.costs, m.cost_gamma
    if signal == "reward":
        return m.rewards, m.gamma
    raise ValueError(f"unknown signal {signal!r}")


def value_iteration(
    m: TabularCMDP,
    policy: np.ndarray,
    signal: str = "cost",
    tol: float = 1e-10,
    max_iters: int = 2_000_000,
) -> np.ndarray:
    """Q-table of the given stochastic policy, evaluated to ``tol``.

    Iterates Q <- table + gamma * P (sum_a' policy(a'|s') Q(s', a')) until the
    sup-norm change drops below ``tol``. Returns Q of shape [S, A].
    """
    policy = _policy_table(m, policy)
    table, discount = _signal(m, signal)
    q = np.zeros_like(table)
    for _ in range(max_iters):
        v = (policy * q).sum(axis=1)  # [S]
        q_next = table + discount * m.transitions @ v
        delta = np.max(np.abs(q_next - q))
        q = q_next
        if delta < tol:
            return q
    raise RuntimeError(f"policy evaluation did not reach tol={tol} in {max_iters} iterations")


def mc_return(
    env,
    policy,
    episodes: int,
    discount: float = 1.0,
    signal: str = "reward",
    seed: int | None = None,
    max_steps: int | None = None,
):
    """Empirical mean (and standard error) of episode returns under ``policy``.

    ``policy`` is a callable mapping an observation to an action. With
    discount=1 this is the plain undiscounted return. Episodes reset with
    seeds derived from ``seed`` when one is given.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    seeds = None
    if seed is not None:
        seeds = np.random.SeedSequence(seed).generate_state(episodes)
    returns = np.zeros(episodes)
    for ep in range(episodes):
        obs = env.reset(seed=None if seeds is None else int(seeds[ep]))
        total = 0.0
        weight = 1.0
        steps = 0
        while True:
            result = env.step(policy(obs))
            value = result.reward if signal == "reward" else result.cost
            total += weight * value
            weight *= discount
            steps += 1
            obs = result.observation
            if result.done or (max_steps is not None and steps >= max_steps):
                break
        returns[ep] = total
    return _mean_stderr(returns)


# Episodes per block of mc_policy_value: two [block, horizon] arrays of draws
# are live at a time (300 KiB at the suite's horizon of 300), where drawing
# every episode at once would hold 14 MB for the suite's 3,000 episodes.
_BLOCK = 64


def mc_policy_value(
    m: TabularCMDP,
    policy: np.ndarray,
    rng: np.random.Generator,
    seed: int,
    episodes: int,
    horizon: int,
    signal: str = "cost",
):
    """Mean (and standard error) of the discounted return of a policy table,
    from ``episodes`` rollouts of ``horizon`` steps each.

    The result is bit for bit the ``mc_return(env, act, episodes, discount,
    signal, seed)`` of ``env = TabularChainEnv(ChainEnvConfig(m, horizon))``
    and ``act`` drawing ``bisect_right(choice_cdf(policy)[s], rng.random())``
    in state ``s``, with ``discount`` the one ``signal`` names:

    - episode ``i`` draws its next states from ``default_rng(seeds[i])``, the
      seeds being ``mc_return``'s ``SeedSequence(seed).generate_state``;
    - the actions take ``rng``'s draws in the same order, episode by
      episode, since ``rng.random((n, horizon))`` gives the values of
      ``n * horizon`` scalar ``random()`` calls;
    - an action or next state is the count of normalised CDF entries <= u,
      ties included, which is what ``bisect_right`` returns;
    - each return accumulates ``total += weight * value; weight *= discount``
      step by step, in float64 as ``mc_return`` does in Python floats.

    Episodes run in blocks of ``_BLOCK``, one vector operation per step.
    """
    if episodes < 1 or horizon < 1:
        raise ValueError("episodes and horizon must be >= 1")
    policy_cdf = choice_cdf(_policy_table(m, policy))
    transition_cdf = choice_cdf(m.transitions)
    table, discount = _signal(m, signal)
    seeds = np.random.SeedSequence(seed).generate_state(episodes)
    returns = np.zeros(episodes)
    for start in range(0, episodes, _BLOCK):
        n = min(_BLOCK, episodes - start)
        policy_u = rng.random((n, horizon))
        env_u = np.empty((n, horizon))
        for row, episode_seed in zip(env_u, seeds[start : start + n]):
            np.random.default_rng(int(episode_seed)).random(out=row)
        state = np.full(n, m.initial_state)
        total = np.zeros(n)
        weight = 1.0
        for t in range(horizon):
            action = (policy_cdf[state] <= policy_u[:, t, None]).sum(axis=1)
            total += weight * table[state, action]
            weight *= discount
            state = (transition_cdf[state, action] <= env_u[:, t, None]).sum(axis=1)
        returns[start : start + n] = total
    return _mean_stderr(returns)


def _mean_stderr(returns: np.ndarray):
    mean = float(returns.mean())
    if len(returns) == 1:
        return mean, 0.0
    return mean, float(returns.std(ddof=1) / np.sqrt(len(returns)))
