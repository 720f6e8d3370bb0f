"""Cross-check harnesses behind the ``gradcheck`` and ``oracle`` CLI
subcommands, also exercised by the acceptance tests.

The gradient suite rebuilds every training objective on a miniature
instantiation and compares reverse-mode gradients against central finite
differences. The tabular suite pits the fitted safety critic and the
Monte-Carlo estimators against exact policy evaluation.

The suite's Monte-Carlo entry runs ``oracle.mc_policy_value``, which draws
3,000 episodes of 300 steps in blocks of episodes and returns what
``mc_return`` over ``TabularChainEnv`` returns, bit for bit, in a tenth of
the time. ``mc_return`` stays imported here although the suite no longer
calls it: the benchmark's tracer (``perfbench/tracer.py``) wraps
``verify.mc_return`` by name.
"""

from __future__ import annotations

import time

import numpy as np

from . import autodiff as ad
from .agent import (
    Actor,
    Critic,
    make_target,
    policy_loss,
    reward_critic_losses,
    safety_critic_loss,
    temperature_loss,
)
from .autodiff import Tensor
from .latent import LatentModel, LatentModelConfig, posterior_noise
from .optim import Adam, ema_update
from .oracle import (
    TabularCMDP,
    choice_cdf,
    finite_diff_grad,
    grad_rel_error,
    mc_policy_value,
    mc_return,  # noqa: F401  (traced by name, see the module docstring)
    value_iteration,
)
from .replay import SequenceBatch


def _fd_module(loss_fn, params, h=1e-6) -> float:
    """Worst relative error between backward() and finite differences over
    all ``params`` of a scalar ``loss_fn``. The finite differences need
    only loss values, so they run without recording a tape."""
    for p in params:
        p.grad = None
    out = loss_fn()
    ad.backward(out)
    worst = 0.0
    for p in params:
        base = p.data.copy()

        def f(v, p=p, base=base):
            p.data = v.reshape(base.shape)
            with ad.no_grad():
                value = loss_fn().item()
            p.data = base.copy()
            return value

        fd = finite_diff_grad(f, base.ravel(), h=h).reshape(base.shape)
        grad = p.grad if p.grad is not None else np.zeros_like(base)
        if np.linalg.norm(fd) < 1e-12 and np.linalg.norm(grad) < 1e-12:
            continue
        worst = max(worst, grad_rel_error(grad, fd))
    return worst


def run_gradient_suite(seed: int = 0) -> dict:
    """Finite-difference check of every loss on a tiny conv-pixel model.

    Returns per-loss worst relative errors and the elapsed wall time.
    """
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    cfg = LatentModelConfig(
        obs_shape=(1, 4, 4),
        action_dim=2,
        z1_dim=2,
        z2_dim=3,
        feature_dim=4,
        hidden_dim=4,
        conv_channels=(2, 3),
        recon_std=0.4,
    )
    model = LatentModel(cfg, rng)
    batch = SequenceBatch(
        observations=rng.uniform(size=(2, 2, 1, 4, 4)),
        actions=rng.uniform(-1, 1, size=(2, 1, 2)),
        rewards=rng.normal(size=(2, 1)),
        costs=(rng.uniform(size=(2, 1)) < 0.5).astype(np.float64),
        dones=np.zeros((2, 1), dtype=bool),
    )
    noise = posterior_noise(np.random.default_rng(seed + 1), 2, 2, cfg)
    errors = {}
    errors["model"] = _fd_module(lambda: model.model_loss(batch, noise)[0], model.parameters())

    state_dim = cfg.z1_dim + cfg.z2_dim
    actor = Actor(state_dim, cfg.action_dim, (4,), rng)
    q1 = Critic(state_dim, cfg.action_dim, (4,), rng)
    q2 = Critic(state_dim, cfg.action_dim, (4,), rng)
    qc = Critic(state_dim, cfg.action_dim, (4,), rng)
    q1t, q2t, qct = make_target(q1), make_target(q2), make_target(qc)
    b = 3
    z = rng.normal(size=(b, state_dim)) * 0.5
    a = rng.uniform(-1, 1, size=(b, cfg.action_dim))
    r = rng.normal(size=b)
    c = (rng.uniform(size=b) < 0.5).astype(np.float64)
    z_next = rng.normal(size=(b, state_dim)) * 0.5
    n1 = rng.standard_normal((b, cfg.action_dim))
    n2 = rng.standard_normal((b, cfg.action_dim))
    n3 = rng.standard_normal((b, cfg.action_dim))

    errors["reward_critic"] = max(
        _fd_module(
            lambda: reward_critic_losses(q1, q2, q1t, q2t, actor, 0.1, z, a, r, z_next, 0.99, n1)[0],
            q1.parameters(),
        ),
        _fd_module(
            lambda: reward_critic_losses(q1, q2, q1t, q2t, actor, 0.1, z, a, r, z_next, 0.99, n1)[1],
            q2.parameters(),
        ),
    )
    errors["safety_critic"] = _fd_module(
        lambda: safety_critic_loss(qc, qct, actor, z, a, c, z_next, 0.995, n2), qc.parameters()
    )
    errors["policy"] = _fd_module(
        lambda: policy_loss(actor, q1, q2, qc, 0.1, 0.3, z, n3)[0], actor.parameters()
    )
    log_alpha = Tensor(np.array([-1.2]), requires_grad=True)
    logp = rng.normal(size=b) - 2.0
    errors["temperature"] = _fd_module(
        lambda: temperature_loss(log_alpha, logp, 2.0), [log_alpha]
    )
    errors["elapsed_seconds"] = time.monotonic() - start
    return errors


# -- tabular fixtures -----------------------------------------------------------------


def hazard_corridor_cmdp(gamma_c: float = 0.995) -> TabularCMDP:
    """5-state episodic corridor: start, approach, hazard (unit cost),
    recovery, absorbing-safe. Absorption keeps cost values moderate even
    for discounts near one."""
    t = np.zeros((5, 2, 5))
    t[0, 0, 1] = 1.0
    t[0, 1, 4] = 1.0
    t[1, 0, 2] = 1.0
    t[1, 1, 0] = 0.7
    t[1, 1, 2] = 0.3
    t[2, 0, 3] = 1.0
    t[2, 1, 2] = 0.5
    t[2, 1, 3] = 0.5
    t[3, 0, 4] = 1.0
    t[3, 1, 4] = 0.6
    t[3, 1, 1] = 0.4
    t[4, :, 4] = 1.0
    rewards = np.zeros((5, 2))
    costs = np.zeros((5, 2))
    costs[2, :] = 1.0
    return TabularCMDP(t, rewards, costs, gamma=0.99, cost_gamma=gamma_c)


def hazard_corridor_policy() -> np.ndarray:
    return np.array(
        [[0.6, 0.4], [0.5, 0.5], [0.7, 0.3], [0.5, 0.5], [1.0, 0.0]]
    )


class _TabularQ:
    """Linear Q over one-hot state (x) one-hot action product features.

    A complete function class for a finite CMDP, trained through the same
    loss machinery as the neural critics.
    """

    def __init__(self, num_states: int, num_actions: int, rng: np.random.Generator):
        self.num_states = num_states
        self.num_actions = num_actions
        self.w = Tensor(rng.uniform(-0.05, 0.05, size=(num_states * num_actions, 1)), requires_grad=True)

    def _features(self, z: Tensor, a: Tensor) -> np.ndarray:
        return (z.data[:, :, None] * a.data[:, None, :]).reshape(z.data.shape[0], -1)

    def __call__(self, z: Tensor, a: Tensor) -> Tensor:
        return ad.linear(Tensor(self._features(z, a)), self.w)

    def parameters(self):
        return [self.w]

    def table(self) -> np.ndarray:
        return self.w.data.reshape(self.num_states, self.num_actions)


class _TableActor:
    """Draws next actions from a fixed stochastic policy table; the latent
    argument is a one-hot state and the Gaussian noise argument is unused
    (the actor keeps its own stream)."""

    def __init__(self, table: np.ndarray, rng: np.random.Generator):
        self.cdf = choice_cdf(table)
        self.rng = rng
        self.num_actions = self.cdf.shape[1]

    def sample(self, z: Tensor, noise):
        n = z.data.shape[0]
        states = np.argmax(z.data, axis=1)
        # Generator.random(n) gives the n values of n scalar random() calls,
        # and the count of CDF entries <= u is searchsorted(u, side="right")
        u = self.rng.random(n)
        actions = np.zeros((n, self.num_actions))
        actions[np.arange(n), (self.cdf[states] <= u[:, None]).sum(axis=1)] = 1.0
        return Tensor(actions), Tensor(np.zeros(n))


def fitted_safety_critic_error(
    seed: int = 0,
    updates: int = 20_000,
    replicas: int = 16,
    gamma_c: float = 0.995,
    nu: float = 0.02,
):
    """Fit Q^c with the safety-critic loss on one-hot features and compare
    against exact policy evaluation.

    Returns (max absolute error, fitted table, oracle table). The learning
    rate anneals so the stochastic fixed point settles within the update
    budget.
    """
    m = hazard_corridor_cmdp(gamma_c)
    policy = hazard_corridor_policy()
    q_oracle = value_iteration(m, policy, signal="cost")

    rng = np.random.default_rng(seed)
    s_count, a_count = m.num_states, m.num_actions
    qc = _TabularQ(s_count, a_count, rng)
    qc_target = _TabularQ(s_count, a_count, rng)
    qc_target.w.data[...] = qc.w.data
    qc_target.w.requires_grad = False
    actor = _TableActor(policy, np.random.default_rng(seed + 1))
    opt = Adam(qc.parameters(), lr=0.05)

    pairs = np.array([(s, a) for s in range(s_count) for a in range(a_count)])
    pairs = np.tile(pairs, (replicas, 1))
    z = np.eye(s_count)[pairs[:, 0]]
    a_embed = np.eye(a_count)[pairs[:, 1]]
    costs = m.costs[pairs[:, 0], pairs[:, 1]]
    trans_cdf = np.cumsum(m.transitions, axis=2)

    schedule = {int(updates * 0.4): 5e-3, int(updates * 0.7): 5e-4, int(updates * 0.9): 1e-4}
    for step in range(updates):
        if step in schedule:
            opt.lr = schedule[step]
        u = rng.uniform(size=len(pairs))
        next_states = (u[:, None] > trans_cdf[pairs[:, 0], pairs[:, 1]]).sum(axis=1)
        z_next = np.eye(s_count)[next_states]
        loss = safety_critic_loss(
            qc, qc_target, actor, z, a_embed, costs, z_next, gamma_c,
            np.zeros((len(pairs), a_count)),
        )
        opt.zero_grad()
        ad.backward(loss)
        opt.step()
        ema_update(qc_target.parameters(), qc.parameters(), nu)
    fitted = qc.table()
    return float(np.max(np.abs(fitted - q_oracle))), fitted, q_oracle


def run_tabular_suite(seed: int = 0) -> dict:
    """Cross-checks between exact policy evaluation, Monte-Carlo rollouts,
    and closed forms. Returns a dict of named (value, reference, pass)
    triples of a float, a float and a bool."""
    results = {}

    t = np.ones((1, 1, 1))
    m_abs = TabularCMDP(t, np.zeros((1, 1)), np.ones((1, 1)), cost_gamma=0.995)
    q = value_iteration(m_abs, np.ones((1, 1)), signal="cost")
    results["absorbing_geometric"] = (float(q[0, 0]), 200.0, bool(abs(q[0, 0] - 200.0) < 1e-6))

    m = hazard_corridor_cmdp(gamma_c=0.95)
    policy = hazard_corridor_policy()
    q = value_iteration(m, policy, signal="cost")
    v0 = float(policy[0] @ q[0])
    rng = np.random.default_rng(seed + 2)
    mean, se = mc_policy_value(m, policy, rng, seed + 3, episodes=3000, horizon=300, signal="cost")
    results["mc_vs_policy_eval"] = (mean, v0, abs(mean - v0) <= 3 * se + 1e-9)

    err, _, _ = fitted_safety_critic_error(seed=seed, updates=4000)
    results["fitted_safety_critic_short"] = (err, 0.0, err < 0.05)
    return results
