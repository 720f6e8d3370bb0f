"""Maximum-entropy actor, twin reward critics, safety critic, automatic
entropy temperature and the safety Lagrange multiplier.

The actor maps a latent state to a tanh-squashed diagonal Gaussian over
actions. Reward critics regress onto r + gamma * (min of the target pair
minus the entropy term); the safety critic regresses onto the discounted
cost return with no entropy term. The policy objective trades entropy and
reward value against the safety value weighted by the multiplier, which
itself follows dual ascent on observed episode cost returns.
"""

from __future__ import annotations

import copy

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .distributions import squashed_gaussian_sample
from .nn import MLP, GaussianHead
from .optim import Adam


class Actor:
    """Squashed-Gaussian policy over [-1, 1]^A conditioned on the latent state."""

    def __init__(self, state_dim: int, action_dim: int, hidden: tuple, rng: np.random.Generator):
        self.head = GaussianHead(state_dim, hidden, action_dim, rng)
        self.action_dim = action_dim

    def sample(self, state: Tensor, noise):
        """Reparameterized action and its log-density (squash-corrected)."""
        if not np.all(np.isfinite(state.data)):
            raise ValueError("actor received non-finite latent state")
        d = self.head(state)
        return squashed_gaussian_sample(d.mean, d.log_std, noise)

    def mode(self, state: Tensor) -> Tensor:
        """Deterministic action: squashed distribution mean."""
        return ad.tanh(self.head(state).mean)

    def parameters(self):
        return self.head.parameters()


class Critic:
    """Q(z, a) as an MLP over the concatenated latent state and action."""

    def __init__(self, state_dim: int, action_dim: int, hidden: tuple, rng: np.random.Generator):
        self.net = MLP(state_dim + action_dim, hidden, 1, rng)

    def __call__(self, state: Tensor, action: Tensor, frozen: bool = False) -> Tensor:
        return self.net(ad.concat([state, action], axis=1), frozen=frozen)

    def parameters(self):
        return self.net.parameters()


def make_target(critic: Critic) -> Critic:
    """Structurally identical copy holding the same values, without grads."""
    clone = copy.deepcopy(critic)
    for p in clone.parameters():
        p.requires_grad = False
        p.grad = None
    return clone


def reward_critic_losses(q1, q2, q1_target, q2_target, actor, alpha: float,
                         z: np.ndarray, a: np.ndarray, r: np.ndarray,
                         z_next: np.ndarray, gamma: float, noise: np.ndarray):
    """Soft Bellman residuals for both reward critics against a shared target.

    The target bootstraps through the minimum of the target critics at a
    freshly sampled next action, minus the entropy term; it carries no
    gradient. Returns (loss_q1, loss_q2).
    """
    zt = Tensor(z)
    at = Tensor(a)
    znt = Tensor(z_next)
    with ad.no_grad():
        a_next, logp = actor.sample(znt, noise)
        qmin = ad.minimum(q1_target(znt, a_next), q2_target(znt, a_next))
        value = qmin - alpha * logp.reshape(-1, 1)
        target = Tensor(r.reshape(-1, 1) + gamma * value.data)
    d1 = q1(zt, at) - target
    d2 = q2(zt, at) - target
    return 0.5 * d1.square().mean(), 0.5 * d2.square().mean()


def safety_critic_loss(qc, qc_target, actor, z: np.ndarray, a: np.ndarray,
                       c: np.ndarray, z_next: np.ndarray, gamma_c: float,
                       noise: np.ndarray):
    """Bellman residual for the discounted cost return; no entropy term."""
    zt = Tensor(z)
    at = Tensor(a)
    znt = Tensor(z_next)
    with ad.no_grad():
        a_next, _ = actor.sample(znt, noise)
        target = Tensor(c.reshape(-1, 1) + gamma_c * qc_target(znt, a_next).data)
    d = qc(zt, at) - target
    return 0.5 * d.square().mean()


def policy_loss(actor, q1, q2, qc, alpha: float, lam: float,
                z: np.ndarray, noise: np.ndarray):
    """Entropy-regularized objective with the safety value weighted by ``lam``.

    Actions are reparameterization-sampled so the pathwise gradient reaches
    the actor; the critics evaluate with detached parameters and receive no
    gradient. Returns (loss, log_prob tensor) so the temperature update can
    reuse the same samples.
    """
    if lam < 0.0:
        raise ValueError("safety multiplier must be nonnegative")
    zt = Tensor(z)
    action, logp = actor.sample(zt, noise)
    qmin = ad.minimum(q1(zt, action, frozen=True), q2(zt, action, frozen=True))
    qc_val = qc(zt, action, frozen=True)
    objective = alpha * logp - qmin.reshape(-1) + lam * qc_val.reshape(-1)
    return objective.mean(), logp


def temperature_loss(log_alpha: Tensor, log_probs: np.ndarray, target_entropy: float):
    """Loss whose descent raises alpha when entropy is below target.

    log_probs enter as constants; only log_alpha is differentiated.
    """
    coeff = float(np.mean(log_probs) + target_entropy)
    return -(ad.exp(log_alpha) * coeff).sum()


class TemperatureState:
    """exp(log_alpha) with its own Adam optimizer and a fixed entropy target."""

    def __init__(self, init_alpha: float, target_entropy: float, lr: float):
        if init_alpha <= 0.0:
            raise ValueError("alpha must start positive")
        self.log_alpha = Tensor(np.array([np.log(init_alpha)]), requires_grad=True)
        self.target_entropy = float(target_entropy)
        self.optimizer = Adam([self.log_alpha], lr=lr)

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha.data[0]))

    def update(self, log_probs: np.ndarray) -> float:
        """One Adam step on the temperature loss; the gradient is released
        after it, as the trainer does for every optimizer."""
        loss = temperature_loss(self.log_alpha, log_probs, self.target_entropy)
        try:
            ad.backward(loss)
            self.optimizer.step()
        finally:
            self.optimizer.zero_grad()
        return loss.item()


class LagrangeState:
    """Nonnegative safety multiplier adapted from episode cost returns.

    One plain (non-Adam) dual-ascent step per completed training episode:
    lam <- max(0, lam + lr * (episode_cost - budget)), so the weight grows
    while episodes overspend the budget and decays to zero while they stay
    under it.
    """

    def __init__(self, init_lambda: float, lr: float, budget: float):
        if init_lambda < 0.0:
            raise ValueError("lambda must start nonnegative")
        if budget < 0.0:
            raise ValueError("budget must be nonnegative")
        self.lam = float(init_lambda)
        self.lr = float(lr)
        self.budget = float(budget)

    def update(self, episode_cost_return: float) -> float:
        if episode_cost_return < 0.0:
            raise ValueError(f"negative episode cost return {episode_cost_return}")
        self.lam = max(0.0, self.lam + self.lr * (episode_cost_return - self.budget))
        return self.lam
