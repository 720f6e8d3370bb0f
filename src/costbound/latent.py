"""Sequential latent variable model with reward and cost prediction.

The latent state is a pair (z1, z2). z1 is small and stochastic with a
learned prior; z2 is larger and evolves through a transition network that
is shared between the generative and inference paths:

    generative                     inference
    z1_1  ~ N(0, I)                z1_1  ~ q(z1_1 | x_1)
    z2_1  ~ p(z2_1 | z1_1)         z2_1  ~ p(z2_1 | z1_1)            (shared)
    z1_t+1 ~ p(z1_t+1 | z2_t, a_t) z1_t+1 ~ q(z1_t+1 | x_t+1, z2_t, a_t)
    z2_t+1 ~ p(z2_t+1 | z1_t+1, z2_t, a_t)                           (shared)

Observations decode from (z1, z2) as a Gaussian with fixed std; rewards
from (z_t, a_t, z_t+1) as a unit-std Gaussian; costs from the same inputs
as a Bernoulli logit over "any violation this step".

Both joints over (z1, z2) factor step by step into a z1 factor and the
same z2 conditional p(z2_t | z1_t, z2_t-1, a_t-1). The z2 factors cancel
in the log-ratio, so

    log q(z | x) - log p(z) = sum_t [log q(z1_t | .) - log p(z1_t | .)]

and the KL between the inference and generative distributions is the sum
over steps of the expected KLs between the z1 factors, each taken at the
sampled z2_t-1. The training objective computes it that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .distributions import DiagGaussian, bernoulli_log_prob, fixed_std_gaussian_log_prob, kl_diag_gaussians
from .nn import MLP, ConvDecoder, ConvEncoder, GaussianHead


class NonFiniteLossError(RuntimeError):
    """Raised when a training objective produces NaN or Inf."""


@dataclass
class LatentModelConfig:
    obs_shape: tuple
    action_dim: int
    z1_dim: int = 32
    z2_dim: int = 200
    feature_dim: int = 64
    hidden_dim: int = 256
    conv_channels: tuple = (16, 32)
    recon_std: float = 0.4
    # Observations are [C, H, W] pixels and the convolutional encoder is the
    # only one; the field stays so that callers which name it keep working.
    encoder: str = "conv"

    def __post_init__(self):
        if self.encoder != "conv":
            raise ValueError(f"unknown encoder {self.encoder!r}: the latent model encodes pixels with 'conv'")


@dataclass
class InferredLatents:
    """Per-timestep posterior latents and their z1 distributions."""

    z1: list            # L+1 tensors [B, z1_dim]
    z2: list            # L+1 tensors [B, z2_dim]
    states: list        # L+1 tensors [B, z1_dim + z2_dim]: z1 and z2 side by side
    posteriors: list    # L+1 DiagGaussians over z1


def posterior_noise(rng: np.random.Generator, batch: int, steps: int, cfg: "LatentModelConfig"):
    """Standard-normal driving noise for ``steps`` latent samples."""
    return (
        rng.standard_normal((batch, steps, cfg.z1_dim)),
        rng.standard_normal((batch, steps, cfg.z2_dim)),
    )


class LatentModel:
    def __init__(self, cfg: LatentModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        z1, z2, feat, hid = cfg.z1_dim, cfg.z2_dim, cfg.feature_dim, cfg.hidden_dim
        act = cfg.action_dim
        state = z1 + z2
        hidden = (hid, hid)
        self.encoder = ConvEncoder(cfg.obs_shape, cfg.conv_channels, feat, rng)
        self.decoder = ConvDecoder(state, cfg.obs_shape, cfg.conv_channels, rng)
        self.post_init = GaussianHead(feat, hidden, z1, rng)
        self.post_step = GaussianHead(feat + z2 + act, hidden, z1, rng)
        self.prior_step = GaussianHead(z2 + act, hidden, z1, rng)
        self.z2_init = GaussianHead(z1, hidden, z2, rng)
        self.z2_step = GaussianHead(z1 + z2 + act, hidden, z2, rng)
        self.reward_head = MLP(2 * state + act, hidden, 1, rng)
        self.cost_head = MLP(2 * state + act, hidden, 1, rng)
        self._components = [
            self.encoder, self.decoder, self.post_init, self.post_step, self.prior_step,
            self.z2_init, self.z2_step, self.reward_head, self.cost_head,
        ]
        self._log_recon_std = math.log(cfg.recon_std)

    def parameters(self):
        return [p for c in self._components for p in c.parameters()]

    # -- inference -------------------------------------------------------------

    def encode_sequence(self, observations: np.ndarray) -> list:
        """Encode [B, T, *obs] into a list of T feature tensors [B, F]."""
        b, t = observations.shape[:2]
        flat = np.ascontiguousarray(observations.transpose(1, 0, *range(2, observations.ndim)))
        feats = self.encoder(Tensor(flat.reshape(t * b, *self.cfg.obs_shape)))
        return [feats[i * b : (i + 1) * b] for i in range(t)]

    def infer_posterior(self, observations: np.ndarray, actions: np.ndarray, noise) -> InferredLatents:
        """Filter the posterior latents through a [B, L+1] observation window.

        ``noise`` is a pair of standard-normal arrays [B, L+1, z1] and
        [B, L+1, z2]; zero noise gives the distribution-mean path. All
        samples are reparameterized, so gradients flow into every head.
        """
        b, steps = observations.shape[:2]
        l = steps - 1
        if actions.shape[:2] != (b, l):
            raise ValueError(f"actions shape {actions.shape} incompatible with {observations.shape}")
        eps1, eps2 = noise
        if eps1.shape != (b, steps, self.cfg.z1_dim) or eps2.shape != (b, steps, self.cfg.z2_dim):
            raise ValueError("noise shapes do not match the window")
        feats = self.encode_sequence(observations)
        q_t, z1_t, z2_t = self._first_step(feats[0], eps1[:, 0], eps2[:, 0])
        z1s, z2s, posteriors = [z1_t], [z2_t], [q_t]
        for t in range(1, steps):
            a = Tensor(actions[:, t - 1])
            q_t, z1_t, z2_t = self._next_step(feats[t], z2_t, a, eps1[:, t], eps2[:, t])
            z1s.append(z1_t)
            z2s.append(z2_t)
            posteriors.append(q_t)
        if not np.all(np.isfinite(z1_t.data)) or not np.all(np.isfinite(z2_t.data)):
            raise NonFiniteLossError("latent inference produced non-finite values")
        states = [ad.concat([z1, z2], axis=1) for z1, z2 in zip(z1s, z2s)]
        return InferredLatents(z1s, z2s, states, posteriors)

    def priors(self, z2s: list, actions: np.ndarray) -> list:
        """The generative z1 factors of a window: a standard normal for the
        first step, then p(z1_t | z2_t-1, a_t-1) at the inferred ``z2s``."""
        zeros = Tensor(np.zeros((actions.shape[0], self.cfg.z1_dim)))
        return [DiagGaussian(zeros, zeros)] + [
            self.prior_step(ad.concat([z2s[t - 1], Tensor(actions[:, t - 1])], axis=1))
            for t in range(1, len(z2s))
        ]

    # -- the posterior recurrence, shared by the training window and the filter --

    def _first_step(self, feat: Tensor, eps1, eps2):
        """(posterior over z1, z1, z2) at the first observation's features."""
        q = self.post_init(feat)
        z1 = q.rsample(eps1)
        return q, z1, self.z2_init(z1).rsample(eps2)

    def _next_step(self, feat: Tensor, prev_z2: Tensor, a: Tensor, eps1, eps2):
        """(posterior over z1, z1, z2) one action ``a`` after ``prev_z2``;
        only z2 of the previous state conditions the step."""
        q = self.post_step(ad.concat([feat, prev_z2, a], axis=1))
        z1 = q.rsample(eps1)
        return q, z1, self.z2_step(ad.concat([z1, prev_z2, a], axis=1)).rsample(eps2)

    # -- training objective ---------------------------------------------------------

    def model_loss(self, batch, noise):
        """Negative evidence bound: reconstruction, reward and cost likelihoods
        plus the posterior/prior KL over z1, summed over the window and
        averaged over the batch. Returns (loss, term dict).
        """
        obs, actions = batch.observations, batch.actions
        b, steps = obs.shape[:2]
        l = steps - 1
        inf = self.infer_posterior(obs, actions, noise)

        # observation reconstruction over all L+1 frames (time-major)
        dec_mean = self.decoder(ad.concat(inf.states, axis=0))
        flat_dim = int(np.prod(self.cfg.obs_shape))
        dec_flat = dec_mean.reshape(steps * b, flat_dim)
        target = np.ascontiguousarray(obs.transpose(1, 0, *range(2, obs.ndim))).reshape(steps * b, flat_dim)
        recon_nll = -fixed_std_gaussian_log_prob(dec_flat, self._log_recon_std, target).sum() / b

        # reward and cost terms over the L >= 1 transitions
        pairs = ad.concat(
            [
                ad.concat([inf.states[t], Tensor(actions[:, t]), inf.states[t + 1]], axis=1)
                for t in range(l)
            ],
            axis=0,
        )
        r_target = batch.rewards.T.reshape(l * b, 1)
        r_mean = self.reward_head(pairs)
        reward_nll = -fixed_std_gaussian_log_prob(r_mean, 0.0, r_target).sum() / b
        c_logit = self.cost_head(pairs)
        violation = (batch.costs.T.reshape(l * b, 1) > 0.0).astype(np.float64)
        cost_nll = -bernoulli_log_prob(c_logit, violation).sum() / b

        # KL over z1 at every sample point (z2 factors are shared and cancel)
        priors = self.priors(inf.z2, actions)
        q_mean = ad.concat([d.mean for d in inf.posteriors], axis=0)
        q_ls = ad.concat([d.log_std for d in inf.posteriors], axis=0)
        p_mean = ad.concat([d.mean for d in priors], axis=0)
        p_ls = ad.concat([d.log_std for d in priors], axis=0)
        kl = kl_diag_gaussians(DiagGaussian(q_mean, q_ls), DiagGaussian(p_mean, p_ls)).sum() / b

        loss = recon_nll + reward_nll + cost_nll + kl
        if not np.isfinite(loss.data):
            raise NonFiniteLossError("model loss diverged (non-finite)")
        parts = {
            "recon_nll": recon_nll.item(),
            "reward_nll": reward_nll.item(),
            "cost_nll": cost_nll.item(),
            "kl": kl.item(),
        }
        return loss, parts

    # -- online filtering (action selection path) ------------------------------------

    def filter_init(self, obs: np.ndarray, eps1: np.ndarray, eps2: np.ndarray):
        """Latent state from the first observation of an episode (numpy in/out)."""
        with ad.no_grad():
            _, z1, z2 = self._first_step(self.encoder(Tensor(obs[None])), eps1[None], eps2[None])
        return z1.data[0].copy(), z2.data[0].copy()

    def filter_step(self, state, action, obs, eps1, eps2):
        """Advance the filtered latent (z1, z2) with one executed action and
        the new observation."""
        with ad.no_grad():
            feat = self.encoder(Tensor(obs[None]))
            a = Tensor(np.asarray(action, dtype=np.float64)[None])
            _, z1, z2 = self._next_step(feat, Tensor(state[1][None]), a, eps1[None], eps2[None])
        return z1.data[0].copy(), z2.data[0].copy()
