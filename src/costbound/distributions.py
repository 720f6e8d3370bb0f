"""Probability primitives used by the latent model and the policy.

Everything is a diagonal Gaussian parameterized by (mean, log_std) or a
Bernoulli parameterized by logits; log-densities sum over the trailing
axis so batched inputs give one value per row and 1-D inputs give a
scalar.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LOG_STD_MIN = -10.0
LOG_STD_MAX = 2.0

_LOG_2PI = math.log(2.0 * math.pi)


class DiagGaussian:
    """Gaussian with diagonal covariance, std = exp(log_std)."""

    def __init__(self, mean: Tensor, log_std: Tensor):
        if mean.shape != log_std.shape:
            raise ValueError(f"mean shape {mean.shape} != log_std shape {log_std.shape}")
        self.mean = mean
        self.log_std = log_std

    def rsample(self, noise) -> Tensor:
        """Reparameterized sample mean + std * noise; differentiable in both
        parameters."""
        noise = noise if isinstance(noise, Tensor) else Tensor(noise)
        if noise.shape != self.mean.shape:
            raise ValueError(f"noise shape {noise.shape} != mean shape {self.mean.shape}")
        return self.mean + ad.exp(self.log_std) * noise


def clamp_log_std(log_std: Tensor) -> Tensor:
    return ad.clamp(log_std, LOG_STD_MIN, LOG_STD_MAX)


def kl_diag_gaussians(q: DiagGaussian, p: DiagGaussian) -> Tensor:
    """KL(q || p) for diagonal Gaussians, summed over the last axis.

    Per element: 0.5*(exp(2d) - 1) - d + 0.5*(mq-mp)^2/sp^2 with
    d = log sq - log sp; exactly zero when q == p.
    """
    if q.mean.shape != p.mean.shape:
        raise ValueError(f"shape mismatch: q {q.mean.shape}, p {p.mean.shape}")
    d = q.log_std - p.log_std
    inv_var_p = ad.exp(-2.0 * p.log_std)
    elems = 0.5 * (ad.exp(2.0 * d) - 1.0) - d + 0.5 * (q.mean - p.mean).square() * inv_var_p
    return elems.sum(axis=elems.ndim - 1)


def gaussian_log_prob(d: DiagGaussian, x) -> Tensor:
    """Diagonal Gaussian log density at x, summed over the last axis."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.shape != d.mean.shape:
        raise ValueError(f"x shape {x.shape} != mean shape {d.mean.shape}")
    z = (x - d.mean) * ad.exp(-d.log_std)
    elems = -0.5 * z.square() - d.log_std - 0.5 * _LOG_2PI
    return elems.sum(axis=elems.ndim - 1)


def fixed_std_gaussian_log_prob(mean: Tensor, log_std: float, x) -> Tensor:
    """``gaussian_log_prob`` of N(mean, exp(log_std)^2) at a constant array
    ``x``, for a fixed float ``log_std``, as one tape node that keeps only the
    standardized residual z. Value and mean gradient equal, bit for bit,
    those of the composite on a constant ``np.full`` log-std array: each
    step below repeats its arithmetic element for element and in order.
    """
    x_data = np.asarray(x, dtype=np.float64)
    if x_data.shape != mean.shape:
        raise ValueError(f"x shape {x_data.shape} != mean shape {mean.shape}")
    # exp through the same array loop that exp(-log_std) of a log-std array takes
    inv = np.exp(-np.full(1, log_std))[0]
    z = (x_data - mean.data) * inv
    elems = -0.5 * (z * z) - log_std - 0.5 * _LOG_2PI

    def vjp(g):
        half = np.expand_dims(g, -1) * -0.5
        gz = half * z
        # mul(z, z) hands its two parents the same term, and z sums both
        return (-((gz + gz) * inv),)

    return ad._node(elems.sum(axis=elems.ndim - 1), (mean,), vjp)


def bernoulli_log_prob(logit: Tensor, outcome) -> Tensor:
    """Bernoulli log-likelihood from logits, summed over the last axis.

    Uses y*logit - softplus(logit), which never forms an intermediate
    probability and stays finite for saturated logits.
    """
    outcome_data = outcome.data if isinstance(outcome, Tensor) else np.asarray(outcome, dtype=np.float64)
    if outcome_data.shape != logit.shape:
        raise ValueError(f"outcome shape {outcome_data.shape} != logit shape {logit.shape}")
    if not np.all((outcome_data == 0.0) | (outcome_data == 1.0)):
        raise ValueError("bernoulli outcomes must be 0 or 1")
    elems = Tensor(outcome_data) * logit - ad.softplus(logit)
    return elems.sum(axis=elems.ndim - 1)


# -- tanh-squashed Gaussian (policy head) --------------------------------------


def _squashed_log_prob_from_pre(mean: Tensor, log_std: Tensor, pre: Tensor) -> Tensor:
    """log-density of tanh(pre) when pre ~ N(mean, exp(log_std)^2).

    The change of variables contributes -log(1 - tanh(pre)^2) per dim,
    computed in the overflow-safe form 2*(log 2 - pre - softplus(-2*pre)).
    """
    base = gaussian_log_prob(DiagGaussian(mean, log_std), pre)
    corr = 2.0 * (math.log(2.0) - pre - ad.softplus(-2.0 * pre))
    return base - corr.sum(axis=corr.ndim - 1)


def squashed_gaussian_sample(mean: Tensor, log_std: Tensor, noise):
    """Sample a = tanh(mean + std*noise); returns (action, log_prob).

    Actions land in (-1, 1) per dimension; log_prob carries the squash
    correction and sums over the action dimension.
    """
    pre = DiagGaussian(mean, log_std).rsample(noise)
    action = ad.tanh(pre)
    return action, _squashed_log_prob_from_pre(mean, log_std, pre)


def squashed_gaussian_log_prob(mean: Tensor, log_std: Tensor, action) -> Tensor:
    """log-density of a given squashed action (inverts the tanh)."""
    a = action.data if isinstance(action, Tensor) else np.asarray(action, dtype=np.float64)
    a = np.clip(a, -1.0 + 1e-12, 1.0 - 1e-12)
    pre = Tensor(np.arctanh(a))
    return _squashed_log_prob_from_pre(mean, log_std, pre)
