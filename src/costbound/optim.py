"""Adam, global-norm gradient clipping and target-network averaging."""

from __future__ import annotations

import math

import numpy as np


class Adam:
    """Bias-corrected Adam; updates parameters in place from their .grad."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        missing = [i for i, p in enumerate(self.params) if p.grad is None]
        if missing:
            raise RuntimeError(f"Adam.step with missing grads for parameter indices {missing}")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def state_arrays(self):
        """Moment accumulators in a stable order, for checkpointing."""
        return list(self.m) + list(self.v)


def clip_grad_norm(params, max_norm: float) -> float:
    """Rescale grads so their global L2 norm is at most ``max_norm``.

    Parameters without a grad contribute zero. Returns the pre-clip norm.
    Norms within a relative 1e-9 of the bound are left untouched, which
    makes clipping idempotent despite float rounding.
    """
    total_sq = 0.0
    for p in params:
        if p.grad is not None:
            total_sq += float(np.sum(p.grad * p.grad))
    total = math.sqrt(total_sq)
    if total > max_norm * (1.0 + 1e-9):
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return total


def ema_update(target_params, online_params, nu: float):
    """target <- target + nu * (online - target), elementwise in place.

    Algebraically nu*online + (1-nu)*target; the delta form leaves the
    target bit-identical when online == target.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must be in (0, 1], got {nu}")
    target_params = list(target_params)
    online_params = list(online_params)
    if len(target_params) != len(online_params):
        raise ValueError("parameter lists differ in length")
    for t, o in zip(target_params, online_params):
        if t.data.shape != o.data.shape:
            raise ValueError(f"shape mismatch {t.data.shape} vs {o.data.shape}")
        t.data += nu * (o.data - t.data)
