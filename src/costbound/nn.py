"""Neural layers on the autodiff substrate.

Weights are initialized uniform in +/- 1/sqrt(fan_in), biases at zero,
drawn from the generator handed to each constructor so whole-model
construction is reproducible. ``Linear`` and ``MLP``, from which the
critics are built, accept ``frozen=True`` to evaluate with detached
parameters: inputs keep their gradient path, the layer's own parameters
receive none. The convolutions and ``GaussianHead`` always train theirs.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .distributions import DiagGaussian, clamp_log_std


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = 1.0 / math.sqrt(in_dim)
        self.w = Tensor(rng.uniform(-bound, bound, size=(in_dim, out_dim)), requires_grad=True)
        # nonzero bias init keeps ReLU pre-activations off the exact kink
        self.b = Tensor(rng.uniform(-bound, bound, size=out_dim), requires_grad=True)

    def __call__(self, x: Tensor, frozen: bool = False, relu: bool = False) -> Tensor:
        w, b = (self.w.detach(), self.b.detach()) if frozen else (self.w, self.b)
        return ad.linear(x, w, b, relu=relu)

    def parameters(self):
        return [self.w, self.b]


class MLP:
    """Stack of Linear layers with ReLU between them, plain final layer.
    Each hidden layer is one tape node that applies its own ReLU."""

    def __init__(self, in_dim: int, hidden: tuple, out_dim: int, rng: np.random.Generator):
        dims = [in_dim, *hidden, out_dim]
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]

    def __call__(self, x: Tensor, frozen: bool = False) -> Tensor:
        for layer in self.layers[:-1]:
            x = layer(x, frozen=frozen, relu=True)
        return self.layers[-1](x, frozen=frozen)

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]


class Conv2d:
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int,
        pad: int,
        rng: np.random.Generator,
    ):
        fan_in = in_channels * kernel * kernel
        bound = 1.0 / math.sqrt(fan_in)
        self.w = Tensor(
            rng.uniform(-bound, bound, size=(out_channels, in_channels, kernel, kernel)),
            requires_grad=True,
        )
        self.b = Tensor(rng.uniform(-bound, bound, size=out_channels), requires_grad=True)
        self.stride = stride
        self.pad = pad

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return ad.conv2d(x, self.w, self.b, stride=self.stride, pad=self.pad, relu=relu)

    def parameters(self):
        return [self.w, self.b]


class ConvTranspose2d:
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int,
        pad: int,
        out_extra: int,
        rng: np.random.Generator,
    ):
        fan_in = in_channels * kernel * kernel
        bound = 1.0 / math.sqrt(fan_in)
        self.w = Tensor(
            rng.uniform(-bound, bound, size=(in_channels, out_channels, kernel, kernel)),
            requires_grad=True,
        )
        self.b = Tensor(rng.uniform(-bound, bound, size=out_channels), requires_grad=True)
        self.stride = stride
        self.pad = pad
        self.out_extra = out_extra

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return ad.conv2d_transpose(
            x, self.w, self.b, stride=self.stride, pad=self.pad, out_extra=self.out_extra, relu=relu
        )

    def parameters(self):
        return [self.w, self.b]


class GaussianHead:
    """MLP emitting a DiagGaussian with the log-std clamped to a safe range."""

    def __init__(self, in_dim: int, hidden: tuple, out_dim: int, rng: np.random.Generator):
        self.net = MLP(in_dim, hidden, 2 * out_dim, rng)
        self.out_dim = out_dim

    def __call__(self, x: Tensor) -> DiagGaussian:
        raw = self.net(x)
        return DiagGaussian(raw[..., : self.out_dim], clamp_log_std(raw[..., self.out_dim :]))

    def parameters(self):
        return self.net.parameters()


# -- observation encoders / decoders ------------------------------------------


class ConvEncoder:
    """Two stride-2 convolutions, each with its ReLU fused in, then a linear
    map to the feature vector."""

    def __init__(self, obs_shape, channels, feature_dim: int, rng: np.random.Generator):
        c, h, w = obs_shape
        if h % 4 != 0 or w % 4 != 0:
            raise ValueError(f"conv encoder needs H, W divisible by 4, got {obs_shape}")
        c1, c2 = channels
        self.conv1 = Conv2d(c, c1, kernel=3, stride=2, pad=1, rng=rng)
        self.conv2 = Conv2d(c1, c2, kernel=3, stride=2, pad=1, rng=rng)
        self.flat_dim = c2 * (h // 4) * (w // 4)
        self.out = Linear(self.flat_dim, feature_dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        h = self.conv1(x, relu=True)
        h = self.conv2(h, relu=True)
        return self.out(h.reshape(n, self.flat_dim))

    def parameters(self):
        return self.conv1.parameters() + self.conv2.parameters() + self.out.parameters()


class ConvDecoder:
    """Mirror of ConvEncoder: linear up and the first stride-2 transposed
    conv, each with its ReLU fused in, then a plain stride-2 transposed conv."""

    def __init__(self, in_dim: int, obs_shape, channels, rng: np.random.Generator):
        c, h, w = obs_shape
        c1, c2 = channels
        self.obs_shape = tuple(obs_shape)
        self.h0, self.w0 = h // 4, w // 4
        self.c2 = c2
        self.up = Linear(in_dim, c2 * self.h0 * self.w0, rng)
        self.deconv1 = ConvTranspose2d(c2, c1, kernel=3, stride=2, pad=1, out_extra=1, rng=rng)
        self.deconv2 = ConvTranspose2d(c1, c, kernel=3, stride=2, pad=1, out_extra=1, rng=rng)

    def __call__(self, z: Tensor) -> Tensor:
        n = z.shape[0]
        h = self.up(z, relu=True).reshape(n, self.c2, self.h0, self.w0)
        h = self.deconv1(h, relu=True)
        return self.deconv2(h)

    def parameters(self):
        return self.up.parameters() + self.deconv1.parameters() + self.deconv2.parameters()
