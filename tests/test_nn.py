import numpy as np

from costbound import autodiff as ad
from costbound.autodiff import Tensor
from costbound.nn import MLP, Conv2d, ConvDecoder, ConvEncoder, Linear
from costbound.oracle import finite_diff_grad, grad_rel_error


def test_zero_weight_linear_returns_bias():
    rng = np.random.default_rng(0)
    layer = Linear(3, 2, rng)
    layer.w.data[...] = 0.0
    x = Tensor(rng.normal(size=(4, 3)))
    out = layer(x)
    assert np.allclose(out.data, np.broadcast_to(layer.b.data, (4, 2)))


def test_identity_one_by_one_conv_passes_input_through():
    rng = np.random.default_rng(1)
    conv = Conv2d(2, 2, kernel=1, stride=1, pad=0, rng=rng)
    conv.w.data[...] = 0.0
    conv.w.data[0, 0, 0, 0] = 1.0
    conv.w.data[1, 1, 0, 0] = 1.0
    conv.b.data[...] = 0.0
    x_val = rng.normal(size=(3, 2, 5, 5))
    out = conv(Tensor(x_val))
    assert np.allclose(out.data, x_val)


def test_two_layer_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    net = MLP(3, (5,), 2, rng)
    x_val = rng.normal(size=(4, 3))

    loss = net(Tensor(x_val)).square().sum()
    ad.backward(loss)
    for p in net.parameters():
        base = p.data.copy()

        def f(v, p=p, base=base):
            p.data = v.reshape(base.shape)
            out = net(Tensor(x_val)).square().sum().item()
            p.data = base.copy()
            return out

        fd = finite_diff_grad(f, base.ravel(), h=1e-6).reshape(base.shape)
        assert grad_rel_error(p.grad, fd) <= 1e-5


def test_frozen_evaluation_blocks_parameter_gradients():
    rng = np.random.default_rng(3)
    net = MLP(3, (4,), 1, rng)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    ad.backward(net(x, frozen=True).sum())
    assert all(p.grad is None for p in net.parameters())
    assert x.grad is not None and np.any(x.grad != 0.0)


def test_conv_encoder_decoder_round_trip_shapes():
    rng = np.random.default_rng(4)
    enc = ConvEncoder((3, 16, 16), (8, 16), 32, rng)
    dec = ConvDecoder(12, (3, 16, 16), (8, 16), rng)
    x = Tensor(rng.uniform(size=(5, 3, 16, 16)))
    feat = enc(x)
    assert feat.shape == (5, 32)
    out = dec(Tensor(rng.normal(size=(5, 12))))
    assert out.shape == (5, 3, 16, 16)


def test_conv_encoder_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    enc = ConvEncoder((2, 4, 4), (2, 3), 3, rng)
    x_val = rng.normal(size=(2, 2, 4, 4))
    ad.backward(enc(Tensor(x_val)).square().sum())
    for p in enc.parameters():
        base = p.data.copy()

        def f(v, p=p, base=base):
            p.data = v.reshape(base.shape)
            out = enc(Tensor(x_val)).square().sum().item()
            p.data = base.copy()
            return out

        fd = finite_diff_grad(f, base.ravel(), h=1e-6).reshape(base.shape)
        assert grad_rel_error(p.grad, fd) <= 1e-5
