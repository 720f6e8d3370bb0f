import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from costbound import autodiff as ad
from costbound.autodiff import Tensor
from costbound.oracle import finite_diff_grad, grad_rel_error


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    y = x * x
    ad.backward(y)
    assert np.allclose(x.grad, 6.0)


def test_unused_input_gets_no_gradient():
    x = Tensor(2.0, requires_grad=True)
    c = Tensor(5.0, requires_grad=True)
    loss = c * 1.0
    ad.backward(loss)
    assert x.grad is None  # never participated: gradient is zero
    assert np.allclose(c.grad, 1.0)


def test_non_scalar_root_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(x * 2.0)


def test_gradient_accumulates_until_cleared():
    x = Tensor(2.0, requires_grad=True)
    for _ in range(2):
        y = x * x
        ad.backward(y)
    assert np.allclose(x.grad, 8.0)
    x.grad = None
    ad.backward(x * x)
    assert np.allclose(x.grad, 4.0)


def test_second_backward_from_the_same_root_raises_and_keeps_the_first_gradient():
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    root = ad.tanh(x * x).sum()
    ad.backward(root)
    once = x.grad.copy()
    with pytest.raises(RuntimeError, match="released"):
        ad.backward(root)
    assert np.array_equal(x.grad, once)


def test_backward_through_an_intermediate_of_a_released_graph_raises_before_any_gradient_moves():
    x = Tensor(1.0, requires_grad=True)
    y = Tensor(1.0, requires_grad=True)
    h = x * x
    ad.backward(h.sum())
    assert x.grad == 2.0
    with pytest.raises(RuntimeError, match="released"):
        # y's branch would be walked before the one through h
        ad.backward((y * 3.0).sum() + (h * 2.0).sum())
    assert x.grad == 2.0 and y.grad is None


def test_backward_frees_the_intermediate_arrays_it_consumed():
    x = Tensor(np.random.default_rng(3).normal(size=64), requires_grad=True)
    h = ad.tanh(x * 2.0)
    held = weakref.ref(h.data)
    loss = (h * h).sum()
    del h
    ad.backward(loss)
    gc.collect()
    assert held() is None
    assert x.grad is not None and loss.item() > 0.0


def _conv_autoencoder_loss(frames, params):
    """A small conv encoder and decoder reconstructing ``frames``."""
    w1, b1, w2, b2, w3, b3, w4, b4 = params
    h = ad.conv2d(frames, w1, b1, stride=2, pad=1, relu=True)
    h = ad.conv2d(h, w2, b2, stride=2, pad=1, relu=True)
    h = ad.conv2d_transpose(h, w3, b3, stride=2, pad=1, out_extra=1, relu=True)
    err = ad.conv2d_transpose(h, w4, b4, stride=2, pad=1, out_extra=1) - frames
    return (err * err).sum()


def _window_row_bytes(frames, channels, grid, k=3):
    """Bytes of the float64 window rows of a k x k convolution."""
    return frames * grid[0] * grid[1] * channels * k * k * 8


def _tape_output_bytes(root):
    """Bytes of the outputs of every node of root's graph that has a vjp."""
    seen, stack, total = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            total += t.data.nbytes if t._vjp is not None else 0
            stack.extend(t._parents)
    return total


def test_backward_peak_memory_stays_below_half_the_forward_tape():
    rng = np.random.default_rng(4)
    frames = Tensor(rng.normal(size=(16, 3, 32, 32)))
    shapes = [(8, 3, 3, 3), (8,), (16, 8, 3, 3), (16,), (16, 8, 3, 3), (8,), (8, 3, 3, 3), (3,)]
    params = [Tensor(rng.normal(size=shape) * 0.1, requires_grad=True) for shape in shapes]
    ad.backward(_conv_autoencoder_loss(frames, params))  # fills the index-table caches
    for p in params:
        p.grad = None
    # one output per layer (conv1, conv2, deconv1, deconv2), err, its square and the sum
    layer_outputs = 8 * (16 * 8 * 16 * 16 + 16 * 16 * 8 * 8 + 16 * 8 * 16 * 16 + 3 * 16 * 3 * 32 * 32 + 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = _conv_autoencoder_loss(frames, params)
        before = tracemalloc.get_traced_memory()[0]
        outputs = _tape_output_bytes(loss)
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tape = before - start
    # no pre-activations: the ReLUs are fused into the layers that feed them
    assert outputs == layer_outputs
    # beyond the node outputs only bookkeeping, less than conv2's relu mask
    # would be: no masks and no window rows
    assert tape - outputs < 16 * 16 * 8 * 8
    # every conv vjp builds window rows (conv1 and conv2 of their inputs,
    # the deconvs of their output gradients), but by then backward has freed
    # the node outputs and upstream gradients that it passed
    assert peak - before < 0.5 * tape
    assert all(p.grad is not None for p in params)


def _decoder_loss(feats, target, params):
    """linear up and a stride-2 transposed conv, each with its ReLU fused
    in, then a plain stride-2 transposed conv, against ``target``."""
    w0, b0, w1, b1, w2, b2 = params
    h = ad.linear(feats, w0, b0, relu=True).reshape(len(target), 32, 8, 8)
    h = ad.conv2d_transpose(h, w1, b1, stride=2, pad=1, out_extra=1, relu=True)
    err = ad.conv2d_transpose(h, w2, b2, stride=2, pad=1, out_extra=1) - target
    return (err * err).sum()


def test_decoder_backward_peak_stays_below_one_window_row_set_and_one_layer_output():
    n = 16
    rng = np.random.default_rng(5)
    feats, target = Tensor(rng.normal(size=(n, 24))), rng.normal(size=(n, 3, 32, 32))
    shapes = [(24, 32 * 8 * 8), (32 * 8 * 8,), (32, 16, 3, 3), (16,), (16, 3, 3, 3), (3,)]
    params = [Tensor(rng.normal(size=shape) * 0.1, requires_grad=True) for shape in shapes]
    ad.backward(_decoder_loss(feats, target, params))  # fills the index-table caches
    # deconv1's vjp builds the window rows of its 16-channel output gradient
    # at the 8 x 8 input grid; deconv1's output is the largest layer output
    rows = max(_window_row_bytes(n, 16, (8, 8)), _window_row_bytes(n, 3, (16, 16)))
    layer_output = 8 * n * max(32 * 8 * 8, 16 * 16 * 16, 3 * 32 * 32)
    tracemalloc.start()
    try:
        loss = _decoder_loss(feats, target, params)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # while a vjp builds its rows, neither its node's output nor the
    # upstream gradient that backward handed it is held any more
    assert peak - before < rows + layer_output
    assert all(p.grad is not None for p in params)


def test_backward_releases_each_node_before_its_vjp_runs():
    x = Tensor(np.arange(4.0), requires_grad=True)
    seen = []

    def vjp(g):
        seen.append(output())
        return (g * 2.0,)

    out = ad._node(x.data * 2.0, (x,), vjp)
    # Tensor has no weakref slot; its data array lives exactly as long as it
    output = weakref.ref(out.data)
    loss = out.sum()
    del out
    ad.backward(loss)
    assert seen == [None]
    assert np.array_equal(x.grad, np.full(4, 2.0))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 CPython keeps call arguments on the caller's stack")
def test_each_vjp_holds_the_only_reference_to_its_upstream_gradient():
    x = Tensor(np.arange(4.0), requires_grad=True)
    freed = []

    def vjp(g):
        upstream = weakref.ref(g)
        gx = g * 3.0
        del g
        freed.append(upstream() is None)
        return (gx,)

    ad.backward(ad._node(x.data * 3.0, (x,), vjp).sum())
    assert freed == [True]
    assert np.array_equal(x.grad, np.full(4, 3.0))


def test_tanh_matmul_matches_finite_differences():
    rng = np.random.default_rng(0)
    w_val = rng.normal(size=(4, 4))
    x = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    w = Tensor(w_val, requires_grad=True)

    def forward(x_val):
        return float(np.sum(np.tanh(w_val @ x_val)))

    loss = ad.tanh(ad.linear(w, x)).sum()
    ad.backward(loss)
    fd = finite_diff_grad(forward, x.data, h=1e-5)
    assert grad_rel_error(x.grad, fd) <= 1e-6


def test_no_grad_suppresses_recording():
    x = Tensor(1.5, requires_grad=True)
    with ad.no_grad():
        y = x * x
    assert not y.requires_grad
    assert y._parents == ()


def test_detach_cuts_graph():
    x = Tensor(2.0, requires_grad=True)
    y = (x * x).detach() * x
    ad.backward(y)
    assert np.allclose(x.grad, 4.0)  # only the outer factor differentiates


def test_broadcast_add_backward():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.arange(4.0), requires_grad=True)
    loss = (x + b).sum()
    ad.backward(loss)
    assert x.grad.shape == (3, 4)
    assert np.allclose(b.grad, 3.0 * np.ones(4))


_COLUMN_OPS = {"add": (ad.add, lambda a, b: a + b), "mul": (ad.mul, lambda a, b: a * b)}


@pytest.mark.parametrize("name", sorted(_COLUMN_OPS))
def test_a_column_broadcast_sums_its_gradient_with_kept_dims(name):
    # a [3,1] operand against a [3,4] one: _unbroadcast sums axis 1 and keeps it
    op, numpy_op = _COLUMN_OPS[name]
    rng = np.random.default_rng(16)
    a_val, b_val, g = rng.normal(size=(3, 1)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    a, b = Tensor(a_val, requires_grad=True), Tensor(b_val, requires_grad=True)
    ga, gb = op(a, b)._vjp(g.copy())
    want_a, want_b = (g, g) if name == "add" else (g * b_val, g * a_val)
    _assert_bitwise_equal(ga, want_a.sum(axis=1, keepdims=True))
    _assert_bitwise_equal(gb, want_b)
    ad.backward((op(a, b) * Tensor(g)).sum())
    assert a.grad.shape == (3, 1)
    fd_a = finite_diff_grad(lambda v: float(np.sum(numpy_op(v, b_val) * g)), a_val)
    fd_b = finite_diff_grad(lambda v: float(np.sum(numpy_op(a_val, v) * g)), b_val)
    assert grad_rel_error(a.grad, fd_a) <= 1e-6 and grad_rel_error(b.grad, fd_b) <= 1e-6


def test_minimum_routes_gradient_to_smaller():
    a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
    b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    ad.backward(ad.minimum(a, b).sum())
    assert np.allclose(a.grad, [1.0, 0.0])
    assert np.allclose(b.grad, [0.0, 1.0])


def test_concat_and_slice_backward():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    cat = ad.concat([a, b], axis=1)
    ad.backward((cat[:, 1:4] * 2.0).sum())
    assert np.allclose(a.grad, [[0.0, 2.0], [0.0, 2.0]])
    assert np.allclose(b.grad, [[2.0, 2.0, 0.0], [2.0, 2.0, 0.0]])


def _copy_every_gradient(t, g, *_):
    """The accumulation that copied every gradient it received."""
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


# graphs over x [3,4], y [3,4] and b [4] whose vjps hand the same array, a
# view of it or the upstream gradient to more than one tensor
_ALIASING_GRAPHS = {
    "x + x": lambda x, y, b: ((x + x) * y).sum(),
    "x * x": lambda x, y, b: (x * x * y).sum(),
    "concat then slices": lambda x, y, b: (
        lambda cat: (cat[:, 2:6] * cat[:, 0:4] + cat[:, 4:8]).sum()
    )(ad.concat([x, y], axis=1)),
    "reshape": lambda x, y, b: ad.linear(ad.tanh(x.reshape(2, 6)), y.reshape(6, 2)).sum() + x.reshape(12).sum(),
    "broadcast add": lambda x, y, b: ((x + b) * (y + b)).sum(),
    "one tensor feeding two ops": lambda x, y, b: (ad.tanh(x) * ad.exp(x) + ad.softplus(x) * y).sum(),
    "one vjp array for two parents": lambda x, y, b: (
        ad._node(x.data + y.data, (x, y), lambda g: (g * 1.0,) * 2) * 3.0 + x * y
    ).sum(),
    # h keeps the add's own gradient, and h * y then adds into it in place
    "add passes its upstream to a non-leaf": lambda x, y, b: (
        lambda h: ((h + y) * x + h * y).sum()
    )(ad.tanh(x)),
    # the fused ReLU masks its upstream gradient in place
    "fused relu feeding two ops": lambda x, y, b: (
        lambda h: (h * ad.tanh(h) + ad.exp(h) * y).sum()
    )(ad.linear(x, ad.concat([y, b.reshape(1, 4)], axis=0), b, relu=True)),
    "add passes its upstream to a fused relu": lambda x, y, b: (
        lambda h: ((h + y) * x).sum()
    )(ad.linear(x, ad.concat([y, b.reshape(1, 4)], axis=0), b, relu=True)),
}


def _backward_through(graph, passes):
    """Leaves x, y, b and every intermediate node after ``passes`` forward
    and backward passes without clearing grads; each pass's nodes are
    collected before its backward releases them."""
    rng = np.random.default_rng(7)
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((3, 4), (3, 4), (4,))]
    nodes, seen = [], set()
    for _ in range(passes):
        root = graph(*leaves)
        stack = [root]
        while stack:
            t = stack.pop()
            if id(t) not in seen and t._parents:
                seen.add(id(t))
                nodes.append(t)
                stack.extend(t._parents)
        ad.backward(root)
    return leaves, nodes


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("name", list(_ALIASING_GRAPHS))
def test_kept_gradients_share_no_memory_and_equal_copied_ones(name, passes, monkeypatch):
    leaves, nodes = _backward_through(_ALIASING_GRAPHS[name], passes)
    monkeypatch.setattr(ad, "_accumulate", _copy_every_gradient)
    copied, _ = _backward_through(_ALIASING_GRAPHS[name], passes)
    grads = [t.grad for t in leaves if t.grad is not None]
    assert [t.grad is None for t in leaves] == [t.grad is None for t in copied]
    for t, ref in zip(leaves, copied):
        if ref.grad is not None:
            assert t.grad.strides == ref.grad.strides and t.grad.tobytes() == ref.grad.tobytes()
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, other) for other in grads[i + 1 :])
    assert nodes and all(node.grad is None for node in nodes)


_SMOOTH_OPS = {
    "tanh": (ad.tanh, np.tanh),
    "exp": (ad.exp, np.exp),
    "softplus": (ad.softplus, lambda v: np.logaddexp(0.0, v)),
    "square": (lambda t: t * t, lambda v: v * v),
    "sin_free_mul": (lambda t: t * 0.7 + 0.1, lambda v: v * 0.7 + 0.1),
}


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(st.sampled_from(sorted(_SMOOTH_OPS)), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_smooth_compositions_match_finite_differences(ops, seed):
    rng = np.random.default_rng(seed)
    x_val = rng.uniform(-3.0, 3.0, size=5)

    def run_numpy(v):
        h = v
        for name in ops:
            h = _SMOOTH_OPS[name][1](h)
        return float(np.sum(h))

    # keep every intermediate well inside float64 range (exp chains explode)
    h_probe = x_val
    for name in ops:
        h_probe = _SMOOTH_OPS[name][1](h_probe)
        assume(np.all(np.isfinite(h_probe)) and np.max(np.abs(h_probe)) < 20.0)

    t = Tensor(x_val, requires_grad=True)
    h = t
    for name in ops:
        h = _SMOOTH_OPS[name][0](h)
    ad.backward(h.sum())
    fd = finite_diff_grad(run_numpy, x_val, h=1e-5)
    assume(np.linalg.norm(fd) > 1e-6)  # near-constant outputs make rel error meaningless
    assert grad_rel_error(t.grad, fd) <= 1e-4


def test_conv2d_matches_finite_differences():
    rng = np.random.default_rng(1)
    x_val = rng.normal(size=(2, 2, 4, 4))
    w_val = rng.normal(size=(3, 2, 3, 3))
    b_val = rng.normal(size=3)

    x = Tensor(x_val, requires_grad=True)
    w = Tensor(w_val, requires_grad=True)
    b = Tensor(b_val, requires_grad=True)
    out = ad.conv2d(x, w, b, stride=2, pad=1)
    assert out.shape == (2, 3, 2, 2)
    ad.backward(out.sum())

    def f_x(v):
        return ad.conv2d(Tensor(v), Tensor(w_val), Tensor(b_val), stride=2, pad=1).sum().item()

    def f_w(v):
        return ad.conv2d(Tensor(x_val), Tensor(v), Tensor(b_val), stride=2, pad=1).sum().item()

    def f_b(v):
        return ad.conv2d(Tensor(x_val), Tensor(w_val), Tensor(v), stride=2, pad=1).sum().item()

    assert grad_rel_error(x.grad, finite_diff_grad(f_x, x_val)) <= 1e-6
    assert grad_rel_error(w.grad, finite_diff_grad(f_w, w_val)) <= 1e-6
    assert grad_rel_error(b.grad, finite_diff_grad(f_b, b_val)) <= 1e-6


def test_conv2d_transpose_matches_finite_differences():
    rng = np.random.default_rng(2)
    x_val = rng.normal(size=(2, 3, 2, 2))
    w_val = rng.normal(size=(3, 2, 3, 3))
    b_val = rng.normal(size=2)

    x = Tensor(x_val, requires_grad=True)
    w = Tensor(w_val, requires_grad=True)
    b = Tensor(b_val, requires_grad=True)
    out = ad.conv2d_transpose(x, w, b, stride=2, pad=1, out_extra=1)
    assert out.shape == (2, 2, 4, 4)
    loss = (out * out).sum()
    ad.backward(loss)

    def f_x(v):
        o = ad.conv2d_transpose(Tensor(v), Tensor(w_val), Tensor(b_val), stride=2, pad=1, out_extra=1)
        return (o * o).sum().item()

    def f_w(v):
        o = ad.conv2d_transpose(Tensor(x_val), Tensor(v), Tensor(b_val), stride=2, pad=1, out_extra=1)
        return (o * o).sum().item()

    def f_b(v):
        o = ad.conv2d_transpose(Tensor(x_val), Tensor(w_val), Tensor(v), stride=2, pad=1, out_extra=1)
        return (o * o).sum().item()

    assert grad_rel_error(x.grad, finite_diff_grad(f_x, x_val)) <= 1e-6
    assert grad_rel_error(w.grad, finite_diff_grad(f_w, w_val)) <= 1e-6
    assert grad_rel_error(b.grad, finite_diff_grad(f_b, b_val)) <= 1e-6


# The whole-batch im2col convolutions that the frame-blocked kernels in
# autodiff replaced, frozen here as the bit-exact reference for them.


def _reference_windows(x, kh, kw, stride, pad):
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    return win.transpose(0, 2, 3, 1, 4, 5)


def reference_conv2d(x, w, b, stride, pad):
    """Output and a vjp returning (gx, gw, gb)."""
    n, c, h, wdt = x.shape
    o, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wdt + 2 * pad - kw) // stride + 1
    cols = np.ascontiguousarray(_reference_windows(x, kh, kw, stride, pad)).reshape(n * ho * wo, c * kh * kw)
    w_flat = w.reshape(o, -1)
    out = (cols @ w_flat.T + b).reshape(n, ho, wo, o).transpose(0, 3, 1, 2)

    def vjp(g):
        g_cols = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, o)
        gw = (g_cols.T @ cols).reshape(o, c, kh, kw)
        gx_cols = (g_cols @ w_flat).reshape(n, ho, wo, c, kh, kw)
        gx_pad = np.zeros((n, c, h + 2 * pad, wdt + 2 * pad))
        for u in range(kh):
            for v in range(kw):
                gx_pad[:, :, u : u + stride * ho : stride, v : v + stride * wo : stride] += (
                    gx_cols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
                )
        gx = gx_pad[:, :, pad : pad + h, pad : pad + wdt] if pad else gx_pad
        return gx, gw, g.sum(axis=(0, 2, 3))

    return out, vjp


def reference_conv2d_transpose(x, w, b, stride, pad, out_extra):
    """Output and a vjp returning (gx, gw, gb)."""
    n, cin, h, wdt = x.shape
    _, cout, kh, kw = w.shape
    ho = (h - 1) * stride - 2 * pad + kh + out_extra
    wo = (wdt - 1) * stride - 2 * pad + kw + out_extra
    prod = x.transpose(0, 2, 3, 1).reshape(n * h * wdt, cin) @ w.reshape(cin, -1)
    prod = prod.reshape(n, h, wdt, cout, kh, kw)
    full = np.zeros((n, cout, ho + 2 * pad + out_extra + stride, wo + 2 * pad + out_extra + stride))
    for u in range(kh):
        for v in range(kw):
            full[:, :, u : u + stride * h : stride, v : v + stride * wdt : stride] += (
                prod[:, :, :, :, u, v].transpose(0, 3, 1, 2)
            )
    out = full[:, :, pad : pad + ho, pad : pad + wo] + b[None, :, None, None]

    def vjp(g):
        g_win = _reference_windows(g, kh, kw, stride, pad)[:, :h, :wdt]
        g_win = np.ascontiguousarray(g_win).reshape(n * h * wdt, cout * kh * kw)
        gx = (g_win @ w.reshape(cin, -1).T).reshape(n, h, wdt, cin).transpose(0, 3, 1, 2)
        x_flat = x.transpose(0, 2, 3, 1).reshape(n * h * wdt, cin)
        gw = (x_flat.T @ g_win).reshape(cin, cout, kh, kw)
        return gx, gw, g.sum(axis=(0, 2, 3))

    return out, vjp


# (op, x shape, w shape, keyword arguments)
_CONV_CASES = {
    "desk_conv1": ("conv2d", (3, 3, 16, 16), (8, 3, 3, 3), dict(stride=2, pad=1)),
    "desk_conv2": ("conv2d", (3, 8, 8, 8), (16, 8, 3, 3), dict(stride=2, pad=1)),
    "desk_deconv1": ("conv2d_transpose", (3, 16, 4, 4), (16, 8, 3, 3), dict(stride=2, pad=1, out_extra=1)),
    "desk_deconv2": ("conv2d_transpose", (3, 8, 8, 8), (8, 3, 3, 3), dict(stride=2, pad=1, out_extra=1)),
    "full_conv1": ("conv2d", (2, 3, 64, 64), (32, 3, 3, 3), dict(stride=2, pad=1)),
    "full_conv2": ("conv2d", (2, 32, 32, 32), (64, 32, 3, 3), dict(stride=2, pad=1)),
    "full_deconv1": ("conv2d_transpose", (2, 64, 16, 16), (64, 32, 3, 3), dict(stride=2, pad=1, out_extra=1)),
    "full_deconv2": ("conv2d_transpose", (2, 32, 32, 32), (32, 3, 3, 3), dict(stride=2, pad=1, out_extra=1)),
    "conv_stride1_pad0": ("conv2d", (2, 3, 7, 6), (4, 3, 3, 3), dict(stride=1, pad=0)),
    "conv_k2_stride3_pad2": ("conv2d", (2, 3, 7, 6), (4, 3, 2, 2), dict(stride=3, pad=2)),
    "deconv_stride1_pad0": ("conv2d_transpose", (2, 3, 4, 5), (3, 4, 3, 3), dict(stride=1, pad=0, out_extra=0)),
    "deconv_k2_stride3_pad2": ("conv2d_transpose", (2, 3, 4, 5), (3, 4, 2, 2), dict(stride=3, pad=2, out_extra=1)),
    "deconv_k2_stride3_pad2_extra0": (
        "conv2d_transpose", (2, 3, 4, 5), (3, 4, 2, 2), dict(stride=3, pad=2, out_extra=0)
    ),
    "conv_n1": ("conv2d", (1, 8, 8, 8), (16, 8, 3, 3), dict(stride=2, pad=1)),
    "deconv_n1": ("conv2d_transpose", (1, 16, 4, 4), (16, 8, 3, 3), dict(stride=2, pad=1, out_extra=1)),
    # up to 9 taps meet in one output element; the name sorts last, so the
    # seeds that the cases above draw from stay as they were
    "taps9_deconv_stride1_pad1": (
        "conv2d_transpose", (2, 3, 5, 4), (3, 4, 3, 3), dict(stride=1, pad=1, out_extra=0)
    ),
}
_REFERENCES = {"conv2d": reference_conv2d, "conv2d_transpose": reference_conv2d_transpose}


def _conv_outputs(op, x_val, w_val, b_val, g, **kw):
    x = Tensor(x_val, requires_grad=True)
    w = Tensor(w_val, requires_grad=True)
    b = Tensor(b_val, requires_grad=True)
    out = getattr(ad, op)(x, w, b, **kw)
    return out.data, out._vjp(g)


def _with_special_values(rng, values):
    """``values`` with its first frame's first channel all -0.0, about one
    entry in ten an exact zero of either sign, and one +inf, -inf and NaN."""
    values = values.copy()
    values[0, 0] = -0.0
    flat = values.reshape(-1)
    zeros = rng.random(flat.size) < 0.1
    flat[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    flat[rng.choice(flat.size, 3, replace=False)] = [np.inf, -np.inf, np.nan]
    return values


def _assert_bitwise_equal(got, want):
    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
    zeros = want == 0
    assert np.array_equal(np.signbit(got[zeros]), np.signbit(want[zeros]))


def _assert_matches_reference(op, x_shape, w_shape, kw, seed, special=False):
    rng = np.random.default_rng(seed)
    x_val, w_val = rng.normal(size=x_shape), rng.normal(size=w_shape)
    b_val = rng.normal(size=w_shape[0] if op == "conv2d" else w_shape[1])
    if special:
        x_val = _with_special_values(rng, x_val)
        b_val[:2] = [-0.0, 0.0]
    ref_out, ref_vjp = _REFERENCES[op](x_val, w_val, b_val, **kw)
    g = rng.normal(size=ref_out.shape)
    if special:
        g = _with_special_values(rng, g)
    out, grads = _conv_outputs(op, x_val, w_val, b_val, g, **kw)
    for got, want in zip((out, *grads), (ref_out, *ref_vjp(g))):
        _assert_bitwise_equal(got, want)
        assert list(got.strides) == sorted(got.strides, reverse=True)  # channels-first memory


@pytest.mark.parametrize("case", sorted(_CONV_CASES))
def test_conv_kernels_match_the_whole_batch_reference_bitwise(case):
    op, x_shape, w_shape, kw = _CONV_CASES[case]
    _assert_matches_reference(op, x_shape, w_shape, kw, seed=sorted(_CONV_CASES).index(case))


@pytest.mark.parametrize("case", sorted(_CONV_CASES))
def test_conv_kernels_match_the_reference_bitwise_on_signed_zeros_infs_and_nans(case):
    op, x_shape, w_shape, kw = _CONV_CASES[case]
    seed = 100 + sorted(_CONV_CASES).index(case)
    with np.errstate(invalid="ignore"):
        _assert_matches_reference(op, x_shape, w_shape, kw, seed=seed, special=True)


@pytest.mark.parametrize("case", sorted(_CONV_CASES))
def test_conv_forward_under_no_grad_matches_the_reference_bitwise(case):
    # conv2d's _gather keeps no window rows here
    op, x_shape, w_shape, kw = _CONV_CASES[case]
    rng = np.random.default_rng(200 + sorted(_CONV_CASES).index(case))
    x_val, w_val = rng.normal(size=x_shape), rng.normal(size=w_shape)
    b_val = rng.normal(size=w_shape[0] if op == "conv2d" else w_shape[1])
    with ad.no_grad():
        out = getattr(ad, op)(Tensor(x_val), Tensor(w_val, requires_grad=True), Tensor(b_val), **kw)
    assert out._vjp is None
    _assert_bitwise_equal(out.data, _REFERENCES[op](x_val, w_val, b_val, **kw)[0])


def test_conv_index_tables_are_cached_and_read_only():
    for case in ("desk_conv1", "taps9_deconv_stride1_pad1"):
        _assert_matches_reference(*_CONV_CASES[case], seed=0)
    hits = ad._window_table.cache_info().hits, ad._tap_table.cache_info().hits
    tables = [
        ad._window_table(3, 18, 18, (8, 8), 3, 3, 2),  # desk_conv1's windows
        ad._tap_table(3, 16, 16, (8, 8), 3, 3, 2, 1),  # desk_conv1's input gradient
        ad._tap_table(4, 5, 4, (5, 4), 3, 3, 1, 1),  # taps9's output
    ]
    assert (ad._window_table.cache_info().hits, ad._tap_table.cache_info().hits) == (hits[0] + 1, hits[1] + 2)
    assert len(tables[1]) == 4 and len(tables[2]) == 9
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("case", ["full_conv1", "full_conv2", "full_deconv1", "full_deconv2"])
def test_conv_kernels_split_into_frame_blocks_stay_bitwise(case, monkeypatch):
    # 5 frames make 2 uneven blocks at 3 channels and 5 one-frame blocks at
    # 32 or 64. Each block's GEMM stays above the size below which OpenBLAS
    # may switch to its small-matrix kernel, which sums in another order.
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 600_000)
    op, x_shape, w_shape, kw = _CONV_CASES[case]
    _assert_matches_reference(op, (5, *x_shape[1:]), w_shape, kw, seed=11)


def test_conv2d_keeps_no_window_rows_on_the_tape():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(8, 8, 16, 16)), requires_grad=True)
    w = Tensor(rng.normal(size=(16, 8, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=16), requires_grad=True)
    ad.conv2d(x, w, b, stride=2, pad=1)  # fills the index-table cache
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, w, b, stride=2, pad=1)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert out._vjp is not None
    assert held - out.data.nbytes < _window_row_bytes(8, 8, (8, 8))


# which of (x, w, b) require a gradient; w is frozen by detach
_GRAD_COMBINATIONS = [(x, w, b) for x in (True, False) for w in (True, False) for b in (True, False) if x or w or b]


@pytest.mark.parametrize("needs", _GRAD_COMBINATIONS, ids=lambda n: "".join("xwb"[i] for i in range(3) if n[i]))
@pytest.mark.parametrize("case", ["desk_conv1", "desk_deconv2", "conv_k2_stride3_pad2", "deconv_k2_stride3_pad2"])
def test_conv_vjps_match_the_reference_bitwise_with_any_operand_frozen(case, needs):
    op, x_shape, w_shape, kw = _CONV_CASES[case]
    rng = np.random.default_rng(12)
    vals = [rng.normal(size=x_shape), rng.normal(size=w_shape)]
    vals.append(rng.normal(size=w_shape[0] if op == "conv2d" else w_shape[1]))
    ref_out, ref_vjp = _REFERENCES[op](*vals, **kw)
    g = rng.normal(size=ref_out.shape)
    x, w, b = (Tensor(v, requires_grad=True) for v in vals)
    operands = [t if need else (t.detach() if t is w else Tensor(t.data)) for t, need in zip((x, w, b), needs)]
    out = getattr(ad, op)(*operands, **kw)
    direct = getattr(ad, op)(*operands, **kw)._vjp(g.copy())
    ad.backward((out * g).sum())  # out's upstream gradient is g, bit for bit
    _assert_bitwise_equal(out.data, ref_out)
    for t, need, got, want in zip((x, w, b), needs, direct, ref_vjp(g)):
        if need or t is w:
            # every conv weight is trained, so the vjp always computes the
            # weight gradient; backward drops it for a detached weight
            _assert_bitwise_equal(got, want)
        else:
            assert got is None  # the vjp computes nothing for a frozen input or bias
        if need:
            _assert_bitwise_equal(t.grad, want)
        else:
            assert t.grad is None


@pytest.mark.parametrize("w_grad", [True, False], ids=["w", "w_frozen"])
@pytest.mark.parametrize("case", ["desk_conv1", "desk_deconv2"])
def test_each_conv_vjp_builds_its_window_rows_once(case, w_grad, monkeypatch):
    op, x_shape, w_shape, kw = _CONV_CASES[case]
    rng = np.random.default_rng(15)
    w = Tensor(rng.normal(size=w_shape), requires_grad=True)
    out = getattr(ad, op)(
        Tensor(rng.normal(size=x_shape), requires_grad=True),
        w if w_grad else w.detach(),
        Tensor(rng.normal(size=w_shape[0] if op == "conv2d" else w_shape[1]), requires_grad=True),
        **kw,
    )
    builds, whole = [], []
    window_rows, windows = ad._window_rows, ad._windows

    def counted(*args, **kwargs):
        builds.append(args[0].shape)
        return window_rows(*args, **kwargs)

    def counted_whole(*args, **kwargs):
        whole.append(args[0].shape)
        return windows(*args, **kwargs)

    monkeypatch.setattr(ad, "_window_rows", counted)
    monkeypatch.setattr(ad, "_windows", counted_whole)
    gx, gw, gb = out._vjp(rng.normal(size=out.shape))
    # conv2d: x's rows for the weight gradient; conv2d_transpose: the output
    # gradient's rows, read by both the weight and the input gradient; a
    # detached weight takes the same path
    rows_of = x_shape if op == "conv2d" else out.shape
    assert builds == whole == [rows_of]
    assert gx.shape == x_shape and gw.shape == w_shape and gb.shape == (len(gb),)


def test_linear_input_without_grad_gets_no_gradient():
    rng = np.random.default_rng(12)
    x_val, w_val, b_val = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
    g = rng.normal(size=(5, 4))
    w, b = Tensor(w_val, requires_grad=True), Tensor(b_val, requires_grad=True)
    gx, gw, gb = ad.linear(Tensor(x_val), w, b)._vjp(g)
    assert gx is None and np.array_equal(gw, x_val.T @ g) and np.array_equal(gb, g.sum(axis=0))


# ops with their ReLU fused in: (op, x shape, w shape, keyword arguments)
_FUSED_CASES = {
    "linear": ("linear", (6, 4), (4, 5), {}),
    "conv2d": ("conv2d", (2, 2, 4, 4), (4, 2, 3, 3), dict(stride=2, pad=1)),
    "conv2d_transpose": ("conv2d_transpose", (2, 3, 2, 2), (3, 4, 3, 3), dict(stride=2, pad=1, out_extra=1)),
}
_OUT_AXIS = {"linear": 1, "conv2d": 0, "conv2d_transpose": 1}  # of w


def _fused_operands(op, x_shape, w_shape, rng, special=False):
    """x, w and b for ``op``. With ``special``, output channels 0, 1 and 2
    get biases +inf, -inf and -0.0, one input of frame 1 is NaN, and frame
    0 and channel 2's weights are tiny enough that their products
    underflow to -0.0. The pre-activation is -0.0 where the sum of those
    products stays -0.0: OpenBLAS keeps it for linear's GEMM, but returns
    +0.0 for the convolutions' GEMM on a transposed weight operand, and
    _scatter starts every sum from +0.0."""
    x_val, w_val = rng.normal(size=x_shape), rng.normal(size=w_shape)
    b_val = rng.normal(size=w_shape[_OUT_AXIS[op]])
    if special:
        b_val[:3] = [np.inf, -np.inf, -0.0]
        x_val[0] = -1e-200 * np.abs(x_val[0])
        x_val[1].flat[0] = np.nan
        channel = np.moveaxis(w_val, _OUT_AXIS[op], 0)[2]
        channel[...] = 1e-200 * np.abs(channel)
    return x_val, w_val, b_val


@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
def test_fused_relu_matches_the_unfused_arithmetic_bitwise(case):
    op, x_shape, w_shape, kw = _FUSED_CASES[case]
    rng = np.random.default_rng(sorted(_FUSED_CASES).index(case))
    vals = _fused_operands(op, x_shape, w_shape, rng, special=True)
    with np.errstate(invalid="ignore"):
        pre = getattr(ad, op)(*(Tensor(v, requires_grad=True) for v in vals), **kw)
        fused = getattr(ad, op)(*(Tensor(v, requires_grad=True) for v in vals), relu=True, **kw)
        g = rng.normal(size=pre.shape)
        mask = pre.data > 0
        want = (pre.data * mask, *pre._vjp(g * mask))
        got = (fused.data, *fused._vjp(g.copy()))
    assert np.isnan(pre.data).any() and np.isposinf(pre.data).any() and np.isneginf(pre.data).any()
    assert (pre.data == 0).any()
    if op == "linear":
        assert ((pre.data == 0) & np.signbit(pre.data)).any()
    for a, b in zip(got, want):
        _assert_bitwise_equal(a, b)


def test_relu_in_place_equals_the_masked_product_and_keeps_its_mask():
    pre = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -1.5, 2.5, 5e-324, -5e-324])
    out = pre.copy()
    with np.errstate(invalid="ignore"):
        ad._relu_(out)
        want = pre * (pre > 0)
    _assert_bitwise_equal(out, want)
    assert np.signbit(out[0]) and np.isnan(out[4])  # relu(-0.0) = -0.0 and relu(-inf) = NaN
    assert np.array_equal(out > 0, pre > 0)


@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
def test_fused_relu_matches_finite_differences(case):
    op, x_shape, w_shape, kw = _FUSED_CASES[case]
    vals = _fused_operands(op, x_shape, w_shape, np.random.default_rng(20 + sorted(_FUSED_CASES).index(case)))
    pre = getattr(ad, op)(*map(Tensor, vals), **kw).data
    # both sides of the kink, and no pre-activation close enough to it for a
    # central difference to straddle it
    assert (pre < 0).any() and (pre > 0).any() and np.abs(pre).min() > 1e-3
    tensors = [Tensor(v, requires_grad=True) for v in vals]
    out = getattr(ad, op)(*tensors, relu=True, **kw)
    ad.backward((out * out).sum())
    for i, t in enumerate(tensors):

        def f(v, i=i):
            o = getattr(ad, op)(*(Tensor(v if j == i else vals[j]) for j in range(3)), relu=True, **kw)
            return (o * o).sum().item()

        assert grad_rel_error(t.grad, finite_diff_grad(f, vals[i])) <= 1e-4


@pytest.mark.parametrize(
    "case", ["conv_stride1_pad0", "conv_k2_stride3_pad2", "deconv_k2_stride3_pad2", "deconv_k2_stride3_pad2_extra0"]
)
def test_conv_kernels_match_finite_differences_at_odd_shapes(case):
    op, x_shape, w_shape, kw = _CONV_CASES[case]
    rng = np.random.default_rng(13)
    vals = [rng.normal(size=(1, *x_shape[1:])), rng.normal(size=w_shape)]
    vals.append(rng.normal(size=w_shape[0] if op == "conv2d" else w_shape[1]))
    tensors = [Tensor(v, requires_grad=True) for v in vals]
    out = getattr(ad, op)(*tensors, **kw)
    ad.backward((out * out).sum())
    for i, t in enumerate(tensors):

        def f(v, i=i):
            args = [Tensor(v if j == i else vals[j]) for j in range(3)]
            o = getattr(ad, op)(*args, **kw)
            return (o * o).sum().item()

        assert grad_rel_error(t.grad, finite_diff_grad(f, vals[i])) <= 1e-6


def test_conv_transpose_is_adjoint_of_conv():
    # <conv(x, w), y> == <x, convT(y, w)>: same [O,C,k,k] kernel read as [Cin,Cout,k,k]
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 4, 4))
    w = rng.normal(size=(3, 2, 3, 3))
    y = rng.normal(size=(1, 3, 2, 2))
    cx = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(3)), stride=2, pad=1).data
    cty = ad.conv2d_transpose(Tensor(y), Tensor(w), Tensor(np.zeros(2)), stride=2, pad=1, out_extra=1).data
    assert np.allclose(np.sum(cx * y), np.sum(x * cty))


def test_determinism_same_inputs_bitwise():
    rng = np.random.default_rng(4)
    x_val = rng.normal(size=(5, 5))

    def run():
        x = Tensor(x_val, requires_grad=True)
        loss = ad.tanh(ad.linear(x, x)).sum() * 0.3
        ad.backward(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_values_and_grads_finite_on_finite_inputs():
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(-3, 3, size=(4, 4)), requires_grad=True)
    loss = (ad.softplus(ad.tanh(x) * 50.0) + ad.softplus(x * 100.0)).sum()
    ad.backward(loss)
    assert np.all(np.isfinite(loss.data))
    assert np.all(np.isfinite(x.grad))
