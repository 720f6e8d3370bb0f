"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is taped implicitly: every operation touching a tensor that
requires gradients records its parents together with a closure computing
the vector-Jacobian product. ``backward`` on a scalar result walks the
graph in reverse topological order and accumulates gradients additively
into ``Tensor.grad``, so repeated backward calls sum until grads are
cleared.

All storage is float64. Recording can be suspended with ``no_grad()``
for forward-only evaluation (target networks, data collection, rollouts).

At full scale almost every op output is a fresh array of tens to hundreds
of megabytes. glibc serves any block above its mmap threshold (dynamic,
capped at 32 MiB) with a fresh mapping and unmaps it on free, so the
kernel would zero and fault in every such array again on every gradient
step. On import this module therefore raises glibc's ``M_MMAP_THRESHOLD``
to 1 GiB, once, so that freed temporaries stay on the heap and are reused.
Only that threshold is set: raising the trim threshold as well raised
the desk-scale peak resident memory by about 5%. Every temporary of the
largest config stays below 1 GiB, while the multi-gigabyte replay ring
stays mmapped. Where ``mallopt`` does not exist this does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

_grad_enabled = True

_M_MMAP_THRESHOLD = -3  # glibc's mallopt parameter number


def _keep_temporaries_on_heap():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1 << 30)


_keep_temporaries_on_heap()


@contextlib.contextmanager
def no_grad():
    """Suspend graph recording inside the with-block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense float64 array participating in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    def detach(self) -> "Tensor":
        """View of the same values, cut off from the graph."""
        return Tensor(self.data)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __neg__(self):
        return neg(self)

    def __getitem__(self, index):
        return getitem(self, index)

    # -- method forms of the op library --------------------------------------

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self):
        return tmean(self)

    def square(self):
        return mul(self, self)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data, parents, vjp) -> Tensor:
    """Wrap ``data``; record parents and vjp only if the tape is live."""
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._vjp = vjp
                break
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverses numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _accumulate(t: Tensor, g: np.ndarray, upstream=None, earlier=()):
    """Add ``g`` into ``t.grad``.

    A fresh float64 array that nothing else holds becomes ``t.grad`` as it
    is, memory order included. Anything else is copied first, so a later
    ``+=`` cannot write into another tensor's gradient: the ``upstream``
    gradient passed through, a view of it or of anything else, and an array
    already handed to an ``earlier`` parent of the same vjp.
    """
    if t.grad is not None:
        t.grad += g
    elif (
        isinstance(g, np.ndarray)
        and g.base is None
        and g.dtype == np.float64
        and g is not upstream
        and not any(g is e for e in earlier)
    ):
        t.grad = g
    else:
        t.grad = np.array(g, dtype=np.float64)


def backward(root: Tensor):
    """Accumulate d(root)/d(leaf) into .grad of every participating tensor.

    ``root`` must be a scalar (size 1). Accumulation is additive across
    calls until grads are cleared.
    """
    if root.data.size != 1:
        raise ValueError(f"backward requires a scalar root, got shape {root.data.shape}")
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    _accumulate(root, np.ones_like(root.data))
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        for i, (parent, g) in enumerate(zip(node._parents, grads)):
            if g is not None and parent.requires_grad:
                _accumulate(parent, g, node.grad, grads[:i])


# -- elementwise arithmetic ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _node(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _node(a.data * b.data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _node(a.data / b.data, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    mask = a.data <= b.data

    def vjp(g):
        return _unbroadcast(g * mask, a.data.shape), _unbroadcast(g * ~mask, b.data.shape)

    return _node(np.minimum(a.data, b.data), (a, b), vjp)


# -- unary functions ----------------------------------------------------------


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _node(out_data, (a,), lambda g: (g * out_data,))


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    return _node(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _node(a.data * mask, (a,), lambda g: (g * mask,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids overflow of exp for large |x|
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a: Tensor) -> Tensor:
    out_data = _softplus(a.data)
    return _node(out_data, (a,), lambda g: (g * _sigmoid(a.data),))


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes through strictly inside the range."""
    mask = (a.data >= lo) & (a.data <= hi)
    return _node(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


# -- reductions ---------------------------------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:
    def vjp(g):
        gk = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, a.data.shape).copy(),)

    return _node(a.data.sum(axis=axis), (a,), vjp)


def tmean(a: Tensor) -> Tensor:
    count = a.data.size
    return _node(a.data.mean(), (a,), lambda g: (np.broadcast_to(g / count, a.data.shape).copy(),))


# -- shape manipulation -------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), vjp)


def getitem(a: Tensor, index) -> Tensor:
    """Basic (slice/int/tuple) indexing only; index regions must not overlap."""

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _node(a.data[index], (a,), vjp)


# -- linear algebra -----------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fused affine map x @ w + b for 2-D x [N, in] and w [in, out]."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("linear expects 2-D input and weight")
    out_data = x.data @ w.data
    if b is not None:
        out_data = out_data + b.data

    def vjp(g):
        gx = g @ w.data.T if x.requires_grad else None
        gw = x.data.T @ g if w.requires_grad else None
        return gx, gw, g.sum(axis=0) if b is not None and b.requires_grad else None

    return _node(out_data, (x, w) if b is None else (x, w, b), vjp)


# -- 2-D convolution ----------------------------------------------------------
#
# Both convolutions and their vjps run on two kernels: _gather (im2col)
# multiplies every kernel window by a weight matrix, and _scatter (col2im)
# scatter-adds channels @ weight back over the windows. Each walks blocks of
# whole frames through a small zero-padded buffer, so the working set stays in
# cache and no full-batch padded copy is built. The results equal a
# whole-batch im2col bit for bit: window columns stay in (C, kh, kw) order,
# every output element adds its taps in (u, v) order from zero, and work is
# split only across GEMM rows, never along K. The kernels hand out
# channels-first memory only, because numpy reductions downstream (bias
# gradients, losses) sum in memory order.

_BLOCK_BYTES = 1 << 20


def _blocks(n: int, frame_bytes: int):
    """(start, stop) ranges splitting n frames into near-equal blocks of at
    most about _BLOCK_BYTES each. No block is a small remainder: BLAS may
    run a much smaller GEMM on a kernel that sums in another order."""
    count = min(n, -(-n * frame_bytes // _BLOCK_BYTES))
    for i in range(count):
        yield n * i // count, n * (i + 1) // count


def _gather(x: np.ndarray, w_cols: np.ndarray, grid, kh: int, kw: int, stride: int, pad: int, keep: bool):
    """Every kh x kw window of ``x`` [N,C,H,W], zero-padded by ``pad``, at
    ``grid`` positions ``stride`` apart, times ``w_cols`` [C*kh*kw, O].

    Returns the product [N,O,*grid] and, if ``keep``, the window rows
    [N*gh*gw, C*kh*kw] (else None).
    """
    n, c, h, wdt = x.shape
    gh, gw = grid
    per = gh * gw
    out = np.empty((n, w_cols.shape[1], gh, gw))
    cols = np.empty((n * per, c * kh * kw)) if keep else None
    for f0, f1 in _blocks(n, per * c * kh * kw * 8):
        buf = np.zeros((f1 - f0, c, h + 2 * pad, wdt + 2 * pad))
        buf[:, :, pad : pad + h, pad : pad + wdt] = x[f0:f1]
        rows = cols[f0 * per : f1 * per] if keep else np.empty(((f1 - f0) * per, c * kh * kw))
        # every window of the block as one read-only view, copied in one pass
        sn, sc, sh, sw = buf.strides
        windows = np.lib.stride_tricks.as_strided(
            buf, (f1 - f0, gh, gw, c, kh, kw), (sn, stride * sh, stride * sw, sc, sh, sw), writeable=False
        )
        rows.reshape(f1 - f0, gh, gw, c, kh, kw)[...] = windows
        out[f0:f1] = (rows @ w_cols).reshape(f1 - f0, gh, gw, -1).transpose(0, 3, 1, 2)
    return out, cols


def _scatter(y: np.ndarray, w: np.ndarray, out_shape, kh: int, kw: int, stride: int, pad: int):
    """Scatter-add, at every position of ``y`` [N,R,gh,gw], its R channels
    times ``w`` [R, C*kh*kw] over the kh x kw window at that position of an
    output ``out_shape`` [N,C,H,W] zero-padded by ``pad``; the adjoint of
    _gather's windowing."""
    n, c, h, wdt = out_shape
    _, r, gh, gw = y.shape
    out = np.empty(out_shape)
    for f0, f1 in _blocks(n, gh * gw * w.shape[1] * 8):
        rows = y[f0:f1].transpose(0, 2, 3, 1).reshape(-1, r)
        prod = (rows @ w).reshape(f1 - f0, gh, gw, c, kh, kw)
        buf = np.zeros((f1 - f0, c, h + 2 * pad, wdt + 2 * pad))
        for u in range(kh):
            for v in range(kw):
                buf[:, :, u : u + stride * gh : stride, v : v + stride * gw : stride] += (
                    prod[:, :, :, :, u, v].transpose(0, 3, 1, 2)
                )
        out[f0:f1] = buf[:, :, pad : pad + h, pad : pad + wdt]
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation. x: [N,C,H,W], w: [O,C,kh,kw], b: [O]."""
    _, c, h, wdt = x.data.shape
    o, c2, kh, kw = w.data.shape
    if c != c2:
        raise ValueError(f"conv2d channel mismatch: input {c}, kernel {c2}")
    grid = ((h + 2 * pad - kh) // stride + 1, (wdt + 2 * pad - kw) // stride + 1)
    w_flat = w.data.reshape(o, -1)
    # the window rows are kept only for a weight gradient the tape will ask for
    out_data, cols = _gather(x.data, w_flat.T, grid, kh, kw, stride, pad, _grad_enabled and w.requires_grad)
    out_data += b.data[:, None, None]

    def vjp(g):
        gx = _scatter(g, w_flat, x.data.shape, kh, kw, stride, pad) if x.requires_grad else None
        gw = None
        if w.requires_grad:
            gw = (g.transpose(0, 2, 3, 1).reshape(-1, o).T @ cols).reshape(w.data.shape)
        gb = g.sum(axis=(0, 2, 3)) if b.requires_grad else None
        return gx, gw, gb

    return _node(out_data, (x, w, b), vjp)


def conv2d_transpose(
    x: Tensor,
    w: Tensor,
    b: Tensor,
    stride: int = 1,
    pad: int = 0,
    out_extra: int = 0,
) -> Tensor:
    """Transposed 2-D convolution (adjoint of conv2d w.r.t. its input).

    x: [N,Cin,H,W], w: [Cin,Cout,kh,kw]; output spatial size is
    (H-1)*stride - 2*pad + kh + out_extra.
    """
    n, cin, h, wdt = x.data.shape
    cin2, cout, kh, kw = w.data.shape
    if cin != cin2:
        raise ValueError(f"conv2d_transpose channel mismatch: input {cin}, kernel {cin2}")
    ho = (h - 1) * stride - 2 * pad + kh + out_extra
    wo = (wdt - 1) * stride - 2 * pad + kw + out_extra
    w_flat = w.data.reshape(cin, -1)
    out_data = _scatter(x.data, w_flat, (n, cout, ho, wo), kh, kw, stride, pad)
    out_data += b.data[:, None, None]

    def vjp(g):
        # out_extra only ever adds trailing rows and columns that no window of x reaches
        gx, g_win = _gather(g, w_flat.T, (h, wdt), kh, kw, stride, pad, w.requires_grad)
        gw = None
        if w.requires_grad:
            x_flat = x.data.transpose(0, 2, 3, 1).reshape(-1, cin)
            gw = (x_flat.T @ g_win).reshape(w.data.shape)
        gb = g.sum(axis=(0, 2, 3)) if b.requires_grad else None
        return gx, gw, gb

    return _node(out_data, (x, w, b), vjp)
