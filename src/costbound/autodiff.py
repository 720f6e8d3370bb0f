"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is taped implicitly: every operation touching a tensor that
requires gradients records its parents together with a closure computing
the vector-Jacobian product. ``backward`` on a scalar result walks the
graph in reverse topological order and accumulates gradients additively
into the ``Tensor.grad`` of its leaves, so backward calls over separate
graphs sum there until grads are cleared. A graph is released by its own
backward, so it can be walked only once: each node drops its gradient, its
vjp and its parents just before the vjp runs, and the vjp is called with
the only reference to the upstream gradient and, through its closure, to
the arrays it saved. Each full-size array is therefore freed as soon as its
last reader is done, inside the vjp if that comes first. What a vjp saves
is kept small: the convolutions save no window rows and gather them again
from their input, whose array the tape holds anyway as the node's parent,
trading a cheap recompute for the largest arrays of a full-scale forward.
A ReLU is part of the op that feeds it (``relu=True`` on ``linear``,
``conv2d`` and ``conv2d_transpose``): the op keeps only its post-activation
output, and its vjp rebuilds the mask from that output, so the tape holds
no pre-activation and no mask.

All storage is float64. Recording can be suspended with ``no_grad()``
for forward-only evaluation (target networks, data collection, rollouts).

At full scale almost every op output is a fresh array of tens to hundreds
of megabytes, and a desk-scale step frees and allocates thousands of
smaller ones. glibc serves any block above its mmap threshold (dynamic,
capped at 32 MiB) with a fresh mapping and unmaps it on free, and it hands
free memory at the top of the heap back to the kernel once more than its
trim threshold (128 KiB) has gathered there. Either way the kernel zeroes
and faults in the same pages again on the next gradient step. On import
this module therefore sets, once, both glibc's ``M_MMAP_THRESHOLD`` and its
``M_TRIM_THRESHOLD`` to 1 GiB: any block the heap serves also stays on the
heap, freed temporaries are reused, and only more than 1 GiB of free memory
at the top of the heap goes back to the kernel. Every temporary of the
largest config stays below 1 GiB, while the multi-gigabyte replay ring
stays mmapped. Measured on a seeded desk.cfg run of 300 gradient steps (one
BLAS thread, 2-vCPU Xeon), a 256 MiB trim threshold took minor faults from
987k to 15k, system time from 2.7-3.0 s to 0.05 s and wall time from
25.0-26.1 s to 20.5-22.7 s, at the same peak resident memory (97-98 MB).
At full.cfg shapes 256 MiB still trimmed once ``backward`` freed the tape
as it walks: 8.3k-9.6k minor faults and 0.50-0.58 s of system time per
gradient step, against 0-0.6k faults and 0.00-0.04 s at 1 GiB, at the same
peak resident memory (1.74-1.77 GB). Where ``mallopt`` does not exist this
does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

_grad_enabled = True

_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers
_M_MMAP_THRESHOLD = -3
_HEAP_THRESHOLD = 1 << 30  # bytes, for both


def _keep_temporaries_on_heap():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD)


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


def _accumulate(t: Tensor, g: np.ndarray, earlier=()):
    """Add ``g`` into ``t.grad``.

    A float64 array that owns its memory becomes ``t.grad`` as it is,
    memory order included. That covers the upstream gradient that ``add``
    and ``sub`` pass through: ``backward`` released the node that held it
    before its vjp ran, so nothing else can write through the alias.
    Anything else is copied first, so a later ``+=`` cannot write into
    another tensor's gradient: a view of any array, and an array already
    handed to an ``earlier`` parent of the same vjp.
    """
    if t.grad is not None:
        t.grad += g
    elif (
        isinstance(g, np.ndarray)
        and g.base is None
        and g.dtype == np.float64
        and not any(g is e for e in earlier)
    ):
        t.grad = g
    else:
        t.grad = np.array(g, dtype=np.float64)


def _released(g):
    """The vjp of a node that ``backward`` has released. The walk refuses
    such a node before any vjp runs, so this is never called."""
    raise RuntimeError("backward reached a released node")


def backward(root: Tensor):
    """Accumulate d(root)/d(leaf) into .grad of every leaf of root's graph.

    ``root`` must be a scalar (size 1). Leaves (tensors without a vjp, such
    as parameters) keep what they receive, so backward calls over separate
    graphs sum into them until their ``.grad`` is cleared.

    The walk releases the graph it consumes. Before a node's vjp runs, the
    node drops its ``.grad``, its vjp closure and its parents, and keeps
    its ``.data``; the walk then drops its own reference to the node and
    calls the vjp with the popped gradient as that array's only reference.
    So each vjp owns its upstream gradient: it may overwrite it, as the
    fused ReLU ops do when they mask it in place (``_accumulate`` copies
    every view and never hands one array to two tensors), and it frees it
    with ``del`` once its last reader is done. It can free what its closure
    saved the same way, as the convolutions drop their output (the node's
    ``.data``) once they have masked the gradient with it, unless the caller
    still holds the node; the closure itself goes when the vjp returns.
    Nodes that received no gradient are released too. A later backward
    that reaches a released node, from the same root or from a new graph
    built on one of its nodes, raises ``RuntimeError`` before it changes
    any gradient; run the forward again instead.

    Around one full.cfg model update (tracemalloc, seed 2, one BLAS thread,
    MiB above the forward's start) the forward tape holds 349 MiB, the
    sampled frames being its encoder input, not a copy of it; backward
    starts from there and peaks at 482 MiB, inside deconv1's vjp while it
    builds the 207 MB window rows of its upstream gradient.
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
        if node._vjp is _released:
            raise RuntimeError(
                "backward reached a node that an earlier backward has released; "
                "run the forward again to build a new graph"
            )
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    _accumulate(root, np.ones_like(root.data))
    while topo:
        node = topo.pop()
        vjp, parents = node._vjp, node._parents
        if vjp is None:
            continue
        upstream = [node.grad]
        node.grad, node._vjp, node._parents = None, _released, ()
        del node  # its output lives on only where the vjp saved it
        if upstream[0] is not None:
            # popped into the call: the vjp's argument is the only reference
            grads = vjp(upstream.pop())
            for i, (parent, g) in enumerate(zip(parents, grads)):
                if g is not None and parent.requires_grad:
                    _accumulate(parent, g, grads[:i])
            del grads, g, parent  # not held through the next node's vjp


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


def _relu_(x: np.ndarray):
    """ReLU in place, as ``x * (x > 0)``: -0.0 and negatives become -0.0,
    +0.0 stays, NaN and -inf become NaN. The output is positive exactly
    where the input was, so a vjp rebuilds the input's mask from it."""
    np.multiply(x, x > 0.0, out=x)


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
    tensors = tuple(tensors)

    def vjp(g):
        index, stop = [slice(None)] * g.ndim, 0
        views = []
        for t in tensors:
            start, stop = stop, stop + t.data.shape[axis]
            index[axis] = slice(start, stop)
            views.append(g[tuple(index)])
        return tuple(views)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def getitem(a: Tensor, index) -> Tensor:
    """Basic (slice/int/tuple) indexing only; index regions must not overlap."""

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _node(a.data[index], (a,), vjp)


# -- linear algebra -----------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, relu: bool = False) -> Tensor:
    """Fused affine map x @ w + b for 2-D x [N, in] and w [in, out],
    followed by ReLU when ``relu``."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("linear expects 2-D input and weight")
    out_data = x.data @ w.data
    if b is not None:
        out_data += b.data
    if relu:
        _relu_(out_data)

    def vjp(g):
        if relu:
            g *= out_data > 0.0
        gx = g @ w.data.T if x.requires_grad else None
        gw = x.data.T @ g if w.requires_grad else None
        return gx, gw, g.sum(axis=0) if b is not None and b.requires_grad else None

    return _node(out_data, (x, w) if b is None else (x, w, b), vjp)


# -- 2-D convolution ----------------------------------------------------------
#
# Both convolutions and their vjps run on two kernels: _gather (im2col)
# multiplies every kernel window by a weight matrix, and _scatter (col2im)
# scatter-adds channels @ weight back over the windows. Each walks blocks of
# whole frames through small buffers, so the working set stays in cache and no
# full-batch padded copy is built. Windows are copied in, and products added
# back, by np.take over read-only tables of offsets into one frame, built once
# per shape: a strided copy of the same elements runs its innermost loop over
# kw = 3 elements, or over a few at stride 2. _window_table lists every
# window's elements of the padded input. _tap_table has one row per tap: row
# k gives every output element its k-th tap in _scatter's product, or a slot
# held at +0.0 once the element has fewer than k + 1 taps. The results equal
# a whole-batch im2col bit for bit: window columns stay in (C, kh, kw) order,
# every output element adds its taps in (u, v) order starting from +0.0, and
# work is split only across GEMM rows, never along K. The zero slot keeps the
# bits too: a sum that starts from +0.0 is never -0.0, so adding +0.0 leaves
# it as it is. The kernels hand out channels-first memory only, because numpy
# reductions downstream (bias gradients, losses) sum in memory order.
#
# A weight gradient is one GEMM over all window rows, which _windows fills
# with the same per-block loop (_window_rows) that the forward runs. No
# forward keeps its rows for it: at full scale conv2's rows alone are
# ~208 MB, and gathering them again in the vjp costs a few np.take passes.
# Each vjp builds its rows once, and lets go of every full-size array as soon
# as its last reader is done. It applies the fused ReLU's mask to the upstream
# gradient g and drops the saved output, sums the bias gradient from g, builds
# the rows that both remaining gradients read, and drops g:
# - conv2d copies g into channels-last rows [N*gh*gw, O]. The weight
#   gradient multiplies them by x's window rows, which are then dropped, and
#   _scatter reads them, block by block, for the input gradient. So g's rows
#   are live first with x's window rows, then with the input gradient.
# - conv2d_transpose builds g's window rows. The weight gradient multiplies
#   them by a channels-last copy of x, and _gather multiplies them by the
#   weights for the input gradient, over the frame blocks that _window_rows
#   walks, so its GEMMs are those of a gather from g. So g's window rows are
#   live first with that copy of x, then with the input gradient.
# Every conv weight is a trained parameter, so each vjp computes the weight
# gradient; it skips the input gradient when x is data, as conv1's is.
#
# The forward kernels add the bias and apply a fused ReLU to each block of
# frames as soon as it is computed, while it is in cache; both are
# elementwise, so the bits are those of one pass over the whole output.

_BLOCK_BYTES = 1 << 20


def _blocks(n: int, frame_bytes: int):
    """(start, stop) ranges splitting n frames into near-equal blocks of at
    most about _BLOCK_BYTES each. No block is a small remainder: BLAS may
    run a much smaller GEMM on a kernel that sums in another order."""
    count = min(n, -(-n * frame_bytes // _BLOCK_BYTES))
    for i in range(count):
        yield n * i // count, n * (i + 1) // count


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@functools.lru_cache
def _window_table(c: int, hp: int, wp: int, grid, kh: int, kw: int, stride: int) -> np.ndarray:
    """Offsets into one padded [C,hp,wp] frame of every kh x kw window at
    ``grid`` positions, in (gh, gw, C, kh, kw) order."""
    gh, gw = grid
    tap = (np.arange(c)[:, None, None] * hp + np.arange(kh)[:, None]) * wp + np.arange(kw)
    corner = np.arange(gh)[:, None] * (stride * wp) + np.arange(gw) * stride
    return _frozen((corner[:, :, None, None, None] + tap).astype(np.intp).ravel())


@functools.lru_cache
def _tap_table(c: int, h: int, wdt: int, grid, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """[T, C*h*wdt] offsets into one frame of _scatter's product, laid out as
    [gh*gw, C*kh*kw + 1] with slot C*kh*kw of the first row held at zero.
    Row k gives each output element its k-th tap in (u, v) order, or the
    zero slot once it has no more taps."""
    gh, gw = grid
    width = c * kh * kw + 1

    def taps(size, k, cells, cell_step, tap_step):
        # per output coordinate along one axis, the offsets of its taps in kernel order
        return [
            [
                (q + pad - t) // stride * cell_step + t * tap_step
                for t in range(k)
                if (q + pad - t) % stride == 0 and 0 <= (q + pad - t) // stride < cells
            ]
            for q in range(size)
        ]

    rows, cols = taps(h, kh, gh, gw * width, kw), taps(wdt, kw, gw, width, 1)
    table = np.full((max(map(len, rows)) * max(map(len, cols)), 1, h, wdt), -1, dtype=np.intp)
    for y, row in enumerate(rows):
        for x, col in enumerate(cols):
            found = [a + b for a in row for b in col]
            table[: len(found), 0, y, x] = found
    channel = np.arange(c).reshape(1, c, 1, 1) * (kh * kw)
    return _frozen(np.where(table < 0, width - 1, table + channel).reshape(len(table), -1))


def _window_rows(x: np.ndarray, grid, kh: int, kw: int, stride: int, pad: int, cols=None):
    """Yield (f0, f1, rows) over near-equal blocks of frames of ``x``
    [N,C,H,W]: ``rows`` [(f1-f0)*gh*gw, C*kh*kw] holds every kh x kw window
    of frames f0:f1, zero-padded by ``pad``, at ``grid`` positions
    ``stride`` apart. With ``cols`` [N*gh*gw, C*kh*kw] given, each ``rows``
    is its slice for the block; otherwise a fresh array."""
    n, c, h, wdt = x.shape
    gh, gw = grid
    per = gh * gw
    hp, wp = h + 2 * pad, wdt + 2 * pad
    windows = _window_table(c, hp, wp, grid, kh, kw, stride)
    for f0, f1 in _blocks(n, per * c * kh * kw * 8):
        m = f1 - f0
        buf = np.zeros((m, c, hp, wp))
        buf[:, :, pad : pad + h, pad : pad + wdt] = x[f0:f1]
        rows = np.empty((m * per, c * kh * kw)) if cols is None else cols[f0 * per : f1 * per]
        # mode="clip" lets numpy write into rows directly; "raise" would buffer it
        np.take(buf.reshape(m, -1), windows, axis=1, out=rows.reshape(m, -1), mode="clip")
        yield f0, f1, rows


def _windows(x: np.ndarray, grid, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Every window row of ``x`` at once, [N*gh*gw, C*kh*kw], for a weight
    gradient's one GEMM over all rows."""
    n, c = x.shape[:2]
    cols = np.empty((n * grid[0] * grid[1], c * kh * kw))
    for _ in _window_rows(x, grid, kh, kw, stride, pad, cols):
        pass
    return cols


def _row_blocks(cols: np.ndarray, n: int):
    """Yield (f0, f1, rows) over the blocks of frames that _window_rows walks
    for ``cols``, the window rows of n frames; each ``rows`` is a slice."""
    per = len(cols) // n
    for f0, f1 in _blocks(n, cols.nbytes // n):
        yield f0, f1, cols[f0 * per : f1 * per]


def _finish(block: np.ndarray, b, relu: bool):
    """Add the bias ``b`` [C] (if any) to a block of frames [m,C,H,W] and
    apply ReLU (if ``relu``), in place, while the block is in cache."""
    if b is not None:
        block += b[:, None, None]
    if relu:
        _relu_(block)


def _gather(blocks, n: int, w_cols: np.ndarray, grid, b=None, relu: bool = False) -> np.ndarray:
    """The window rows of n frames at ``grid`` positions, in ``blocks`` of
    (f0, f1, rows) as _window_rows or _row_blocks yield them, times
    ``w_cols`` [C*kh*kw, O]: the product [N,O,*grid], plus ``b`` [O] and
    through ReLU if given."""
    gh, gw = grid
    out = np.empty((n, w_cols.shape[1], gh, gw))
    for f0, f1, rows in blocks:
        out[f0:f1] = (rows @ w_cols).reshape(f1 - f0, gh, gw, -1).transpose(0, 3, 1, 2)
        _finish(out[f0:f1], b, relu)
    return out


def _scatter(
    y: np.ndarray, w: np.ndarray, out_shape, kh: int, kw: int, stride: int, pad: int, b=None, relu: bool = False
) -> np.ndarray:
    """Scatter-add, at every position of ``y`` [N,gh,gw,R] (channels-last),
    its R channels times ``w`` [R, C*kh*kw] over the kh x kw window at that
    position of an output ``out_shape`` [N,C,H,W] zero-padded by ``pad``;
    the adjoint of _gather's windowing. Adds ``b`` [C] and applies ReLU if
    given. A C-contiguous ``y`` is read in place, a transposed view of a
    channels-first array is copied one block at a time."""
    n, c, h, wdt = out_shape
    _, gh, gw, r = y.shape
    k = w.shape[1]
    taps = _tap_table(c, h, wdt, (gh, gw), kh, kw, stride, pad)
    out = np.empty(out_shape)
    for f0, f1 in _blocks(n, gh * gw * k * 8):
        m = f1 - f0
        rows = y[f0:f1].reshape(-1, r)
        prod = np.empty((m * gh * gw, k + 1))
        np.matmul(rows, w, out=prod[:, :k])
        prod[:, k] = 0.0
        prod = prod.reshape(m, -1)
        acc = out[f0:f1].reshape(m, -1)
        acc[...] = 0.0
        term = np.empty_like(acc)
        for row in taps:
            np.take(prod, row, axis=1, out=term, mode="clip")
            acc += term
        _finish(out[f0:f1], b, relu)
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0, relu: bool = False) -> Tensor:
    """2-D cross-correlation. x: [N,C,H,W], w: [O,C,kh,kw], b: [O].
    Followed by ReLU when ``relu``."""
    n, c, h, wdt = x.data.shape
    o, c2, kh, kw = w.data.shape
    if c != c2:
        raise ValueError(f"conv2d channel mismatch: input {c}, kernel {c2}")
    grid = ((h + 2 * pad - kh) // stride + 1, (wdt + 2 * pad - kw) // stride + 1)
    w_flat = w.data.reshape(o, -1)
    out_data = _gather(_window_rows(x.data, grid, kh, kw, stride, pad), n, w_flat.T, grid, b.data, relu)

    def vjp(g):
        nonlocal out_data
        if relu:
            g *= out_data > 0.0
        del out_data
        gb = g.sum(axis=(0, 2, 3)) if b.requires_grad else None
        g_rows = np.ascontiguousarray(g.transpose(0, 2, 3, 1))  # channels-last
        del g
        # the window rows are gathered again from x, not kept on the tape
        gw = (g_rows.reshape(-1, o).T @ _windows(x.data, grid, kh, kw, stride, pad)).reshape(w.data.shape)
        gx = _scatter(g_rows, w_flat, x.data.shape, kh, kw, stride, pad) if x.requires_grad else None
        return gx, gw, gb

    return _node(out_data, (x, w, b), vjp)


def conv2d_transpose(
    x: Tensor,
    w: Tensor,
    b: Tensor,
    stride: int = 1,
    pad: int = 0,
    out_extra: int = 0,
    relu: bool = False,
) -> Tensor:
    """Transposed 2-D convolution (adjoint of conv2d w.r.t. its input).

    x: [N,Cin,H,W], w: [Cin,Cout,kh,kw]; output spatial size is
    (H-1)*stride - 2*pad + kh + out_extra. Followed by ReLU when ``relu``.
    """
    n, cin, h, wdt = x.data.shape
    cin2, cout, kh, kw = w.data.shape
    if cin != cin2:
        raise ValueError(f"conv2d_transpose channel mismatch: input {cin}, kernel {cin2}")
    ho = (h - 1) * stride - 2 * pad + kh + out_extra
    wo = (wdt - 1) * stride - 2 * pad + kw + out_extra
    w_flat = w.data.reshape(cin, -1)
    out_data = _scatter(x.data.transpose(0, 2, 3, 1), w_flat, (n, cout, ho, wo), kh, kw, stride, pad, b.data, relu)

    def vjp(g):
        nonlocal out_data
        if relu:
            g *= out_data > 0.0
        del out_data
        gb = g.sum(axis=(0, 2, 3)) if b.requires_grad else None
        # out_extra only ever adds trailing rows and columns that no window of x reaches
        g_win = _windows(g, (h, wdt), kh, kw, stride, pad)
        del g
        x_flat = x.data.transpose(0, 2, 3, 1).reshape(-1, cin)
        gw = (x_flat.T @ g_win).reshape(w.data.shape)
        del x_flat
        gx = _gather(_row_blocks(g_win, n), n, w_flat.T, (h, wdt)) if x.requires_grad else None
        return gx, gw, gb

    return _node(out_data, (x, w, b), vjp)
