"""Minimal dense-tensor reverse-mode autodiff engine on numpy arrays.

Every operation the separation network and its loss need is provided as a
primitive with a hand-written backward rule.  The network's layers
(`conv1d`, `conv_transpose1d`, `layer_norm`, `group_norm`) take
channel-major activations (C, B, T): a whole stack of narrow-band
sequences is one C x B·T matrix, so a shared weight meets every sequence
in one GEMM.  Graphs are plain closures over saved forward
values; `backward` runs them in reverse topological order and frees each
node once its gradient has flowed, so a graph supports one backward and
memory falls as gradients are produced.

Inside ``with no_graph():`` ops build no graph: every output is a constant
(no parents, no backward closure, ``requires_grad=False``) even when an
input requires grad, so inference keeps only the values still referenced.
Values that only a backward rule needs (silu's derivative, clip's mask,
log10's reciprocal) are computed inside that rule, so a forward pass
computes only what its output needs.  The mode is per thread.

A graph must stay on one thread between construction and backward; distinct
graphs are independent.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


class NumericError(RuntimeError):
    """A non-finite value appeared where the computation requires finiteness."""


_CHECK_FINITE = False


def set_check_finite(enabled: bool) -> None:
    """Globally enable per-op finiteness checks (slow, for tests/debugging)."""
    global _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)


class _GraphMode(threading.local):
    record = True


_GRAPH_MODE = _GraphMode()


@contextmanager
def no_graph():
    """Run the enclosed ops as inference: their outputs record no graph."""
    prev = _GRAPH_MODE.record
    _GRAPH_MODE.record = False
    try:
        yield
    finally:
        _GRAPH_MODE.record = prev


class Tensor:
    """Dense real N-d array participating in a reverse-mode graph.

    `grad` is only populated on leaves (tensors created with
    ``requires_grad=True``); it accumulates additively across backward
    passes until `zero_grad` resets it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else None)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data, parents, vjp):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = _GRAPH_MODE.record and any(p.requires_grad for p in parents)
        out.grad = None
        if out.requires_grad:
            out._parents = parents
            out._vjp = vjp
        else:
            out._parents = ()
            out._vjp = None
        if _CHECK_FINITE and not np.all(np.isfinite(data)):
            raise NumericError("non-finite value produced by an op")
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def numpy(self):
        return np.array(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def zero_grad(tensors) -> None:
    if isinstance(tensors, dict):
        tensors = tensors.values()
    for t in tensors:
        t.grad = None


# -- backward driver ----------------------------------------------------------


def _topo_order(root):
    # iterative post-order; graphs can be a few thousand nodes deep
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def _spent(g):
    raise RuntimeError("graph was already used by backward")


def backward(loss: Tensor, grad: np.ndarray | None = None) -> None:
    """Populate `grad` on every requires_grad leaf reachable from `loss`.

    `loss` must be scalar, unless `grad` is given: the gradient of some
    scalar with respect to `loss`, of `loss`'s shape, which then seeds the
    pass.  Leaf grads accumulate additively across calls.
    Each interior node drops its parents and backward closure as soon as its
    gradient has been passed on, so the graph is gone when this returns;
    a second backward through any of its nodes raises RuntimeError.
    """
    if grad is None:
        if loss.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        grad = np.ones_like(loss.data)
    elif grad.shape != loss.shape:
        raise ValueError(f"seed gradient of shape {grad.shape} for a {loss.shape} output")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    if any(node._vjp is _spent for node in order):
        raise RuntimeError("graph was already used by backward; build it again")
    gmap = {id(loss): grad}
    while order:
        node = order.pop()
        g = gmap.pop(id(node), None)
        if node._vjp is None:
            if g is not None:
                node.grad = g if node.grad is None else node.grad + g
            continue
        parents, vjp = node._parents, node._vjp
        node._parents, node._vjp = (), _spent
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            if _CHECK_FINITE and not np.all(np.isfinite(pg)):
                raise NumericError("non-finite gradient")
            key = id(parent)
            if key in gmap:
                gmap[key] = gmap[key] + pg
            else:
                gmap[key] = pg


def _reduce_to(grad, shape):
    # sum out broadcast axes so grad matches the original operand shape
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return Tensor._from_op(
        a.data + b.data,
        (a, b),
        lambda g: (_reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Tensor._from_op(
        a.data - b.data,
        (a, b),
        lambda g: (_reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor._from_op(
        a.data * b.data,
        (a, b),
        lambda g: (_reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def vjp(g):
        ga = _reduce_to(g / b.data, a.data.shape)
        gb = _reduce_to(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return Tensor._from_op(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return Tensor._from_op(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return Tensor._from_op(a.data * s, (a,), lambda g: (g * s,))


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    out = a.data**p
    return Tensor._from_op(out, (a,), lambda g: (g * p * a.data ** (p - 1.0),))


def log10(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log10(a.data)

    def vjp(g):
        with np.errstate(invalid="ignore", divide="ignore"):
            inv = 1.0 / (a.data * np.log(10.0))
        return (g * inv,)

    return Tensor._from_op(out, (a,), vjp)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.data, lo, hi)

    def vjp(g):
        mask = ((a.data >= lo) & (a.data <= hi)).astype(a.data.dtype)
        return (g * mask,)

    return Tensor._from_op(out, (a,), vjp)


def silu(a: Tensor) -> Tensor:
    # x * sigmoid(x); d/dx = s + x*s*(1-s) = s + out*(1-s)
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * s

    def vjp(g):
        # a named operand: numpy would multiply into an unnamed temporary in
        # place, and the gradient's memory layout (hence later sums) would change
        deriv = s + out * (1.0 - s)
        return (g * deriv,)

    return Tensor._from_op(out, (a,), vjp)


# -- reductions ----------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor._from_op(np.asarray(out), (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.data.shape[i] for i in ax]))
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# -- shape manipulation ---------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return Tensor._from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    return Tensor._from_op(
        np.ascontiguousarray(a.data.transpose(axes)), (a,), lambda g: (g.transpose(inv),)
    )


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return Tensor._from_op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), vjp)


def split(a: Tensor, sizes, axis=0):
    """Split `a` into consecutive chunks of the given sizes along `axis`."""
    if sum(sizes) != a.data.shape[axis]:
        raise ValueError(f"split sizes {sizes} do not cover axis of length {a.data.shape[axis]}")
    out, start = [], 0
    for size in sizes:
        out.append(narrow(a, axis, start, size))
        start += size
    return tuple(out)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    axis = axis % a.data.ndim
    idx = tuple(
        slice(start, start + length) if i == axis else slice(None) for i in range(a.data.ndim)
    )

    def vjp(g):
        gx = np.zeros_like(a.data)
        gx[idx] = g
        return (gx,)

    return Tensor._from_op(np.ascontiguousarray(a.data[idx]), (a,), vjp)


def pad_last(a: Tensor, left: int, right: int) -> Tensor:
    """Zero-pad the last axis."""
    width = [(0, 0)] * (a.data.ndim - 1) + [(left, right)]
    n = a.data.shape[-1]

    def vjp(g):
        return (np.ascontiguousarray(g[..., left : left + n]),)

    return Tensor._from_op(np.pad(a.data, width), (a,), vjp)


def _pair_view(per_offset):
    """(..., T, T) view of C-contiguous per-offset scores (..., T, 2T-1).

    ``view[..., q, k] = per_offset[..., q, (k - q) + (T - 1)]``: offset entry
    k-q of row q.  In the row-major flattening of the last two axes, row q
    of the view is the window of length T starting at ``q*(2T-2) + (T-1)``;
    windows of distinct rows never overlap, so writing through the view is
    safe.
    """
    t, s = per_offset.shape[-2], per_offset.shape[-1]
    if s != 2 * t - 1:
        raise ValueError(f"per-offset scores must be (..., T, 2T-1), got {per_offset.shape}")
    lead = per_offset.shape[:-2]
    flat = per_offset.reshape(lead + (t * s,))
    it = flat.strides[-1]
    return np.lib.stride_tricks.as_strided(
        flat[..., t - 1 :],
        shape=lead + (t, t),
        strides=flat.strides[:-1] + ((2 * t - 2) * it, it),
    )


def relative_shift(a: Tensor) -> Tensor:
    """Turn per-offset scores (..., T, 2T-1) into per-pair scores (..., T, T).

    ``out[..., q, k] = a[..., q, (k - q) + (T - 1)]`` (see `_pair_view`);
    both directions are plain strided copies.
    """
    xd = np.ascontiguousarray(a.data)
    out = np.ascontiguousarray(_pair_view(xd))

    def vjp(g):
        gx = np.zeros_like(xd)
        _pair_view(gx)[...] = g
        return (gx,)

    return Tensor._from_op(out, (a,), vjp)


def rel_gather(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the last axis with a per-row index table.

    `a` has shape (..., R, S) and `idx` shape (R, C); the output is
    ``out[..., r, c] = a[..., r, idx[r, c]]``.  Used to turn per-offset
    relative-position scores into per-pair scores.
    """
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[0] != a.data.shape[-2]:
        raise ValueError(f"index table {idx.shape} does not match input {a.data.shape}")
    full_idx = np.broadcast_to(idx, a.data.shape[:-1] + (idx.shape[1],))
    out = np.take_along_axis(a.data, full_idx, axis=-1)

    r, s = a.data.shape[-2], a.data.shape[-1]
    c = idx.shape[1]

    def vjp(g):
        batch = int(np.prod(a.data.shape[:-2], dtype=np.int64))
        rows = batch * r
        flat = np.arange(rows, dtype=np.int64)[:, None] * s + np.tile(idx, (batch, 1))
        gx = np.bincount(
            flat.reshape(-1), weights=g.reshape(-1).astype(np.float64), minlength=rows * s
        )
        return (gx.reshape(a.data.shape).astype(a.data.dtype),)

    return Tensor._from_op(np.ascontiguousarray(out), (a,), vjp)


# -- linear algebra --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ad, bd = a.data, b.data
        ga = _reduce_to(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape)
        gb = _reduce_to(np.matmul(ad.swapaxes(-1, -2), g), bd.shape)
        return ga, gb

    return Tensor._from_op(out, (a, b), vjp)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return Tensor._from_op(y, (a,), vjp)


def rel_attention(q: Tensor, k: Tensor, v: Tensor, u: Tensor, vb: Tensor, rel: Tensor,
                  scale: float, probs_sink: list | None = None) -> Tensor:
    """Attention with Transformer-XL relative positions, as one op.

    ``softmax(scale * ((q + u) k + shift((q + vb) rel))) v`` per head, with
    q, v of shape (..., H, T, dh), keys as columns k (..., H, dh, T), biases
    u, vb broadcastable to q (e.g. (H, 1, dh)), and the projected encodings
    of offsets -(T-1)..(T-1) as rel (H, dh, 2T-1); `shift` is
    `relative_shift`.  The scale is folded into the (T, dh) queries, the
    position scores are added through a strided view and the softmax runs
    in place, so no other (T, T) array is made.  Backward keeps only the
    probabilities P.  With `probs_sink`, P (read-only) is appended to it.
    """
    s = float(scale)  # a numpy scalar would promote float32 inputs to float64
    probs = np.matmul((q.data + u.data) * s, k.data)
    probs += _pair_view(np.matmul((q.data + vb.data) * s, rel.data))
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = np.matmul(probs, v.data)
    if probs_sink is not None:
        probs.flags.writeable = False
        probs_sink.append(probs)

    def vjp(g):
        kd, vd, reld = k.data, v.data, rel.data
        dv = _reduce_to(np.matmul(probs.swapaxes(-1, -2), g), vd.shape)
        # d logits = P * (dP - rowsum(dP * P)), and rowsum(dP * P) = rowsum(g * out)
        dlogits = np.matmul(g, vd.swapaxes(-1, -2))
        dlogits -= (g * out).sum(axis=-1, keepdims=True)
        dlogits *= probs
        dk = _reduce_to(np.matmul(((q.data + u.data) * s).swapaxes(-1, -2), dlogits), kd.shape)
        dqu = np.matmul(dlogits, kd.swapaxes(-1, -2)) * s
        dpos = np.zeros(dlogits.shape[:-1] + (reld.shape[-1],), dtype=dlogits.dtype)
        _pair_view(dpos)[...] = dlogits
        del dlogits
        dqv = np.matmul(dpos, reld.swapaxes(-1, -2)) * s
        qv = (q.data + vb.data) * s
        drel = _reduce_to(np.matmul(qv.swapaxes(-1, -2), dpos), reld.shape)
        return (_reduce_to(dqu + dqv, q.data.shape), dk, dv,
                _reduce_to(dqu, u.data.shape), _reduce_to(dqv, vb.data.shape), drel)

    return Tensor._from_op(out, (q, k, v, u, vb, rel), vjp)


# -- channel-major layers --------------------------------------------------------
#
# (C, B, T) input: B sequences side by side, read as a C x B·T matrix.  A 2-D
# (C, T) input is one sequence and gives a 2-D output.


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize channel-major x (C, ...) over its channel axis 0, per column."""
    xd = x.data
    xh = xd - xd.mean(axis=0)
    inv = 1.0 / np.sqrt((xh * xh).mean(axis=0) + eps)
    xh *= inv
    col = (-1,) + (1,) * (xd.ndim - 1)
    gcol = gamma.data.reshape(col)
    out = xh * gcol
    out += beta.data.reshape(col)

    def vjp(g):
        red = tuple(range(1, g.ndim))
        dgamma = (g * xh).sum(axis=red)
        dbeta = g.sum(axis=red)
        dxh = g * gcol
        m1 = dxh.mean(axis=0)
        m2 = (dxh * xh).mean(axis=0)
        dx = inv * (dxh - m1 - xh * m2)
        return dx, dgamma, dbeta

    return Tensor._from_op(out, (x, gamma, beta), vjp)


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int, eps: float = 1e-5) -> Tensor:
    """Normalize channel-major x (C, B, T) per channel group and sequence.

    The statistics of group g of sequence b run over the group's channels
    and all T frames; a 2-D (C, T) input is one sequence.
    """
    xd = x.data
    c = xd.shape[0]
    if c % groups:
        raise ValueError(f"groups={groups} does not divide {c} channels")
    gshape = (groups, c // groups) + xd.shape[1:]
    n = gshape[1] * gshape[-1]

    def group_mean(z):
        # channels of a group, then frames: both sums run over long contiguous rows
        return z.sum(axis=1, keepdims=True).sum(axis=-1, keepdims=True) / n

    xr = xd.reshape(gshape)
    xc = xr - group_mean(xr)
    inv = 1.0 / np.sqrt(group_mean(xc * xc) + eps)  # (groups, 1, B, 1)
    gcol = gamma.data.reshape(gshape[:2] + (1,) * (len(gshape) - 2))
    out = xc * (gcol * inv)  # gamma and 1/sigma as one (groups, C/groups, B, 1) factor
    out += beta.data.reshape(gcol.shape)

    def vjp(g):
        xh = xc * inv
        gr = g.reshape(gshape)
        red = tuple(range(2, gr.ndim))
        dgamma = (gr * xh).sum(axis=red).reshape(c)
        dbeta = gr.sum(axis=red).reshape(c)
        dxh = gr * gcol
        dx = inv * (dxh - group_mean(dxh) - xh * group_mean(dxh * xh))
        return dx.reshape(xd.shape), dgamma, dbeta

    return Tensor._from_op(out.reshape(xd.shape), (x, gamma, beta), vjp)


def conv1d(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    padding: tuple[int, int] = (0, 0),
    groups: int = 1,
) -> Tensor:
    """1-D convolution along the last axis of channel-major input.

    `x` is (C_in, B, T) or one sequence (C_in, T), `w` is
    (C_out, C_in/groups, K) and `b` is (C_out,).  Padding is explicit
    (left, right); the output is (C_out, B, T + pad_l + pad_r - K + 1).

    The padded sequences lie end to end in one (C_in, B·Tp) matrix, and
    tap k is one GEMM per group over all its columns, shifted by k: output
    column b·Tp + t sums input columns b·Tp + t + k.  Of each sequence's Tp
    output columns the last K-1 read into the next sequence and are dropped.
    There is no im2col copy.
    """
    xd = x.data[:, None] if x.data.ndim == 2 else x.data
    if xd.ndim != 3:
        raise ValueError(f"conv1d expects channel-major (C, B, T) input, got {x.data.shape}")
    wd = w.data
    c_out, c_in_g, k = wd.shape
    c_in, n_batch, t_in = xd.shape
    if c_in_g * groups != c_in or c_out % groups:
        raise ValueError(
            f"conv1d shape mismatch: input {c_in} channels, weight {wd.shape}, groups {groups}"
        )
    pl, pr = padding
    tp = t_in + pl + pr
    t_out = tp - k + 1
    if t_out < 1:
        raise ValueError("conv1d input shorter than kernel")
    og, cols = c_out // groups, n_batch * tp
    # taps as (K, groups, C_out/groups, C_in/groups) GEMM operands
    taps = np.ascontiguousarray(wd.reshape(groups, og, c_in_g, k).transpose(3, 0, 1, 2))
    # one zero sequence after the last: the K-1 columns the last taps read past it
    xp = np.zeros((c_in, n_batch + 1, tp), dtype=xd.dtype)
    xp[:, :n_batch, pl : pl + t_in] = xd
    xf = xp.reshape(groups, c_in_g, -1)

    yf = np.matmul(taps[0], xf[:, :, :cols])
    for kk in range(1, k):
        yf += np.matmul(taps[kk], xf[:, :, kk : kk + cols])
    y = yf.reshape(c_out, n_batch, tp)[:, :, :t_out]
    y = np.ascontiguousarray(y) if b is None else y + b.data.reshape(-1, 1, 1)

    def vjp(g):
        # g in sequence slots 1..B of a zero buffer, zero in the dropped
        # columns: gradient column tp + c belongs to forward column c
        gp = np.zeros((c_out, n_batch + 1, tp), dtype=xd.dtype)
        gp[:, 1:, :t_out] = g.reshape(c_out, n_batch, t_out)
        gf = gp.reshape(groups, og, -1)
        gy = gf[:, :, tp:]
        gxf = np.matmul(taps[0].swapaxes(-1, -2), gy)
        gw = np.empty((k, groups, og, c_in_g), dtype=xd.dtype)
        gw[0] = np.matmul(gy, xf[:, :, :cols].swapaxes(-1, -2))
        for kk in range(1, k):
            gxf += np.matmul(taps[kk].swapaxes(-1, -2), gf[:, :, tp - kk : tp - kk + cols])
            gw[kk] = np.matmul(gy, xf[:, :, kk : kk + cols].swapaxes(-1, -2))
        gx = np.ascontiguousarray(gxf.reshape(c_in, n_batch, tp)[:, :, pl : pl + t_in])
        gw = np.ascontiguousarray(gw.transpose(1, 2, 3, 0)).reshape(wd.shape)
        if x.data.ndim == 2:
            gx = gx[:, 0]
        if b is None:
            return gx, gw
        return gx, gw, gp.sum(axis=(1, 2))

    parents = (x, w, b) if b is not None else (x, w)
    if x.data.ndim == 2:
        y = y[:, 0]
    return Tensor._from_op(y, parents, vjp)


def conv_transpose1d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """1-D transposed convolution along the last axis of channel-major input.

    `x` is (C_in, B, T) or one sequence (C_in, T), `w` is (C_in, C_out, K);
    the output is (C_out, B, T + K - 1).  It is `conv1d` with K-1 zero
    frames on both sides and the kernel transposed and reversed in time.
    """
    c_in, _, k = w.data.shape
    if x.data.shape[0] != c_in:
        raise ValueError(f"conv_transpose1d: input has {x.data.shape[0]} channels, weight expects {c_in}")
    flipped = Tensor._from_op(
        np.ascontiguousarray(w.data.transpose(1, 0, 2)[:, :, ::-1]),
        (w,),
        lambda g: (np.ascontiguousarray(g[:, :, ::-1].transpose(1, 0, 2)),),
    )
    return conv1d(x, flipped, b, padding=(k - 1, k - 1))


# -- stochastic / signal ops -----------------------------------------------------


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted-scaling dropout; the eval path is the identity."""
    if not training or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return Tensor._from_op(x.data * mask, (x,), lambda g: (g * mask,))


def overlap_add(frames: Tensor, hop: int, out_len: int) -> Tensor:
    """Overlap-add frames (..., W, T) into a signal (..., out_len).

    Frame t lands at offset ``t * hop``; samples beyond the synthesized
    span are zero, extra synthesized samples are cropped.
    """
    fd = frames.data
    w, t = fd.shape[-2], fd.shape[-1]
    synth = (t - 1) * hop + w
    y = np.zeros(fd.shape[:-2] + (synth,), dtype=fd.dtype)
    for ti in range(t):
        y[..., ti * hop : ti * hop + w] += fd[..., :, ti]
    if out_len < synth:
        y = np.ascontiguousarray(y[..., :out_len])
    elif out_len > synth:
        y = np.pad(y, [(0, 0)] * (y.ndim - 1) + [(0, out_len - synth)])

    def vjp(g):
        if out_len < synth:
            g = np.pad(g, [(0, 0)] * (g.ndim - 1) + [(0, synth - out_len)])
        elif out_len > synth:
            g = g[..., :synth]
        gf = np.empty_like(fd)
        for ti in range(t):
            gf[..., :, ti] = g[..., ti * hop : ti * hop + w]
        return (gf,)

    return Tensor._from_op(y, (frames,), vjp)


# -- verification -----------------------------------------------------------------


def grad_check(f, tensors, step: float = 1e-5) -> float:
    """Compare analytic gradients of scalar-valued `f` with central differences.

    Returns the max over coordinates of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)``.
    """
    if isinstance(tensors, Tensor):
        tensors = [tensors]
    for t in tensors:
        if not t.requires_grad:
            raise ValueError("grad_check inputs must require grad")
    zero_grad(tensors)
    out = f(*tensors)
    if out.data.size != 1:
        raise ValueError("grad_check requires a scalar-valued program")
    if not np.all(np.isfinite(out.data)):
        raise NumericError("non-finite value in grad_check forward pass")
    backward(out)

    worst = 0.0
    for t in tensors:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(f(*tensors).data)
            flat[i] = orig - step
            lo = float(f(*tensors).data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError("non-finite value in finite-difference probe")
            numeric = (hi - lo) / (2.0 * step)
            a = analytic.reshape(-1)[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst
