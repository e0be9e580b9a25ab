"""Minimal dense-tensor reverse-mode autodiff engine on numpy arrays.

Every operation the separation network and its loss need is provided as a
primitive with a hand-written backward rule.  The network's layers
(`conv1d`, `conv_transpose1d`, `layer_norm`, `group_norm`, `conv_norm_silu`)
take channel-major activations (C, B, T): a whole stack of narrow-band
sequences is one C x B·T matrix, so a shared weight meets every sequence
in one GEMM.

A recorded op's output Tensor gets a graph node that holds its parents'
nodes and its backward rule; a leaf's node is the leaf itself, and every
parent that needs no gradient is one shared constant that holds nothing.
A backward rule captures the arrays, shapes and dtypes it reads, never its
input Tensors, and a node holds its own value only through a weak
reference.  So an intermediate array lives on past the forward only where
a rule captured it: once no forward code and no rule refers to it, it is
freed (a node's `data` is then an empty array).  `matmul`, `conv1d` and
`conv_norm_silu` note at op time which operands need a gradient, and their
rules return None for the others (the constant position table, the network
input) without computing it.  `backward` runs the nodes in reverse
topological order and drops each node's rule once its gradient has
flowed, so a graph supports one backward and memory falls as gradients
are produced.

Inside ``with no_graph():`` ops build no graph: every output is a constant
(no parents, no backward closure, ``requires_grad=False``) even when an
input requires grad, so inference keeps only the values still referenced.
Values that only a backward rule needs (silu's sigmoid and derivative,
clip's mask, log10's reciprocal, dropout's scaled mask, which it keeps as
one bool per element) are computed inside that rule, so a forward pass
computes only what its output needs and a graph holds only what backward
cannot recompute.  `conv_norm_silu`, one conv sub-block of the network,
keeps two arrays where the three ops it fuses keep six.  The mode is per
thread.

A graph must stay on one thread between construction and backward; distinct
graphs are independent.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager

import numpy as np


class NumericError(RuntimeError):
    """A non-finite value appeared where the computation requires finiteness."""


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

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data, parents, vjp):
        """The output of an op on `parents`; `vjp` must capture arrays, not Tensors."""
        out = Tensor.__new__(Tensor)
        out.data = np.asarray(data)  # an op on 0-d arrays gives a numpy scalar
        out.requires_grad = _records(parents)
        out.grad = None
        out._node = (_Node(tuple(p._graph_node() for p in parents), vjp, out.data)
                     if out.requires_grad else None)
        return out

    def _graph_node(self):
        """This tensor's place in a graph: its op's node, itself as a leaf, or `_CONSTANT`."""
        if self._node is not None:
            return self._node
        return self if self.requires_grad else _CONSTANT

    # the graph seen from a tensor: its node's parents and backward rule
    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self):
        return None if self._node is None else self._node._vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node._vjp = vjp

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


_GONE = np.empty(0)
_GONE.flags.writeable = False


class _Node:
    """A recorded op in a graph: its parents' nodes and its backward rule.

    The op's value is held weakly: `data` is the value while its Tensor or
    a backward rule still refers to it, and an empty array once it is freed.
    """

    __slots__ = ("_parents", "_vjp", "_value")
    requires_grad = True

    def __init__(self, parents, vjp, value):
        self._parents = parents
        self._vjp = vjp
        self._value = weakref.ref(value)

    @property
    def data(self):
        value = self._value()
        return _GONE if value is None else value


_CONSTANT = Tensor(_GONE)  # the one node of every parent that needs no gradient


def _records(parents) -> bool:
    """Whether an op on `parents` builds a graph node."""
    return _GRAPH_MODE.record and any(p.requires_grad for p in parents)


def _needs_grad(*tensors) -> tuple[bool, ...]:
    """Which operands of an op a backward rule must return a gradient for; None for the rest."""
    return tuple(t.requires_grad for t in tensors)


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
    root = loss._graph_node()
    order = _topo_order(root)
    if any(node._vjp is _spent for node in order):
        raise RuntimeError("graph was already used by backward; build it again")
    gmap = {id(root): grad}
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
    sa, sb = a.data.shape, b.data.shape
    return Tensor._from_op(
        a.data + b.data,
        (a, b),
        lambda g: (_reduce_to(g, sa), _reduce_to(g, sb)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    return Tensor._from_op(
        a.data - b.data,
        (a, b),
        lambda g: (_reduce_to(g, sa), _reduce_to(-g, sb)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return Tensor._from_op(
        ad * bd,
        (a, b),
        lambda g: (_reduce_to(g * bd, ad.shape), _reduce_to(g * ad, bd.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad / bd

    def vjp(g):
        ga = _reduce_to(g / bd, ad.shape)
        gb = _reduce_to(-g * ad / (bd * bd), bd.shape)
        return ga, gb

    return Tensor._from_op(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return Tensor._from_op(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return Tensor._from_op(a.data * s, (a,), lambda g: (g * s,))


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    ad = a.data
    out = ad**p
    return Tensor._from_op(out, (a,), lambda g: (g * p * ad ** (p - 1.0),))


def log10(a: Tensor) -> Tensor:
    ad = a.data
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log10(ad)

    def vjp(g):
        with np.errstate(invalid="ignore", divide="ignore"):
            inv = 1.0 / (ad * np.log(10.0))
        return (g * inv,)

    return Tensor._from_op(out, (a,), vjp)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    ad = a.data
    out = np.clip(ad, lo, hi)

    def vjp(g):
        mask = ((ad >= lo) & (ad <= hi)).astype(ad.dtype)
        return (g * mask,)

    return Tensor._from_op(out, (a,), vjp)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _silu_grad(g, z, out):
    """g times the derivative of ``out = silu(z)``, s + out*(1-s), s recomputed from z."""
    s = _sigmoid(z)
    # a named operand: numpy would multiply into an unnamed temporary in
    # place, and the gradient's memory layout (hence later sums) would change
    deriv = s + out * (1.0 - s)
    return g * deriv


def silu(a: Tensor) -> Tensor:
    ad = a.data
    s = _sigmoid(ad)
    out = ad * s
    return Tensor._from_op(out, (a,), lambda g: (_silu_grad(g, ad, out),))


# -- reductions ----------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def vjp(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, shape).copy(),)

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
    shape, dtype = a.data.shape, a.data.dtype
    axis = axis % len(shape)
    idx = tuple(
        slice(start, start + length) if i == axis else slice(None) for i in range(len(shape))
    )

    def vjp(g):
        gx = np.zeros(shape, dtype)
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
    shape, dtype = a.data.shape, a.data.dtype
    out = np.ascontiguousarray(_pair_view(np.ascontiguousarray(a.data)))

    def vjp(g):
        gx = np.zeros(shape, dtype)
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

    shape, dtype = a.data.shape, a.data.dtype
    r, s = shape[-2], shape[-1]

    def vjp(g):
        batch = int(np.prod(shape[:-2], dtype=np.int64))
        rows = batch * r
        flat = np.arange(rows, dtype=np.int64)[:, None] * s + np.tile(idx, (batch, 1))
        gx = np.bincount(
            flat.reshape(-1), weights=g.reshape(-1).astype(np.float64), minlength=rows * s
        )
        return (gx.reshape(shape).astype(dtype),)

    return Tensor._from_op(np.ascontiguousarray(out), (a,), vjp)


# -- linear algebra --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b``; backward keeps only the operand that the other's gradient reads."""
    ad, bd = a.data, b.data
    out = np.matmul(ad, bd)
    sa, sb = ad.shape, bd.shape
    ad, bd = (ad if b.requires_grad else None), (bd if a.requires_grad else None)

    def vjp(g):
        ga = None if bd is None else _reduce_to(np.matmul(g, bd.swapaxes(-1, -2)), sa)
        gb = None if ad is None else _reduce_to(np.matmul(ad.swapaxes(-1, -2), g), sb)
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
    `relative_shift`.  The scale is folded into the (T, dh) queries and the
    position scores are added through a strided view.  The softmax is left
    unnormalized: the logits are exponentiated in place, unshifted, into
    E, their row sums come from one GEMV, and the (T, dh) output E v is
    scaled by the reciprocal sums r, so P = E r is never formed and no
    other (T, T) array is made.  Each row whose sum leaves
    [sqrt(tiny), 1/sqrt(tiny)] of the dtype, so that exp overflowed, the
    whole row underflowed or E v could overflow, is rebuilt alone from its
    logits shifted by their max, so no row's result depends on the other
    rows in the call; only the matrices holding such a row recompute their
    logits.  Backward keeps E and r, the bytes of P.  With `probs_sink`,
    P = E r (read-only) is appended to it.
    """
    s = float(scale)  # a numpy scalar would promote float32 inputs to float64
    qd, kd, vd, ud, vbd, reld = q.data, k.data, v.data, u.data, vb.data, rel.data

    def logits(mats=None):
        """The logits of every (T, T) matrix, or of those a mask over the leading axes picks."""
        def pick(x):
            return x if mats is None else np.broadcast_to(x, mats.shape + x.shape[-2:])[mats]

        z = np.matmul(pick((qd + ud) * s), pick(kd))
        z += _pair_view(np.matmul(pick((qd + vbd) * s), pick(reld)))
        return z

    exps = logits()
    ones = np.ones((exps.shape[-1], 1), exps.dtype)
    with np.errstate(over="ignore"):
        np.exp(exps, out=exps)
    sums = np.matmul(exps, ones)
    lo = np.sqrt(np.finfo(exps.dtype).tiny)
    redo = ~((lo <= sums) & (sums <= 1 / lo))[..., 0]  # a NaN fails too
    if redo.any():
        mats = redo.any(axis=-1)
        z = logits(mats)[redo[mats]]
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        exps[redo] = z
        sums[redo] = np.matmul(z, ones)
    r = np.reciprocal(sums, out=sums)
    out = np.matmul(exps, vd)
    out *= r
    if probs_sink is not None:
        probs = exps * r
        probs.flags.writeable = False
        probs_sink.append(probs)

    def vjp(g):
        gr = g * r
        dv = _reduce_to(np.matmul(exps.swapaxes(-1, -2), gr), vd.shape)
        # d logits = P * (dP - rowsum(dP * P)) with P = E r, dP = g v^T and
        # rowsum(dP * P) = rowsum(g * out): E * ((g r) v^T - rowsum((g r) * out))
        dlogits = np.matmul(gr, vd.swapaxes(-1, -2))
        dlogits -= (gr * out).sum(axis=-1, keepdims=True)
        del gr
        dlogits *= exps
        dk = _reduce_to(np.matmul(((qd + ud) * s).swapaxes(-1, -2), dlogits), kd.shape)
        dqu = np.matmul(dlogits, kd.swapaxes(-1, -2)) * s
        dpos = np.zeros(dlogits.shape[:-1] + (reld.shape[-1],), dtype=dlogits.dtype)
        _pair_view(dpos)[...] = dlogits
        del dlogits
        dqv = np.matmul(dpos, reld.swapaxes(-1, -2)) * s
        qv = (qd + vbd) * s
        drel = _reduce_to(np.matmul(qv.swapaxes(-1, -2), dpos), reld.shape)
        return (_reduce_to(dqu + dqv, qd.shape), dk, dv,
                _reduce_to(dqu, ud.shape), _reduce_to(dqv, vbd.shape), drel)

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


def _group_shape(shape, groups):
    """(groups, C/groups, ...) of a channel-major shape (C, ...)."""
    if shape[0] % groups:
        raise ValueError(f"groups={groups} does not divide {shape[0]} channels")
    return (groups, shape[0] // groups) + tuple(shape[1:])


def _group_mean(z):
    # channels of a group, then frames: both sums run over long contiguous rows
    return z.sum(axis=1, keepdims=True).sum(axis=-1, keepdims=True) / (z.shape[1] * z.shape[-1])


def _group_centre(xr, eps, out=None):
    """xr (groups, C/groups, ...) less its group means, into `out` if given, and 1/sigma."""
    xc = np.subtract(xr, _group_mean(xr), out=out)
    return xc, 1.0 / np.sqrt(_group_mean(xc * xc) + eps)  # inv: (groups, 1, B, 1)


def _group_affine(xc, inv, gamma, beta, out=None):
    """gamma * xc * inv + beta, into `out` if given."""
    col = xc.shape[:2] + (1,) * (xc.ndim - 2)  # a channel's (groups, C/groups, 1, ..) entry
    z = np.multiply(xc, gamma.reshape(col) * inv, out=out)  # gamma and 1/sigma as one factor
    z += beta.reshape(col)
    return z


def _group_norm_grad(gr, xc, inv, gamma):
    """(dx, dgamma, dbeta) of group norm for output gradient gr, in group shape."""
    xh = xc * inv
    red = tuple(range(2, gr.ndim))
    dgamma = (gr * xh).sum(axis=red).reshape(-1)
    dbeta = gr.sum(axis=red).reshape(-1)
    dxh = gr * gamma.reshape(gr.shape[:2] + (1,) * (gr.ndim - 2))
    dx = inv * (dxh - _group_mean(dxh) - xh * _group_mean(dxh * xh))
    return dx, dgamma, dbeta


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int, eps: float = 1e-5) -> Tensor:
    """Normalize channel-major x (C, B, T) per channel group and sequence.

    The statistics of group g of sequence b run over the group's channels
    and all T frames; a 2-D (C, T) input is one sequence.
    """
    shape, gd = x.data.shape, gamma.data
    gshape = _group_shape(shape, groups)
    xc, inv = _group_centre(x.data.reshape(gshape), eps)
    out = _group_affine(xc, inv, gd, beta.data)

    def vjp(g):
        dx, dgamma, dbeta = _group_norm_grad(g.reshape(gshape), xc, inv, gd)
        return dx.reshape(shape), dgamma, dbeta

    return Tensor._from_op(out.reshape(shape), (x, gamma, beta), vjp)


def _conv_operands(xd, wd, padding, groups):
    """(taps, padded x, Tp, T_out) of conv1d on x (C_in, B, T), once the shapes fit.

    The taps are (K, groups, C_out/groups, C_in/groups) GEMM operands.  The
    padded sequences lie end to end as (groups, C_in/groups, (B+1)·Tp), with
    one zero sequence after the last: the K-1 columns the last taps read past it.
    """
    if xd.ndim != 3:
        raise ValueError(f"conv1d expects channel-major (C, B, T) input, got {xd.shape}")
    (c_out, c_in_g, k), (c_in, n_batch, t_in) = wd.shape, xd.shape
    if c_in_g * groups != c_in or c_out % groups:
        raise ValueError(
            f"conv1d shape mismatch: input {c_in} channels, weight {wd.shape}, groups {groups}"
        )
    pl, pr = padding
    tp = t_in + pl + pr
    if tp < k:
        raise ValueError("conv1d input shorter than kernel")
    taps = np.ascontiguousarray(wd.reshape(groups, c_out // groups, c_in_g, k).transpose(3, 0, 1, 2))
    xp = np.zeros((c_in, n_batch + 1, tp), dtype=xd.dtype)
    xp[:, :n_batch, pl : pl + t_in] = xd
    return taps, xp.reshape(groups, c_in_g, -1), tp, tp - k + 1


def _conv(xd, wd, bd, padding, groups):
    """conv1d's output array for input array x (C_in, B, T)."""
    taps, xf, tp, t_out = _conv_operands(xd, wd, padding, groups)
    cols = xd.shape[1] * tp
    yf = np.matmul(taps[0], xf[:, :, :cols])
    for kk in range(1, len(taps)):
        yf += np.matmul(taps[kk], xf[:, :, kk : kk + cols])
    y = yf.reshape(wd.shape[0], xd.shape[1], tp)[:, :, :t_out]
    return y + bd.reshape(-1, 1, 1)


def _conv_grad(g, xd, wd, padding, groups, needs=(True, True, True)):
    """(gx, gw, gb) of conv1d for output gradient g; the padded x is made again.

    A gradient whose entry of `needs` is False is not computed and is None.
    """
    taps, xf, tp, t_out = _conv_operands(xd, wd, padding, groups)
    (c_out, c_in_g, k), (c_in, n_batch, t_in) = wd.shape, xd.shape
    og, cols, pl = c_out // groups, n_batch * tp, padding[0]
    need_x, need_w, need_b = needs
    # g in sequence slots 1..B of a zero buffer, zero in the dropped
    # columns: gradient column tp + c belongs to forward column c
    gp = np.zeros((c_out, n_batch + 1, tp), dtype=xd.dtype)
    gp[:, 1:, :t_out] = g.reshape(c_out, n_batch, t_out)
    gf = gp.reshape(groups, og, -1)
    gy = gf[:, :, tp:]
    gx = gw = None
    if need_x:
        gxf = np.matmul(taps[0].swapaxes(-1, -2), gy)
        for kk in range(1, k):
            gxf += np.matmul(taps[kk].swapaxes(-1, -2), gf[:, :, tp - kk : tp - kk + cols])
        gx = np.ascontiguousarray(gxf.reshape(c_in, n_batch, tp)[:, :, pl : pl + t_in])
    if need_w:
        gw = np.empty((k, groups, og, c_in_g), dtype=xd.dtype)
        for kk in range(k):
            gw[kk] = np.matmul(gy, xf[:, :, kk : kk + cols].swapaxes(-1, -2))
        gw = np.ascontiguousarray(gw.transpose(1, 2, 3, 0)).reshape(wd.shape)
    return gx, gw, (gp.sum(axis=(1, 2)) if need_b else None)


def conv1d(
    x: Tensor,
    w: Tensor,
    b: Tensor,
    padding: tuple[int, int] = (0, 0),
    groups: int = 1,
) -> Tensor:
    """1-D convolution along the last axis of channel-major input.

    `x` is (C_in, B, T), `w` is (C_out, C_in/groups, K) and `b` is
    (C_out,).  Padding is explicit (left, right); the output is
    (C_out, B, T + pad_l + pad_r - K + 1).

    The padded sequences lie end to end in one (C_in, B·Tp) matrix, and
    tap k is one GEMM per group over all its columns, shifted by k: output
    column b·Tp + t sums input columns b·Tp + t + k.  Of each sequence's Tp
    output columns the last K-1 read into the next sequence and are dropped.
    There is no im2col copy, and backward pads x again instead of keeping
    the padded copy.
    """
    xd, wd = x.data, w.data
    y = _conv(xd, wd, b.data, padding, groups)
    needs = _needs_grad(x, w, b)
    return Tensor._from_op(y, (x, w, b), lambda g: _conv_grad(g, xd, wd, padding, groups, needs))


def conv_norm_silu(x: Tensor, w: Tensor, b: Tensor, gamma: Tensor, beta: Tensor, groups: int,
                   eps: float = 1e-5) -> Tensor:
    """``silu(group_norm(conv1d(x, w, b, (K//2, K//2), groups), gamma, beta, groups))``.

    The same floating-point operations run in the same order as in the three
    ops, so output and gradients are the same bits, but backward keeps only
    the centred conv output, the group factors 1/sigma and the output: it
    recomputes the norm's output and the sigmoid from them and pads x again.
    Without a graph the conv output is centred, scaled and activated in place.
    """
    xd, wd, gd, bd = x.data, w.data, gamma.data, beta.data
    k = wd.shape[-1]
    padding = (k // 2, k // 2)
    y = _conv(xd, wd, b.data, padding, groups)  # a fresh array, ours to overwrite
    gshape = _group_shape(y.shape, groups)
    yr = y.reshape(gshape)
    xc, inv = _group_centre(yr, eps, out=yr)
    z = _group_affine(xc, inv, gd, bd, out=None if _records((x, w, b, gamma, beta)) else xc)
    z *= _sigmoid(z)
    out = z.reshape(y.shape)
    needs = _needs_grad(x, w, b, gamma, beta)

    def vjp(g):
        z = _group_affine(xc, inv, gd, bd).reshape(out.shape)
        gz = _silu_grad(g, z, out).reshape(gshape)
        dx, dgamma, dbeta = _group_norm_grad(gz, xc, inv, gd)
        del z, gz
        conv = _conv_grad(dx.reshape(out.shape), xd, wd, padding, groups, needs[:3])
        return (*conv, dgamma if needs[3] else None, dbeta if needs[4] else None)

    return Tensor._from_op(out, (x, w, b, gamma, beta), vjp)


def conv_transpose1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """1-D transposed convolution along the last axis of channel-major input.

    `x` is (C_in, B, T), `w` is (C_in, C_out, K);
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
    keep = rng.random(x.data.shape) >= rate  # one bool per element: backward rebuilds the mask
    dtype = x.data.dtype

    def masked(a):
        return a * (keep.astype(dtype) / (1.0 - rate))

    return Tensor._from_op(masked(x.data), (x,), lambda g: (masked(g),))


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

    shape, dtype = fd.shape, fd.dtype

    def vjp(g):
        if out_len < synth:
            g = np.pad(g, [(0, 0)] * (g.ndim - 1) + [(0, synth - out_len)])
        elif out_len > synth:
            g = g[..., :synth]
        gf = np.empty(shape, dtype)
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
