"""Minimal dense-tensor reverse-mode autodiff on numpy buffers.

Covers exactly the primitive set the segmentation network needs: batched
matmul (one GEMM when the right operand is a 2-D weight), a stride-1 3D
convolution, instance and layer norm, softmax, a handful of pointwise ops,
and the usual shape plumbing (reshape / permute / pad / concat / slice /
reductions).  The convolution is k³ shifted GEMMs on the flattened padded
input ("kn2row"), with no im2col copy: forward and grad-x are the same
correlation (grad-x with the flipped, channel-swapped kernel on the padded
output gradient) and grad-w is one GEMM per kernel offset.  The graph is
tape-based: each op output keeps closures over its parents, and
``backward`` walks the recorded ops in reverse topological order exactly
once.

Default precision is float32 (training); pass ``dtype=np.float64`` at
tensor creation for verification runs, where finite-difference checks are
actually meaningful.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    """Operand shapes violate an op precondition."""


class GraphError(RuntimeError):
    """Backward-pass misuse: non-scalar loss or repeated backward."""


DEFAULT_DTYPE = np.float32

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_done")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._done = False

    # -- construction of op outputs -------------------------------------
    @staticmethod
    def _result(data, parents, backward):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._done = False
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
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
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return mul(self, 1.0 / other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return slice_(self, idx)


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _accum(t: Tensor, g: np.ndarray, grads: dict):
    tid = id(t)
    if tid in grads:
        grads[tid] = grads[tid] + g
    else:
        grads[tid] = g


# -- pointwise ------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}")

    def bw(g, grads):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape), grads)
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape), grads)

    return Tensor._result(data, (a, b), bw)


def mul(a, b) -> Tensor:
    if not isinstance(b, Tensor):  # scale by constant
        a = as_tensor(a)
        c = float(b)
        data = a.data * np.asarray(c, dtype=a.dtype)

        def bw_scalar(g, grads):
            if a.requires_grad:
                _accum(a, g * c, grads)

        return Tensor._result(data, (a,), bw_scalar)

    a = as_tensor(a)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}")

    def bw(g, grads):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape), grads)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape), grads)

    return Tensor._result(data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: cannot broadcast {a.shape} with {b.shape}")

    def bw(g, grads):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.shape), grads)
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape), grads)

    return Tensor._result(data, (a, b), bw)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    # stable two-sided form
    d = x.data
    out = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                   np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = out.astype(d.dtype)

    def bw(g, grads):
        if x.requires_grad:
            _accum(x, g * out * (1.0 - out), grads)

    return Tensor._result(out, (x,), bw)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    x = as_tensor(x)
    d = x.data
    phi = 0.5 * (1.0 + erf(d * _INV_SQRT2))
    out = (d * phi).astype(d.dtype)

    def bw(g, grads):
        if x.requires_grad:
            pdf = np.exp(-0.5 * d * d) * _INV_SQRT2PI
            _accum(x, g * (phi + d * pdf).astype(d.dtype), grads)

    return Tensor._result(out, (x,), bw)


def softmax(x, axis=-1) -> Tensor:
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g, grads):
        if x.requires_grad:
            gy = g * out
            _accum(x, gy - out * gy.sum(axis=axis, keepdims=True), grads)

    return Tensor._result(out, (x,), bw)


# -- shape plumbing --------------------------------------------------------

def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")

    def bw(g, grads):
        if x.requires_grad:
            _accum(x, g.reshape(x.shape), grads)

    return Tensor._result(data, (x,), bw)


def permute(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of {x.ndim} axes")
    data = x.data.transpose(axes)
    inv = np.argsort(axes)

    def bw(g, grads):
        if x.requires_grad:
            _accum(x, g.transpose(inv), grads)

    return Tensor._result(data, (x,), bw)


def pad(x, widths) -> Tensor:
    """Zero-pad; widths is a per-axis list of (before, after)."""
    x = as_tensor(x)
    widths = tuple((int(b), int(a)) for b, a in widths)
    if len(widths) != x.ndim:
        raise ShapeError(f"pad: {len(widths)} width pairs for {x.ndim} axes")
    data = np.pad(x.data, widths)
    sl = tuple(slice(b, b + n) for (b, _), n in zip(widths, x.shape))

    def bw(g, grads):
        if x.requires_grad:
            _accum(x, g[sl], grads)

    return Tensor._result(data, (x,), bw)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            "concat: incompatible shapes " + ", ".join(str(t.shape) for t in tensors))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g, grads):
        parts = np.split(g, splits, axis=axis)
        for t, p in zip(tensors, parts):
            if t.requires_grad:
                _accum(t, p, grads)

    return Tensor._result(data, tuple(tensors), bw)


def _is_basic_index(idx) -> bool:
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(p, (int, np.integer, slice, type(None), type(Ellipsis)))
               for p in parts)


def slice_(x, idx) -> Tensor:
    x = as_tensor(x)
    data = x.data[idx]

    def bw(g, grads):
        if x.requires_grad:
            gx = np.zeros(x.shape, dtype=g.dtype)
            if _is_basic_index(idx):
                gx[idx] = g
            else:
                np.add.at(gx, idx, g)  # fancy indices may repeat
            _accum(x, gx, grads)

    return Tensor._result(data, (x,), bw)


def reduce_sum(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(g, grads):
        if x.requires_grad:
            if axis is None:
                _accum(x, np.broadcast_to(g, x.shape).copy(), grads)
            else:
                ge = g if keepdims else np.expand_dims(g, axis)
                _accum(x, np.broadcast_to(ge, x.shape).copy(), grads)

    return Tensor._result(np.asarray(data), (x,), bw)


def reduce_mean(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        n = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = int(np.prod([x.shape[a] for a in axes]))
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / n)


# -- linear algebra --------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree: {a.shape} vs {b.shape}")
    if b.ndim == 2:
        # N-D @ 2-D is one GEMM over the flattened leading dims
        data = (a.data.reshape(-1, a.shape[-1]) @ b.data).reshape(a.shape[:-1] + (b.shape[1],))

        def bw2(g, grads):
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accum(a, (g2 @ b.data.T).reshape(a.shape), grads)
            if b.requires_grad:
                _accum(b, a.data.reshape(-1, a.shape[-1]).T @ g2, grads)

        return Tensor._result(data, (a, b), bw2)
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: batch dims not broadcastable: {a.shape} vs {b.shape}")

    def bw(g, grads):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape), grads)
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape), grads)

    return Tensor._result(data, (a, b), bw)


# -- convolutions -----------------------------------------------------------

def _taps(xp, k, out_dims):
    """Yield ((a, b, c), cols) for every kernel tap of a stride-1 correlation.

    ``cols`` is a column range of xp:(Cin,Dp,Hp,Wp) flattened to (Cin, Dp·Hp·Wp):
    column i of the output on the padded grid, i = (d·Hp + h)·Wp + w, meets
    input column i + (a·Hp + b)·Wp + c.  The range spans the outputs out_dims
    covers; its columns with h >= H' or w >= W' wrap into the next row and
    are junk.
    """
    D, H, W = out_dims
    Hp, Wp = xp.shape[2:]
    n = ((D - 1) * Hp + H - 1) * Wp + W
    xf = xp.reshape(xp.shape[0], -1)
    for a, b, c in itertools.product(range(k), repeat=3):
        o = (a * Hp + b) * Wp + c
        yield (a, b, c), xf[:, o:o + n]


def _correlate(xp, w):
    """Valid stride-1 cross-correlation of xp:(Cin,Dp,Hp,Wp) with w:(Cout,Cin,k,k,k).

    k³ GEMMs, one per tap, accumulated on the padded grid and then cropped;
    no im2col matrix is built.
    """
    cout, k = w.shape[0], w.shape[2]
    Hp, Wp = xp.shape[2:]
    D, H, W = (s - k + 1 for s in xp.shape[1:])
    acc = np.zeros((cout, D * Hp * Wp), dtype=np.result_type(xp, w))
    for (a, b, c), cols in _taps(xp, k, (D, H, W)):
        acc[:, :cols.shape[1]] += w[:, :, a, b, c] @ cols
    return np.ascontiguousarray(acc.reshape(cout, D, Hp, Wp)[:, :, :H, :W])


def conv3d(x, w, b=None, padding=0) -> Tensor:
    """Stride-1 cross-correlation of x:(Cin,D,H,W) with w:(Cout,Cin,k,k,k)."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 4 or w.ndim != 5:
        raise ShapeError(f"conv3d: expected x rank 4 and w rank 5, got {x.shape}, {w.shape}")
    if x.shape[0] != w.shape[1]:
        raise ShapeError(f"conv3d: channel mismatch: x {x.shape} vs w {w.shape}")
    k, p = w.shape[2], int(padding)
    if min(x.shape[1:]) + 2 * p < k:
        raise ShapeError(f"conv3d: input {x.shape} with pad={p} is smaller than kernel k={k}")

    xp = np.pad(x.data, ((0, 0), (p, p), (p, p), (p, p))) if p else x.data
    out = _correlate(xp, w.data)
    if b is not None:
        b = as_tensor(b)
        if b.shape != (w.shape[0],):
            raise ShapeError(f"conv3d: bias shape {b.shape} != ({w.shape[0]},)")
        out = out + b.data[:, None, None, None]
    parents = (x, w) if b is None else (x, w, b)

    def bw(g, grads):
        if w.requires_grad:
            # g on the padded grid of xp, zero in the junk columns
            cout, (D, H, W), (Hp, Wp) = g.shape[0], g.shape[1:], xp.shape[2:]
            gf = np.zeros((cout, D, Hp, Wp), dtype=g.dtype)
            gf[:, :, :H, :W] = g
            gf = gf.reshape(cout, -1)
            gw = np.empty(w.shape, dtype=g.dtype)
            for (a, b_, c), cols in _taps(xp, k, (D, H, W)):
                gw[:, :, a, b_, c] = gf[:, :cols.shape[1]] @ cols.T
            _accum(w, gw, grads)
        if x.requires_grad:
            # full correlation: g padded by k-1-p (cropped when p > k-1) with
            # the flipped, channel-swapped kernel
            q = k - 1 - p
            gq = np.pad(g, ((0, 0),) + ((q, q),) * 3) if q >= 0 else g[:, -q:q, -q:q, -q:q]
            wf = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            _accum(x, _correlate(gq, wf), grads)
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(1, 2, 3)), grads)

    return Tensor._result(out, parents, bw)


# -- normalization ----------------------------------------------------------

def instance_norm(x, gamma, beta, eps=1e-5) -> Tensor:
    """Per-channel spatial normalization of x:(C,D,H,W), affine gamma/beta:(C,)."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if eps <= 0:
        raise ValueError("instance_norm: eps must be positive")
    if x.ndim != 4 or gamma.shape != (x.shape[0],) or beta.shape != (x.shape[0],):
        raise ShapeError(
            f"instance_norm: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}")
    sp = (1, 2, 3)
    mu = x.data.mean(axis=sp, keepdims=True)
    var = x.data.var(axis=sp, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv
    out = gamma.data[:, None, None, None] * y + beta.data[:, None, None, None]

    def bw(g, grads):
        if gamma.requires_grad:
            _accum(gamma, (g * y).sum(axis=sp), grads)
        if beta.requires_grad:
            _accum(beta, g.sum(axis=sp), grads)
        if x.requires_grad:
            dy = g * gamma.data[:, None, None, None]
            m1 = dy.mean(axis=sp, keepdims=True)
            m2 = (dy * y).mean(axis=sp, keepdims=True)
            _accum(x, inv * (dy - m1 - y * m2), grads)

    return Tensor._result(out, (x, gamma, beta), bw)


def layer_norm(x, gamma, beta, eps=1e-5) -> Tensor:
    """Normalization over the last axis; gamma/beta shaped like that axis."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} != ({c},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv
    out = gamma.data * y + beta.data

    def bw(g, grads):
        if gamma.requires_grad:
            _accum(gamma, (g * y).reshape(-1, c).sum(axis=0), grads)
        if beta.requires_grad:
            _accum(beta, g.reshape(-1, c).sum(axis=0), grads)
        if x.requires_grad:
            dy = g * gamma.data
            m1 = dy.mean(axis=-1, keepdims=True)
            m2 = (dy * y).mean(axis=-1, keepdims=True)
            _accum(x, inv * (dy - m1 - y * m2), grads)

    return Tensor._result(out, (x, gamma, beta), bw)


# -- backward ----------------------------------------------------------------

def backward(loss: Tensor):
    """Populate .grad on every requires_grad tensor reachable from loss."""
    if loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._done:
        raise GraphError("backward: graph already consumed; run a new forward pass")
    if not loss.requires_grad:
        raise GraphError("backward: loss does not require grad (no recorded graph)")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is not None:
            node._backward(g, grads)
    loss._done = True

