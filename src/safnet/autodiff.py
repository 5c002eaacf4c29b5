"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tensors record the operations that produced them; backward() on a scalar
loss walks the graph in reverse topological order and accumulates
gradients into every tensor that requires them. Ops preserve the input
dtype, so the same graph runs in float32 for training and float64 for
finite-difference verification.

The encoder's training kernels are each a single-pass ufunc or an
np.matmul that BLAS accepts: BLAS takes a matrix only when one of its
strides is one element and the other spans at least a row.
- depthwise_spatial_conv, pointwise_conv and the weight gradient of
  temporal_conv reach BLAS. The weight gradient pads each (B,C) row to a
  multiple of K samples, so that windows starting K samples apart never
  overlap; for each of the K phases these windows form a read-only strided
  matrix, and the output gradient is copied once into the matching phase
  layout.
- The temporal_conv forward multiplies the (F,K) kernels into a sliding-
  window view of the padded input. Its rows start one sample apart, so
  numpy runs its own matmul loop on it instead of BLAS. A polyphase forward
  measured two to three times slower at the encoder's training shape,
  because scattering its output back into time order costs more than the
  GEMM saves. No (B,C,M,K) im2col buffer is built or kept: for a 256-epoch
  prediction batch it would take about 100 MB.
- elu uses np.maximum and one multiply instead of np.where, and
  avg_pool_time adds the pool strided slices of a (..., n, pool) view
  instead of taking a mean over the trailing axis; both avoided forms run
  on numpy's slow paths, several times slower on the encoder's arrays.
- batch_norm works on a (B,F,N) view. It takes its statistics with einsum
  reductions, normalises the centred copy in place, and builds the input
  gradient in one buffer from the two reductions that give the gamma and
  beta gradients.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ValidationError

_grad_enabled = True


@contextmanager
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
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_grad_fn")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype) if dtype else np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.grad = None
        self.requires_grad = requires_grad
        self._prev = ()
        self._grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ValidationError(
                f"backward requires a scalar, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))

        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            if node._grad_fn is None:
                continue
            for child, cg in zip(node._prev, node._grad_fn(g)):
                if cg is None or not _wants_grad(child):
                    continue
                key = id(child)
                if key in grads:
                    grads[key] = grads[key] + cg
                else:
                    grads[key] = cg

    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, _wrap(-1.0, self.dtype))

    def __sub__(self, other):
        return add(self, -_wrap(other, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, " \
               f"requires_grad={self.requires_grad})"


def _wrap(value, dtype):
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=dtype))


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or t._prev != ()


def _node(data, children, grad_fn):
    out = Tensor(data)
    if _grad_enabled and any(_wants_grad(c) for c in children):
        out._prev = tuple(children)
        out._grad_fn = grad_fn
    return out


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _node(data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _node(data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data
    return _node(data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def reshape(x: Tensor, shape) -> Tensor:
    return _node(x.data.reshape(shape), (x,),
                 lambda g: (g.reshape(x.data.shape),))


def transpose(x: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)
    return _node(x.data.transpose(axes), (x,),
                 lambda g: (g.transpose(inverse),))


def tensor_sum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=True),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape).astype(x.data.dtype, copy=True),)

    return _node(data, (x,), grad_fn)


def tensor_mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    count = x.data.size if axis is None else x.data.shape[axis]
    return mul(tensor_sum(x, axis=axis, keepdims=keepdims),
               _wrap(1.0 / count, x.dtype))


def elu(x: Tensor) -> Tensor:
    # expm1(t) >= t, so the maximum picks x where x > 0 and expm1(x)
    # elsewhere; neg is exactly 0 where x > 0, so neg + 1 is the derivative.
    neg = np.expm1(np.minimum(x.data, 0.0))
    data = np.maximum(x.data, neg)

    def grad_fn(g):
        gx = neg + 1.0
        gx *= g
        return (gx,)

    return _node(data, (x,), grad_fn)


def _same_pad(kernel: int) -> tuple[int, int]:
    left = (kernel - 1) // 2
    return left, kernel - 1 - left


def temporal_conv(x: Tensor, w: Tensor) -> Tensor:
    """(B,1,C,M) with per-filter kernels (F,K), same padding on time."""
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ValidationError(f"temporal_conv expects (B,1,C,M), got {x.data.shape}")
    b, _, c, m = x.data.shape
    f, k = w.data.shape
    left, right = _same_pad(k)
    xp = np.pad(x.data[:, 0], ((0, 0), (0, 0), (left, right)))
    win = sliding_window_view(xp, k, axis=-1)  # (B,C,M,K), a strided view
    data = np.ascontiguousarray(
        np.matmul(w.data, win.transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3))

    def grad_fn(g):
        gw = _temporal_conv_weight_grad(x.data, g, k) if w.requires_grad else None
        gx = None
        if _wants_grad(x):
            gxp = np.zeros_like(xp)
            for kk in range(k):
                gxp[:, :, kk:kk + m] += np.tensordot(g, w.data[:, kk], axes=([1], [0]))
            gx = gxp[:, :, left:left + m][:, None]
        return (gx, gw)

    return _node(data, (x, w), grad_fn)


def _temporal_conv_weight_grad(x: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """gw[f,i] = sum over b, c, t of g[b,f,c,t] * xpad[b,c,t+i], as K BLAS
    products on a polyphase view of the padded input.

    Each (B,C) row is zero-padded to L = (Q+1)K samples, Q = ceil(M/K), and
    the rows are laid end to end. Output time t = qK + p is phase p of block
    q. For phase p, the windows starting at p, p+K, p+2K, ... of the flat
    buffer never overlap, so they form a (J,K) matrix with row stride K.
    Window r(Q+1) + q starts at sample qK + p of row r. It meets a zero of
    g's phase layout where t >= M, which covers block Q, the only windows
    that run into the next row. The very last window, which would run past
    the buffer, is left out.
    """
    b, _, c, m = x.shape
    f = g.shape[1]
    left = (k - 1) // 2
    q = -(-m // k)
    rows = b * c
    xq = np.zeros((rows, (q + 1) * k), dtype=x.dtype)
    xq[:, left:left + m] = x.reshape(rows, m)
    j = rows * (q + 1) - 1
    step = xq.itemsize
    win = as_strided(xq, shape=(k, j, k), strides=(step, k * step, step),
                     writeable=False)
    gq = np.zeros((k, f, b, c, q + 1), dtype=g.dtype)
    blocks = gq.transpose(2, 1, 3, 4, 0)  # (B,F,C,Q+1,K) view of gq
    full = m // k
    blocks[:, :, :, :full] = g[..., :full * k].reshape(b, f, c, full, k)
    blocks[:, :, :, full, :m - full * k] = g[..., full * k:]
    return np.matmul(gq.reshape(k, f, -1)[..., :j], win).sum(axis=0)


def depthwise_temporal_conv(x: Tensor, w: Tensor) -> Tensor:
    """(B,F,C,M) with one kernel per filter (F,K), same padding on time."""
    b, f, c, m = x.data.shape
    fw, k = w.data.shape
    if fw != f:
        raise ValidationError(f"kernel count {fw} != filter count {f}")
    left, right = _same_pad(k)
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, 0), (left, right)))
    win = sliding_window_view(xp, k, axis=-1)  # (B,F,C,M,K)
    data = np.einsum("bfcmk,fk->bfcm", win, w.data)

    def grad_fn(g):
        gw = np.einsum("bfcmk,bfcm->fk", win, g) if w.requires_grad else None
        gx = None
        if _wants_grad(x):
            gxp = np.zeros_like(xp)
            for kk in range(k):
                gxp[:, :, :, kk:kk + m] += g * w.data[:, kk][None, :, None, None]
            gx = gxp[:, :, :, left:left + m]
        return (gx, gw)

    return _node(data, (x, w), grad_fn)


def depthwise_spatial_conv(x: Tensor, w: Tensor) -> Tensor:
    """(B,F,C,M) with kernels (F,D,C); collapses the channel axis to 1."""
    b, f, c, m = x.data.shape
    fw, d, cw = w.data.shape
    if fw != f or cw != c:
        raise ValidationError(f"kernel {w.data.shape} incompatible with input "
                              f"{x.data.shape}")
    data = np.matmul(w.data, x.data).reshape(b, f * d, 1, m)  # (F,D,C)@(B,F,C,M)

    def grad_fn(g):
        g4 = g.reshape(b, f, d, m)
        gw = None
        if w.requires_grad:
            gw = np.matmul(g4, x.data.transpose(0, 1, 3, 2)).sum(axis=0)
        gx = np.matmul(w.data.transpose(0, 2, 1), g4) if _wants_grad(x) else None
        return (gx, gw)

    return _node(data, (x, w), grad_fn)


def pointwise_conv(x: Tensor, w: Tensor) -> Tensor:
    """(B,F,C,M) mixed across filters by (O,F)."""
    if w.data.shape[1] != x.data.shape[1]:
        raise ValidationError(f"pointwise kernel {w.data.shape} incompatible with "
                              f"input {x.data.shape}")
    b, f, c, m = x.data.shape
    o = w.data.shape[0]
    x3 = x.data.reshape(b, f, c * m)
    data = np.matmul(w.data, x3).reshape(b, o, c, m)

    def grad_fn(g):
        g3 = g.reshape(b, o, c * m)
        gw = None
        if w.requires_grad:
            gw = np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0)
        gx = np.matmul(w.data.T, g3).reshape(x.data.shape) if _wants_grad(x) else None
        return (gx, gw)

    return _node(data, (x, w), grad_fn)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Normalizes axis 1 of a (B,F,C,M) tensor. Batch statistics in training
    mode (running buffers updated in place), running statistics otherwise."""
    b, f = x.data.shape[:2]
    x3 = x.data.reshape(b, f, -1)
    n = b * x3.shape[2]
    if training:
        mu = np.einsum("bfn->f", x3) / n
        xhat = x3 - mu[:, None]
        var = np.einsum("bfn,bfn->f", xhat, xhat) / n
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * (var * n / max(n - 1, 1))
    else:
        xhat = x3 - running_mean.astype(x.data.dtype)[:, None]
        var = running_var.astype(x.data.dtype)
    istd = 1.0 / np.sqrt(var + eps)
    xhat *= istd[:, None]
    data = xhat * gamma.data[:, None]
    data += beta.data[:, None]
    data = data.reshape(x.data.shape)

    def grad_fn(g):
        g3 = g.reshape(b, f, -1)
        gbeta = np.einsum("bfn->f", g3)
        ggamma = np.einsum("bfn,bfn->f", g3, xhat)
        gx = None
        if _wants_grad(x):
            scale = (gamma.data * istd)[:, None]
            if training:
                gx = xhat * (-ggamma / n)[:, None]
                gx += g3
                gx -= (gbeta / n)[:, None]
                gx *= scale
            else:
                gx = g3 * scale
            gx = gx.reshape(x.data.shape)
        return (gx, ggamma if gamma.requires_grad else None,
                gbeta if beta.requires_grad else None)

    return _node(data, (x, gamma, beta), grad_fn)


def avg_pool_time(x: Tensor, pool: int) -> Tensor:
    """Non-overlapping mean pooling along the last axis; remainder dropped."""
    b, f, c, m = x.data.shape
    n = m // pool
    if n < 1:
        raise ValidationError(f"pool {pool} longer than time axis {m}")
    scale = x.data.dtype.type(1.0 / pool)
    # Strided slices of the (..., n, pool) view: a trailing-axis mean over
    # `pool` elements runs numpy's slow reduction path.
    blocks = x.data[..., :n * pool].reshape(b, f, c, n, pool)
    data = blocks[..., 0].copy()
    for i in range(1, pool):
        data += blocks[..., i]
    data *= scale

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gblocks = gx[..., :n * pool].reshape(b, f, c, n, pool)
        gs = g * scale
        for i in range(pool):
            gblocks[..., i] = gs
        return (gx,)

    return _node(data, (x,), grad_fn)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p == 0.0:
        return x
    if not (0.0 <= p < 1.0):
        raise ValidationError(f"dropout probability must be in [0,1), got {p}")
    mask = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return _node(x.data * mask, (x,), lambda g: (g * mask,))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    data = x.data @ w.data + b.data

    def grad_fn(g):
        gw = x.data.T @ g if w.requires_grad else None
        gb = g.sum(axis=0) if b.requires_grad else None
        gx = g @ w.data.T if _wants_grad(x) else None
        return (gx, gw, gb)

    return _node(data, (x, w, b), grad_fn)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(np.asarray(logits)))


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer targets."""
    targets = np.asarray(targets, dtype=np.int64)
    n, k = logits.data.shape
    if targets.shape != (n,):
        raise ValidationError(f"expected {n} targets, got shape {targets.shape}")
    if targets.min() < 0 or targets.max() >= k:
        raise ValidationError(f"targets out of range for {k} classes")
    logp = _log_softmax(logits.data)
    data = np.asarray(-logp[np.arange(n), targets].mean(), dtype=logits.dtype)

    def grad_fn(g):
        gz = np.exp(logp)
        gz[np.arange(n), targets] -= 1.0
        return (gz * (g / n),)

    return _node(data, (logits,), grad_fn)


def entropy_of_softmax(logits: Tensor) -> Tensor:
    """Mean Shannon entropy (nats) of the per-row softmax distribution."""
    z = logits.data
    n = z.shape[0]
    logp = _log_softmax(z)
    p = np.exp(logp)
    pz = (p * z).sum(axis=1, keepdims=True)
    lse = z[:, :1] - logp[:, :1]  # z - logp is the common log-sum-exp per row
    data = np.asarray((lse - pz).mean(), dtype=logits.dtype)

    def grad_fn(g):
        return ((-p * (z - pz)) * (g / n),)

    return _node(data, (logits,), grad_fn)


def grl(x: Tensor, lambda_grl: float) -> Tensor:
    """Identity forward; backward multiplies the gradient by -lambda_grl."""
    lam = float(lambda_grl)
    return _node(x.data, (x,), lambda g: (-lam * g,))


def scale_value_only(x: Tensor, k: float) -> Tensor:
    """Forward multiplies by k; backward is the identity.

    The dual of grl: use it to report a loss term with a weighting factor
    that is applied elsewhere on the gradient path, without scaling the
    gradient a second time.
    """
    kf = float(k)
    return _node(x.data * np.asarray(kf, dtype=x.data.dtype), (x,),
                 lambda g: (g,))
