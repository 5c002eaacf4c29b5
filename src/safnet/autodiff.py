"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tensors record the operations that produced them; backward() on a scalar
loss walks the graph in reverse topological order and accumulates
gradients into every tensor that requires them. Ops preserve the input
dtype, so the same graph runs in float32 for training and float64 for
finite-difference verification.

The encoder's training kernels are each a single-pass ufunc or an
np.matmul that BLAS accepts: BLAS takes a matrix only when one of its
strides is one element and the other spans at least a row.
- Every temporal convolution is a blocked-Toeplitz GEMM. Each row is
  zero-padded to (Q+1)K samples, Q = ceil(M/K), and read as (Q+1, K)
  blocks. Output block q is X[q] T0 + X[q+1] T1, where T0 and T1 are the
  two K x K band-Toeplitz halves of a kernel, so the forward and the input
  gradient are each one batched GEMM and one add, and the output comes out
  in time order. The weight gradient sums G[q]' [X[q] | X[q+1]] over
  blocks, one batched GEMM on strided views of the padded rows, and reads
  the result's diagonals through one strided view. The halves do twice the
  multiply-adds of a direct convolution, but at BLAS speed, and no
  (..., M, K) im2col buffer is built: for a 256-epoch prediction batch it
  would take about 100 MB.
- first_block is the encoder's temporal conv, first batch norm and depthwise
  spatial conv as one op. The spatial mix goes first, so the K-tap
  convolution runs on B*F*D rows instead of B*F*C, and the batch
  statistics come from float64 window moments of the input. The
  (B,F,C,M) intermediate that the three ops would pass along is never
  built. batch_norm and depthwise_spatial_conv remain ops of their own,
  and temporal_conv is depthwise_temporal_conv on its input repeated over
  the filters.
- depthwise_spatial_conv and pointwise_conv are single BLAS products.
- elu uses np.maximum and one multiply instead of np.where, and
  avg_pool_time adds the pool strided slices of a (..., n, pool) view
  instead of taking a mean over the trailing axis; both avoided forms run
  on numpy's slow paths, several times slower on the encoder's arrays.
- batch_norm works on a (B,F,N) view. It takes its statistics with einsum
  reductions, normalises the centred copy in place, and builds the input
  gradient in one buffer from the two reductions that give the gamma and
  beta gradients. It and first_block share BN_EPS and one running-statistics
  update (BN_MOMENTUM, unbiased variance).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ValidationError

BN_MOMENTUM = 0.1
BN_EPS = 1e-5

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

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
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


def reshape(x: Tensor, shape) -> Tensor:
    return _node(x.data.reshape(shape), (x,),
                 lambda g: (g.reshape(x.data.shape),))


def tensor_sum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=True),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape).astype(x.data.dtype, copy=True),)

    return _node(data, (x,), grad_fn)


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


def _blocks(a: np.ndarray, k: int, left: int) -> np.ndarray:
    """Rows of a (..., M) zero-padded to (Q+1)K samples, Q = ceil(M/K), with
    a[..., t] at sample left + t, as (..., Q+1, K) blocks. With left = 0 the
    last block of every row is zero."""
    m = a.shape[-1]
    q = -(-m // k)
    out = np.zeros(a.shape[:-1] + ((q + 1) * k,), dtype=a.dtype)
    out[..., left:left + m] = a
    return out.reshape(a.shape[:-1] + (q + 1, k))


def _bands(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F,K) kernels -> band-Toeplitz pairs [T0 | T1] and their adjoints
    [T0' | T1'], each (F,K,2K): T0[s,p] = w[s-p] for s >= p and
    T1[s,p] = w[K+s-p] for s < p, zero elsewhere. The pair reads
    [w, 0, w] at 2K+s-p and the adjoint, a plain band, reads [0, w, 0] at
    K+s-p; both are strided views copied once."""
    f, k = w.shape
    wide = np.zeros((f, 2, 3 * k), dtype=w.dtype)
    wide[:, 0, :k] = w
    wide[:, 0, 2 * k:] = w
    wide[:, 1, k:2 * k] = w
    fs, _, step = wide.strides
    fwd = as_strided(wide[:, 0, 2 * k:], shape=(f, k, 2 * k),
                     strides=(fs, step, -step), writeable=False)
    adj = as_strided(wide[:, 1, k:], shape=(f, k, 2 * k),
                     strides=(fs, -step, step), writeable=False)
    return np.ascontiguousarray(fwd), np.ascontiguousarray(adj)


def _toeplitz_conv(xb: np.ndarray, bands: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Blocked-Toeplitz correlation y[t] = sum_i w[i] xp[t+i] of each padded
    row with the kernel of its group.

    xb (G,*R,Q+1,K) holds the blocks of G groups of rows (_blocks), bands
    (G,K,2K) the band pair of each group's kernel (_bands). Output block q
    of a row is X[q] T0 + X[q+1] T1: one batched GEMM against [T0 | T1] and
    one add, written to out (G,*R,Q,K) in time order.
    """
    g, k = xb.shape[0], xb.shape[-1]
    y = np.matmul(xb.reshape(g, -1, k), bands)
    y = y.reshape(xb.shape[:-1] + (2 * k,))
    return np.add(y[..., :-1, :k], y[..., 1:, k:], out=out)


def _block_products(xb: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """P[f,q] = sum over rows of G[q]' [X[q] | X[q+1]], (F,Q,K,2K), for the
    blocks xb (G,*R,Q+1,K) of a padded input and gb (F,*R,Q+1,K) of a
    signal aligned with it (G is 1 or F). P[f,q][a, a+i] sums g[qK+a] times
    xp[qK+a+i]. Each [X[q] | X[q+1]] is a strided view of a row's blocks,
    so this is one batched GEMM."""
    k, q1 = xb.shape[-1], xb.shape[-2]
    xf = xb.reshape(xb.shape[0], -1, q1 * k)
    gf = gb.reshape(gb.shape[0], -1, q1, k)
    step = xf.itemsize
    pairs = as_strided(xf, shape=(xf.shape[0], q1 - 1, xf.shape[1], 2 * k),
                       strides=(xf.strides[0], k * step, xf.strides[1], step),
                       writeable=False)
    return np.matmul(gf[:, :, :-1].transpose(0, 2, 3, 1), pairs)


def _diagonals(p: np.ndarray) -> np.ndarray:
    """(..., K, 2K) -> strided view (..., K, K) of p[..., a, a+i] at [a, i]."""
    k = p.shape[-2]
    rows, cols = p.strides[-2:]
    return as_strided(p, shape=p.shape[:-1] + (k,),
                      strides=p.strides[:-2] + (rows + cols, cols), writeable=False)


def _toeplitz_weight_grad(xb: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """gw[f,i] = sum over rows and t of g[t] xp[t+i] for the blocks xb of
    the padded input and gb of the output gradient (_block_products)."""
    return _diagonals(_block_products(xb, gb)).sum(axis=(1, 2))


def _toeplitz_input_grad(gb: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Gradient of the padded input blocks for output-gradient blocks gb
    (F,*R,Q+1,K) and kernel adjoints adj (F,K,2K): block q is
    G[q] T0' + G[q-1] T1', one GEMM and one add shifted by a block on the
    flat block axis. The last block of each row of gb must be zero (left = 0
    in _blocks), so the shift never carries a row into the next. Same shape
    as gb."""
    f, k = gb.shape[0], gb.shape[-1]
    p = np.matmul(gb.reshape(f, -1, k), adj)
    gxb = p[..., :k].copy()
    gxb[:, 1:] += p[:, :-1, k:]
    return gxb.reshape(gb.shape)


def _unblock(gxb: np.ndarray, left: int, m: int) -> np.ndarray:
    """Samples left .. left+M-1 of each blocked row: the unpadded signal."""
    return gxb.reshape(gxb.shape[:-2] + (-1,))[..., left:left + m]


def depthwise_temporal_conv(x: Tensor, w: Tensor) -> Tensor:
    """(B,F,C,M) with one kernel per filter (F,K), same padding on time."""
    b, f, c, m = x.data.shape
    fw, k = w.data.shape
    if fw != f:
        raise ValidationError(f"kernel count {fw} != filter count {f}")
    left = _same_pad(k)[0]
    q = -(-m // k)
    xb = _blocks(x.data.transpose(1, 0, 2, 3), k, left)  # (F,B,C,Q+1,K)
    fwd, adj = _bands(w.data)
    out = np.empty((b, f, c, q, k), dtype=np.result_type(x.data, w.data))
    _toeplitz_conv(xb, fwd, out.transpose(1, 0, 2, 3, 4))
    data = np.ascontiguousarray(out.reshape(b, f, c, q * k)[..., :m])

    def grad_fn(g):
        gb = _blocks(g.transpose(1, 0, 2, 3), k, 0)
        gw = _toeplitz_weight_grad(xb, gb) if w.requires_grad else None
        gx = None
        if _wants_grad(x):
            gxb = _toeplitz_input_grad(gb, adj)
            gx = np.ascontiguousarray(_unblock(gxb, left, m).transpose(1, 0, 2, 3))
        return (gx, gw)

    return _node(data, (x, w), grad_fn)


def temporal_conv(x: Tensor, w: Tensor) -> Tensor:
    """(B,1,C,M) with per-filter kernels (F,K), same padding on time: the
    input repeated over the F filters, then depthwise_temporal_conv."""
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ValidationError(f"temporal_conv expects (B,1,C,M), got {x.data.shape}")
    ones = Tensor(np.ones((1, w.data.shape[0], 1, 1), dtype=x.data.dtype))
    return depthwise_temporal_conv(mul(x, ones), w)


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


def _update_running(running_mean, running_var, mu, var, n: int) -> None:
    """Fold the mean and biased variance of n values into the running buffers,
    in place."""
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mu
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * (var * n / max(n - 1, 1))


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool) -> Tensor:
    """Normalizes axis 1 of a (B,F,C,M) tensor. Batch statistics in training
    mode (running buffers updated in place), running statistics otherwise."""
    b, f = x.data.shape[:2]
    x3 = x.data.reshape(b, f, -1)
    n = b * x3.shape[2]
    if training:
        mu = np.einsum("bfn->f", x3) / n
        xhat = x3 - mu[:, None]
        var = np.einsum("bfn,bfn->f", xhat, xhat) / n
        _update_running(running_mean, running_var, mu, var, n)
    else:
        xhat = x3 - running_mean.astype(x.data.dtype)[:, None]
        var = running_var.astype(x.data.dtype)
    istd = 1.0 / np.sqrt(var + BN_EPS)
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


def _window_moments(x: np.ndarray, k: int, left: int):
    """Mean (K,) and Gram (K,K), in float64, of the K-sample windows
    xp[t : t+K], t < M, of rows x (R,M) padded with `left` zeros in front:
    mean[i] = sum xp[t+i] / n and gram[i,j] = sum xp[t+i] xp[t+j] over rows
    and t, with n = R*M.

    Tap i reads x[o : o+M], o = i - left, so gram[i,j] sums the lag
    products p[s, |i-j|] = sum over rows of x[s] x[s+|i-j|] over
    s in [o, o+M), o = min(i,j) - left. _block_products of x with itself
    gives p for every s, the window sums are differences of a running sum
    over s, and a strided view lays gram[i, i+l] out from them."""
    x = x.astype(np.float64)
    rows, m = x.shape
    q = -(-m // k)
    xb = _blocks(x, k, 0)[None]
    lagprod = _diagonals(_block_products(xb, xb)[0])  # p[qK+a, l] at [q, a, l]
    cum = np.zeros((q * k + 1, k))
    np.cumsum(lagprod.reshape(q * k, k), axis=0, out=cum[1:])
    o = np.arange(k) - left
    band = np.zeros((k, 2 * k))  # band[i, l] = gram[i, i+l]
    band[:, :k] = cum[np.clip(o + m, 0, q * k)] - cum[np.clip(o, 0, q * k)]
    step = band.itemsize
    upper = as_strided(band, shape=(k, k), strides=((2 * k - 1) * step, step),
                       writeable=False)  # band[i, j-i]; zero below the diagonal
    gram = upper + upper.T
    gram.flat[::k + 1] = band[:, 0]
    total = np.concatenate([[0.0], np.cumsum(x.sum(axis=0))])
    mean = (total[np.clip(o + m, 0, m)] - total[np.clip(o, 0, m)]) / (rows * m)
    return mean, gram


def first_block(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor,
                spatial_w: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool) -> Tensor:
    """temporal_conv(x, w), batch_norm(gamma, beta) and
    depthwise_spatial_conv(spatial_w) as one op: (B,1,C,M) -> (B,F*D,1,M).

    Once the batch-norm statistics are known all three are linear, and
    batch norm is constant over channels and time, so the spatial mix goes
    first: u = W x is (B,F,D,M), v_f = w_f * u runs on B*F*D rows instead of
    B*F*C, and out = a_f v + c_f S_fd with a = gamma/sigma,
    c = beta - a mu and S_fd = sum_c W[f,d,c]. In training mode
    mu_f = w_f . mean and sigma_f^2 = w_f' gram w_f / n - mu_f^2 come from
    the window moments of x (_window_moments, float64, n = B*C*M), and the
    running buffers are updated as batch_norm does; otherwise they are read.
    x is data: it may not require a gradient."""
    if _wants_grad(x):
        raise ValidationError("first_block does not differentiate its input")
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ValidationError(f"first_block expects (B,1,C,M), got {x.data.shape}")
    b, _, c, m = x.data.shape
    f, k = w.data.shape
    fw, d, cw = spatial_w.data.shape
    if fw != f or cw != c:
        raise ValidationError(f"spatial kernel {spatial_w.data.shape} incompatible "
                              f"with {f} filters over {c} channels")
    dtype = x.data.dtype
    left = _same_pad(k)[0]
    q = -(-m // k)
    xb = _blocks(x.data[:, 0].transpose(1, 0, 2), k, left)  # (C,B,Q+1,K)
    ub = np.matmul(spatial_w.data.reshape(f * d, c), xb.reshape(c, -1))
    ub = ub.reshape(f, d, b, q + 1, k)  # u, padded as xb is
    fwd, adj = _bands(w.data)
    v = np.empty((f, d, b, q, k), dtype=dtype)
    _toeplitz_conv(ub, fwd, v)

    w64 = w.data.astype(np.float64)
    n = b * c * m
    if training:
        mean, gram = _window_moments(x.data[:, 0].reshape(b * c, m), k, left)
        mu = w64 @ mean
        rw = w64 @ gram
        # rounding can leave E[h^2] - mu^2 a hair below zero
        var = np.maximum(np.einsum("fk,fk->f", rw, w64) / n - mu * mu, 0.0)
        _update_running(running_mean, running_var, mu, var, n)
    else:
        mu = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)
    istd = 1.0 / np.sqrt(var + BN_EPS)
    gamma64 = gamma.data.astype(np.float64)
    a = gamma64 * istd
    shift = beta.data - a * mu
    ssum = spatial_w.data.sum(axis=2)  # S (F,D)
    data = np.empty((b, f, d, m), dtype=dtype)
    np.multiply(v.reshape(f, d, b, q * k)[..., :m],
                a.astype(dtype)[:, None, None, None], out=data.transpose(1, 2, 0, 3))
    data += (shift[:, None] * ssum).astype(dtype)[None, :, :, None]
    data = data.reshape(b, f * d, 1, m)

    def grad_fn(g):
        gb = _blocks(g.reshape(b, f, d, m).transpose(1, 2, 0, 3), k, 0)
        gsum = np.einsum("fdbqk->fd", gb).astype(np.float64)
        ga = np.einsum("fdbqk,fdbqk->f", gb[:, :, :, :q], v)
        gc = np.einsum("fd,fd->f", ssum, gsum)
        gscale = ga - mu * gc
        gw = a[:, None] * _toeplitz_weight_grad(ub, gb)
        if training:
            gvar = -0.5 * istd ** 3 * gamma64 * gscale
            gmu = -a * gc - 2.0 * mu * gvar
            gw += gmu[:, None] * mean + (2.0 / n) * gvar[:, None] * rw
        gub = _toeplitz_input_grad(gb, adj)
        gsw = np.matmul(gub.reshape(f * d, -1), xb.reshape(c, -1).T).reshape(f, d, c)
        gsw = gsw * a[:, None, None] + (shift[:, None] * gsum)[:, :, None]
        return (None, gw.astype(w.data.dtype),
                (istd * gscale).astype(gamma.data.dtype), gc.astype(beta.data.dtype),
                gsw.astype(spatial_w.data.dtype))

    return _node(data, (x, w, gamma, beta, spatial_w), grad_fn)


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
