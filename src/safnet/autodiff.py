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
  blocks; [X[q] | X[q+1]], two consecutive blocks, is a strided view of
  the padded rows that BLAS reads as is. Output block q is
  [X[q] | X[q+1]] S and input-gradient block q is [G[q-1] | G[q]] A, with
  S and A (2K x K) band-Toeplitz matrices of the kernel, so each is one
  batched GEMM written straight into a view of its result in time order;
  these bands do twice the multiply-adds of a direct convolution, but at
  BLAS speed, and no (..., M, K) im2col buffer is built: for a 256-epoch
  prediction batch it would take about 100 MB. The weight gradient and
  the first batch norm's lag products multiply h-sample slices of g,
  h = K/2 for even K and K for odd, by the (h+K)-sample windows at hop h
  they read, one batched GEMM, and read the result's diagonals through
  one strided view: 1.5 times the multiply-adds of a direct product
  instead of 2. Each element is a dot over the rows, which the hop does
  not touch, so the bytes are those of a hop of K. The forward and input
  gradient stay at hop K: a shorter window drops zero terms from their
  dots, and BLAS rounds a dot differently with its length at some K.
- first_stage is the encoder's first block as one op: temporal conv, batch
  norm, depthwise spatial conv, batch norm, ELU, average pool and dropout,
  on (B,C,M) epochs, with a gradient graph only in training. The spatial
  mix goes first, so the K-tap convolution runs on B*F*D rows instead of
  B*F*C; the first batch norm's statistics come from window moments of
  the input, in its dtype, and the second's from the convolution's output,
  both batch norms fold into one per-channel scale and shift, and the rest
  runs in the (F*D,B,M) layout of that output. The output is a
  (B,F*D,1,M/pool) view of the pooled (F*D,B,M/pool) array; no (B,F,C,M)
  or (B,F*D,1,M) intermediate is built. The backward is closed form and
  copies the second batch norm's input gradient once into the zero-padded
  blocks the Toeplitz gradients read.
- second_stage is the encoder's second block as one op: depthwise temporal
  conv, pointwise conv, batch norm, ELU, average pool, dropout and the
  flatten, with a closed-form backward and a graph only in training. It
  reads first_stage's output through its (F*D,B,M) transpose, which is
  contiguous, and hands back its input gradient as a view in that order,
  so neither op copies the other's array into another layout. The batch
  norm's statistics run on the pointwise product's (B,O,M) array, as the
  separate op's do.
- The ops the two stages fuse remain ops of their own, the references the
  stages are checked against, and temporal_conv is depthwise_temporal_conv
  on its input repeated over the filters.
- pointwise_conv is a single BLAS product. depthwise_spatial_conv, which
  only first_stage's fused form runs in the encoder, is built from mul,
  reshape and tensor_sum.
- elu uses np.maximum and one multiply instead of np.where, and
  avg_pool_time adds the pool strided slices of a (..., n, pool) view
  instead of taking a mean over the trailing axis; both avoided forms run
  on numpy's slow paths, several times slower on the encoder's arrays.
- batch_norm works on a (B,F,N) view. It takes its statistics with einsum
  reductions, normalises the centred copy in place, and builds the input
  gradient in one buffer from the two reductions that give the gamma and
  beta gradients. It and the two stages share BN_EPS and one
  running-statistics update (BN_MOMENTUM, unbiased variance).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

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


def tensor_sum(x: Tensor, axis=None) -> Tensor:
    data = x.data.sum(axis=axis)

    def grad_fn(g):
        gg = g if axis is None else np.expand_dims(g, axis)
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
    a[..., t] at sample left + t, as (..., Q+1, K) blocks of a new array of
    a's dtype. a is written into it once, and only the padding is
    zero-filled. With left = 0 the last block of every row is zero."""
    m = a.shape[-1]
    q = -(-m // k)
    out = np.empty(a.shape[:-1] + ((q + 1) * k,), dtype=a.dtype)
    out[..., :left] = 0.0
    out[..., left:left + m] = a
    out[..., left + m:] = 0.0
    return out.reshape(a.shape[:-1] + (q + 1, k))


def _view(a: np.ndarray, shape, strides, offset: int = 0) -> np.ndarray:
    """Read-only view of the C-contiguous array a with the given shape and
    byte strides, starting `offset` elements in; numpy checks that it stays
    inside a. as_strided builds the same view at several times the cost,
    which the encoder's Toeplitz products would pay some fifteen times a
    training step."""
    view = np.ndarray(shape, a.dtype, a, offset * a.itemsize, strides)
    view.flags.writeable = False
    return view


def _band(w: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """(F,K) kernels -> band matrix (F,2K,K): S[s,p] = w[s-p], or with
    adjoint A[s,p] = w[K+p-s], where the index lies in [0,K), zero
    elsewhere. [X[q] | X[q+1]] S is output block q of the correlation and
    [G[q-1] | G[q]] A is block q of its input gradient, so the forward
    builds S and only the backward builds A. Each is a strided view of the
    kernels between K zeros on either side, reversed for S, whose rows are
    runs of consecutive samples, copied once."""
    f, k = w.shape
    wide = np.zeros((f, 3 * k), dtype=w.dtype)
    wide[:, k:2 * k] = w if adjoint else w[:, ::-1]
    fs, step = wide.strides
    start = 2 * k if adjoint else 2 * k - 1
    return np.ascontiguousarray(_view(wide, (f, 2 * k, k), (fs, -step, step), start))


def _windows(xb: np.ndarray, hop: int, count: int) -> np.ndarray:
    """The (hop+K)-sample windows that start every `hop` samples of the
    padded rows, blocks xb (G,*R,Q+1,K) of G groups of rows, as a strided
    view (G,count,R,hop+K) with the rows flattened: each row of one (G,j)
    slice is hop+K consecutive samples, so BLAS reads the slice as is. At
    hop K, window q is [X[q] | X[q+1]]."""
    k, q1 = xb.shape[-1], xb.shape[-2]
    xf = xb.reshape(xb.shape[0], -1, q1 * k)
    step = xf.itemsize
    return _view(xf, (xf.shape[0], count, xf.shape[1], hop + k),
                 (xf.strides[0], hop * step, xf.strides[1], step))


def _toeplitz_conv(xb: np.ndarray, fwd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Blocked-Toeplitz correlation y[t] = sum_i w[i] xp[t+i] of each padded
    row with the kernel of its group.

    xb (G,*R,Q+1,K) holds the blocks of G groups of rows (_blocks), fwd
    (G,2K,K) the band S of each group's kernel (_band). Output block q of
    a row is [X[q] | X[q+1]] S: one batched GEMM, written to out (G,Q,R,K),
    R the rows flattened; a transposed view of a (G,*R,Q,K) array keeps
    the output in time order.
    """
    k = xb.shape[-1]
    return np.matmul(_windows(xb, k, xb.shape[-2] - 1), fwd[:, None], out=out)


def _band_products(xb: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """p[f,t,i] = sum over rows of g[t] xp[t+i], t < QK, for the blocks xb
    (G,*R,Q+1,K) of a padded input and gb (F,*R,Q+1,K) of a signal aligned
    with it (G is 1 or F), as a strided view (F,QK/h,h,K) with t = jh + a
    at [f,j,a,i]. The hop h is K/2 for even K and K for odd. Each h-sample
    slice of g times the (h+K)-sample window it reads (_windows) is one
    (h,h+K) tile of a batched GEMM, whose diagonals [a, a+i] the view
    reads; every product element is one dot over the rows, as it is in a
    tile at hop K, so the hop moves no bit."""
    k, q1 = gb.shape[-1], gb.shape[-2]
    h = k // 2 if k % 2 == 0 else k
    n = (q1 - 1) * k // h
    gf = gb.reshape(gb.shape[0], -1, q1 * k // h, h)
    p = np.matmul(gf[:, :, :n].transpose(0, 2, 3, 1), _windows(xb, h, n))
    rows, cols = p.strides[-2:]
    return _view(p, p.shape[:-1] + (k,), p.strides[:-2] + (rows + cols, cols))


def _toeplitz_weight_grad(xb: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """gw[f,i] = sum over rows and t of g[t] xp[t+i] for the blocks xb of
    the padded input and gb of the output gradient (_band_products)."""
    return _band_products(xb, gb).sum(axis=(1, 2))


def _toeplitz_input_grad(gb: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Gradient of the padded input blocks for output-gradient blocks gb
    (F,*R,Q+1,K) and kernel bands adj (F,2K,K) (_band): block q is
    [G[q-1] | G[q]] A, one batched GEMM over the pairs of gb's blocks, and
    block 0, where G[-1] is zero, is G[0] times A's lower half. The last
    block of each row of gb must be zero (left = 0 in _blocks). Same shape
    as gb."""
    f, k, q1 = gb.shape[0], gb.shape[-1], gb.shape[-2]
    gxb = np.empty(gb.shape, dtype=np.result_type(gb, adj))
    rows = gxb.reshape(f, -1, q1, k)
    np.matmul(_windows(gb, k, q1 - 1), adj[:, None],
              out=rows[:, :, 1:].transpose(0, 2, 1, 3))
    np.matmul(gb.reshape(f, -1, q1, k)[:, :, 0], adj[:, k:], out=rows[:, :, 0])
    return gxb


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
    out = np.empty((f, b, c, q, k), dtype=np.result_type(x.data, w.data))
    _toeplitz_conv(xb, _band(w.data), out.reshape(f, b * c, q, k).transpose(0, 2, 1, 3))
    data = np.ascontiguousarray(out.reshape(f, b, c, q * k)[..., :m].transpose(1, 0, 2, 3))

    def grad_fn(g):
        gb = _blocks(g.transpose(1, 0, 2, 3), k, 0)
        gw = _toeplitz_weight_grad(xb, gb) if w.requires_grad else None
        gx = None
        if _wants_grad(x):
            gxb = _toeplitz_input_grad(gb, _band(w.data, adjoint=True))
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
    """(B,F,C,M) with kernels (F,D,C); collapses the channel axis to 1. The
    input and the kernels broadcast to (B,F,D,C,M) through mul and are
    summed over C, so the gradients come from mul, reshape and tensor_sum.
    The encoder runs this op fused into first_stage, never on its own."""
    b, f, c, m = x.data.shape
    fw, d, cw = w.data.shape
    if fw != f or cw != c:
        raise ValidationError(f"kernel {w.data.shape} incompatible with input "
                              f"{x.data.shape}")
    prod = mul(reshape(x, (b, f, 1, c, m)), reshape(w, (1, f, d, c, 1)))
    return reshape(tensor_sum(prod, axis=3), (b, f * d, 1, m))


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
    """Mean (K,) and Gram (K,K), in x's dtype, of the K-sample windows
    xp[t : t+K], t < M, of rows x (R,M) padded with `left` zeros in front:
    mean[i] = sum xp[t+i] / n and gram[i,j] = sum xp[t+i] xp[t+j] over rows
    and t, with n = R*M.

    Tap i reads x[o : o+M], o = i - left, so gram[i,j] sums the lag
    products p[s, |i-j|] = sum over rows of x[s] x[s+|i-j|] over
    s in [o, o+M), o = min(i,j) - left. _band_products of x with itself
    gives p for every s, the window sums are differences of a running sum
    over s, and a strided view lays gram[i, i+l] out from them. x is
    written once into the zero-padded blocks the product reads, and the
    row sums of the mean read the same blocks. Every pass runs in x's
    dtype: a float32 batch is never copied to float64."""
    rows, m = x.shape
    q = -(-m // k)
    dtype = x.dtype
    xb = _blocks(x, k, 0)
    lagprod = _band_products(xb[None], xb[None])[0]  # p[jh+a, l] at [j, a, l]
    cum = np.empty((q * k + 1, k), dtype=dtype)
    cum[0] = 0.0
    run = cum[1:]
    run.reshape(lagprod.shape)[...] = lagprod
    np.cumsum(run, axis=0, out=run)
    o = np.arange(k) - left  # take(..., mode="clip") clamps s to the sums' range
    band = np.zeros((k, 2 * k), dtype=dtype)  # band[i, l] = gram[i, i+l]
    np.subtract(cum.take(o + m, axis=0, mode="clip"), cum.take(o, axis=0, mode="clip"),
                out=band[:, :k])
    # band[i, j-i] at [i, j], zero below the diagonal: rows of 2K-1 of the flat band
    upper = band.reshape(-1)[:k * (2 * k - 1)].reshape(k, 2 * k - 1)[:, :k]
    gram = upper + upper.T
    gram.flat[::k + 1] = band[:, 0]
    total = np.zeros(m + 1, dtype=dtype)
    np.cumsum(xb.reshape(rows, -1)[:, :m].sum(axis=0), out=total[1:])
    mean = (total.take(o + m, mode="clip") - total.take(o, mode="clip")) / (rows * m)
    return mean, gram


def _pool_mean(a: np.ndarray, pool: int) -> np.ndarray:
    """Means of the non-overlapping `pool`-sample windows along a's last
    axis, remainder dropped. They add the strided slices of a (..., n, pool)
    view: a trailing-axis mean over `pool` elements runs numpy's slow
    reduction path."""
    n = a.shape[-1] // pool
    blocks = a[..., :n * pool].reshape(a.shape[:-1] + (n, pool))
    scale = a.dtype.type(1.0 / pool)
    if pool == 1:
        return blocks[..., 0] * scale
    out = blocks[..., 0] + blocks[..., 1]
    for i in range(2, pool):
        out += blocks[..., i]
    out *= scale
    return out


def _dropout_mask(rng: np.random.Generator, shape, p: float, dtype) -> np.ndarray:
    """The inverted-dropout mask: 0 with probability p, else 1/(1-p), in one
    pass: 1/(1-p) is 1 divided by 1-p rounded to dtype, the value that
    dividing each 1 of the mask by 1-p gives."""
    dt = np.dtype(dtype).type
    return np.multiply(rng.random(shape) >= p, dt(1) / dt(1.0 - p), dtype=dtype)


def _elu_pool_grad(g: np.ndarray, mask, neg: np.ndarray, pool: int) -> np.ndarray:
    """The gradient of a fused stage's ELU input, neg's shape (I,J,M), from
    the gradient g (I,J,M//pool) of its pooled output, in the same layout:
    g times the dropout mask (None for none) times 1/pool, times ELU's
    derivative neg + 1 in every sample of its window, and 0 in the samples
    past the last whole window."""
    i, j, m = neg.shape
    mp = m // pool
    gs = np.empty((i, j, mp), dtype=neg.dtype)
    if mask is not None:
        g = np.multiply(g, mask, out=gs)
    np.multiply(g, neg.dtype.type(1.0 / pool), out=gs)
    gt = neg + 1.0
    gt[..., mp * pool:] = 0.0
    # one multiply, windows outermost, so that its inner loops run long
    windows = gt[..., :mp * pool].reshape(i, j, mp, pool).transpose(3, 0, 1, 2)
    np.multiply(windows, gs, out=windows, order="C")
    return gt


def first_stage(x: Tensor, w: Tensor, gamma1: Tensor, beta1: Tensor,
                spatial_w: Tensor, gamma2: Tensor, beta2: Tensor, running,
                pool: int, p: float, rng, training: bool) -> Tensor:
    """The encoder's first stage as one op, (B,C,M) -> (B,F*D,1,M//pool):
    temporal_conv(x[:, None], w), batch_norm(gamma1, beta1),
    depthwise_spatial_conv(spatial_w), batch_norm(gamma2, beta2), elu,
    avg_pool_time(pool) and dropout(p, rng). running holds the two batch
    norms' (mean, var, mean, var) buffers.

    With bn1's statistics known the first three are linear and bn1 is
    constant over channels and time, so the spatial mix goes first:
    u = W x is (F,D,B,M), v_fd = w_f * u_fd runs on B*F*D rows instead of
    B*F*C, and bn1's output after the mix is h = a_f v + c_f S_fd, with
    a = gamma1/sigma1, c = beta1 - a mu1 and S_fd = sum_c W[f,d,c]. In
    training mode mu1 = w_f . mean and sigma1^2 = w_f' gram w_f / n1 - mu1^2
    come from the window moments of x, in x's dtype (_window_moments,
    n1 = B*C*M), through float64 products with w_f, and bn2's from v: mean
    a_f mean(v) + c_f S_fd, variance a_f^2 var(v). Both batch norms fold
    into one scale and shift of z = v - mean(v) (z = v with running
    statistics), and ELU, the pool and the dropout mask run on the result
    in the (F*D,B,M) layout. The mask is the one dropout draws, and the
    output is a (B,F*D,1,M//pool) view of the pooled (F*D,B,M//pool) array,
    the layout second_stage reads without a copy.

    Where each buffer is built: training first takes the window moments,
    which write x once into their padded blocks while no other buffer of
    the op is live. The forward then writes x into its own padded blocks,
    builds the band S, and allocates u, v, ELU's input t and its
    expm1 part and the pooled means, which the mask scales in place; eval
    scales v into t in place, since no backward reads v. Only the backward
    builds the adjoint band A. It reads the output's gradient in any
    layout, second_stage's (F*D,B,M) view included, builds g_t and bn2's
    input gradient as (F*D,B,M) arrays,
    copies the latter into a new padded block buffer of which only the
    padding is zero-filled, and frees both before the Toeplitz gradients
    allocate theirs.

    Only training builds a graph; eval mode wanting one is refused outside
    no_grad. The backward is closed form. The gradient g_t of ELU's input t
    comes from the pooled gradient and ELU's derivative, and its per-channel
    sums R1 = sum g_t and R2 = sum g_t z give bn2's gamma and beta
    gradients. bn2's input gradient is copied into the zero-padded blocks
    the Toeplitz gradients read. bn2 removes any per-channel shift
    of h, so beta1 gets no gradient (None), and a_f reaches the output only
    through BN_EPS: dL/da_f = sum_d gamma2 BN_EPS R2 / sigma2^3. x is data."""
    if _wants_grad(x):
        raise ValidationError("first_stage does not differentiate its input")
    params = (w, gamma1, beta1, spatial_w, gamma2, beta2)
    if not training and _grad_enabled and any(_wants_grad(t) for t in params):
        raise ValidationError("first_stage builds a graph only in training; use no_grad")
    if x.data.ndim != 3:
        raise ValidationError(f"first_stage expects (B,C,M), got {x.data.shape}")
    b, c, m = x.data.shape
    f, k = w.data.shape
    fw, d, cw = spatial_w.data.shape
    if fw != f or cw != c:
        raise ValidationError(f"spatial kernel {spatial_w.data.shape} incompatible "
                              f"with {f} filters over {c} channels")
    mp = m // pool
    if mp < 1:
        raise ValidationError(f"pool {pool} longer than time axis {m}")
    if not (0.0 <= p < 1.0):
        raise ValidationError(f"dropout probability must be in [0,1), got {p}")
    running_mean1, running_var1, running_mean2, running_var2 = running
    dtype = x.data.dtype
    fd = f * d
    left = _same_pad(k)[0]
    q = -(-m // k)
    w64 = w.data.astype(np.float64)
    n1 = b * c * m
    if training:  # first, while no other buffer of the op is live
        mean, gram = _window_moments(x.data.reshape(b * c, m), k, left)
    xb = _blocks(x.data.transpose(1, 0, 2), k, left)  # (C,B,Q+1,K)
    ub = np.matmul(spatial_w.data.reshape(fd, c), xb.reshape(c, -1))
    ub = ub.reshape(f, d, b, q + 1, k)  # u, padded as xb is
    v = np.empty((fd, b, q, k), dtype=dtype)
    _toeplitz_conv(ub, _band(w.data), v.reshape(f, d * b, q, k).transpose(0, 2, 1, 3))
    v = np.ascontiguousarray(v.reshape(fd, b, q * k)[..., :m])

    if training:
        mu1 = w64 @ mean
        rw = w64 @ gram
        # rounding can leave E[h^2] - mu^2 a hair below zero
        var1 = np.maximum(np.einsum("fk,fk->f", rw, w64) / n1 - mu1 * mu1, 0.0)
        _update_running(running_mean1, running_var1, mu1, var1, n1)
    else:
        mu1 = running_mean1.astype(np.float64)
        var1 = running_var1.astype(np.float64)
    istd1 = 1.0 / np.sqrt(var1 + BN_EPS)
    gamma64 = gamma1.data.astype(np.float64)
    a = gamma64 * istd1
    shift = beta1.data - a * mu1
    ssum = spatial_w.data.sum(axis=2)  # S (F,D)
    a2 = np.repeat(a, d)  # a_f and c_f S_fd of every bn2 channel
    cs = (shift[:, None] * ssum).reshape(fd)
    n2 = b * m
    z = v  # centred in place in training
    if training:
        mv = v.reshape(fd, -1).sum(axis=1) / n2
        z -= mv[:, None, None]
        z2 = z.reshape(fd, -1)
        var2 = a2 * a2 * (np.einsum("jn,jn->j", z2, z2) / n2)
        _update_running(running_mean2, running_var2, a2 * mv + cs, var2, n2)
        sigma2 = np.sqrt(var2 + BN_EPS)
        offset = np.zeros(fd)
    else:
        sigma2 = np.sqrt(running_var2.astype(np.float64) + BN_EPS)
        offset = (cs - running_mean2) / sigma2
    u = a2 / sigma2  # bn2's normalised input is u z + offset
    g2 = gamma2.data.astype(np.float64)
    t = np.multiply(z, (g2 * u).astype(dtype)[:, None, None],
                    out=None if training else z)
    t += (g2 * offset + beta2.data).astype(dtype)[:, None, None]
    neg = np.minimum(t, 0.0)  # elu, as in elu()
    np.expm1(neg, out=neg)
    e = np.maximum(t, neg, out=t)
    pooled = _pool_mean(e, pool)  # (F*D,B,M//pool)
    mask = None
    if training and p > 0.0:
        mask = _dropout_mask(rng, (b, fd, 1, mp), p, dtype)[:, :, 0].transpose(1, 0, 2)
        pooled *= mask

    def grad_fn(g):
        gt = _elu_pool_grad(g[:, :, 0].transpose(1, 0, 2), mask, neg, pool)
        r1 = gt.reshape(fd, -1).sum(axis=1).astype(np.float64)
        r2 = np.einsum("jn,jn->j", gt.reshape(fd, -1), z.reshape(fd, -1))
        r2 = r2.astype(np.float64)
        alpha = g2 / sigma2
        # bn2's input gradient, built contiguously and copied once into the
        # padded blocks the Toeplitz gradients read: its three passes cost
        # more on the blocks' strided view than the copy does
        gh = z * (-alpha * u * u * r2 / n2).astype(dtype)[:, None, None]
        gt *= alpha.astype(dtype)[:, None, None]
        gh += gt
        gh -= (alpha * r1 / n2).astype(dtype)[:, None, None]
        gb = np.empty((f, d, b, q + 1, k), dtype=dtype)
        rows = gb.reshape(fd, b, (q + 1) * k)
        rows[..., :m] = gh
        rows[..., m:] = 0.0
        del gt, gh  # before the Toeplitz gradients' buffers are allocated
        ga = (alpha * BN_EPS * r2 / (sigma2 * sigma2)).reshape(f, d).sum(axis=1)
        gvar = -0.5 * istd1 ** 3 * gamma64 * ga
        gw = a[:, None] * _toeplitz_weight_grad(ub, gb)
        gmu = -2.0 * mu1 * gvar
        gw += gmu[:, None] * mean + (2.0 / n1) * gvar[:, None] * rw
        gub = _toeplitz_input_grad(gb, _band(w.data, adjoint=True))
        gsw = np.matmul(gub.reshape(fd, -1), xb.reshape(c, -1).T).reshape(f, d, c)
        return (None, gw.astype(w.data.dtype),
                (istd1 * ga).astype(gamma1.data.dtype), None,
                (gsw * a[:, None, None]).astype(spatial_w.data.dtype),
                (u * r2).astype(gamma2.data.dtype), r1.astype(beta2.data.dtype))

    return _node(pooled.transpose(1, 0, 2)[:, :, None], (x, *params), grad_fn)


def second_stage(x: Tensor, depth_w: Tensor, point_w: Tensor, gamma: Tensor,
                 beta: Tensor, running, pool: int, p: float, rng,
                 training: bool) -> Tensor:
    """The encoder's second block as one op, (B,F,1,M) -> (B,O*(M//pool)):
    depthwise_temporal_conv(depth_w), pointwise_conv(point_w),
    batch_norm(gamma, beta) with running = (mean, var), elu,
    avg_pool_time(pool), dropout(p, rng) and the flatten, with the same
    floating-point operations in the same order.

    The convolution reads x through its (F,B,M) transpose, which is
    contiguous when x is first_stage's output, and leaves its output in
    that layout; the pointwise product reads it as a (B,F,M) view, so the
    batch norm's statistics, ELU, the pool and the mask, drawn as dropout
    draws it, run on the product's (B,O,M) array. Only training builds a
    graph; eval mode wanting one is refused outside no_grad. The backward
    is closed form: the pooled gradient and ELU's derivative give bn3's
    output gradient, bn3's input gradient is the batch_norm one, and the
    pointwise product's input gradient is written straight into the
    zero-padded blocks the Toeplitz gradients read. The input gradient is
    a (B,F,1,M) view of the (F,B,M) rows those give, the layout
    first_stage's backward reads."""
    params = (depth_w, point_w, gamma, beta)
    if not training and _grad_enabled and any(_wants_grad(t) for t in (x, *params)):
        raise ValidationError("second_stage builds a graph only in training; use no_grad")
    if x.data.ndim != 4 or x.data.shape[2] != 1:
        raise ValidationError(f"second_stage expects (B,F,1,M), got {x.data.shape}")
    b, f, _, m = x.data.shape
    fw, k = depth_w.data.shape
    o, fp = point_w.data.shape
    if fw != f or fp != f:
        raise ValidationError(f"kernels {depth_w.data.shape} and {point_w.data.shape} "
                              f"incompatible with {f} input maps")
    mp = m // pool
    if mp < 1:
        raise ValidationError(f"pool {pool} longer than time axis {m}")
    if not (0.0 <= p < 1.0):
        raise ValidationError(f"dropout probability must be in [0,1), got {p}")
    running_mean, running_var = running
    left = _same_pad(k)[0]
    q = -(-m // k)
    xb = _blocks(x.data.transpose(1, 0, 2, 3), k, left)  # (F,B,1,Q+1,K)
    v = np.empty((f, b, q, k), dtype=np.result_type(x.data, depth_w.data))
    _toeplitz_conv(xb, _band(depth_w.data), v.reshape(f, b, q, k).transpose(0, 2, 1, 3))
    vt = v.reshape(f, b, q * k)[..., :m].transpose(1, 0, 2)  # (B,F,M)
    xhat = np.matmul(point_w.data, vt)  # (B,O,M), centred and scaled in place
    dtype = xhat.dtype
    n = b * m
    if training:
        mu = np.einsum("bfn->f", xhat) / n
        xhat -= mu[:, None]
        var = np.einsum("bfn,bfn->f", xhat, xhat) / n
        _update_running(running_mean, running_var, mu, var, n)
    else:
        xhat -= running_mean.astype(dtype)[:, None]
        var = running_var.astype(dtype)
    istd = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= istd[:, None]
    t = np.multiply(xhat, gamma.data[:, None], out=None if training else xhat)
    t += beta.data[:, None]
    neg = np.minimum(t, 0.0)  # elu, as in elu()
    np.expm1(neg, out=neg)
    e = np.maximum(t, neg, out=t)
    pooled = _pool_mean(e, pool)  # (B,O,M//pool)
    mask = None
    if training and p > 0.0:
        mask = _dropout_mask(rng, pooled.shape, p, dtype)
        pooled *= mask

    def grad_fn(g):
        gt = _elu_pool_grad(g.reshape(b, o, mp), mask, neg, pool)
        gbeta = np.einsum("bfn->f", gt)
        ggamma = np.einsum("bfn,bfn->f", gt, xhat)
        gy = xhat * (-ggamma / n)[:, None]  # bn3's input gradient, as batch_norm's
        gy += gt
        gy -= (gbeta / n)[:, None]
        gy *= (gamma.data * istd)[:, None]
        gpoint = np.matmul(gy, vt.transpose(0, 2, 1)).sum(axis=0)
        gb = np.empty((f, b, (q + 1) * k), dtype=dtype)
        np.matmul(point_w.data.T, gy, out=gb[..., :m].transpose(1, 0, 2))
        gb[..., m:] = 0.0
        gb = gb.reshape(f, b, 1, q + 1, k)
        gx = None
        if _wants_grad(x):
            gxb = _toeplitz_input_grad(gb, _band(depth_w.data, adjoint=True))
            gx = _unblock(gxb, left, m).transpose(1, 0, 2, 3)
        return (gx, _toeplitz_weight_grad(xb, gb), gpoint, ggamma, gbeta)

    return _node(pooled.reshape(b, o * mp), (x, *params), grad_fn)


def avg_pool_time(x: Tensor, pool: int) -> Tensor:
    """Non-overlapping mean pooling along the last axis; remainder dropped."""
    b, f, c, m = x.data.shape
    n = m // pool
    if n < 1:
        raise ValidationError(f"pool {pool} longer than time axis {m}")
    scale = x.data.dtype.type(1.0 / pool)
    data = _pool_mean(x.data, pool)

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[..., :n * pool].reshape(b, f, c, n, pool)[...] = (g * scale)[..., None]
        return (gx,)

    return _node(data, (x,), grad_fn)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p == 0.0:
        return x
    if not (0.0 <= p < 1.0):
        raise ValidationError(f"dropout probability must be in [0,1), got {p}")
    mask = _dropout_mask(rng, x.data.shape, p, x.data.dtype)
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
