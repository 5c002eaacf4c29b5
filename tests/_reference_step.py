"""Reference implementations of the training step's kernels as they were
before their buffers were reworked: first_stage with its _blocks, _bands,
_window_moments and _pool_mean, depthwise_temporal_conv, and a
per-parameter Adam. They run the same floating-point operations in the same
order as the library's, with more passes, copies and temporaries, so the
library must match them bit for bit (tests/test_same_bytes.py). Every
helper that computes a float is copied here, as the library had it before
the rework, so a change to the library's own helper cannot move the
reference with it; only the graph plumbing (_node, _wants_grad, the no_grad
flag) and the constants come from the library."""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from safnet import autodiff as ad
from safnet.autodiff import BN_EPS, BN_MOMENTUM, _node, _wants_grad
from safnet.errors import ValidationError
from safnet.train import ADAM_EPS, BETA1, BETA2


def same_pad(kernel):
    left = (kernel - 1) // 2
    return left, kernel - 1 - left


def pairs(xb):
    """[X[q] | X[q+1]]: a strided view (G,Q,R,2K) of the blocks xb
    (G,*R,Q+1,K), the rows flattened."""
    k, q1 = xb.shape[-1], xb.shape[-2]
    xf = xb.reshape(xb.shape[0], -1, q1 * k)
    step = xf.itemsize
    return as_strided(xf, shape=(xf.shape[0], q1 - 1, xf.shape[1], 2 * k),
                      strides=(xf.strides[0], k * step, xf.strides[1], step),
                      writeable=False)


def toeplitz_conv(xb, fwd, out):
    """Output block q of each padded row is [X[q] | X[q+1]] S."""
    return np.matmul(pairs(xb), fwd[:, None], out=out)


def block_products(xb, gb):
    """P[f,q] = sum over rows of G[q]' [X[q] | X[q+1]], (F,Q,K,2K)."""
    k, q1 = gb.shape[-1], gb.shape[-2]
    gf = gb.reshape(gb.shape[0], -1, q1, k)
    return np.matmul(gf[:, :, :-1].transpose(0, 2, 3, 1), pairs(xb))


def diagonals(p):
    """(..., K, 2K) -> strided view (..., K, K) of p[..., a, a+i] at [a, i]."""
    k = p.shape[-2]
    rows, cols = p.strides[-2:]
    return as_strided(p, shape=p.shape[:-1] + (k,),
                      strides=p.strides[:-2] + (rows + cols, cols), writeable=False)


def toeplitz_weight_grad(xb, gb):
    return diagonals(block_products(xb, gb)).sum(axis=(1, 2))


def toeplitz_input_grad(gb, adj):
    """Block q of the padded input's gradient is [G[q-1] | G[q]] A; block 0
    is G[0] times A's lower half."""
    f, k, q1 = gb.shape[0], gb.shape[-1], gb.shape[-2]
    gxb = np.empty(gb.shape, dtype=np.result_type(gb, adj))
    rows = gxb.reshape(f, -1, q1, k)
    np.matmul(pairs(gb), adj[:, None], out=rows[:, :, 1:].transpose(0, 2, 1, 3))
    np.matmul(gb.reshape(f, -1, q1, k)[:, :, 0], adj[:, k:], out=rows[:, :, 0])
    return gxb


def unblock(gxb, left, m):
    return gxb.reshape(gxb.shape[:-2] + (-1,))[..., left:left + m]


def update_running(running_mean, running_var, mu, var, n):
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mu
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * (var * n / max(n - 1, 1))


def dropout_mask(rng, shape, p, dtype):
    mask = (rng.random(shape) >= p).astype(dtype)
    mask /= 1.0 - p
    return mask


def blocks(a, k, left):
    m = a.shape[-1]
    q = -(-m // k)
    out = np.zeros(a.shape[:-1] + ((q + 1) * k,), dtype=a.dtype)
    out[..., left:left + m] = a
    return out.reshape(a.shape[:-1] + (q + 1, k))


def bands(w):
    """(F,K) kernels -> (S, A), both built and copied on every call."""
    f, k = w.shape
    wide = np.zeros((f, 3 * k), dtype=w.dtype)
    wide[:, k:2 * k] = w
    fs, step = wide.strides
    fwd = as_strided(wide[:, k:], shape=(f, 2 * k, k), strides=(fs, step, -step),
                     writeable=False)
    adj = as_strided(wide[:, 2 * k:], shape=(f, 2 * k, k), strides=(fs, -step, step),
                     writeable=False)
    return np.ascontiguousarray(fwd), np.ascontiguousarray(adj)


def window_moments(x, k, left):
    x = x.astype(np.float64)
    rows, m = x.shape
    q = -(-m // k)
    xb = blocks(x, k, 0)[None]
    lagprod = diagonals(block_products(xb, xb)[0])
    cum = np.zeros((q * k + 1, k))
    np.cumsum(lagprod.reshape(q * k, k), axis=0, out=cum[1:])
    o = np.arange(k) - left
    band = np.zeros((k, 2 * k))
    band[:, :k] = cum[np.clip(o + m, 0, q * k)] - cum[np.clip(o, 0, q * k)]
    step = band.itemsize
    upper = as_strided(band, shape=(k, k), strides=((2 * k - 1) * step, step),
                       writeable=False)
    gram = upper + upper.T
    gram.flat[::k + 1] = band[:, 0]
    total = np.concatenate([[0.0], np.cumsum(x.sum(axis=0))])
    mean = (total[np.clip(o + m, 0, m)] - total[np.clip(o, 0, m)]) / (rows * m)
    return mean, gram


def pool_mean(a, pool):
    n = a.shape[-1] // pool
    windows = a[..., :n * pool].reshape(a.shape[:-1] + (n, pool))
    out = windows[..., 0].copy()
    for i in range(1, pool):
        out += windows[..., i]
    out *= a.dtype.type(1.0 / pool)
    return out


def depthwise_temporal_conv(x, w):
    b, f, c, m = x.data.shape
    k = w.data.shape[1]
    left = same_pad(k)[0]
    q = -(-m // k)
    xb = blocks(x.data.transpose(1, 0, 2, 3), k, left)
    fwd, adj = bands(w.data)
    out = np.empty((f, b, c, q, k), dtype=np.result_type(x.data, w.data))
    toeplitz_conv(xb, fwd, out.reshape(f, b * c, q, k).transpose(0, 2, 1, 3))
    data = np.ascontiguousarray(out.reshape(f, b, c, q * k)[..., :m].transpose(1, 0, 2, 3))

    def grad_fn(g):
        gb = blocks(g.transpose(1, 0, 2, 3), k, 0)
        gw = toeplitz_weight_grad(xb, gb) if w.requires_grad else None
        gx = None
        if _wants_grad(x):
            gxb = toeplitz_input_grad(gb, adj)
            gx = np.ascontiguousarray(unblock(gxb, left, m).transpose(1, 0, 2, 3))
        return (gx, gw)

    return _node(data, (x, w), grad_fn)


def first_stage(x, w, gamma1, beta1, spatial_w, gamma2, beta2, running, pool, p,
                rng, training):
    params = (w, gamma1, beta1, spatial_w, gamma2, beta2)
    if not training and ad._grad_enabled and any(_wants_grad(t) for t in params):
        raise ValidationError("first_stage builds a graph only in training; use no_grad")
    b, c, m = x.data.shape
    f, k = w.data.shape
    d = spatial_w.data.shape[1]
    mp = m // pool
    running_mean1, running_var1, running_mean2, running_var2 = running
    dtype = x.data.dtype
    fd = f * d
    left = same_pad(k)[0]
    q = -(-m // k)
    xb = blocks(x.data.transpose(1, 0, 2), k, left)
    ub = np.matmul(spatial_w.data.reshape(fd, c), xb.reshape(c, -1))
    ub = ub.reshape(f, d, b, q + 1, k)
    fwd, adj = bands(w.data)
    v = np.empty((fd, b, q, k), dtype=dtype)
    toeplitz_conv(ub, fwd, v.reshape(f, d * b, q, k).transpose(0, 2, 1, 3))
    v = np.ascontiguousarray(v.reshape(fd, b, q * k)[..., :m])

    w64 = w.data.astype(np.float64)
    n1 = b * c * m
    if training:
        mean, gram = window_moments(x.data.reshape(b * c, m), k, left)
        mu1 = w64 @ mean
        rw = w64 @ gram
        var1 = np.maximum(np.einsum("fk,fk->f", rw, w64) / n1 - mu1 * mu1, 0.0)
        update_running(running_mean1, running_var1, mu1, var1, n1)
    else:
        mu1 = running_mean1.astype(np.float64)
        var1 = running_var1.astype(np.float64)
    istd1 = 1.0 / np.sqrt(var1 + BN_EPS)
    gamma64 = gamma1.data.astype(np.float64)
    a = gamma64 * istd1
    shift = beta1.data - a * mu1
    ssum = spatial_w.data.sum(axis=2)
    a2 = np.repeat(a, d)
    cs = (shift[:, None] * ssum).reshape(fd)
    n2 = b * m
    z = v
    if training:
        mv = v.reshape(fd, -1).sum(axis=1) / n2
        z -= mv[:, None, None]
        z2 = z.reshape(fd, -1)
        var2 = a2 * a2 * (np.einsum("jn,jn->j", z2, z2) / n2)
        update_running(running_mean2, running_var2, a2 * mv + cs, var2, n2)
        sigma2 = np.sqrt(var2 + BN_EPS)
        offset = np.zeros(fd)
    else:
        sigma2 = np.sqrt(running_var2.astype(np.float64) + BN_EPS)
        offset = (cs - running_mean2) / sigma2
    u = a2 / sigma2
    g2 = gamma2.data.astype(np.float64)
    t = z * (g2 * u).astype(dtype)[:, None, None]
    t += (g2 * offset + beta2.data).astype(dtype)[:, None, None]
    neg = np.minimum(t, 0.0)
    np.expm1(neg, out=neg)
    e = np.maximum(t, neg, out=t)
    pooled = pool_mean(e, pool)
    data = np.empty((b, fd, 1, mp), dtype=dtype)
    mask = None
    if training and p > 0.0:
        mask = dropout_mask(rng, data.shape, p, dtype)
        np.multiply(pooled.transpose(1, 0, 2), mask[:, :, 0], out=data[:, :, 0])
    else:
        data[:, :, 0] = pooled.transpose(1, 0, 2)

    def grad_fn(g):
        if mask is not None:
            g = g * mask
        gs = np.empty((fd, b, mp), dtype=dtype)
        np.multiply(g[:, :, 0].transpose(1, 0, 2), dtype.type(1.0 / pool), out=gs)
        gt = neg + 1.0
        gt[..., mp * pool:] = 0.0
        gwindows = gt[..., :mp * pool].reshape(fd, b, mp, pool)
        for i in range(pool):
            gwindows[..., i] *= gs
        r1 = gt.reshape(fd, -1).sum(axis=1).astype(np.float64)
        r2 = np.einsum("jn,jn->j", gt.reshape(fd, -1), z.reshape(fd, -1))
        r2 = r2.astype(np.float64)
        alpha = g2 / sigma2
        gb = np.zeros((f, d, b, q + 1, k), dtype=dtype)
        gh = gb.reshape(fd, b, (q + 1) * k)[..., :m]
        np.multiply(z, (-alpha * u * u * r2 / n2).astype(dtype)[:, None, None],
                    out=gh)
        gt *= alpha.astype(dtype)[:, None, None]
        gh += gt
        gh -= (alpha * r1 / n2).astype(dtype)[:, None, None]
        ga = (alpha * BN_EPS * r2 / (sigma2 * sigma2)).reshape(f, d).sum(axis=1)
        gvar = -0.5 * istd1 ** 3 * gamma64 * ga
        gw = a[:, None] * toeplitz_weight_grad(ub, gb)
        gmu = -2.0 * mu1 * gvar
        gw += gmu[:, None] * mean + (2.0 / n1) * gvar[:, None] * rw
        gub = toeplitz_input_grad(gb, adj)
        gsw = np.matmul(gub.reshape(fd, -1), xb.reshape(c, -1).T).reshape(f, d, c)
        return (None, gw.astype(w.data.dtype),
                (istd1 * ga).astype(gamma1.data.dtype), None,
                (gsw * a[:, None, None]).astype(spatial_w.data.dtype),
                (u * r2).astype(gamma2.data.dtype), r1.astype(beta2.data.dtype))

    return _node(data, (x, *params), grad_fn)


class AdamState:
    """Per-parameter moment arrays and the shared step counter."""

    def __init__(self, params):
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}


def adam_step(params, state, lr):
    """One Adam update, parameter by parameter."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
