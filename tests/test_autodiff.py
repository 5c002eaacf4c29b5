import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from _gradcheck import max_relative_error, numeric_gradient
from safnet import autodiff as ad
from safnet.autodiff import Tensor
from safnet.errors import ValidationError

TOL = 1e-3


def t64(values, requires_grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


def weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    return ad.tensor_sum(ad.mul(out, Tensor(weights)))


def check_op(build, *arrays, seed=0):
    """build(*tensors) -> output tensor; FD-checks every input array (a None
    gradient as zeros, as adam_step reads it)."""
    rng = np.random.default_rng(seed)
    tensors = [t64(a) for a in arrays]
    out = build(*tensors)
    weights = rng.standard_normal(out.data.shape)
    loss = weighted_sum(out, weights)
    loss.backward()

    for tensor, array in zip(tensors, arrays):
        def loss_fn(tensor=tensor):
            fresh = [t64(x.data) for x in tensors]
            return float(weighted_sum(build(*fresh), weights).data)
        numeric, idx = numeric_gradient(loss_fn, tensor.data)
        grad = np.zeros_like(tensor.data) if tensor.grad is None else tensor.grad
        err = max_relative_error(grad.reshape(-1)[idx], numeric)
        assert err < TOL, f"gradient mismatch {err:.2e}"


class TestElementwise:
    rng = np.random.default_rng(1)

    def test_add_broadcast(self):
        check_op(ad.add, self.rng.standard_normal((3, 4)), self.rng.standard_normal(4))

    def test_mul_broadcast(self):
        check_op(ad.mul, self.rng.standard_normal((3, 4)),
                 self.rng.standard_normal((3, 1)))

    def test_reshape(self):
        check_op(lambda x: ad.reshape(x, (2, 6)), self.rng.standard_normal((3, 4)))

    def test_sum_axis(self):
        check_op(lambda x: ad.tensor_sum(x, axis=1), self.rng.standard_normal((4, 5)))

    def test_elu(self):
        check_op(ad.elu, self.rng.standard_normal((6, 6)))


class TestConvolutions:
    rng = np.random.default_rng(2)

    def test_temporal_conv(self):
        check_op(ad.temporal_conv, self.rng.standard_normal((2, 1, 3, 12)),
                 self.rng.standard_normal((4, 5)))

    def test_temporal_conv_even_kernel(self):
        check_op(ad.temporal_conv, self.rng.standard_normal((2, 1, 2, 10)),
                 self.rng.standard_normal((3, 4)))

    def test_temporal_conv_rejects_multichannel_filters(self):
        with pytest.raises(ValidationError):
            ad.temporal_conv(t64(np.zeros((1, 2, 3, 8))), t64(np.zeros((4, 3))))

    def test_depthwise_temporal_conv(self):
        check_op(ad.depthwise_temporal_conv, self.rng.standard_normal((2, 4, 1, 10)),
                 self.rng.standard_normal((4, 3)))

    def test_depthwise_spatial_conv(self):
        check_op(ad.depthwise_spatial_conv, self.rng.standard_normal((2, 3, 5, 8)),
                 self.rng.standard_normal((3, 2, 5)))

    def test_pointwise_conv(self):
        check_op(ad.pointwise_conv, self.rng.standard_normal((2, 6, 1, 7)),
                 self.rng.standard_normal((4, 6)))


class TestBatchNorm:
    rng = np.random.default_rng(3)

    def test_train_mode_gradient(self):
        x = self.rng.standard_normal((4, 3, 2, 6))
        gamma = self.rng.standard_normal(3) + 1.5
        beta = self.rng.standard_normal(3)

        def build(xt, gt, bt):
            return ad.batch_norm(xt, gt, bt, np.zeros(3), np.ones(3), training=True)

        check_op(build, x, gamma, beta)

    def test_eval_mode_gradient(self):
        x = self.rng.standard_normal((4, 3, 2, 6))
        gamma = self.rng.standard_normal(3) + 1.5
        beta = self.rng.standard_normal(3)
        rm = self.rng.standard_normal(3) * 0.1
        rv = np.abs(self.rng.standard_normal(3)) + 0.5

        def build(xt, gt, bt):
            return ad.batch_norm(xt, gt, bt, rm.copy(), rv.copy(), training=False)

        check_op(build, x, gamma, beta)

    def test_running_stats_update(self):
        x = t64(self.rng.standard_normal((8, 2, 3, 10)))
        gamma, beta = t64(np.ones(2)), t64(np.zeros(2))
        rm, rv = np.zeros(2), np.ones(2)
        ad.batch_norm(x, gamma, beta, rm, rv, training=True)
        mu = x.data.mean(axis=(0, 2, 3))
        n = x.data.size // 2
        var_unbiased = x.data.var(axis=(0, 2, 3)) * n / (n - 1)
        assert np.allclose(rm, 0.1 * mu)
        assert np.allclose(rv, 0.9 + 0.1 * var_unbiased)

    def test_train_output_standardized(self):
        x = t64(self.rng.standard_normal((16, 2, 4, 8)) * 3 + 5)
        out = ad.batch_norm(x, t64(np.ones(2)), t64(np.zeros(2)),
                            np.zeros(2), np.ones(2), training=True)
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0, atol=1e-10)
        assert np.allclose(out.data.std(axis=(0, 2, 3)), 1, atol=1e-3)


# Reference kernels: the formulations that the single-pass ufunc and
# matmul-shaped kernels replaced (np.where, trailing-axis mean, np.repeat,
# einsum). Kept here only, to pin the production kernels to them.

def ref_elu(x, g):
    """Output and input gradient of elu for output gradient g."""
    neg = np.expm1(np.minimum(x, 0.0))
    return np.where(x > 0, x, neg), g * np.where(x > 0, 1.0, neg + 1.0)


def ref_avg_pool_time(x, pool, g):
    n = x.shape[-1] // pool
    out = x[..., :n * pool].reshape(*x.shape[:-1], n, pool).mean(axis=-1)
    gx = np.zeros_like(x)
    gx[..., :n * pool] = np.repeat(g / pool, pool, axis=-1)
    return out, gx


def ref_depthwise_spatial_conv(x, w, g):
    """Output and (x, w) gradients for output gradient g of shape (B,F*D,1,M)."""
    b, f, _, m = x.shape
    d = w.shape[1]
    g4 = g.reshape(b, f, d, m)
    out = np.einsum("bfcm,fdc->bfdm", x, w).reshape(b, f * d, 1, m)
    return (out, np.einsum("bfdm,fdc->bfcm", g4, w),
            np.einsum("bfcm,bfdm->fdc", x, g4))


def ref_pointwise_conv(x, w, g):
    return (np.einsum("bfcm,of->bocm", x, w), np.einsum("bocm,of->bfcm", g, w),
            np.einsum("bfcm,bocm->of", x, g))


def ref_temporal_conv(x, w, g):
    """Output and weight gradient of temporal_conv for output gradient g."""
    k = w.shape[1]
    left = (k - 1) // 2
    xp = np.pad(x[:, 0], ((0, 0), (0, 0), (left, k - 1 - left)))
    win = sliding_window_view(xp, k, axis=-1)
    return np.einsum("bcmk,fk->bfcm", win, w), np.einsum("bcmk,bfcm->fk", win, g)


def ref_batch_norm(x, gamma, beta, running_mean, running_var, training, g,
                   momentum=0.1, eps=1e-5):
    """Output and (x, gamma, beta) gradients of batch_norm for output gradient
    g; updates the running buffers in place as batch_norm does."""
    axes, shape = (0, 2, 3), (1, -1, 1, 1)
    n = x.size // x.shape[1]
    if training:
        mu, var = x.mean(axis=axes), x.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * (var * n / max(n - 1, 1))
    else:
        mu, var = running_mean, running_var
    istd = (1.0 / np.sqrt(var + eps)).reshape(shape)
    xhat = (x - mu.reshape(shape)) * istd
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    gxhat = g * gamma.reshape(shape)
    if training:
        s1 = gxhat.sum(axis=axes).reshape(shape)
        s2 = np.einsum("bfcm,bfcm->f", gxhat, xhat).reshape(shape)
        gx = (istd / n) * (n * gxhat - s1 - xhat * s2)
    else:
        gx = gxhat * istd
    return out, gx, np.einsum("bfcm,bfcm->f", g, xhat), g.sum(axis=axes)


def assert_matches(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def run_op(op, g, *arrays):
    """Output of op on float64 tensors, and every input's gradient for the
    output gradient g."""
    tensors = [t64(a) for a in arrays]
    out = op(*tensors)
    weighted_sum(out, g).backward()
    return out.data, [t.grad for t in tensors]


class TestKernelEquivalence:
    """The training kernels against the reference formulas, float64, at the
    shapes the encoder trains on (B=32, C=6, M=256, F1=8, D=2, F2=16)."""

    def test_elu(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((32, 16, 1, 256)) * 3.0
        x.reshape(-1)[::97] = 0.0
        g = rng.standard_normal(x.shape)
        out, (gx,) = run_op(ad.elu, g, x)
        ref_out, ref_gx = ref_elu(x, g)
        assert_matches(out, ref_out)
        assert_matches(gx, ref_gx)

    @pytest.mark.parametrize("pool, m", [(4, 256), (4, 258), (8, 64), (8, 71),
                                         (3, 256), (1, 5)])
    def test_avg_pool_time(self, pool, m):
        rng = np.random.default_rng(pool * 1000 + m)
        x = rng.standard_normal((32, 16, 1, m))
        g = rng.standard_normal((32, 16, 1, m // pool))
        out, (gx,) = run_op(lambda t: ad.avg_pool_time(t, pool), g, x)
        ref_out, ref_gx = ref_avg_pool_time(x, pool, g)
        assert_matches(out, ref_out)
        assert_matches(gx, ref_gx)

    def test_depthwise_spatial_conv(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((32, 8, 6, 256))
        w = rng.standard_normal((8, 2, 6))
        g = rng.standard_normal((32, 16, 1, 256))
        out, grads = run_op(ad.depthwise_spatial_conv, g, x, w)
        for got, want in zip([out, *grads], ref_depthwise_spatial_conv(x, w, g)):
            assert_matches(got, want)

    def test_pointwise_conv(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((32, 16, 1, 64))
        w = rng.standard_normal((16, 16))
        g = rng.standard_normal((32, 16, 1, 64))
        out, grads = run_op(ad.pointwise_conv, g, x, w)
        for got, want in zip([out, *grads], ref_pointwise_conv(x, w, g)):
            assert_matches(got, want)

    @staticmethod
    def check_temporal_conv(seed, b, c, m, f, k):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, 1, c, m))
        w = rng.standard_normal((f, k))
        g = rng.standard_normal((b, f, c, m))
        w_t = t64(w)
        out = ad.temporal_conv(t64(x, requires_grad=False), w_t)
        weighted_sum(out, g).backward()
        ref_out, ref_gw = ref_temporal_conv(x, w, g)
        assert out.data.flags.c_contiguous
        assert_matches(out.data, ref_out)
        assert_matches(w_t.grad, ref_gw)

    @pytest.mark.parametrize("k", [64, 31, 16])
    def test_temporal_conv(self, k):
        self.check_temporal_conv(k, 32, 6, 256, 8, k)

    @pytest.mark.parametrize("b, c, m, k", [
        (2, 3, 250, 64),  # M not a multiple of K
        (3, 2, 20, 1),    # K = 1
        (2, 3, 10, 16),   # K > M
        (2, 2, 10, 11),   # odd K > M
        (1, 6, 37, 7),    # B = 1, odd K
        (1, 6, 37, 8),    # B = 1, even K
        (1, 1, 1, 2),     # one sample
    ])
    def test_temporal_conv_weight_grad_shapes(self, b, c, m, k):
        self.check_temporal_conv(b * 10000 + m * 100 + k, b, c, m, 5, k)

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm(self, training):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((32, 8, 6, 256)) * 2.0 + 0.5
        gamma = rng.standard_normal(8) + 1.5
        beta = rng.standard_normal(8)
        rm = rng.standard_normal(8) * 0.1
        rv = np.abs(rng.standard_normal(8)) + 0.5
        g = rng.standard_normal(x.shape)
        xt, gt, bt = t64(x), t64(gamma), t64(beta)
        rm_new, rv_new = rm.copy(), rv.copy()
        out = ad.batch_norm(xt, gt, bt, rm_new, rv_new, training)
        weighted_sum(out, g).backward()
        rm_ref, rv_ref = rm.copy(), rv.copy()
        ref_out, ref_gx, ref_ggamma, ref_gbeta = ref_batch_norm(
            x, gamma, beta, rm_ref, rv_ref, training, g)
        assert_matches(out.data, ref_out)
        assert_matches(xt.grad, ref_gx)
        assert_matches(gt.grad, ref_ggamma)
        assert_matches(bt.grad, ref_gbeta)
        assert_matches(rm_new, rm_ref)
        assert_matches(rv_new, rv_ref)


def ref_depthwise_temporal_conv(x, w, g):
    """Output and (x, w) gradients of depthwise_temporal_conv for output
    gradient g: the einsum over a sliding-window view and the K-step
    input-gradient loop that the blocked-Toeplitz kernel replaced."""
    m, k = x.shape[-1], w.shape[1]
    left = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (0, 0), (left, k - 1 - left)))
    win = sliding_window_view(xp, k, axis=-1)
    gxp = np.zeros_like(xp)
    for kk in range(k):
        gxp[..., kk:kk + m] += g * w[:, kk][None, :, None, None]
    return (np.einsum("bfcmk,fk->bfcm", win, w), gxp[..., left:left + m],
            np.einsum("bfcmk,bfcm->fk", win, g))


@pytest.mark.parametrize("b, f, c, m, k", [
    (32, 16, 1, 64, 16),  # the encoder's separable block
    (2, 3, 2, 250, 64),   # M not a multiple of K
    (3, 2, 2, 20, 1),     # K = 1
    (2, 3, 3, 10, 16),    # K > M
    (2, 2, 1, 10, 11),    # odd K > M
    (1, 4, 2, 37, 7),     # B = 1, odd K
    (1, 4, 1, 37, 8),     # B = 1, even K
    (1, 2, 1, 1, 2),      # one sample
])
def test_depthwise_temporal_conv_matches_reference(b, f, c, m, k):
    rng = np.random.default_rng(b * 10000 + m * 100 + k)
    x = rng.standard_normal((b, f, c, m))
    w = rng.standard_normal((f, k))
    g = rng.standard_normal((b, f, c, m))
    out, grads = run_op(ad.depthwise_temporal_conv, g, x, w)
    assert out.flags.c_contiguous
    for got, want in zip([out, *grads], ref_depthwise_temporal_conv(x, w, g)):
        assert_matches(got, want)


def chain_first_stage(x, w, gamma1, beta1, spatial_w, gamma2, beta2, running,
                      pool, p, rng, training):
    """The seven ops that first_stage fuses, as the encoder once ran them on
    (B,1,C,M) batches."""
    running_mean1, running_var1, running_mean2, running_var2 = running
    h = ad.temporal_conv(Tensor(x.data[:, None]), w)
    h = ad.batch_norm(h, gamma1, beta1, running_mean1, running_var1, training)
    h = ad.depthwise_spatial_conv(h, spatial_w)
    h = ad.batch_norm(h, gamma2, beta2, running_mean2, running_var2, training)
    h = ad.elu(h)
    h = ad.avg_pool_time(h, pool)
    return ad.dropout(h, p, rng, training)


FIRST_STAGE_PARAMS = ["w", "bn1_gamma", "bn1_beta", "spatial_w", "bn2_gamma",
                      "bn2_beta"]
FIRST_STAGE_POOL = 4


def run_first_stage(op, dtype, b, c, m, f, d, k, training, seed):
    """Output, the four running buffers after one call of op, the next draw
    of the dropout generator and, in training, the gradients of
    FIRST_STAGE_PARAMS for a random output gradient (a None gradient as
    zeros, as adam_step reads it), as a name -> array dict. Eval mode runs
    under no_grad."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, c, m)) * 2.0 + 0.3
    arrays = [rng.standard_normal((f, k)), rng.standard_normal(f) + 1.5,
              rng.standard_normal(f), rng.standard_normal((f, d, c)),
              rng.standard_normal(f * d) + 1.5, rng.standard_normal(f * d)]
    running = [rng.standard_normal(f) * 0.1, np.abs(rng.standard_normal(f)) + 0.5,
               rng.standard_normal(f * d) * 0.1,
               np.abs(rng.standard_normal(f * d)) + 0.5]
    g = rng.standard_normal((b, f * d, 1, m // FIRST_STAGE_POOL)).astype(dtype)
    tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    running = [r.astype(dtype) for r in running]
    dropout_rng = np.random.default_rng(seed + 1)
    args = (Tensor(x.astype(dtype)), *tensors, running, FIRST_STAGE_POOL, 0.25,
            dropout_rng, training)
    if training:
        out = op(*args)
        weighted_sum(out, g).backward()
    else:
        with ad.no_grad():
            out = op(*args)
    got = dict(zip(["out", "bn1_mean", "bn1_var", "bn2_mean", "bn2_var",
                    "next_draw"], [out.data, *running, dropout_rng.random(3)]))
    if training:
        got |= {name: np.zeros_like(t.data) if t.grad is None else t.grad
                for name, t in zip(FIRST_STAGE_PARAMS, tensors)}
    return got


FIRST_BLOCK_SHAPES = [  # (B, C, M, F, D, K)
    (32, 6, 256, 8, 2, 64),  # the encoder's training shape
    (3, 4, 37, 3, 2, 7),     # odd K, M off the block size and the pool
    (2, 3, 40, 2, 1, 8),     # even K, M off the block size, D = 1
    (2, 3, 10, 2, 2, 16),    # K > M, M off the pool
    (1, 5, 33, 4, 2, 6),     # B = 1
    (1, 2, 12, 3, 1, 5),     # B = 1, D = 1
]


class TestFirstBlock:
    """first_stage, the encoder's first block, against the temporal_conv ->
    batch_norm -> depthwise_spatial_conv -> batch_norm -> elu ->
    avg_pool_time -> dropout chain it replaces in the encoder."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", FIRST_BLOCK_SHAPES)
    def test_matches_chain_float64(self, shape, training):
        seed = sum(shape)
        got = run_first_stage(ad.first_stage, np.float64, *shape, training, seed)
        want = run_first_stage(chain_first_stage, np.float64, *shape, training, seed)
        for name in want:
            assert_matches(got[name], want[name])

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", FIRST_BLOCK_SHAPES[:3])
    def test_matches_chain_float32(self, shape, training):
        """Each array within 1e-5 of its largest value. In training, bn2
        removes bn1's shift and all of bn1's scale but a BN_EPS part, so
        bn1's gamma and beta gradients are near-zero differences of terms as
        large as bn2's: they are held to 1e-5 of bn2's gradients."""
        seed = sum(shape)
        got = run_first_stage(ad.first_stage, np.float32, *shape, training, seed)
        want = run_first_stage(chain_first_stage, np.float32, *shape, training, seed)
        for name in want:
            scale = np.max(np.abs(want[name]))
            if name in ("bn1_gamma", "bn1_beta"):
                scale = max(np.max(np.abs(want[n])) for n in ("bn2_gamma", "bn2_beta"))
            assert got[name].dtype == want[name].dtype
            assert np.max(np.abs(got[name] - want[name])) <= 1e-5 * scale, name

    def test_gradient(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((3, 4, 11)))

        def build(w, gamma1, beta1, spatial_w, gamma2, beta2):
            running = (np.full(2, 0.2), np.full(2, 1.3), np.full(4, -0.1),
                       np.full(4, 0.8))
            return ad.first_stage(x, w, gamma1, beta1, spatial_w, gamma2, beta2,
                                  running, 2, 0.25, np.random.default_rng(5),
                                  True)

        check_op(build, rng.standard_normal((2, 4)), rng.standard_normal(2) + 1.5,
                 rng.standard_normal(2), rng.standard_normal((2, 2, 4)),
                 rng.standard_normal(4) + 1.5, rng.standard_normal(4))

    def test_beta1_gradient_is_zero_in_training(self):
        """bn2 removes any per-channel shift of bn1's output, so beta1's
        gradient is None, which adam_step reads as zero; the other
        parameters get theirs."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, 4, 37)))
        params = [t64(rng.standard_normal(shape) + 1.5) for shape in
                  [(3, 7), 3, 3, (3, 2, 4), 6, 6]]
        running = [np.zeros(3), np.ones(3), np.zeros(6), np.ones(6)]
        out = ad.first_stage(x, *params, running, FIRST_STAGE_POOL, 0.25,
                             np.random.default_rng(6), True)
        ad.tensor_sum(out).backward()
        assert params[2].grad is None
        assert all(t.grad is not None for i, t in enumerate(params) if i != 2)

    @staticmethod
    def call(x_shape=(2, 3, 8), spatial_shape=(2, 1, 3), pool=4, p=0.25,
             requires_grad=False, training=True):
        ones = [np.ones(2), np.ones(2), np.ones(2), np.ones(2)]
        return ad.first_stage(t64(np.zeros(x_shape), requires_grad=requires_grad),
                              t64(np.ones((2, 3))), t64(np.ones(2)),
                              t64(np.zeros(2)), t64(np.ones(spatial_shape)),
                              t64(np.ones(2)), t64(np.zeros(2)), ones, pool, p,
                              np.random.default_rng(0), training)

    def test_rejects_input_that_needs_a_gradient(self):
        with pytest.raises(ValidationError):
            self.call(requires_grad=True)

    def test_eval_mode_builds_no_graph(self):
        """An eval-mode call whose parameters want a gradient is refused
        outside no_grad and runs, without a graph, inside it."""
        with pytest.raises(ValidationError, match="only in training"):
            self.call(training=False)
        with ad.no_grad():
            out = self.call(training=False)
        assert out._grad_fn is None and out.data.shape == (2, 2, 1, 2)

    def test_rejects_a_batch_with_a_filter_axis(self):
        with pytest.raises(ValidationError, match=r"\(B,C,M\), got \(2, 1, 3, 8\)"):
            self.call(x_shape=(2, 1, 3, 8))

    def test_rejects_mismatched_spatial_kernel(self):
        with pytest.raises(ValidationError):
            self.call(spatial_shape=(2, 1, 4))

    @pytest.mark.parametrize("pool, p", [(9, 0.25), (4, 1.0), (4, -0.1)])
    def test_rejects_pool_or_dropout_out_of_range(self, pool, p):
        with pytest.raises(ValidationError):
            self.call(pool=pool, p=p)


class TestSecondBlock:
    """second_stage, the encoder's second block; tests/test_same_bytes.py
    holds it to the bytes of the chain of ops it replaces."""

    def test_gradient(self):
        rng = np.random.default_rng(22)

        def build(x, depth_w, point_w, gamma, beta):
            return ad.second_stage(x, depth_w, point_w, gamma, beta,
                                   (np.full(3, 0.1), np.full(3, 1.2)), 2, 0.25,
                                   np.random.default_rng(7), True)

        check_op(build, rng.standard_normal((3, 4, 1, 11)), rng.standard_normal((4, 4)),
                 rng.standard_normal((3, 4)), rng.standard_normal(3) + 1.5,
                 rng.standard_normal(3))

    @staticmethod
    def call(x_shape=(2, 3, 1, 8), depth_shape=(3, 4), point_shape=(2, 3), pool=4,
             p=0.25, training=True):
        return ad.second_stage(t64(np.zeros(x_shape)), t64(np.ones(depth_shape)),
                               t64(np.ones(point_shape)), t64(np.ones(2)),
                               t64(np.zeros(2)), [np.zeros(2), np.ones(2)], pool, p,
                               np.random.default_rng(0), training)

    def test_output_is_flat(self):
        out = self.call()
        assert out.data.shape == (2, 4) and out._grad_fn is not None

    def test_eval_mode_builds_no_graph(self):
        with pytest.raises(ValidationError, match="only in training"):
            self.call(training=False)
        with ad.no_grad():
            out = self.call(training=False)
        assert out._grad_fn is None and out.data.shape == (2, 4)

    @pytest.mark.parametrize("kw", [{"x_shape": (2, 3, 2, 8)}, {"x_shape": (2, 3, 8)},
                                    {"depth_shape": (2, 4)}, {"point_shape": (2, 4)},
                                    {"pool": 9}, {"p": 1.0}, {"p": -0.1}])
    def test_rejects_bad_shapes_pool_or_dropout(self, kw):
        with pytest.raises(ValidationError):
            self.call(**kw)


class TestBn1StatisticsPrecision:
    """bn1's statistics in a float32 training step come from float32 window
    moments. They are read back from bn1's running buffers after one step
    from zero (mean 0.1 mu1, variance 0.1 var1 n/(n-1)) and held within
    1e-3 of a float64 oracle that convolves every padded window, at
    criterion 8's shape (B 32, C 6, M 256, K 64) and with a DC offset of up
    to 1000 noise SDs, where E[h^2] - mu^2 cancels most. The mean is held
    to 1e-3 of the larger of |mu| and the filter output's SD, since with no
    offset mu is near zero."""

    @pytest.mark.parametrize("offset", [0.0, 10.0, 100.0, 1000.0])
    def test_mean_and_variance_within_1e_3_of_float64(self, offset):
        b, c, m, f, d, k = 32, 6, 256, 8, 2, 64
        rng = np.random.default_rng(8)
        x = (rng.standard_normal((b, c, m)) + offset).astype(np.float32)
        w = rng.standard_normal((f, k)).astype(np.float32) / 8.0
        params = [Tensor(a.astype(np.float32)) for a in
                  (w, np.ones(f), np.zeros(f), rng.standard_normal((f, d, c)),
                   np.ones(f * d), np.zeros(f * d))]
        running = [np.zeros(f), np.zeros(f), np.zeros(f * d), np.zeros(f * d)]
        ad.first_stage(Tensor(x), *params, running, FIRST_STAGE_POOL, 0.25,
                       np.random.default_rng(0), True)
        n = b * c * m
        mu1 = running[0] / ad.BN_MOMENTUM
        var1 = running[1] / ad.BN_MOMENTUM * (n - 1) / n

        left = ad._same_pad(k)[0]
        xp = np.pad(x.reshape(b * c, m).astype(np.float64), ((0, 0), (left, k - 1 - left)))
        h = sliding_window_view(xp, k, axis=1) @ w.astype(np.float64).T  # (B*C, M, F)
        mu, var = h.mean(axis=(0, 1)), h.var(axis=(0, 1))
        assert np.all(np.abs(var1 - var) <= 1e-3 * var)
        assert np.all(np.abs(mu1 - mu) <= 1e-3 * np.maximum(np.abs(mu), np.sqrt(var)))


class TestPoolDropoutLinear:
    rng = np.random.default_rng(4)

    def test_avg_pool(self):
        check_op(lambda x: ad.avg_pool_time(x, 3), self.rng.standard_normal((2, 3, 2, 9)))

    def test_avg_pool_truncates(self):
        x = t64(self.rng.standard_normal((1, 1, 1, 10)))
        out = ad.avg_pool_time(x, 4)
        assert out.data.shape == (1, 1, 1, 2)
        check_op(lambda xt: ad.avg_pool_time(xt, 4), x.data)

    def test_dropout_gradient_fixed_mask(self):
        x = self.rng.standard_normal((5, 8))

        def build(xt):
            return ad.dropout(xt, 0.4, np.random.default_rng(99), training=True)

        check_op(build, x)

    def test_dropout_eval_is_identity(self):
        x = t64(self.rng.standard_normal((3, 3)))
        out = ad.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_dropout_preserves_expectation(self):
        x = np.ones((1, 64), dtype=np.float64)
        rng = np.random.default_rng(7)
        total = np.zeros_like(x)
        trials = 10000
        for _ in range(trials):
            total += ad.dropout(t64(x, requires_grad=False), 0.25, rng,
                                training=True).data
        assert abs(total.mean() / trials - 1.0) < 0.02

    def test_linear(self):
        check_op(ad.linear, self.rng.standard_normal((4, 6)),
                 self.rng.standard_normal((6, 3)), self.rng.standard_normal(3))


class TestLosses:
    rng = np.random.default_rng(5)

    def test_cross_entropy_gradient(self):
        logits = self.rng.standard_normal((6, 3))
        targets = np.array([0, 1, 2, 1, 0, 2])
        t = t64(logits)
        loss = ad.softmax_cross_entropy(t, targets)
        loss.backward()
        numeric, idx = numeric_gradient(
            lambda: float(ad.softmax_cross_entropy(t64(t.data), targets).data), t.data)
        assert max_relative_error(t.grad.reshape(-1)[idx], numeric) < TOL

    def test_cross_entropy_uniform_is_log_k(self):
        loss = ad.softmax_cross_entropy(t64(np.zeros((4, 2))), np.array([0, 1, 0, 1]))
        assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-9)

    def test_cross_entropy_target_range(self):
        with pytest.raises(ValidationError):
            ad.softmax_cross_entropy(t64(np.zeros((2, 2))), np.array([0, 2]))

    def test_entropy_gradient(self):
        logits = self.rng.standard_normal((5, 4)) * 2
        t = t64(logits)
        loss = ad.entropy_of_softmax(t)
        loss.backward()
        numeric, idx = numeric_gradient(
            lambda: float(ad.entropy_of_softmax(t64(t.data)).data), t.data)
        assert max_relative_error(t.grad.reshape(-1)[idx], numeric) < TOL

    def test_entropy_of_uniform_is_log_k(self):
        loss = ad.entropy_of_softmax(t64(np.zeros((3, 3))))
        assert float(loss.data) == pytest.approx(np.log(3.0), rel=1e-9)

    def test_entropy_max_at_uniform(self):
        peaked = ad.entropy_of_softmax(t64(np.array([[10.0, 0.0, 0.0]])))
        assert float(peaked.data) < 0.01


class TestBackwardMechanics:
    def test_linear_case_exact(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4))
        w = t64(rng.standard_normal((3, 4)))
        loss = ad.tensor_sum(ad.mul(w, Tensor(x)))
        loss.backward()
        assert np.array_equal(w.grad, x)

    def test_backward_accumulates(self):
        w = t64(np.array([1.0, 2.0]))
        x = np.array([3.0, 4.0])
        loss = ad.tensor_sum(ad.mul(w, Tensor(x)))
        loss.backward()
        first = w.grad.copy()
        loss.backward()
        assert np.array_equal(w.grad, 2.0 * first)

    def test_backward_requires_scalar(self):
        w = t64(np.ones((2, 2)))
        out = ad.mul(w, Tensor(np.ones((2, 2))))
        with pytest.raises(ValidationError):
            out.backward()

    def test_no_grad_blocks_graph(self):
        w = t64(np.ones(3))
        with ad.no_grad():
            out = ad.tensor_sum(ad.mul(w, Tensor(np.ones(3))))
        assert out._prev == ()
        out.backward()
        assert w.grad is None


class TestGrl:
    def test_forward_identity(self):
        z = t64(np.random.default_rng(0).standard_normal((3, 4)))
        out = ad.grl(z, 2.5)
        assert np.array_equal(out.data, z.data)

    def test_backward_exact_scaling(self):
        rng = np.random.default_rng(1)
        weights = rng.standard_normal((3, 4))
        z = t64(rng.standard_normal((3, 4)))
        loss = weighted_sum(ad.grl(z, 1.25), weights)
        loss.backward()
        assert np.array_equal(z.grad, -1.25 * weights)

    def test_lambda_zero_blocks_gradient(self):
        z = t64(np.ones((2, 2)))
        loss = ad.tensor_sum(ad.grl(z, 0.0))
        loss.backward()
        assert np.all(z.grad == 0.0)

    def test_task_branch_unaffected(self):
        rng = np.random.default_rng(2)
        z1 = t64(rng.standard_normal((2, 3)))
        z2 = t64(z1.data)
        w = rng.standard_normal((2, 3))
        weighted_sum(z1, w).backward()
        # domain branch hanging off z2 with huge lambda must not disturb
        # the task path
        task = weighted_sum(z2, w)
        dom = weighted_sum(ad.grl(z2, 100.0), np.zeros((2, 3)))
        ad.add(task, dom).backward()
        assert np.array_equal(z1.grad, z2.grad)


class TestScaleValueOnly:
    def test_forward_scales(self):
        x = t64(np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(ad.scale_value_only(x, 2.5).data,
                              np.array([2.5, -5.0, 7.5]))

    def test_backward_is_identity(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(4)
        x = t64(rng.standard_normal(4))
        weighted_sum(ad.scale_value_only(x, 7.0), w).backward()
        assert np.array_equal(x.grad, w)

    def test_zero_factor_keeps_gradient(self):
        x = t64(np.array([4.0]))
        out = ad.scale_value_only(x, 0.0)
        assert out.data[0] == 0.0
        ad.tensor_sum(out).backward()
        assert x.grad[0] == 1.0
