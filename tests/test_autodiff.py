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
    """build(*tensors) -> output tensor; FD-checks every input array."""
    rng = np.random.default_rng(seed)
    tensors = [t64(a) for a in arrays]
    out = build(*tensors)
    weights = rng.standard_normal(out.data.shape)
    loss = weighted_sum(out, weights)
    loss.backward()

    for tensor, array in zip(tensors, arrays):
        def loss_fn(tensor=tensor):
            fresh = [t64(x.data) for x in tensors]
            return weighted_sum(build(*fresh), weights).item()
        numeric, idx = numeric_gradient(loss_fn, tensor.data)
        err = max_relative_error(tensor.grad.reshape(-1)[idx], numeric)
        assert err < TOL, f"gradient mismatch {err:.2e}"


class TestElementwise:
    rng = np.random.default_rng(1)

    def test_add_broadcast(self):
        check_op(ad.add, self.rng.standard_normal((3, 4)), self.rng.standard_normal(4))

    def test_mul_broadcast(self):
        check_op(ad.mul, self.rng.standard_normal((3, 4)),
                 self.rng.standard_normal((3, 1)))

    def test_matmul(self):
        check_op(ad.matmul, self.rng.standard_normal((3, 5)),
                 self.rng.standard_normal((5, 2)))

    def test_reshape_transpose(self):
        check_op(lambda x: ad.transpose(ad.reshape(x, (2, 6)), (1, 0)),
                 self.rng.standard_normal((3, 4)))

    def test_sum_axis(self):
        check_op(lambda x: ad.tensor_sum(x, axis=1), self.rng.standard_normal((4, 5)))

    def test_mean(self):
        check_op(lambda x: ad.tensor_mean(x, axis=0), self.rng.standard_normal((4, 5)))

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
        ad.batch_norm(x, gamma, beta, rm, rv, training=True, momentum=0.1)
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


# Reference kernels: the einsum formulation that the matmul-shaped kernels
# replaced. Kept here only, to pin the production kernels to them.

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


class TestKernelEquivalence:
    """The training kernels against the reference formulas, float64, at the
    shape the encoder trains on (B=32, C=6, M=256, F=8)."""

    @pytest.mark.parametrize("k", [64, 31, 16])
    def test_temporal_conv(self, k):
        rng = np.random.default_rng(k)
        x = rng.standard_normal((32, 1, 6, 256))
        w = rng.standard_normal((8, k))
        g = rng.standard_normal((32, 8, 6, 256))
        w_t = t64(w)
        out = ad.temporal_conv(t64(x, requires_grad=False), w_t)
        weighted_sum(out, g).backward()
        ref_out, ref_gw = ref_temporal_conv(x, w, g)
        assert out.data.flags.c_contiguous
        assert_matches(out.data, ref_out)
        assert_matches(w_t.grad, ref_gw)

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
            lambda: ad.softmax_cross_entropy(t64(t.data), targets).item(), t.data)
        assert max_relative_error(t.grad.reshape(-1)[idx], numeric) < TOL

    def test_cross_entropy_uniform_is_log_k(self):
        loss = ad.softmax_cross_entropy(t64(np.zeros((4, 2))), np.array([0, 1, 0, 1]))
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-9)

    def test_cross_entropy_target_range(self):
        with pytest.raises(ValidationError):
            ad.softmax_cross_entropy(t64(np.zeros((2, 2))), np.array([0, 2]))

    def test_entropy_gradient(self):
        logits = self.rng.standard_normal((5, 4)) * 2
        t = t64(logits)
        loss = ad.entropy_of_softmax(t)
        loss.backward()
        numeric, idx = numeric_gradient(
            lambda: ad.entropy_of_softmax(t64(t.data)).item(), t.data)
        assert max_relative_error(t.grad.reshape(-1)[idx], numeric) < TOL

    def test_entropy_of_uniform_is_log_k(self):
        loss = ad.entropy_of_softmax(t64(np.zeros((3, 3))))
        assert loss.item() == pytest.approx(np.log(3.0), rel=1e-9)

    def test_entropy_max_at_uniform(self):
        peaked = ad.entropy_of_softmax(t64(np.array([[10.0, 0.0, 0.0]])))
        assert peaked.item() < 0.01


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
