"""The training step writes the same bytes as _reference_step's kernels,
which run the same floating-point operations with more passes, copies and
temporaries: first_stage's output, its six gradients, the running buffers
and the dropout generator's next draw in training and eval, the window
moments, the bands, depthwise_temporal_conv, Adam over flat buffers, and
whole fits."""

import numpy as np
import pytest

import _reference_step as ref
import safnet.train as train_module
from safnet import autodiff as ad
from safnet.autodiff import Tensor
from safnet.datamodel import Epoch
from safnet.errors import ValidationError
from safnet.isbcs import SwapConfig
from safnet.model import EncoderConfig, SafModel
from safnet.train import AdamState, LossWeights, TrainConfig, adam_step, fit
from test_autodiff import FIRST_BLOCK_SHAPES, FIRST_STAGE_PARAMS

DTYPES = [np.float32, np.float64]


def assert_same_bytes(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


def run_first_stage(op, dtype, shape, training, seed, p=0.25, pool=4,
                    backwards=1):
    """Output, running buffers, the dropout generator's next draw and, in
    training, the parameters' gradients after `backwards` backward passes
    of a random weighting of the output (None as zeros)."""
    b, c, m, f, d, k = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, c, m)) * 2.0 + 0.3
    arrays = [rng.standard_normal((f, k)), rng.standard_normal(f) + 1.5,
              rng.standard_normal(f), rng.standard_normal((f, d, c)),
              rng.standard_normal(f * d) + 1.5, rng.standard_normal(f * d)]
    running = [rng.standard_normal(f) * 0.1, np.abs(rng.standard_normal(f)) + 0.5,
               rng.standard_normal(f * d) * 0.1,
               np.abs(rng.standard_normal(f * d)) + 0.5]
    weights = rng.standard_normal((b, f * d, 1, m // pool)).astype(dtype)
    tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    running = [r.astype(dtype) for r in running]
    dropout_rng = np.random.default_rng(seed + 1)
    args = (Tensor(x.astype(dtype)), *tensors, running, pool, p, dropout_rng,
            training)
    if training:
        out = op(*args)
        loss = ad.tensor_sum(ad.mul(out, Tensor(weights)))
        for _ in range(backwards):
            loss.backward()
    else:
        with ad.no_grad():
            out = op(*args)
    got = dict(zip(["out", "bn1_mean", "bn1_var", "bn2_mean", "bn2_var",
                    "next_draw"], [out.data, *running, dropout_rng.random(3)]))
    if training:
        got |= {name: np.zeros_like(t.data) if t.grad is None else t.grad
                for name, t in zip(FIRST_STAGE_PARAMS, tensors)}
    return got


class TestFirstStage:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", FIRST_BLOCK_SHAPES)
    def test_same_bytes(self, shape, training, dtype):
        """FIRST_BLOCK_SHAPES[0] is criterion 8's shape."""
        seed = sum(shape)
        assert_same_bytes(
            run_first_stage(ad.first_stage, dtype, shape, training, seed),
            run_first_stage(ref.first_stage, dtype, shape, training, seed))

    @pytest.mark.parametrize("shape", FIRST_BLOCK_SHAPES[:3])
    def test_same_bytes_without_dropout(self, shape):
        assert_same_bytes(
            run_first_stage(ad.first_stage, np.float32, shape, True, 3, p=0.0),
            run_first_stage(ref.first_stage, np.float32, shape, True, 3, p=0.0))

    @pytest.mark.parametrize("pool", [1, 3])
    def test_same_bytes_at_other_pools(self, pool):
        shape = FIRST_BLOCK_SHAPES[1]
        assert_same_bytes(
            run_first_stage(ad.first_stage, np.float32, shape, True, 4, pool=pool),
            run_first_stage(ref.first_stage, np.float32, shape, True, 4, pool=pool))

    def test_second_backward_accumulates_the_same_bytes(self):
        """The backward leaves the forward's buffers as they were, so a
        second pass over the graph adds the same gradients again."""
        shape = FIRST_BLOCK_SHAPES[1]
        assert_same_bytes(
            run_first_stage(ad.first_stage, np.float32, shape, True, 5, backwards=2),
            run_first_stage(ref.first_stage, np.float32, shape, True, 5, backwards=2))


@pytest.mark.parametrize("rows, m, k, left", [
    (192, 256, 64, 31),  # criterion 8's shape
    (12, 37, 7, 3), (6, 40, 8, 3), (6, 10, 16, 7), (1, 12, 5, 2), (4, 9, 1, 0)])
def test_window_moments_same_bytes(rows, m, k, left):
    x = np.random.default_rng(rows + m).standard_normal((rows, m)).astype(np.float32)
    for got, want in zip(ad._window_moments(x, k, left), ref.window_moments(x, k, left)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("f, k", [(8, 64), (3, 7), (2, 1), (16, 16)])
def test_band_matches_both_bands(f, k, dtype):
    w = np.random.default_rng(k).standard_normal((f, k)).astype(dtype)
    fwd, adj = ref.bands(w)
    for got, want in ((ad._band(w), fwd), (ad._band(w, adjoint=True), adj)):
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


@pytest.mark.parametrize("pool, m", [(1, 8), (4, 64), (4, 37), (8, 64)])
def test_pool_mean_same_bytes(pool, m):
    a = np.random.default_rng(m).standard_normal((3, 5, m)).astype(np.float32)
    got, want = ad._pool_mean(a, pool), ref.pool_mean(a, pool)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b, f, c, m, k", [(32, 16, 1, 64, 16), (3, 2, 3, 37, 7),
                                           (2, 3, 1, 10, 16)])
def test_depthwise_temporal_conv_same_bytes(b, f, c, m, k, dtype):
    rng = np.random.default_rng(b + m)
    arrays = [rng.standard_normal((b, f, c, m)), rng.standard_normal((f, k))]
    weights = rng.standard_normal((b, f, c, m))
    results = []
    for op in (ad.depthwise_temporal_conv, ref.depthwise_temporal_conv):
        x, w = (Tensor(a.astype(dtype), requires_grad=True) for a in arrays)
        out = op(x, w)
        ad.tensor_sum(ad.mul(out, Tensor(weights.astype(dtype)))).backward()
        results.append({"out": out.data, "gx": x.grad, "gw": w.grad})
    assert_same_bytes(*results)


def adam_params(dtype, seed=0):
    rng = np.random.default_rng(seed)
    return {"w": Tensor(rng.standard_normal((4, 3)).astype(dtype), requires_grad=True),
            "b": Tensor(rng.standard_normal(3).astype(dtype), requires_grad=True),
            "frozen": Tensor(rng.standard_normal(2).astype(dtype), requires_grad=True),
            "k": Tensor(rng.standard_normal((2, 2, 5)).astype(dtype), requires_grad=True)}


class TestAdam:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_fifty_steps_same_bytes(self, dtype):
        """Random gradients, None for `frozen` always and for `b` every third
        step; every parameter and moment matches after every step."""
        params, want = adam_params(dtype), adam_params(dtype)
        state, ref_state = AdamState(params), ref.AdamState(want)
        rng = np.random.default_rng(1)
        for step in range(50):
            for name in params:
                g = None
                if name != "frozen" and not (name == "b" and step % 3 == 0):
                    g = (rng.standard_normal(params[name].shape) * 10.0).astype(dtype)
                params[name].grad = g
                want[name].grad = None if g is None else g.copy()
            adam_step(params, state, lr=0.01)
            ref.adam_step(want, ref_state, lr=0.01)
            for name in params:
                assert np.array_equal(params[name].data, want[name].data), (step, name)
                sl = state.slices[name]
                assert np.array_equal(state.m[sl].reshape(params[name].shape),
                                      ref_state.m[name])
                assert np.array_equal(state.v[sl].reshape(params[name].shape),
                                      ref_state.v[name])

    def test_mixed_dtypes_refused(self):
        params = adam_params(np.float32)
        params["b"] = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValidationError, match="one dtype"):
            AdamState(params)

    def test_gradient_of_another_dtype_refused_before_any_update(self):
        params = adam_params(np.float32)
        before = {k: p.data.copy() for k, p in params.items()}
        state = AdamState(params)
        params["w"].grad = np.ones((4, 3), dtype=np.float32)
        params["k"].grad = np.ones((2, 2, 5))
        with pytest.raises(ValidationError, match="gradient float64"):
            adam_step(params, state, lr=0.1)
        assert state.t == 0
        assert all(np.array_equal(p.data, before[k]) for k, p in params.items())

    def test_parameters_left_out_refused(self):
        params = adam_params(np.float64)
        state = AdamState(params)
        del params["b"]
        with pytest.raises(ValidationError, match=r"holds \['b', 'frozen', 'k', 'w'\], "
                                                  r"not the parameters passed"):
            adam_step(params, state, lr=0.1)


def test_fit_same_bytes_as_reference_kernels(monkeypatch):
    """Two epochs of adversarial training with swaps on a 4-channel,
    64-sample model: the parameters, running buffers and log match a run on
    the reference first_stage, depthwise_temporal_conv and Adam."""
    rng = np.random.default_rng(0)
    epochs = [Epoch(x=rng.standard_normal((4, 64)) + y, y=y, s=s,
                                 sample_rate_hz=16.0)
              for s in ("s0", "s1", "s2") for y in (0, 1) for _ in range(6)]
    cfg = TrainConfig(batch_size=8, min_epochs=2, max_epochs=2, seed=4,
                      swap=SwapConfig(p=0.5))
    weights = LossWeights(lambda_mi=0.5, lambda_grl=1.0)

    def run():
        model = SafModel(EncoderConfig(C=4, M=64, fs=16.0), num_domains=3, seed=2)
        _, log = fit(epochs, epochs[::4], model, cfg, weights)
        return model, log

    model, log = run()
    with monkeypatch.context() as patch:
        patch.setattr(ad, "first_stage", ref.first_stage)
        patch.setattr(ad, "depthwise_temporal_conv", ref.depthwise_temporal_conv)
        patch.setattr(train_module, "AdamState", ref.AdamState)
        patch.setattr(train_module, "adam_step", ref.adam_step)
        want, want_log = run()
    assert log.records == want_log.records
    for name, p in model.params.items():
        assert np.array_equal(p.data, want.params[name].data), name
    for name, buf in model.buffers.items():
        assert np.array_equal(buf, want.buffers[name]), name
