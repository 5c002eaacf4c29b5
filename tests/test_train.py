import gc
import math
import pickle
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safnet.autodiff as ad
import safnet.train as train_module
from safnet.datamodel import Epoch
from safnet.errors import ValidationError
from safnet.isbcs import SwapConfig
from safnet.model import EncoderConfig, SafModel
from safnet.train import (
    AdamState,
    LossWeights,
    TrainConfig,
    adam_step,
    compute_losses,
    evaluate_macro_accuracy,
    fit,
    grid_search,
    make_lambda_grid,
    write_grid_table,
    write_train_log,
)

TINY = EncoderConfig(C=2, M=32, fs=16.0)


def tiny_model(num_domains=2, seed=0):
    return SafModel(TINY, num_domains=num_domains, seed=seed)


def make_epochs(n_per_cell, subjects=("s0", "s1"), seed=0, shift=1.5):
    """Noise epochs with a class-dependent mean offset (learnable task)."""
    rng = np.random.default_rng(seed)
    epochs = []
    for si, s in enumerate(subjects):
        for y in (0, 1):
            for _ in range(n_per_cell):
                x = rng.normal(size=(2, 32)) + y * shift + si * 0.3
                epochs.append(Epoch(x=x, y=y, s=s, sample_rate_hz=16.0))
    return epochs


def batch_arrays(epochs):
    smap = {s: i for i, s in enumerate(sorted({ep.s for ep in epochs}))}
    x = np.stack([ep.x for ep in epochs])
    y = np.array([ep.y for ep in epochs])
    s = np.array([smap[ep.s] for ep in epochs])
    return x, y, s


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert w.lambda_mi == 0.0 and w.lambda_grl == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            LossWeights(lambda_mi=-0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            LossWeights(lambda_grl=float("nan"))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 0.001 and cfg.batch_size == 32
        assert cfg.min_epochs == 20 and cfg.max_epochs == 200
        assert cfg.patience == 10 and cfg.plateau_window == 5

    def test_bad_epoch_bounds(self):
        with pytest.raises(ValidationError):
            TrainConfig(min_epochs=50, max_epochs=10)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_epochs": 4}, "need 1 <= min_epochs <= max_epochs, got min_epochs=20, "
                            "max_epochs=4"),
        ({"min_epochs": 0}, "got min_epochs=0, max_epochs=200"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"patience": -2}, "patience must be >= 1, got -2"),
        ({"plateau_window": 0}, "plateau_window must be >= 1, got 0")])
    def test_refusal_names_the_refused_values(self, kwargs, message):
        """A config that sets only max_epochs = 4 is refused against the
        default min_epochs of 20, so the message must say which values."""
        with pytest.raises(ValidationError, match=re.escape(message)):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"),
                                    0.0, -1.0])
    def test_lr_that_is_not_finite_and_positive_rejected(self, lr):
        """Refused when built, not later in fit as a diverged step."""
        with pytest.raises(ValidationError, match="lr must be finite and positive"):
            TrainConfig(lr=lr)

    COUNTS = {"batch_size": 8, "min_epochs": 2, "max_epochs": 30, "patience": 3,
              "plateau_window": 4, "seed": 5}

    @pytest.mark.parametrize("name", sorted(COUNTS))
    @pytest.mark.parametrize("value", [1.5, 30.0, "30"])
    def test_count_that_is_not_an_integer_rejected(self, name, value):
        """Refused when built, not later in fit as a TypeError."""
        with pytest.raises(ValidationError, match=re.escape(
                f"{name} must be an integer, got {value!r}")):
            TrainConfig(**{name: value})

    def test_numpy_integer_counts_pass(self):
        cfg = TrainConfig(**{name: np.int64(v) for name, v in self.COUNTS.items()})
        assert {name: getattr(cfg, name) for name in self.COUNTS} == self.COUNTS
        assert {type(getattr(cfg, name)) for name in self.COUNTS} == {int}


def train_rng():
    """A fresh dropout generator: calls given one each draw the same masks."""
    return np.random.default_rng(7)


class TestComputeLosses:
    def test_uniform_task_logits_give_ln2(self):
        model = tiny_model()
        model.params["task_w"].data[...] = 0.0
        model.params["task_b"].data[...] = 0.0
        epochs = make_epochs(4)
        x, y, s = batch_arrays(epochs)
        l_task, _, _, _ = compute_losses(x, y, s, model, LossWeights(), train_rng())
        assert float(l_task.data) == pytest.approx(math.log(2), rel=1e-6)

    def test_uniform_domain_posterior_gives_ln3(self):
        model = tiny_model(num_domains=3)
        model.params["dom2_w"].data[...] = 0.0
        model.params["dom2_b"].data[...] = 0.0
        epochs = make_epochs(2, subjects=("s0", "s1", "s2"))
        x, y, s = batch_arrays(epochs)
        _, l_domain, l_mi, _ = compute_losses(x, y, s, model, LossWeights(),
                                              train_rng())
        assert float(l_mi.data) == pytest.approx(math.log(3), rel=1e-6)
        assert float(l_domain.data) == pytest.approx(math.log(3), rel=1e-6)

    def test_zero_weights_total_equals_task_loss(self):
        model = tiny_model()
        epochs = make_epochs(4)
        x, y, s = batch_arrays(epochs)
        l_task, _, _, l_total = compute_losses(x, y, s, model, LossWeights(),
                                               train_rng())
        assert float(l_total.data) == float(l_task.data)

    def test_total_is_weighted_sum(self):
        model = tiny_model()
        epochs = make_epochs(4)
        x, y, s = batch_arrays(epochs)
        w = LossWeights(lambda_mi=0.5, lambda_grl=2.0)
        l_task, l_domain, l_mi, l_total = compute_losses(
            x, y, s, model, w, train_rng())
        expected = float(l_task.data) + 0.5 * float(l_mi.data) \
            + 2.0 * float(l_domain.data)
        assert float(l_total.data) == pytest.approx(expected, rel=1e-6)

    def test_zero_weights_block_domain_gradients_into_encoder(self):
        epochs = make_epochs(4)
        x, y, s = batch_arrays(epochs)

        model = tiny_model()
        _, _, _, l_total = compute_losses(x, y, s, model, LossWeights(), train_rng())
        l_total.backward()
        full = model.params["conv_temporal_w"].grad.copy()

        ref = tiny_model()
        l_task, _, _, _ = compute_losses(x, y, s, ref, LossWeights(), train_rng())
        l_task.backward()
        assert np.array_equal(full, ref.params["conv_temporal_w"].grad)

    def test_float32_step_runs_no_float64_block_product(self, monkeypatch):
        """Every band-product GEMM of a float32 step, bn1's window moments
        included, reads float32 operands: none copies the batch to
        float64."""
        operands = []
        band_products = ad._band_products

        def spy(xb, gb):
            operands.append((xb.dtype, gb.dtype))
            return band_products(xb, gb)

        monkeypatch.setattr(ad, "_band_products", spy)
        model = tiny_model(num_domains=3)
        x, y, s = batch_arrays(make_epochs(4, subjects=("s0", "s1", "s2")))
        *_, l_total = compute_losses(x.astype(np.float32), y, s, model,
                                     LossWeights(lambda_mi=1.0, lambda_grl=1.0),
                                     train_rng())
        l_total.backward()
        assert len(operands) >= 2  # the window moments and the weight gradient
        assert set(operands) == {(np.dtype(np.float32),) * 2}

    def test_domain_head_still_trains_at_zero_lambda(self):
        model = tiny_model()
        epochs = make_epochs(4)
        x, y, s = batch_arrays(epochs)
        _, _, _, l_total = compute_losses(x, y, s, model, LossWeights(), train_rng())
        l_total.backward()
        assert np.any(model.params["dom2_w"].grad != 0.0)

    def test_encoder_domain_gradient_scales_linearly_in_lambda(self):
        epochs = make_epochs(4)
        x, y, s = batch_arrays(epochs)
        grads = {}
        for lam in (1.0, 2.5):
            model = tiny_model()
            _, l_domain, _, _ = compute_losses(
                x, y, s, model, LossWeights(lambda_grl=lam), train_rng())
            l_domain.backward()
            grads[lam] = model.params["conv_temporal_w"].grad.copy()
        assert np.allclose(grads[2.5], 2.5 * grads[1.0], rtol=1e-4, atol=1e-9)

    def test_literal_mi_sign_reverses_encoder_entropy_gradient(self):
        """The entropy term reaches the encoder through the reversal layer:
        its gradient there is the negative of the literal-sign gradient,
        taken through the same head without reversal (lambda 1 makes the
        magnitudes equal)."""
        epochs = make_epochs(4)
        x, y, s = batch_arrays(epochs)
        model = tiny_model()
        w = LossWeights(lambda_mi=1.0, lambda_grl=1.0)
        _, _, l_mi, _ = compute_losses(x, y, s, model, w, train_rng())
        l_mi.backward()
        routed = model.params["conv_temporal_w"].grad.copy()

        literal = tiny_model()
        p = literal.params
        z = literal.encoder_forward(x, mode="train", rng=train_rng())
        hidden = ad.elu(ad.linear(z, p["dom1_w"], p["dom1_b"]))
        ad.entropy_of_softmax(ad.linear(hidden, p["dom2_w"], p["dom2_b"])).backward()
        assert np.allclose(routed, -p["conv_temporal_w"].grad, rtol=1e-4, atol=1e-9)
        assert np.any(routed != 0.0)

    def test_subject_index_out_of_range(self):
        model = tiny_model(num_domains=2)
        epochs = make_epochs(2)
        x, y, _ = batch_arrays(epochs)
        with pytest.raises(ValidationError):
            compute_losses(x, y, np.full(len(y), 2), model, LossWeights(), train_rng())


class TestAdam:
    def test_first_step_moves_by_lr(self):
        w = ad.Tensor(np.zeros(1), requires_grad=True)
        w.grad = np.ones(1)
        params = {"w": w}
        adam_step(params, AdamState(params), lr=0.001)
        assert w.data[0] == pytest.approx(-0.001, rel=1e-6)

    def test_zero_gradient_fresh_state_is_noop(self):
        w = ad.Tensor(np.array([1.5, -2.0]), requires_grad=True)
        w.grad = np.zeros(2)
        params = {"w": w}
        adam_step(params, AdamState(params), lr=0.1)
        assert np.array_equal(w.data, np.array([1.5, -2.0]))

    def test_none_gradient_treated_as_zero(self):
        w = ad.Tensor(np.array([3.0]), requires_grad=True)
        params = {"w": w}
        adam_step(params, AdamState(params), lr=0.1)
        assert w.data[0] == 3.0

    def test_quadratic_bowl_converges(self):
        w = ad.Tensor(np.array([1.0]), requires_grad=True)
        params = {"w": w}
        state = AdamState(params)
        for _ in range(500):
            w.grad = 2.0 * w.data
            adam_step(params, state, lr=0.01)
        assert abs(w.data[0]) < 1e-3

    def test_missing_state_rejected(self):
        w = ad.Tensor(np.zeros(1), requires_grad=True)
        state = AdamState({})
        with pytest.raises(ValidationError):
            adam_step({"w": w}, state, lr=0.1)


SCRIPT_SET = make_epochs(1)


def scripted_fit(accs, **cfg_kw):
    """fit on a tiny set for len(accs) epochs at most, with the validation
    accuracies of the epochs scripted as accs. The schedule's settings are
    TrainConfig's defaults unless cfg_kw names them; min_epochs defaults to
    len(accs). Returns the log."""
    cfg_kw = {"min_epochs": len(accs), **cfg_kw}
    cfg = TrainConfig(batch_size=8, max_epochs=len(accs), seed=7,
                      swap=SwapConfig(p=0.0), **cfg_kw)
    script = iter(accs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train_module, "evaluate_macro_accuracy",
                      lambda model, epochs: next(script))
        _, log = fit(SCRIPT_SET, SCRIPT_SET, tiny_model(), cfg, LossWeights())
    return log


def schedule(log):
    """Each record's learning rate, the stop reason, the record count and
    the best epoch of a log."""
    return ([r.lr for r in log.records], log.stop_reason, len(log.records),
            log.best_epoch)


class TestScheduler:
    """The plateau decay at TrainConfig's defaults (plateau_window 5,
    patience 10), seen in the learning rate fit logs for each epoch."""

    def test_five_stagnant_epochs_halve_lr(self):
        # 0.801 beats 0.80 by no more than IMPROVEMENT_EPS, yet becomes the best
        log = scripted_fit([0.80, 0.801, 0.799, 0.80, 0.8005, 0.801, 0.80])
        assert schedule(log) == ([1e-3] * 6 + [5e-4], "max_epochs", 7, 2)

    def test_improvement_resets_counter(self):
        # four stagnant epochs, an improvement, then only four stagnant again
        log = scripted_fit([0.80] * 5 + [0.85] * 5)
        assert schedule(log) == ([1e-3] * 10, "max_epochs", 10, 6)

    def test_floor_respected(self):
        log = scripted_fit([0.5] * 7, lr=1e-6)
        assert schedule(log) == ([1e-6] * 7, "max_epochs", 7, 1)

    def test_repeated_plateaus_halve_again(self):
        log = scripted_fit([0.8] * 12, patience=20)
        assert schedule(log) == ([1e-3] * 6 + [5e-4] * 5 + [2.5e-4],
                                 "max_epochs", 12, 1)


class TestEarlyStop:
    """Early stopping at TrainConfig's defaults (min_epochs 20, patience 10,
    plateau_window 5)."""

    def test_never_stops_before_min_epochs(self):
        # patience runs out at epoch 11, yet training goes on to epoch 20
        log = scripted_fit([0.9] + [0.5] * 24, min_epochs=20)
        assert schedule(log) == (
            [1e-3] * 6 + [5e-4] * 5 + [2.5e-4] * 5 + [1.25e-4] * 4,
            "early_stop", 20, 1)

    def test_stops_after_patience_stagnation(self):
        log = scripted_fit([0.5 + 0.01 * i for i in range(25)] + [0.5] * 15,
                           min_epochs=20)
        assert schedule(log) == ([1e-3] * 30 + [5e-4] * 5, "early_stop", 35, 25)

    def test_improvement_resets(self):
        # without the improvement at epoch 11, training would stop at epoch 20
        log = scripted_fit([0.5] * 10 + [0.9] + [0.5] * 14, min_epochs=20)
        assert schedule(log) == ([1e-3] * 6 + [5e-4] * 10 + [2.5e-4] * 5,
                                 "early_stop", 21, 11)

    def test_boundary_at_min_epochs(self):
        # the tenth stagnant epoch is epoch 20, the first that may stop
        log = scripted_fit([0.5 + 0.01 * i for i in range(10)] + [0.5] * 15,
                           min_epochs=20)
        assert schedule(log) == ([1e-3] * 15 + [5e-4] * 5, "early_stop", 20, 10)


def replayed_schedule(accs, cfg):
    """The schedule fit must keep, from a full replay of the history after
    every epoch: the trailing run of epochs that do not beat the best before
    them by more than IMPROVEMENT_EPS sets the decay and the stop, and the
    best epoch is the first that reaches the maximum so far."""
    lr, lrs = cfg.lr, []
    for epoch in range(1, len(accs) + 1):
        lrs.append(lr)
        history = accs[:epoch]
        tail = 0
        for i, v in enumerate(history):
            best_before = max(history[:i], default=-np.inf)
            tail = 0 if v > best_before + train_module.IMPROVEMENT_EPS else tail + 1
        if tail and tail % cfg.plateau_window == 0:
            lr = max(lr * train_module.LR_FACTOR, train_module.LR_FLOOR)
        best_epoch = history.index(max(history)) + 1
        if epoch >= cfg.min_epochs and tail >= cfg.patience:
            return lrs, "early_stop", epoch, best_epoch
    return lrs, "max_epochs", len(accs), best_epoch


@settings(max_examples=50, deadline=None)
@given(accs=st.lists(st.sampled_from([0.5, 0.5005, 0.501, 0.5015, 0.6, 0.9]),
                     min_size=1, max_size=24),
       data=st.data())
def test_schedule_matches_a_replay_of_the_history(accs, data):
    min_epochs = data.draw(st.integers(1, len(accs)))
    patience = data.draw(st.integers(1, 8))
    plateau_window = data.draw(st.integers(1, 6))
    log = scripted_fit(accs, min_epochs=min_epochs, patience=patience,
                       plateau_window=plateau_window)
    cfg = TrainConfig(min_epochs=min_epochs, max_epochs=len(accs),
                      patience=patience, plateau_window=plateau_window)
    assert schedule(log) == replayed_schedule(accs, cfg)


def quick_cfg(**kw):
    base = dict(batch_size=8, min_epochs=1, max_epochs=3, seed=7,
                swap=SwapConfig(p=0.0))
    base.update(kw)
    return TrainConfig(**base)


class TestFit:
    def test_log_structure_and_monitored_max(self):
        train = make_epochs(4, seed=1)
        val = make_epochs(2, seed=2)
        model = tiny_model(seed=3)
        model, log = fit(train, val, model, quick_cfg(), LossWeights())
        assert [r.epoch for r in log.records] == [1, 2, 3]
        assert log.stop_reason == "max_epochs"
        lrs = [r.lr for r in log.records]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        best = log.records[log.best_epoch - 1].val_macro_acc
        assert best == max(log.val_accuracies)

    def test_deterministic_log(self):
        train = make_epochs(4, seed=1)
        val = make_epochs(2, seed=2)
        logs = []
        for _ in range(2):
            model = tiny_model(seed=3)
            _, log = fit(train, val, model, quick_cfg(),
                         LossWeights(lambda_mi=0.5, lambda_grl=1.0))
            logs.append(log)
        assert logs[0].records == logs[1].records
        assert logs[0].best_epoch == logs[1].best_epoch

    def test_best_epoch_ties_prefer_earliest(self):
        # constant inputs give a constant validation accuracy every epoch
        const = [Epoch(x=np.full((2, 32), 0.5), y=y, s=s, sample_rate_hz=16.0)
                 for s in ("s0", "s1") for y in (0, 1) for _ in range(4)]
        model = tiny_model(seed=3)
        _, log = fit(const, const[:8], model, quick_cfg(), LossWeights())
        accs = log.val_accuracies
        assert accs.count(accs[0]) == len(accs)
        assert log.best_epoch == 1

    def test_degenerate_config_matches_plain_loop(self):
        train = make_epochs(4, seed=1)
        val = make_epochs(2, seed=2)
        cfg = quick_cfg(max_epochs=2)

        model = tiny_model(seed=3)
        fit(train, val, model, cfg, LossWeights())

        # plain classifier loop: same seed handling, no augmentation, no
        # domain branch in the loss
        ref = tiny_model(seed=3)
        shuffle_ss, _, dropout_ss = np.random.SeedSequence(cfg.seed).spawn(3)
        shuffle_rng = np.random.default_rng(shuffle_ss)
        dropout_rng = np.random.default_rng(dropout_ss)
        state = AdamState(ref.params)
        smap = {s: i for i, s in enumerate(sorted({ep.s for ep in train}))}
        final_snapshot = None
        best_acc = -np.inf
        for _epoch in range(cfg.max_epochs):
            order = shuffle_rng.permutation(len(train))
            for start in range(0, len(train), cfg.batch_size):
                batch = [train[i] for i in order[start:start + cfg.batch_size]]
                x = np.stack([ep.x for ep in batch])
                y = np.array([ep.y for ep in batch])
                ref.zero_grad()
                z = ref.encoder_forward(x, mode="train", rng=dropout_rng)
                logits = ad.linear(z, ref.params["task_w"],
                                   ref.params["task_b"])
                ad.softmax_cross_entropy(logits, y).backward()
                adam_step(ref.params, state, cfg.lr)
            acc = evaluate_macro_accuracy(ref, val)
            if acc > best_acc:
                best_acc = acc
                final_snapshot = {k: p.data.copy()
                                  for k, p in ref.params.items()}

        task_and_encoder = [k for k in model.params
                            if not k.startswith("dom")]
        for k in task_and_encoder:
            assert np.array_equal(model.params[k].data, final_snapshot[k]), k

    def test_domain_count_mismatch_rejected(self):
        train = make_epochs(2)
        model = tiny_model(num_domains=3)
        with pytest.raises(ValidationError):
            fit(train, train, model, quick_cfg(), LossWeights())

    def test_single_subject_adversary_warns(self):
        train = make_epochs(4, subjects=("solo",))
        model = tiny_model(num_domains=1)
        with pytest.warns(RuntimeWarning):
            fit(train, train, model, quick_cfg(max_epochs=1),
                LossWeights(lambda_grl=1.0))

    def test_empty_sets_rejected(self):
        model = tiny_model()
        with pytest.raises(ValidationError):
            fit([], make_epochs(1), model, quick_cfg(), LossWeights())

    def test_epochs_at_another_rate_rejected_before_the_first_step(
            self, monkeypatch):
        """Training or validation epochs at 32 Hz for a 16 Hz model (same
        C and M) are refused, naming both rates, before any step runs."""
        steps = []
        monkeypatch.setattr(train_module, "adam_step",
                            lambda *args: steps.append(args))
        fast = [replace(ep, sample_rate_hz=32.0) for ep in make_epochs(2)]
        for train, val in ((fast, make_epochs(1)), (make_epochs(2), fast)):
            with pytest.raises(ValidationError, match=r"sampled at 32\.0 Hz "
                                                      r"but the model at 16\.0 Hz"):
                fit(train, val, tiny_model(), quick_cfg(), LossWeights())
        assert steps == []

    @pytest.mark.parametrize("odd_set", ["train", "val"])
    def test_epoch_of_another_shape_rejected_before_the_first_step(self, odd_set):
        """One 2 x 40 epoch among 2 x 32 ones, in either set, is refused
        before any batch updates the caller's model: every parameter and
        buffer keeps its bytes."""
        odd = Epoch(x=np.zeros((2, 40)), y=0, s="s0", sample_rate_hz=16.0)
        train, val = make_epochs(16, seed=1), make_epochs(2, seed=2)
        (train if odd_set == "train" else val).append(odd)
        model = tiny_model(seed=3)
        params = {k: p.data.copy() for k, p in model.params.items()}
        buffers = {k: b.copy() for k, b in model.buffers.items()}
        with pytest.raises(ValidationError) as refusal:
            fit(train, val, model, quick_cfg(), LossWeights())
        for k, p in model.params.items():
            assert np.array_equal(p.data, params[k]), k
        for k, b in model.buffers.items():
            assert np.array_equal(b, buffers[k]), k
        assert ("2 channels x 40 samples do not fit the model's 2 x 32"
                in str(refusal.value))

    def test_divergence_raises_before_validation(self, monkeypatch):
        """lr = 1e30 sends the weights to inf within a step or two; fit stops
        at the first batch whose loss is not finite, before any validation
        pass or snapshot of that epoch."""
        def no_validation(*args, **kwargs):
            raise AssertionError("validation ran on a diverged model")

        monkeypatch.setattr(train_module, "evaluate_macro_accuracy", no_validation)
        train = make_epochs(8, seed=2)
        with np.errstate(all="ignore"):
            with pytest.raises(ValidationError,
                               match=r"epoch 1, step \d+: .* is not finite"):
                fit(train, train, tiny_model(), quick_cfg(lr=1e30, batch_size=4),
                    LossWeights(lambda_mi=1.0, lambda_grl=1.0))

    def test_exploding_finite_loss_raises(self, monkeypatch):
        """lr = 1e6 keeps every loss finite while l_total grows by orders
        of magnitude (1.8e20 as the first epoch's mean); fit stops at the
        first step past DIVERGENCE_FACTOR x max(1, first step's l_total),
        before that step's update and before any validation pass."""
        def no_validation(*args, **kwargs):
            raise AssertionError("validation ran on a diverged model")

        monkeypatch.setattr(train_module, "evaluate_macro_accuracy", no_validation)
        updates = []
        real_adam_step = train_module.adam_step

        def counting_adam_step(*args, **kwargs):
            updates.append(1)
            return real_adam_step(*args, **kwargs)

        monkeypatch.setattr(train_module, "adam_step", counting_adam_step)
        train = make_epochs(8)
        pattern = r"epoch 1, step (\d+): l_total .* exceeds 10000 x"
        with pytest.raises(ValidationError, match=pattern) as exc:
            fit(train, train, tiny_model(), quick_cfg(lr=1e6, batch_size=4),
                LossWeights(lambda_mi=1.0, lambda_grl=1.0))
        step = int(re.search(r"step (\d+)", str(exc.value)).group(1))
        assert len(updates) == step - 1

    def test_early_stop_fires(self):
        # constant inputs never improve past epoch 1
        const = [Epoch(x=np.full((2, 32), 0.5), y=y, s=s, sample_rate_hz=16.0)
                 for s in ("s0", "s1") for y in (0, 1) for _ in range(4)]
        cfg = quick_cfg(min_epochs=2, max_epochs=50, patience=3,
                        plateau_window=2)
        model = tiny_model(seed=3)
        _, log = fit(const, const[:8], model, cfg, LossWeights())
        assert log.stop_reason == "early_stop"
        assert len(log.records) < 50

    def test_augments_and_steps_once_per_batch_through_the_module(self, monkeypatch):
        """fit looks up train.isbcs_augment_batch and train.adam_step on every
        step, as the benchmark's tracer relies on, and calls each once per
        batch: 16 epochs in batches of 6 are 3 steps an epoch."""
        calls = []
        real_augment = train_module.isbcs_augment_batch
        real_step = train_module.adam_step

        def augment(batch, cfg, rng):
            calls.append(("augment", len(batch)))
            return real_augment(batch, cfg, rng)

        def step(params, state, lr):
            calls.append(("adam", None))
            return real_step(params, state, lr)

        monkeypatch.setattr(train_module, "isbcs_augment_batch", augment)
        monkeypatch.setattr(train_module, "adam_step", step)
        fit(make_epochs(4, seed=1), make_epochs(1, seed=2), tiny_model(seed=3),
            quick_cfg(batch_size=6, max_epochs=2, swap=SwapConfig(p=0.5)),
            LossWeights(lambda_mi=0.5, lambda_grl=1.0))
        per_epoch = [("augment", 6), ("adam", None), ("augment", 6),
                     ("adam", None), ("augment", 4), ("adam", None)]
        assert calls == 2 * per_epoch

    def test_train_log_csv(self, tmp_path):
        train = make_epochs(3, seed=1)
        model = tiny_model(seed=3)
        _, log = fit(train, train, model, quick_cfg(max_epochs=2),
                     LossWeights())
        path = str(tmp_path / "log.csv")
        write_train_log(log, path)
        lines = open(path, encoding="utf-8").read().split("\n")
        assert lines[0] == "epoch,l_task,l_domain,l_mi,l_total,lr,val_macro_acc"
        assert lines[1].startswith("1,")
        assert len(lines) == 2 + len(log.records)  # header + rows + final LF

    def test_train_log_columns_follow_the_record_fields(self, tmp_path):
        """The header bytes, and each row's values in the header's order."""
        log = train_module.TrainLog(records=[train_module.EpochRecord(
            epoch=1, l_task=0.5, l_domain=0.25, l_mi=0.125, l_total=1.0,
            lr=0.001, val_macro_acc=0.75)])
        path = tmp_path / "log.csv"
        write_train_log(log, str(path))
        assert path.read_bytes() == (
            b"epoch,l_task,l_domain,l_mi,l_total,lr,val_macro_acc\n"
            b"1,0.5,0.25,0.125,1,0.001,0.75\n")


class TestEvaluateRate:
    def test_epochs_at_another_rate_rejected(self):
        """A 16 Hz model refuses 32 Hz epochs of the same (C, M)."""
        fast = [replace(ep, sample_rate_hz=32.0) for ep in make_epochs(1)]
        with pytest.raises(ValidationError, match=r"sampled at 32\.0 Hz but "
                                                  r"the model at 16\.0 Hz"):
            evaluate_macro_accuracy(tiny_model(), fast)

    def test_rates_compared_at_float32(self):
        """NDF stores the rate as float32: a rate that rounds to the model's
        there is the model's rate."""
        near = 16.0 + 1e-7
        assert near != 16.0 and np.float32(near) == np.float32(16.0)
        epochs = [replace(ep, sample_rate_hz=near) for ep in make_epochs(1)]
        assert 0.0 <= evaluate_macro_accuracy(tiny_model(), epochs) <= 1.0


class TestEvaluateShape:
    @pytest.mark.parametrize("shape", [(2, 40), (3, 32)])
    def test_epoch_of_another_shape_rejected(self, shape):
        """An epoch of another (channels, samples) than the model's, among
        epochs that fit it, is a ValidationError, not numpy's stacking
        error."""
        odd = Epoch(x=np.zeros(shape), y=0, s="s0", sample_rate_hz=16.0)
        with pytest.raises(ValidationError, match="do not fit the model's "
                                                  "2 x 32"):
            evaluate_macro_accuracy(tiny_model(), make_epochs(1) + [odd])

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError, match="empty epoch list"):
            evaluate_macro_accuracy(tiny_model(), [])


class TestLambdaGrid:
    def test_two_point_grid_is_endpoints(self):
        assert make_lambda_grid(n=2) == [0.001, 10.0]
        assert (train_module.LAMBDA_MIN, train_module.LAMBDA_MAX) == (0.001, 10.0)

    @staticmethod
    def exact_value(i, n):
        """Grid point as an exact rational: lo + i*(hi-lo)/(n-1)."""
        lo, hi = Fraction(1, 1000), Fraction(10)
        return lo + i * (hi - lo) / (n - 1)

    @staticmethod
    def truncate3(value: Fraction) -> Fraction:
        return Fraction(math.floor(value * 1000), 1000)

    def test_ten_point_grid_values(self):
        grid = make_lambda_grid(n=10)
        for i, v in enumerate(grid):
            assert abs(v - self.exact_value(i, 10)) < 1e-12
        assert self.truncate3(self.exact_value(1, 10)) == Fraction("1.112")
        assert self.truncate3(self.exact_value(8, 10)) == Fraction("8.889")

    def test_twenty_five_point_grid_values(self):
        grid = make_lambda_grid(n=25)
        for i, v in enumerate(grid):
            assert abs(v - self.exact_value(i, 25)) < 1e-12
        truncated = [self.truncate3(self.exact_value(i, 25)) for i in range(25)]
        for expected in ("0.417", "1.667", "2.084"):
            assert Fraction(expected) in truncated

    def test_uniform_spacing(self):
        grid = make_lambda_grid(n=10)
        diffs = np.diff(grid)
        assert np.allclose(diffs, diffs[0], rtol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            make_lambda_grid(n=1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor in grid_search: records how the pool
    is built and the pickled size of each task, and starts no process."""

    last = None

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.initializer = initializer
        self.initargs = initargs
        self.task_bytes = []
        _RecordingPool.last = self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        assert fn is train_module._grid_cell
        results = []
        for k, task in enumerate(tasks):
            self.task_bytes.append(len(pickle.dumps(task)))
            results.append((task[0], task[1], k / 4))
        return results


def _blas_threads():
    return max(get() for get in train_module._openblas_fns("get_num_threads"))


def _blas_threads_cell(args):
    return args[0], args[1], float(_blas_threads())


class TestGridSearch:
    def test_tie_selects_smallest_lambdas(self):
        # constant inputs: every cell evaluates to the same accuracy
        const = [Epoch(x=np.full((2, 32), 0.5), y=y, s=s, sample_rate_hz=16.0)
                 for s in ("s0", "s1") for y in (0, 1) for _ in range(4)]
        cfg = quick_cfg(max_epochs=2)
        best, rows = grid_search(const, const[:8], TINY, cfg, n_mi=2, n_grl=2,
                                 budget_epochs=1)
        assert len(rows) == 4
        accs = {r[2] for r in rows}
        assert len(accs) == 1
        assert (best.lambda_mi, best.lambda_grl) == (0.001, 0.001)

    def test_rows_ordered_by_lambda_pair(self):
        const = [Epoch(x=np.full((2, 32), 0.5), y=y, s=s, sample_rate_hz=16.0)
                 for s in ("s0", "s1") for y in (0, 1) for _ in range(2)]
        cfg = quick_cfg(max_epochs=1)
        _, rows = grid_search(const, const[:4], TINY, cfg, n_mi=2, n_grl=3,
                              budget_epochs=1)
        keys = [(r[0], r[1]) for r in rows]
        assert keys == sorted(keys)

    def test_parallel_matches_serial(self):
        train = make_epochs(2, seed=1)
        val = make_epochs(1, seed=2)
        cfg = quick_cfg(max_epochs=1)
        best1, rows1 = grid_search(train, val, TINY, cfg, n_mi=2, n_grl=2,
                                   budget_epochs=1, jobs=1)
        # jobs = 3 leaves one of the 2 x 2 cells to a worker's second task
        for jobs in (2, 3):
            best, rows = grid_search(train, val, TINY, cfg, n_mi=2, n_grl=2,
                                     budget_epochs=1, jobs=jobs)
            assert rows == rows1
            assert best == best1

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValidationError, match="jobs"):
            grid_search(make_epochs(1), make_epochs(1), TINY, quick_cfg(),
                        n_mi=2, n_grl=2, budget_epochs=1, jobs=jobs)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        """Named as the budget, not as the epoch bounds of the cell config
        it would build."""
        with pytest.raises(ValidationError, match=f"budget_epochs must be >= 1, "
                                                  f"got {budget}"):
            grid_search(make_epochs(1), make_epochs(1), TINY, quick_cfg(),
                        n_mi=2, n_grl=2, budget_epochs=budget)

    # ids are jobs-workers; the last case has 3 usable CPUs, the others 64
    @pytest.mark.parametrize("jobs, cpus, workers", [
        (2, 64, 2), (4, 64, 4), (64, 64, 4), (1, 64, 1), (4, 3, 3)],
        ids=["2-2", "4-4", "64-4", "1-1", "4-3"])
    def test_pool_gets_epochs_once_and_small_tasks(self, monkeypatch, jobs,
                                                   cpus, workers):
        """Every search, jobs = 1 included, maps _grid_cell on a pool of
        min(jobs, cells, usable CPUs) workers."""
        train, val = make_epochs(8, seed=1), make_epochs(4, seed=2)
        monkeypatch.setattr(train_module, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: cpus)
        _, rows = grid_search(train, val, TINY, quick_cfg(), n_mi=2, n_grl=2,
                              budget_epochs=1, jobs=jobs)
        pool = _RecordingPool.last
        assert pool.max_workers == workers
        assert pool.initializer is train_module._init_grid_worker
        assert pool.initargs[0] is train and pool.initargs[1] is val
        assert len(pool.task_bytes) == 4 and max(pool.task_bytes) < 1000
        assert [acc for _, _, acc in rows] == [0.0, 0.25, 0.5, 0.75]

    @pytest.mark.parametrize("count, cpus", [(5, 5), (None, 1)])
    def test_usable_cpus_without_affinity_call(self, monkeypatch, count, cpus):
        monkeypatch.delattr(train_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(train_module.os, "cpu_count", lambda: count)
        assert train_module._usable_cpus() == cpus

    def test_search_leaves_no_epochs_in_module(self, monkeypatch):
        train, val = make_epochs(2, seed=1), make_epochs(1, seed=2)
        held = vars(train_module)

        def assert_released():
            for ref in gc.get_referrers(train, val):
                assert ref is not held
                assert not any(ref is v for v in held.values())

        grid_search(train, val, TINY, quick_cfg(max_epochs=1), n_mi=2,
                    n_grl=2, budget_epochs=1)
        assert_released()

        def failing_fit(*args, **kwargs):
            raise RuntimeError("cell failed")

        monkeypatch.setattr(train_module, "fit", failing_fit)
        with pytest.raises(RuntimeError, match="cell failed"):
            grid_search(train, val, TINY, quick_cfg(max_epochs=1), n_mi=2,
                        n_grl=2, budget_epochs=1)
        assert_released()

    def test_workers_run_one_blas_thread(self, monkeypatch):
        if not train_module._openblas_fns("get_num_threads"):
            pytest.skip("no OpenBLAS library loaded")
        before = _blas_threads()
        # the pool pickles _grid_cell by name; forked workers resolve it to
        # this stand-in, which reports the worker's BLAS thread count
        monkeypatch.setattr(train_module, "_grid_cell", _blas_threads_cell)
        _, rows = grid_search(make_epochs(1), make_epochs(1), TINY,
                              quick_cfg(), n_mi=2, n_grl=2, budget_epochs=1,
                              jobs=2)
        assert [acc for _, _, acc in rows] == [1.0] * 4
        assert _blas_threads() == before

    def test_grid_table_csv(self, tmp_path):
        rows = [(0.001, 0.001, 0.5), (0.001, 10.0, 0.75)]
        path = str(tmp_path / "grid.csv")
        write_grid_table(rows, path)
        content = open(path, encoding="utf-8").read()
        assert content == ("lambda_mi,lambda_grl,val_macro_acc\n"
                           "0.001,0.001,0.5\n0.001,10,0.75\n")


class TestLearnability:
    def test_fit_learns_separable_task(self):
        train = make_epochs(8, seed=5, shift=2.0)
        val = make_epochs(4, seed=6, shift=2.0)
        cfg = TrainConfig(batch_size=16, min_epochs=1, max_epochs=10, seed=0,
                          lr=0.005, swap=SwapConfig(p=0.0))
        model = tiny_model(seed=1)
        _, log = fit(train, val, model, cfg, LossWeights())
        assert max(log.val_accuracies) >= 0.9
