"""Release acceptance suite.

One test per release criterion. Every test measures the quantities the
criterion names, prints a single pass/fail line with the measured numbers,
and asserts the stated tolerances — including its runtime budget where one
applies.

Criteria 7 and 8 run on a synthetic multi-subject benchmark generated by
`safnet.synth`. The benchmark is designed so that the class signal is
redundant across three low-frequency bands while each subject carries
independent per-band gain shifts, channel mixing, line-noise gain and
artifact bursts: single-band shortcuts that look perfect on the training
subjects transfer poorly, while a cross-band aggregate survives. The bias
strength is 1.0 where a criterion pins it and 1.5 for the leave-one-subject
-out study, where the domain shift must dominate for generalization methods
to matter.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np

from _gradcheck import max_relative_error, numeric_gradient, sample_indices
from safnet import autodiff as ad
from safnet.asr import AsrConfig, AsrModel, asr_apply, asr_fit, select_calibration
from safnet.autodiff import Tensor
from safnet.cli import main
from safnet.datamodel import Recording, write_recording
from safnet.dsp import PipelineConfig, bandpass, notch
from safnet.isbcs import SwapConfig, isbcs_augment_batch
from safnet.metrics import (
    BandDefinition,
    clip_bands,
    confusion,
    f_statistic,
    log_band_power_features,
    macro_metrics,
    silhouette,
)
from safnet.model import EncoderConfig, SafModel
from safnet.synth import SynthConfig, generate_epochs
from safnet.train import (
    LossWeights,
    TrainConfig,
    evaluate_macro_accuracy,
    fit,
    grid_search,
    make_lambda_grid,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


# ---------------------------------------------------------------------------
# criterion 1 — filter frequency response and phase
# ---------------------------------------------------------------------------

class TestCriterion1Filters:
    def test_criterion_1_filter_suite(self):
        t0 = time.monotonic()
        fs = 512.0
        cfg = PipelineConfig()

        def tone(freq, seconds=60.0):
            t = np.arange(int(seconds * fs)) / fs
            return Recording(data=np.sin(2 * np.pi * freq * t)[None, :],
                             sample_rate_hz=fs)

        def response_db(filtered, original):
            n = original.samples
            mid = slice(n // 4, 3 * n // 4)
            return 20.0 * math.log10(
                _rms(filtered.data[0, mid]) / _rms(original.data[0, mid]))

        def lag_samples(filtered, original):
            n = original.samples
            mid = slice(n // 2 - 2048, n // 2 + 2048)
            corr = np.correlate(filtered.data[0, mid], original.data[0, mid],
                                "full")
            return int(np.argmax(corr)) - (corr.size // 2)

        in10 = tone(10.0)
        bp10 = bandpass(in10, cfg)
        pass_db = response_db(bp10, in10)

        in01 = tone(0.1, seconds=120.0)
        stop_db = response_db(bandpass(in01, cfg), in01)

        in60 = tone(60.0)
        notch_db = response_db(notch(in60, cfg), in60)
        in30 = tone(30.0)
        n30 = notch(in30, cfg)
        keep_db = response_db(n30, in30)

        lag_bp = lag_samples(bp10, in10)
        lag_nt = lag_samples(n30, in30)
        elapsed = time.monotonic() - t0

        ok = (abs(pass_db) <= 1.0 and stop_db <= -40.0 and notch_db <= -30.0
              and abs(keep_db) <= 1.0 and lag_bp == 0 and lag_nt == 0
              and elapsed < 10.0)
        _report(1, ok,
                f"band-pass 10 Hz {pass_db:+.3f} dB, 0.1 Hz {stop_db:.1f} dB; "
                f"notch 60 Hz {notch_db:.1f} dB, 30 Hz {keep_db:+.3f} dB; "
                f"lags {lag_bp}/{lag_nt} samples; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2 — artifact subspace reconstruction
# ---------------------------------------------------------------------------

class TestCriterion2Asr:
    def test_criterion_2_asr_suite(self):
        t0 = time.monotonic()
        cfg = AsrConfig()
        fs = 256.0
        rng = np.random.default_rng(11)
        calib = Recording(data=rng.standard_normal((8, int(60 * fs))),
                          sample_rate_hz=fs)
        model = asr_fit(select_calibration(calib, cfg), cfg)

        clean = Recording(data=rng.standard_normal((8, int(20 * fs))),
                          sample_rate_hz=fs)
        dirty_data = clean.data.copy()
        lo, hi = int(10.0 * fs), int(10.5 * fs)
        burst_ch = [2, 5]
        dirty_data[burst_ch, lo:hi] += 20.0 * rng.standard_normal((2, hi - lo))
        dirty = Recording(data=dirty_data, sample_rate_hz=fs)

        # with thresholds no window can reach, processing is the identity
        no_reject = AsrModel(mixing_M=model.mixing_M,
                             threshold_T=model.threshold_T * 1e6)
        identity_err = float(np.max(np.abs(
            asr_apply(dirty, no_reject).data - dirty.data)))

        out = asr_apply(dirty, model)
        rms_in = _rms(dirty.data[burst_ch, lo:hi])
        rms_out = _rms(out.data[burst_ch, lo:hi])
        attenuation = 1.0 - rms_out / rms_in

        margin = int(1.0 * fs)
        corr_min = 1.0
        for ch in range(8):
            a = np.concatenate([dirty.data[ch, :lo - margin],
                                dirty.data[ch, hi + margin:]])
            b = np.concatenate([out.data[ch, :lo - margin],
                                out.data[ch, hi + margin:]])
            corr_min = min(corr_min, float(np.corrcoef(a, b)[0, 1]))
        elapsed = time.monotonic() - t0

        ok = (identity_err < 1e-9 and attenuation >= 0.90 and corr_min >= 0.95
              and elapsed < 30.0)
        _report(2, ok,
                f"no-rejection identity {identity_err:.2e}; burst RMS "
                f"attenuated {100 * attenuation:.1f}%; clean-segment "
                f"correlation ≥ {corr_min:.4f}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3 — gradient checks for every primitive and the full model
# ---------------------------------------------------------------------------

def _fd_check(build, arrays, rng):
    """Max relative FD error over every input of build(*tensors)."""
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    out = build(*tensors)
    weights = rng.standard_normal(out.data.shape)
    loss = ad.tensor_sum(ad.mul(out, Tensor(weights)))
    loss.backward()

    worst = 0.0
    for tensor in tensors:
        def loss_fn():
            fresh = [Tensor(t.data, requires_grad=False) for t in tensors]
            return float(ad.tensor_sum(ad.mul(build(*fresh), Tensor(weights))).data)
        numeric, idx = numeric_gradient(loss_fn, tensor.data)
        worst = max(worst, max_relative_error(tensor.grad.reshape(-1)[idx],
                                              numeric))
    return worst


def _true_gradient_loss(model, x, y, s, lam_mi=0.7):
    """Task + domain + entropy loss with the domain head reading the latent
    directly. An active reversal layer makes the backward pass deliberately
    differ from the true derivative, so finite differences must bypass it;
    the exact -lambda scaling is asserted separately."""
    rng = np.random.default_rng(42)
    z = model.encoder_forward(Tensor(x), mode="train", rng=rng)
    task = ad.linear(z, model.params["task_w"], model.params["task_b"])
    hidden = ad.elu(ad.linear(z, model.params["dom1_w"], model.params["dom1_b"]))
    dom = ad.linear(hidden, model.params["dom2_w"], model.params["dom2_b"])
    loss = ad.add(ad.softmax_cross_entropy(task, y),
                  ad.softmax_cross_entropy(dom, s))
    return ad.add(loss, ad.mul(ad.entropy_of_softmax(dom),
                               Tensor(np.asarray(lam_mi, dtype=x.dtype))))


class TestCriterion3Autodiff:
    def test_criterion_3_autodiff_suite(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(3)
        r = rng.standard_normal

        # every entry draws its inputs and FD weights from rng in turn, so
        # an entry's shapes fix the draws of all later entries
        ops = [
            ("add", ad.add, [r((3, 4)), r(4)]),
            ("add_negated", lambda a, b: ad.add(a, ad.mul(b, Tensor(-1.0))),
             [r((3, 4)), r((3, 4))]),
            ("mul", ad.mul, [r((3, 4)), r((3, 1))]),
            ("linear_no_bias", lambda a, b: ad.linear(a, b, Tensor(np.zeros(2))),
             [r((3, 5)), r((5, 2))]),
            ("reshape", lambda x: ad.reshape(x, (2, 6)), [r((3, 4))]),
            ("reshape_4x3", lambda x: ad.reshape(x, (4, 3)), [r((3, 4))]),
            ("sum", lambda x: ad.tensor_sum(x, axis=1), [r((4, 5))]),
            ("scaled_sum", lambda x: ad.mul(ad.tensor_sum(x, axis=0), Tensor(0.25)),
             [r((4, 5))]),
            ("elu", ad.elu, [r((3, 4))]),
            ("temporal_conv", ad.temporal_conv, [r((2, 1, 3, 12)), r((4, 5))]),
            ("depthwise_temporal_conv", ad.depthwise_temporal_conv,
             [r((2, 4, 1, 10)), r((4, 3))]),
            ("depthwise_spatial_conv", ad.depthwise_spatial_conv,
             [r((2, 3, 5, 8)), r((3, 2, 5))]),
            ("pointwise_conv", ad.pointwise_conv, [r((2, 6, 1, 7)), r((4, 6))]),
            ("batch_norm_train",
             lambda x, g, b: ad.batch_norm(x, g, b, np.zeros(3), np.ones(3),
                                           training=True),
             [r((4, 3, 2, 5)), r(3), r(3)]),
            ("batch_norm_eval",
             lambda x, g, b: ad.batch_norm(x, g, b, np.full(3, 0.2),
                                           np.full(3, 1.3), training=False),
             [r((4, 3, 2, 5)), r(3), r(3)]),
            ("avg_pool_time", lambda x: ad.avg_pool_time(x, 3),
             [r((2, 3, 2, 9))]),
            ("dropout",
             lambda x: ad.dropout(x, 0.4, np.random.default_rng(99),
                                  training=True), [r((5, 6))]),
            ("linear", ad.linear, [r((4, 6)), r((6, 3)), r(3)]),
            ("softmax_cross_entropy",
             lambda z: ad.softmax_cross_entropy(z, np.array([0, 2, 1, 2])),
             [r((4, 3))]),
            ("entropy_of_softmax", ad.entropy_of_softmax, [r((4, 3))]),
        ]
        worst_op, worst_err = "", 0.0
        for name, build, arrays in ops:
            err = _fd_check(build, arrays, rng)
            if err > worst_err:
                worst_op, worst_err = name, err

        # full model, every parameter, sampled entries
        model = SafModel(EncoderConfig(C=4, M=64, fs=32.0), num_domains=3,
                         seed=0, dtype=np.float64)
        # drawn with the filter axis the encoder once read, so every later
        # draw of rng is unchanged
        x = rng.standard_normal((3, 1, 4, 64))[:, 0]
        y, s = np.array([0, 1, 0]), np.array([0, 2, 1])
        model.zero_grad()
        _true_gradient_loss(model, x, y, s).backward()
        worst_param, worst_param_err = "", 0.0
        for name, p in model.params.items():
            idx = sample_indices(rng, p.data.size, 8)
            numeric, _ = numeric_gradient(
                lambda: float(_true_gradient_loss(model, x, y, s).data), p.data,
                indices=idx)
            grad = np.zeros_like(p.data) if p.grad is None else p.grad  # as Adam
            err = max_relative_error(grad.reshape(-1)[idx], numeric)
            if err > worst_param_err:
                worst_param, worst_param_err = name, err

        # reversal layer: backward is exactly -lambda times the upstream
        grl_exact = True
        for lam in (0.5, 1.0, 2.5):
            xg = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
            upstream = rng.standard_normal((4, 5))
            ad.tensor_sum(ad.mul(ad.grl(xg, lam), Tensor(upstream))).backward()
            grl_exact &= np.array_equal(xg.grad, -lam * upstream)
            grl_exact &= np.array_equal(ad.grl(xg, lam).data, xg.data)
        xs = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        upstream = rng.standard_normal((3, 2))
        out = ad.scale_value_only(xs, 2.5)
        ad.tensor_sum(ad.mul(out, Tensor(upstream))).backward()
        scale_exact = (np.array_equal(out.data, xs.data * 2.5)
                       and np.array_equal(xs.grad, upstream))
        elapsed = time.monotonic() - t0

        ok = (worst_err < 1e-3 and worst_param_err < 1e-3 and grl_exact
              and scale_exact and elapsed < 120.0)
        _report(3, ok,
                f"worst op FD error {worst_err:.2e} ({worst_op}); worst model "
                f"parameter FD error {worst_param_err:.2e} ({worst_param}); "
                f"reversal backward exact: {grl_exact}; value-only scale "
                f"exact: {scale_exact}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4 — channel swap augmentation properties
# ---------------------------------------------------------------------------

def _make_epochs(n, channels, samples, rng, subjects=4, classes=2):
    from safnet.datamodel import Epoch
    return [Epoch(x=rng.standard_normal((channels, samples)).astype(np.float32),
                  y=i % classes, s=f"s{i % subjects:02d}",
                  sample_rate_hz=float(samples))
            for i in range(n)]


class TestCriterion4Isbcs:
    def test_criterion_4_isbcs_suite(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(4)
        batch = _make_epochs(64, 6, 32, rng)

        # row i of the augmented batch keeps batch[i]'s label and subject
        x0, _ = isbcs_augment_batch(batch, SwapConfig(p=0.0),
                                    np.random.default_rng(0))
        identity = all(np.array_equal(row, ep.x) for row, ep in zip(x0, batch))

        x1, recs1 = isbcs_augment_batch(batch, SwapConfig(p=1.0),
                                        np.random.default_rng(1))
        full_exchange = all(
            rec.pair[0] == rec.pair[1] or (
                bool(rec.swapped_channels.all())
                and np.array_equal(x1[rec.pair[0]], batch[rec.pair[1]].x)
                and np.array_equal(x1[rec.pair[1]], batch[rec.pair[0]].x))
            for rec in recs1)

        xh, recsh = isbcs_augment_batch(batch, SwapConfig(p=0.5),
                                        np.random.default_rng(2))
        labels_kept = all(batch[rec.pair[0]].y == batch[rec.pair[1]].y
                          for rec in recsh)
        conserved = True
        for cls in (0, 1):
            before = sorted(ep.x[c].tobytes() for ep in batch if ep.y == cls
                            for c in range(6))
            after = sorted(xh[i, c].tobytes() for i, ep in enumerate(batch)
                           if ep.y == cls for c in range(6))
            conserved &= before == after

        mc_batch = _make_epochs(20000, 8, 4, np.random.default_rng(5),
                                classes=1)
        _, recs = isbcs_augment_batch(mc_batch, SwapConfig(p=0.5),
                                      np.random.default_rng(6))
        masks = [rec.swapped_channels for rec in recs
                 if rec.pair[0] != rec.pair[1]]
        n_pairs = len(masks)
        fraction = float(np.concatenate(masks).mean())
        elapsed = time.monotonic() - t0

        ok = (identity and full_exchange and labels_kept and conserved
              and n_pairs == 10000 and 0.49 <= fraction <= 0.51
              and elapsed < 30.0)
        _report(4, ok,
                f"p=0 identity: {identity}; p=1 full exchange: "
                f"{full_exchange}; labels preserved: {labels_kept}; channels "
                f"conserved per class: {conserved}; swap fraction "
                f"{fraction:.4f} over {n_pairs} pairs; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5 — metric implementations against brute-force oracles
# ---------------------------------------------------------------------------

def _oracle_macro(y_true, y_pred):
    per_class = {}
    for c in (0, 1):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        recall = tp / (tp + fn) if tp + fn else 0.0
        precision = tp / (tp + fp) if tp + fp else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class[c] = (precision, recall, f1)
    prec = (per_class[0][0] + per_class[1][0]) / 2
    rec = (per_class[0][1] + per_class[1][1]) / 2
    f1 = (per_class[0][2] + per_class[1][2]) / 2
    return rec, prec, rec, f1


def _oracle_silhouette(features, labels):
    n = len(features)
    scores = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(features[i] - features[j]) for j in same])
        b = min(
            np.mean([np.linalg.norm(features[i] - features[j])
                     for j in range(n) if labels[j] == lab])
            for lab in set(labels) if lab != labels[i])
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


class TestCriterion5MetricOracles:
    def test_criterion_5_metric_oracles(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(5)
        macro_exact = 0
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            y_true = rng.integers(0, 2, n).tolist()
            y_pred = rng.integers(0, 2, n).tolist()
            got = macro_metrics(confusion(y_true, y_pred))
            macro_exact += got == _oracle_macro(y_true, y_pred)

        sil_worst = 0.0
        sil_cases = 0
        while sil_cases < 30:
            n = int(rng.integers(5, 51))
            feats = rng.standard_normal((n, 3))
            labels = rng.integers(0, 3, n)
            if np.unique(labels).size < 2:
                continue
            sil_cases += 1
            sil_worst = max(sil_worst, abs(
                silhouette(feats, labels) - _oracle_silhouette(feats, labels)))
        elapsed = time.monotonic() - t0

        ok = macro_exact == 1000 and sil_worst <= 1e-12
        _report(5, ok,
                f"macro metrics exactly equal on {macro_exact}/1000 random "
                f"label vectors; silhouette vs O(n^2) oracle worst diff "
                f"{sil_worst:.2e} over {sil_cases} cases (n ≤ 50); "
                f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6 — lambda grid values
# ---------------------------------------------------------------------------

class TestCriterion6LambdaGrid:
    @staticmethod
    def truncated_rationals(n):
        lo, hi = Fraction(1, 1000), Fraction(10)
        out = set()
        for i in range(n):
            exact = lo + i * (hi - lo) / (n - 1)
            out.add(Fraction(math.floor(exact * 1000), 1000))
        return out

    def test_criterion_6_lambda_grid(self):
        grid10 = make_lambda_grid(n=10)
        grid25 = make_lambda_grid(n=25)
        # the float grid must agree with the exact rational grid
        lo, hi = Fraction(1, 1000), Fraction(10)
        drift10 = max(abs(v - float(lo + i * (hi - lo) / 9))
                      for i, v in enumerate(grid10))
        drift25 = max(abs(v - float(lo + i * (hi - lo) / 24))
                      for i, v in enumerate(grid25))

        t10 = self.truncated_rationals(10)
        t25 = self.truncated_rationals(25)
        want10 = {Fraction(1112, 1000), Fraction(4445, 1000),
                  Fraction(8889, 1000)}
        want25 = {Fraction(417, 1000), Fraction(1667, 1000),
                  Fraction(2084, 1000)}
        ok = (want10 <= t10 and want25 <= t25
              and drift10 < 1e-12 and drift25 < 1e-12
              and len(grid10) == 10 and len(grid25) == 25)
        _report(6, ok,
                f"10-point grid covers {sorted(float(v) for v in want10)} and "
                f"25-point grid covers {sorted(float(v) for v in want25)} at "
                f"3 decimals; float drift {max(drift10, drift25):.1e}")


# ---------------------------------------------------------------------------
# synthetic benchmark shared by criteria 7 and 8
# ---------------------------------------------------------------------------

BENCH_PIPE = PipelineConfig(band_lo_hz=1.0, band_hi_hz=45.0, notch_hz=(60.0,),
                            target_rate_hz=128.0, epoch_seconds=2.0)
BENCH_ASR = AsrConfig()
BENCH_SUBJECTS = 4


def benchmark_epochs(gen_seed, bias_strength):
    """All preprocessed epochs of one benchmark dataset, grouped in memory."""
    cfg = SynthConfig(
        subjects=BENCH_SUBJECTS, channels=6, fs=128.0, duration_s=120.0,
        class_signature=((1.0,) * 5, (1.7, 1.7, 1.7, 1.0, 1.0)),
        subject_bias_strength=bias_strength, line_noise_amp=0.5,
        artifact_rate_per_min=1.0, artifact_gain=6.0, seed=gen_seed)
    return generate_epochs(cfg, BENCH_PIPE, BENCH_ASR)


def loso_split(epochs, held_out, seed):
    """Held-out subject becomes the test set; the rest split 85/15."""
    subject = f"s{held_out:02d}"
    test = [ep for ep in epochs if ep.s == subject]
    pool = [ep for ep in epochs if ep.s != subject]
    rng = np.random.default_rng(seed)
    train, val = [], []
    for s in sorted({ep.s for ep in pool}):
        sub = [ep for ep in pool if ep.s == s]
        order = rng.permutation(len(sub))
        n_val = max(1, round(0.15 * len(sub)))
        val.extend(sub[k] for k in order[:n_val])
        train.extend(sub[k] for k in order[n_val:])
    return train, val, test


# ---------------------------------------------------------------------------
# criterion 7 — augmentation collapses between-subject separability
# ---------------------------------------------------------------------------

class TestCriterion7SwapFstat:
    def test_criterion_7_swap_f_statistic(self):
        t0 = time.monotonic()
        bands = clip_bands(BandDefinition(), 64.0)
        raw_fs, aug_fs = [], []
        for seed in range(5):
            epochs = benchmark_epochs(gen_seed=seed, bias_strength=1.0)
            feats = log_band_power_features([ep.x for ep in epochs], 128.0,
                                            bands)
            raw_fs.append(f_statistic(feats, [ep.s for ep in epochs]))
            augmented, _ = isbcs_augment_batch(epochs, SwapConfig(p=0.5),
                                               np.random.default_rng(seed))
            feats = log_band_power_features(augmented, 128.0, bands)
            aug_fs.append(f_statistic(feats, [ep.s for ep in epochs]))
        ratio = float(np.mean(aug_fs) / np.mean(raw_fs))
        elapsed = time.monotonic() - t0

        ok = ratio <= 0.20 and elapsed < 300.0
        _report(7, ok,
                f"between-subject F {np.mean(raw_fs):.1f} unaugmented vs "
                f"{np.mean(aug_fs):.1f} after swaps (5-seed means), ratio "
                f"{ratio:.3f} ≤ 0.20; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8 — leave-one-subject-out generalization study
# ---------------------------------------------------------------------------

def _run_config(train_eps, val_eps, test_eps, p, lam_mi, lam_grl, seed):
    cfg = TrainConfig(batch_size=32, min_epochs=10, max_epochs=25, patience=5,
                      seed=seed, swap=SwapConfig(p=p))
    weights = LossWeights(lambda_mi=lam_mi, lambda_grl=lam_grl)
    enc = EncoderConfig(C=train_eps[0].channels, M=train_eps[0].samples,
                        fs=train_eps[0].sample_rate_hz)
    model = SafModel(enc, num_domains=BENCH_SUBJECTS - 1, seed=seed)
    model, _ = fit(train_eps, val_eps, model, cfg, weights)
    return evaluate_macro_accuracy(model, test_eps)


class TestCriterion8Loso:
    def test_criterion_8_leave_one_subject_out(self):
        t0 = time.monotonic()
        epochs = benchmark_epochs(gen_seed=0, bias_strength=1.5)

        # coarse 5x5 grid on the first fold picks the lambda pair
        tr, va, _ = loso_split(epochs, 0, seed=0)
        enc = EncoderConfig(C=6, M=tr[0].samples, fs=128.0)
        grid_cfg = TrainConfig(batch_size=32, min_epochs=10, max_epochs=25,
                               patience=5, seed=0, swap=SwapConfig(p=0.5))
        best, _ = grid_search(tr, va, enc, grid_cfg, n_mi=5, n_grl=5,
                              budget_epochs=8, jobs=2)

        results = {"baseline": [], "isbcs": [], "dal": [], "combined": []}
        for seed in range(5):
            tr, va, te = loso_split(epochs, seed % BENCH_SUBJECTS, seed=seed)
            results["baseline"].append(
                _run_config(tr, va, te, 0.0, 0.0, 0.0, seed))
            results["isbcs"].append(
                _run_config(tr, va, te, 0.5, 0.0, 0.0, seed))
            results["dal"].append(
                _run_config(tr, va, te, 0.0, best.lambda_mi, best.lambda_grl,
                            seed))
            results["combined"].append(
                _run_config(tr, va, te, 0.5, best.lambda_mi, best.lambda_grl,
                            seed))
        means = {k: float(np.mean(v)) for k, v in results.items()}
        gain = means["combined"] - means["baseline"]
        ordered = (means["baseline"]
                   <= max(means["isbcs"], means["dal"])
                   <= means["combined"])
        elapsed = time.monotonic() - t0

        ok = gain >= 0.05 and ordered and elapsed < 1800.0
        _report(8, ok,
                f"5-seed mean macro-accuracy: baseline {means['baseline']:.3f}"
                f", swap-only {means['isbcs']:.3f}, adversarial-only "
                f"{means['dal']:.3f}, combined {means['combined']:.3f} "
                f"(lambda_mi={best.lambda_mi:.3f}, "
                f"lambda_grl={best.lambda_grl:.3f}); gain "
                f"{100 * gain:+.1f} points ≥ +5; ablation ordering holds: "
                f"{ordered}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9 — byte-identical command-line runs
# ---------------------------------------------------------------------------

CLI_CONFIG = """\
[synth]
subjects = 2
channels = 3
fs = 256
duration_s = 20
seed = 5
line_noise_amp = 0.5
artifact_rate_per_min = 1.0

[pipeline]
band_lo_hz = 1.0
band_hi_hz = 100.0
notch_hz = 60
target_rate_hz = 256.0
epoch_seconds = 2.0

[train]
max_epochs = 2
min_epochs = 1
batch_size = 16
seed = 1

[swap]
p = 0.5
"""


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestCriterion9Determinism:
    def test_criterion_9_cli_determinism(self, tmp_path):
        t0 = time.monotonic()
        config = str(tmp_path / "config.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(CLI_CONFIG)
        rng = np.random.default_rng(9)
        raw = str(tmp_path / "raw.safr")
        write_recording(Recording(data=rng.standard_normal((3, 8 * 256)),
                                  sample_rate_hz=256.0), raw)

        outcomes = {}

        def twice(name, args_fn, outputs_fn):
            dirs = [str(tmp_path / f"{name}_{run}") for run in "ab"]
            for d in dirs:
                os.makedirs(d, exist_ok=True)
                assert main(args_fn(d)) == 0, name
            a, b = (outputs_fn(d) for d in dirs)
            outcomes[name] = a == b and len(a) > 0
            return dirs[0]

        data = twice("synth",
                     lambda d: ["synth", "--config", config, "--out", d],
                     _dir_bytes)
        manifest = os.path.join(data, "manifest.csv")
        twice("preprocess",
              lambda d: ["preprocess", "--config", config, "--in", raw,
                         "--subject", "s00", "--class", "0", "--out", d],
              _dir_bytes)
        model_dir = twice(
            "train",
            lambda d: ["train", "--config", config, "--manifest", manifest,
                       "--lambda-mi", "0.1", "--lambda-grl", "0.2",
                       "--out", os.path.join(d, "model.safm"),
                       "--log", os.path.join(d, "train.csv")],
            _dir_bytes)
        model = os.path.join(model_dir, "model.safm")
        twice("grid",
              lambda d: ["grid", "--config", config, "--manifest", manifest,
                         "--out", os.path.join(d, "grid.csv"),
                         "--n-mi", "2", "--n-grl", "2", "--budget", "1"],
              _dir_bytes)
        twice("eval",
              lambda d: ["eval", "--model", model, "--manifest", manifest,
                         "--split", "test",
                         "--out", os.path.join(d, "metrics.csv")],
              _dir_bytes)
        twice("analyze",
              lambda d: ["analyze", "--manifest", manifest, "--out", d],
              _dir_bytes)
        elapsed = time.monotonic() - t0

        ok = all(outcomes.values())
        detail = ", ".join(f"{k}: {'identical' if v else 'DIFFERS'}"
                           for k, v in outcomes.items())
        _report(9, ok, f"repeated runs byte-identical — {detail}; "
                       f"{elapsed:.1f}s")
