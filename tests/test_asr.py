import numpy as np
import pytest

from safnet.asr import (
    AsrConfig,
    AsrModel,
    asr_apply,
    asr_fit,
    select_calibration,
)
from safnet.datamodel import Recording
from safnet.dsp import PipelineConfig, bandpass, notch, preprocess_pipeline
from safnet.errors import ValidationError


def noise_rec(c, seconds, fs, seed, mix=None):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((c, int(seconds * fs)))
    if mix is not None:
        data = mix @ data
    return Recording(data=data, sample_rate_hz=float(fs))


class TestSelectCalibration:
    cfg = AsrConfig()

    def test_stationary_noise_keeps_most_windows(self):
        for seed in range(5):
            rec = noise_rec(4, 60, 128, seed)
            out = select_calibration(rec, self.cfg)
            kept = out.samples // 128
            assert kept >= 55, (seed, kept)

    def test_scaled_window_excluded(self):
        rec = noise_rec(4, 60, 128, 11)
        data = rec.data.copy()
        w = 128  # 1 s calibration windows
        data[:, 7 * w:8 * w] *= 50.0
        loud = Recording(data=data, sample_rate_hz=128.0)
        out = select_calibration(loud, self.cfg)
        assert out.samples <= 59 * w
        # the x50 window's content must not appear in the output
        needle = data[0, 7 * w]
        assert not np.any(out.data[0] == needle)

    def test_fallback_below_min_windows(self):
        rec = noise_rec(2, 10, 128, 3)
        out = select_calibration(rec, self.cfg)
        assert out is rec


class TestAsrFit:
    cfg = AsrConfig()

    def test_white_noise_mixing_near_identity(self):
        rec = Recording(
            data=np.random.default_rng(0).standard_normal((4, 50000)),
            sample_rate_hz=256.0,
        )
        model = asr_fit(rec, self.cfg)
        assert np.linalg.norm(model.mixing_M - np.eye(4)) < 0.1

    def test_homogeneous_degree_one(self):
        rec = noise_rec(4, 30, 128, 5)
        doubled = Recording(data=2.0 * rec.data, sample_rate_hz=128.0)
        m1 = asr_fit(rec, self.cfg)
        m2 = asr_fit(doubled, self.cfg)
        assert np.allclose(m2.mixing_M, 2.0 * m1.mixing_M, rtol=1e-9, atol=1e-12)
        assert np.allclose(np.abs(m2.threshold_T), 2.0 * np.abs(m1.threshold_T),
                           rtol=1e-9, atol=1e-12)

    def test_single_channel_constant_variance(self):
        fs = 256.0
        t = np.arange(int(fs * 30)) / fs
        rec = Recording(data=np.sin(2 * np.pi * 16.0 * t)[None, :], sample_rate_hz=fs)
        model = asr_fit(rec, self.cfg)
        rms = 1.0 / np.sqrt(2.0)
        assert model.threshold_T.shape == (1, 1)
        assert abs(abs(model.threshold_T[0, 0]) - rms) < 1e-3

    def test_rank_deficient_warns(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((2, 4000))
        data = np.vstack([base, base[0] + base[1]])
        rec = Recording(data=data, sample_rate_hz=128.0)
        with pytest.warns(RuntimeWarning):
            asr_fit(rec, self.cfg)

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            asr_fit(noise_rec(2, 0.6, 128, 0), self.cfg)


class TestAsrApply:
    cfg = AsrConfig()

    def fit_on_noise(self, c=8, fs=256.0, seed=0):
        calib = noise_rec(c, 60, fs, seed)
        return calib, asr_fit(calib, self.cfg)

    def test_clean_data_near_identity(self):
        calib, model = self.fit_on_noise()
        out = asr_apply(calib, model, self.cfg)
        rel = np.sqrt(np.mean((out.data - calib.data) ** 2) / np.mean(calib.data**2))
        assert rel < 0.01

    def test_unreachable_threshold_is_exact_identity(self):
        calib, model = self.fit_on_noise(seed=2)
        huge = AsrModel(mixing_M=model.mixing_M,
                        threshold_T=model.threshold_T * 1e6,
                        channels=model.channels)
        out = asr_apply(calib, huge, self.cfg)
        assert np.max(np.abs(out.data - calib.data)) < 1e-9

    def burst_setup(self, seed=4):
        fs = 256.0
        calib, model = self.fit_on_noise(fs=fs, seed=seed)
        rec = noise_rec(8, 20, fs, seed + 100)
        data = rec.data.copy()
        rng = np.random.default_rng(seed + 200)
        lo, hi = int(10.0 * fs), int(10.5 * fs)
        burst_ch = [2, 5]
        data[burst_ch, lo:hi] += 20.0 * rng.standard_normal((2, hi - lo))
        return Recording(data=data, sample_rate_hz=fs), rec, model, (lo, hi), burst_ch

    def test_burst_attenuated_and_clean_preserved(self):
        dirty, clean, model, (lo, hi), burst_ch = self.burst_setup()
        out = asr_apply(dirty, model, self.cfg)
        rms_in = np.sqrt(np.mean(dirty.data[burst_ch, lo:hi] ** 2))
        rms_out = np.sqrt(np.mean(out.data[burst_ch, lo:hi] ** 2))
        assert rms_out <= 0.1 * rms_in
        # away from the burst (and the windows overlapping it) the signal survives
        fs = 256
        margin = int(1.0 * fs)
        for ch in range(8):
            a = np.concatenate([dirty.data[ch, :lo - margin], dirty.data[ch, hi + margin:]])
            b = np.concatenate([out.data[ch, :lo - margin], out.data[ch, hi + margin:]])
            corr = np.corrcoef(a, b)[0, 1]
            assert corr >= 0.95, (ch, corr)

    def test_idempotent_on_reconstructed_signal(self):
        dirty, _, model, _, _ = self.burst_setup(seed=6)
        once = asr_apply(dirty, model, self.cfg)
        twice = asr_apply(once, model, self.cfg)
        r1 = np.sqrt(np.mean(once.data**2))
        r2 = np.sqrt(np.mean(twice.data**2))
        assert abs(r2 - r1) / r1 < 0.01

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        mix = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        calib = noise_rec(5, 40, 128, 8, mix=mix)
        rec = noise_rec(5, 10, 128, 9, mix=mix)
        data = rec.data.copy()
        data[1, 300:364] += 30.0
        rec = Recording(data=data, sample_rate_hz=128.0)

        perm = np.array([3, 0, 4, 1, 2])
        calib_p = Recording(data=calib.data[perm], sample_rate_hz=128.0)
        rec_p = Recording(data=rec.data[perm], sample_rate_hz=128.0)

        out = asr_apply(rec, asr_fit(calib, self.cfg), self.cfg)
        out_p = asr_apply(rec_p, asr_fit(calib_p, self.cfg), self.cfg)
        assert np.allclose(out_p.data, out.data[perm], atol=1e-6)

    def test_channel_mismatch_rejected(self):
        _, model = self.fit_on_noise(c=4)
        with pytest.raises(ValidationError):
            asr_apply(noise_rec(5, 2, 256, 1), model, self.cfg)


class TestPipelineIntegration:
    def test_burst_removed_inside_pipeline(self):
        fs = 512.0
        cfg = PipelineConfig()
        acfg = AsrConfig()
        rng = np.random.default_rng(21)
        calib_raw = Recording(data=rng.standard_normal((6, int(60 * fs))),
                              sample_rate_hz=fs)
        calib = notch(bandpass(calib_raw, cfg), cfg)
        model = asr_fit(select_calibration(calib, acfg), acfg)

        raw = rng.standard_normal((6, int(30 * fs)))
        lo, hi = int(12.2 * fs), int(12.7 * fs)
        raw[[1, 4], lo:hi] += 20.0 * rng.standard_normal((2, hi - lo))
        rec = Recording(data=raw, sample_rate_hz=fs)

        plain = preprocess_pipeline(rec, cfg, y=0, s="a")
        cleaned = preprocess_pipeline(rec, cfg, asr_model=model, y=0, s="a",
                                      asr_config=acfg)
        cat0 = np.concatenate([ep.x for ep in plain], axis=1)
        cat1 = np.concatenate([ep.x for ep in cleaned], axis=1)
        rms0 = np.sqrt(np.mean(cat0[[1, 4], lo:hi] ** 2))
        rms1 = np.sqrt(np.mean(cat1[[1, 4], lo:hi] ** 2))
        assert rms1 <= 0.1 * rms0
