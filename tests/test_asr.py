import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safnet.asr import (
    CERT_SAFETY,
    PINV_RCOND,
    PROC_OVERLAP,
    PROC_WINDOW_S,
    AsrConfig,
    AsrModel,
    _certified,
    _overlap_add,
    asr_apply,
    asr_fit,
    select_calibration,
)
from safnet.datamodel import Recording
from safnet.dsp import (
    PipelineConfig,
    bandpass,
    filter_recording,
    notch,
    preprocess_pipeline,
    resample,
)
from safnet.errors import ValidationError


def noise_rec(c, seconds, fs, seed, mix=None):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((c, int(seconds * fs)))
    if mix is not None:
        data = mix @ data
    return Recording(data=data, sample_rate_hz=float(fs))


def loop_covariances(rec):
    """Each processing window's covariance, one window at a time."""
    width = int(round(PROC_WINDOW_S * rec.sample_rate_hz))
    hop = max(1, int(round(width * (1.0 - PROC_OVERLAP))))
    return np.stack([xw @ xw.T / xw.shape[1]
                     for xw in (rec.data[:, start:start + width]
                                for start in range(0, rec.samples, hop))])


def eigh_rejects(covs, thresh):
    """Per window, whether the full eigh test rejects any component."""
    evals, evecs = np.linalg.eigh(covs)
    return np.any(evals > np.sum((thresh @ evecs) ** 2, axis=1), axis=1)


def loop_asr_apply(rec, model):
    """The one-window-at-a-time loop the batched asr_apply replaced. Returns
    the cleaned data and the number of windows that rejected a component."""
    width = int(round(PROC_WINDOW_S * rec.sample_rate_hz))
    hop = max(1, int(round(width * (1.0 - PROC_OVERLAP))))
    n = rec.samples
    taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * (np.arange(width) + 0.5) / width)
    out = np.zeros_like(rec.data, dtype=np.float64)
    norm = np.zeros(n, dtype=np.float64)
    rejecting = 0
    for start in range(0, n, hop):
        stop = min(start + width, n)
        xw = rec.data[:, start:stop]
        cov = xw @ xw.T / xw.shape[1]
        evals, evecs = np.linalg.eigh(cov)
        limits = np.sum((model.threshold_T @ evecs) ** 2, axis=0)
        rejected = evals > limits
        if np.any(rejected):
            rejecting += 1
            a = evecs.T @ model.mixing_M
            a[rejected, :] = 0.0
            recon = model.mixing_M @ np.linalg.pinv(a, rcond=PINV_RCOND) @ evecs.T
            yw = recon @ xw
        else:
            yw = xw
        w = taper[: stop - start]
        out[:, start:stop] += yw * w
        norm[start:stop] += w
    out /= norm
    return out, rejecting


class TestAsrConfig:
    @pytest.mark.parametrize("cutoff_k", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_cutoff_that_is_not_finite_and_positive_rejected(self, cutoff_k):
        """Refused when built, not later in asr_fit as non-finite thresholds."""
        with pytest.raises(ValidationError, match="cutoff_k must be finite and "
                                                  "positive"):
            AsrConfig(cutoff_k=cutoff_k)


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
        out = asr_apply(calib, model)
        rel = np.sqrt(np.mean((out.data - calib.data) ** 2) / np.mean(calib.data**2))
        assert rel < 0.01

    def test_unreachable_threshold_is_exact_identity(self):
        calib, model = self.fit_on_noise(seed=2)
        huge = AsrModel(mixing_M=model.mixing_M,
                        threshold_T=model.threshold_T * 1e6)
        out = asr_apply(calib, huge)
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
        out = asr_apply(dirty, model)
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
        once = asr_apply(dirty, model)
        twice = asr_apply(once, model)
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

        out = asr_apply(rec, asr_fit(calib, self.cfg))
        out_p = asr_apply(rec_p, asr_fit(calib_p, self.cfg))
        assert np.allclose(out_p.data, out.data[perm], atol=1e-6)

    def test_channel_mismatch_rejected(self):
        _, model = self.fit_on_noise(c=4)
        with pytest.raises(ValidationError):
            asr_apply(noise_rec(5, 2, 256, 1), model)


class TestBatchedApply:
    """asr_apply against the per-window loop it replaced."""

    @staticmethod
    def setup(seconds, seed, artifacts, channels=6):
        fs = 128.0
        model = asr_fit(noise_rec(channels, 60, fs, seed), AsrConfig())
        data = noise_rec(channels, seconds, fs, seed + 1).data
        if artifacts:
            rng = np.random.default_rng(seed + 2)
            rows = [0] if channels == 1 else [1, 4]
            # bursts through the recording, the last one in the short windows
            # at its end
            for start in [*range(200, data.shape[1] - 100, 1000), data.shape[1] - 40]:
                data[rows, start:start + 48] += 30.0 * rng.standard_normal(
                    (len(rows), data[:, start:start + 48].shape[1]))
        return Recording(data=data, sample_rate_hz=fs), model

    @staticmethod
    def assert_matches_loop(rec, model):
        """asr_apply's bytes are the loop's; returns how many windows the
        certificate passed and how many rejected a component."""
        expected, rejecting = loop_asr_apply(rec, model)
        got = asr_apply(rec, model).data
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        return int(_certified(loop_covariances(rec), model.threshold_T).sum()), rejecting

    @pytest.mark.parametrize("artifacts", [False, True])
    def test_bit_identical_at_default_config(self, artifacts):
        rec, model = self.setup(120, 30, artifacts)
        expected, rejecting = loop_asr_apply(rec, model)
        assert (rejecting > 0) == artifacts
        got = asr_apply(rec, model).data
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.75])
    @pytest.mark.parametrize("seconds", [20, 20.3])  # 20.3 s is not a whole hop
    def test_matches_loop_at_other_overlaps(self, overlap, seconds):
        """The blend against adding the windows one after the other, at the
        hops of other overlaps. At 0.75 every sample sums four windows, so
        this checks that the blend adds them in window order."""
        fs, width = 128.0, int(round(PROC_WINDOW_S * 128.0))
        n = int(round(seconds * fs))
        hop = max(1, int(round(width * (1.0 - overlap))))
        x = np.random.default_rng(40).standard_normal((6, n))
        taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * (np.arange(width) + 0.5) / width)
        starts = range(0, n, hop)
        frames = np.zeros((len(starts), 6, width))
        expected = np.zeros((6, n))
        for k, start in enumerate(starts):
            xw = x[:, start:start + width] * taper[:n - start]
            frames[k, :, :xw.shape[1]] = xw
            expected[:, start:start + width] += xw
        got = _overlap_add(frames, hop, n)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("channels", [1, 16])
    def test_bit_identical_at_other_channel_counts(self, channels):
        rec, model = self.setup(60, 31, True, channels=channels)
        certified, rejecting = self.assert_matches_loop(rec, model)
        assert certified > 0 and rejecting > 0

    def test_filtered_recording_with_reversed_time_stride(self):
        """filter_recording hands back sosfiltfilt's time-reversed view; the
        covariances of its strided windows are the loop's."""
        cfg = PipelineConfig(band_lo_hz=1.0, band_hi_hz=45.0, notch_hz=(60.0,),
                             target_rate_hz=128.0, epoch_seconds=2.0)
        calib = filter_recording(noise_rec(6, 60, 256.0, 60), cfg)
        raw = noise_rec(6, 60, 256.0, 61).data
        raw[[0, 3], 3000:3300] += 40.0 * np.random.default_rng(62).standard_normal((2, 300))
        rec = filter_recording(Recording(data=raw, sample_rate_hz=256.0), cfg)
        assert rec.data.strides[1] < 0
        model = asr_fit(select_calibration(calib, AsrConfig()), AsrConfig())
        certified, rejecting = self.assert_matches_loop(rec, model)
        assert certified > 0 and rejecting > 0

    def test_flat_calibration_channel_certifies_nothing(self):
        """A flat calibration channel gives a zero threshold row: T is
        singular, so every window goes through eigh."""
        calib = noise_rec(6, 60, 128.0, 70)
        calib.data[2] = 0.0
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            model = asr_fit(calib, AsrConfig())
        rec, _ = self.setup(30, 71, True)
        certified, rejecting = self.assert_matches_loop(rec, model)
        assert certified == 0 and rejecting > 0

    def test_windows_on_both_sides_of_the_certificate_edge(self):
        """A tone along an eigenvector u of G = T^T T whose window variance
        ramps from 0.98 to 1.02 of u's limit |T u|^2: the windows below the
        limit pass the certificate by a hair, the ones above reject."""
        fs = 128.0
        model = asr_fit(noise_rec(6, 60, fs, 80), AsrConfig())
        g, vecs = np.linalg.eigh(model.threshold_T.T @ model.threshold_T)
        n = int(30 * fs)
        t = np.arange(n) / fs
        ratio = np.linspace(0.98, 1.02, n)
        tone = np.sqrt(2.0 * g[2] * ratio) * np.sin(2.0 * np.pi * 8.0 * t)
        data = (np.outer(vecs[:, 2], tone)
                + 1e-4 * np.random.default_rng(81).standard_normal((6, n)))
        rec = Recording(data=data, sample_rate_hz=fs)
        covs = loop_covariances(rec)
        passed = _certified(covs, model.threshold_T)
        rejects = eigh_rejects(covs, model.threshold_T)
        assert passed.sum() > 50 and rejects.sum() > 50
        assert not np.any(passed & rejects)
        # passed windows run right up to the first rejecting one
        assert np.flatnonzero(passed).max() + 3 >= np.flatnonzero(rejects).min()
        self.assert_matches_loop(rec, model)

    def test_recording_shorter_than_a_window(self):
        rec, model = self.setup(0.3, 50, False)  # 38 samples, width 64
        expected, _ = loop_asr_apply(rec, model)
        np.testing.assert_allclose(asr_apply(rec, model).data, expected,
                                   rtol=1e-12, atol=1e-12)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestCertificate:
    """A window _certified passes rejects no component under the full eigh
    test."""

    WINDOWS = 48

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           log_kappa=st.floats(0.0, 2.5), log_scale=st.floats(-3.0, 3.0))
    def test_passed_windows_reject_nothing(self, n, seed, log_kappa, log_scale):
        """T = Q1 diag(s) Q2 with cond(T) up to 10^2.5. Half the windows are
        A A^T of random rank scaled to a Frobenius bound F in [0.5, 1.5]; the
        other half lie along an eigenvector u of G = T^T T, at a variance
        within 1 % of u's limit, down to the margin itself and to a few ulps,
        where a pass that should not be would reject."""
        rng = np.random.default_rng(seed)
        s = 10.0 ** rng.uniform(0.0, log_kappa, n)
        s[0], s[-1] = 1.0, 10.0 ** log_kappa
        thresh = (10.0 ** log_scale * random_orthogonal(rng, n) @ np.diag(s)
                  @ random_orthogonal(rng, n))
        kappa = np.linalg.cond(thresh)
        delta = CERT_SAFETY * n**3 * np.finfo(np.float64).eps * kappa**3
        assert delta < 1e-3

        half = self.WINDOWS // 2
        inv = np.linalg.inv(thresh)
        bound = rng.uniform(0.5, 1.5, half)
        covs = []
        for f in bound:
            a = rng.standard_normal((n, rng.integers(1, n + 2)))
            c = a @ a.T
            covs.append(c * f / np.linalg.norm(inv.T @ c @ inv))
        g, vecs = np.linalg.eigh(thresh.T @ thresh)
        eps = np.finfo(np.float64).eps
        for k in range(half):
            i = rng.integers(n)
            if k % 2:
                # offsets from the margin itself up to 1 %
                offset = 10.0 ** rng.uniform(np.log10(delta), -2.0)
                edge = 1.0 - offset * rng.uniform(-1.0, 3.0)
            else:
                # a few ulps from the limit, inside the margin, where only
                # rounding decides the eigh test
                edge = 1.0 + eps * rng.integers(-8, 9)
            covs.append(edge * g[i] * np.outer(vecs[:, i], vecs[:, i]))
        covs = np.stack(covs)

        passed = _certified(covs, thresh)
        assert not np.any(passed & eigh_rejects(covs, thresh))
        assert passed[:half][bound <= 0.99].all()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           row=st.integers(0, 7))
    def test_zero_threshold_row_passes_nothing(self, n, seed, row):
        rng = np.random.default_rng(seed)
        thresh = rng.standard_normal((n, n))
        thresh[row % n] = 0.0
        a = rng.standard_normal((self.WINDOWS, n, n))
        covs = 1e-6 * a @ a.transpose(0, 2, 1)
        covs[0] = 0.0
        assert not _certified(covs, thresh).any()


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

    def test_channel_names_survive_every_derived_recording(self):
        """resample, bandpass, notch, select_calibration and asr_apply each
        return a recording with the input's channel names; resample alone
        changes the rate."""
        names = ("Fz", "Cé3", "Pz")
        cfg, acfg = PipelineConfig(), AsrConfig()
        rng = np.random.default_rng(22)
        data = rng.standard_normal((3, int(60 * 1024.0)))
        data[:, 1024:2048] *= 100.0  # one artifact window for calibration to drop
        rec = Recording(data=data, sample_rate_hz=1024.0, channel_names=names)
        steps = [resample(rec, cfg.target_rate_hz)]
        steps.append(bandpass(steps[-1], cfg))
        steps.append(notch(steps[-1], cfg))
        calib = select_calibration(steps[-1], acfg)
        assert calib.samples < steps[-1].samples
        steps += [calib, asr_apply(steps[-1], asr_fit(calib, acfg))]
        for out in steps:
            assert out.channel_names == names
            assert out.sample_rate_hz == cfg.target_rate_hz
