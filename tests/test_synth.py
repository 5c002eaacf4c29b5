import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from safnet import synth
from safnet.asr import AsrConfig
from safnet.datamodel import EpochSet, load_manifest, split_dataset
from safnet.dsp import PipelineConfig, window_samples
from safnet.errors import ValidationError
from safnet.metrics import (
    DEFAULT_BANDS,
    BandDefinition,
    band_power,
    f_statistic,
    silhouette,
    welch_psd,
)
from safnet.synth import SynthConfig, generate_dataset, generate_subject_recording


def quiet_cfg(**kw):
    """No line noise, no artifacts, no subject bias unless overridden."""
    base = dict(subjects=2, channels=3, fs=256.0, duration_s=30.0,
                subject_bias_strength=0.0, line_noise_amp=0.0,
                artifact_rate_per_min=0.0, seed=0)
    base.update(kw)
    return SynthConfig(**base)


def per_band_recording(cfg, subject, y):
    """generate_subject_recording as it was written band by band: each band
    is its own rfft, masked and inverted on its own, and added into x."""
    mixing_noise, band_tilt, line_gain, line_phase = synth._subject_draws(cfg, subject)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, subject, y]))
    beta = cfg.subject_bias_strength
    c = cfg.channels
    n = window_samples(cfg.duration_s, cfg.fs, "duration_s")
    x = np.zeros((c, n))
    for b, (_, lo, hi) in enumerate(DEFAULT_BANDS):
        hi = min(hi, cfg.fs / 2.0)
        if lo >= hi:
            continue
        spectrum = np.fft.rfft(rng.standard_normal((c, n)), axis=1)
        freqs = np.fft.rfftfreq(n, d=1.0 / cfg.fs)
        mask = (freqs >= lo) & (freqs < hi)
        bin_weight = np.full(freqs.shape, 2.0)
        bin_weight[0] = 1.0
        if n % 2 == 0:
            bin_weight[-1] = 1.0
        energy_fraction = bin_weight[mask].sum() / n
        if energy_fraction == 0.0:
            continue
        spectrum[:, ~mask] = 0.0
        amp = cfg.class_signature[y][b] * np.exp(beta * synth.TILT_SCALE * band_tilt[b])
        x += amp * np.fft.irfft(spectrum, n=n, axis=1) / np.sqrt(energy_fraction)
    x = (np.eye(c) + beta * mixing_noise) @ x
    if cfg.line_noise_amp > 0:
        t = np.arange(n) / cfg.fs
        x += cfg.line_noise_amp * line_gain * np.sin(
            2.0 * np.pi * synth.LINE_FREQ_HZ * t + line_phase)
    width = int(round(synth.BURST_SECONDS * cfg.fs))
    if cfg.artifact_rate_per_min > 0 and n > width:
        count = rng.poisson(cfg.artifact_rate_per_min * cfg.duration_s / 60.0)
        envelope = 0.5 - 0.5 * np.cos(2.0 * np.pi * (np.arange(width) + 0.5) / width)
        for _ in range(count):
            ch = int(rng.integers(0, c))
            start = int(rng.integers(0, n - width + 1))
            rms = np.sqrt(np.mean(np.square(x[ch])))
            x[ch, start:start + width] += (
                cfg.artifact_gain * rms * envelope * rng.standard_normal(width))
    return x


def assert_matches_per_band(cfg):
    """Every cell equals per_band_recording to rtol 1e-12 of the cell's
    largest value (a sample near zero carries the rounding of its larger
    terms)."""
    for j in range(cfg.subjects):
        for y in (0, 1):
            ref = per_band_recording(cfg, j, y)
            data = generate_subject_recording(cfg, j, y).data
            np.testing.assert_allclose(data, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())


def band_features(rec, window_s=2.0):
    """Log band power per channel for each non-overlapping window."""
    m = int(round(window_s * rec.sample_rate_hz))
    rows = []
    for k in range(rec.samples // m):
        feats = []
        for ch in range(rec.channels):
            seg = rec.data[ch, k * m:(k + 1) * m]
            nperseg = int(round(rec.sample_rate_hz))  # 1 s Welch windows
            freqs, psd = sp_signal.welch(seg, fs=rec.sample_rate_hz, window="hann",
                                         nperseg=nperseg,
                                         noverlap=int(round(nperseg * 0.5)),
                                         scaling="density")
            bands = BandDefinition(bands=(("Delta", 1.0, 4.0),
                                          ("Theta", 4.0, 8.0),
                                          ("Alpha", 8.0, 13.0),
                                          ("Beta", 13.0, 30.0),
                                          ("Gamma", 30.0, 100.0)))
            feats.extend(band_power(freqs, psd, bands))
        rows.append(np.log(np.asarray(feats)))
    return np.asarray(rows)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.subjects == 4 and cfg.channels == 6

    def test_negative_bias_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(subject_bias_strength=-0.5)

    def test_wrong_signature_length(self):
        with pytest.raises(ValidationError):
            SynthConfig(class_signature=((1.0,), (1.0,)))

    def test_zero_subjects_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(subjects=0)

    @pytest.mark.parametrize("name", ["subjects", "channels", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0])
    def test_count_that_is_not_an_integer_rejected(self, name, value):
        """Refused when built, not later in generate_epochs as a TypeError."""
        with pytest.raises(ValidationError, match=re.escape(
                f"{name} must be an integer, got {value!r}")):
            SynthConfig(**{name: value})

    def test_numpy_integer_counts_pass(self):
        cfg = SynthConfig(subjects=np.int64(2), channels=np.uint8(3),
                          seed=np.int32(7))
        assert (cfg.subjects, cfg.channels, cfg.seed) == (2, 3, 7)
        assert {type(cfg.subjects), type(cfg.channels), type(cfg.seed)} == {int}

    AMPLITUDE_BOUNDS = [("subject_bias_strength", synth.SUBJECT_BIAS_MAX),
                        ("line_noise_amp", synth.LINE_NOISE_AMP_MAX),
                        ("artifact_gain", synth.ARTIFACT_GAIN_MAX),
                        ("class_signature[0]", synth.CLASS_SIGNATURE_MAX),
                        ("class_signature[1]", synth.CLASS_SIGNATURE_MAX)]

    @staticmethod
    def with_amplitude(name, value):
        """The defaults with key `name`, or every band of class signature
        `name`, at value."""
        if not name.startswith("class_signature"):
            return SynthConfig(**{name: value})
        sig = list(synth.DEFAULT_CLASS_SIGNATURE)
        sig[int(name[-2])] = (value,) * len(sig[0])
        return SynthConfig(class_signature=tuple(sig))

    @pytest.mark.parametrize("name, most", AMPLITUDE_BOUNDS)
    def test_amplitude_above_its_bound_names_the_key(self, name, most):
        with pytest.raises(ValidationError, match=f"{re.escape(name)}.* must be <="):
            self.with_amplitude(name, np.nextafter(most, np.inf))

    @pytest.mark.parametrize("name, most", AMPLITUDE_BOUNDS)
    def test_largest_amplitude_generates_finite_recordings(self, name, most):
        """Each amplitude at its bound, the other keys at their defaults:
        every cell is finite and fits float32 epochs, with no overflow
        warning."""
        cfg = self.with_amplitude(name, most)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(cfg.subjects):
                for y in (0, 1):
                    data = generate_subject_recording(cfg, j, y).data
                    assert np.all(np.isfinite(data.astype(np.float32)))

    def test_recording_above_the_size_bound_names_fs_and_duration(self):
        """1e308 Hz over 1e-300 s is 1e8 samples a channel: refused before the
        generator allocates them."""
        with pytest.raises(ValidationError, match=r"\(fs x duration_s\) is above"):
            SynthConfig(subjects=2, channels=2, fs=1e308, duration_s=1e-300)

    @staticmethod
    def with_rate(rate):
        return SynthConfig(subjects=2, channels=3, fs=256.0, duration_s=30.0,
                           artifact_rate_per_min=rate)

    def test_largest_burst_rate_generates_finite_recordings(self):
        """At the largest rate the config accepts (found by bisection), every
        cell is finite and fits float32 epochs, with no overflow warning."""
        lo, hi = 0.0, 15360.0
        for _ in range(60):
            mid = (lo + hi) / 2
            try:
                self.with_rate(mid)
                lo = mid
            except ValidationError:
                hi = mid
        cfg = self.with_rate(lo)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(cfg.subjects):
                for y in (0, 1):
                    data = generate_subject_recording(cfg, j, y).data
                    assert np.all(np.isfinite(data.astype(np.float32)))


class TestGenerateRecording:
    def test_deterministic(self):
        cfg = SynthConfig(subjects=2, channels=3, fs=256.0, duration_s=5.0)
        a = generate_subject_recording(cfg, 1, 0)
        b = generate_subject_recording(cfg, 1, 0)
        assert np.array_equal(a.data, b.data)
        assert a.sample_rate_hz == 256.0
        assert a.data.shape == (3, 1280)

    def test_cells_differ(self):
        cfg = SynthConfig(subjects=2, channels=3, fs=256.0, duration_s=5.0)
        base = generate_subject_recording(cfg, 0, 0)
        assert not np.array_equal(base.data,
                                  generate_subject_recording(cfg, 0, 1).data)
        assert not np.array_equal(base.data,
                                  generate_subject_recording(cfg, 1, 0).data)

    def test_subject_out_of_range(self):
        cfg = SynthConfig(subjects=2)
        with pytest.raises(ValidationError):
            generate_subject_recording(cfg, 2, 0)

    def test_delta_doubling_quadruples_delta_power(self):
        cfg = quiet_cfg(duration_s=120.0)
        ratios = []
        for ch in range(cfg.channels):
            powers = {}
            for y in (0, 1):
                rec = generate_subject_recording(cfg, 0, y)
                freqs, psd = welch_psd(rec.data[ch], cfg.fs)
                powers[y] = band_power(freqs, psd)[0]  # Delta
            ratios.append(powers[1] / powers[0])
        assert 3.0 <= np.mean(ratios) <= 5.0

    def test_no_bias_gives_f_statistic_near_one(self):
        # F is a noisy ratio statistic, so the "statistically identical
        # subjects" claim is checked as a mean over seeds
        values = []
        for seed in range(5):
            cfg = quiet_cfg(subjects=3, duration_s=60.0, seed=seed)
            features, groups = [], []
            for j in range(cfg.subjects):
                rows = band_features(generate_subject_recording(cfg, j, 0))
                features.append(rows)
                groups.extend([j] * len(rows))
            values.append(f_statistic(np.vstack(features), np.array(groups)))
        assert 0.5 <= np.mean(values) <= 1.6

    def test_bias_separates_subjects(self):
        scores = {}
        for beta in (0.0, 1.0):
            cfg = quiet_cfg(subjects=3, duration_s=60.0,
                            subject_bias_strength=beta)
            features, groups = [], []
            for j in range(cfg.subjects):
                rows = band_features(generate_subject_recording(cfg, j, 0))
                features.append(rows)
                groups.extend([j] * len(rows))
            x = np.vstack(features)
            x = (x - x.mean(axis=0)) / x.std(axis=0)
            groups = np.array(groups)
            scores[beta] = (f_statistic(x, groups), silhouette(x, groups))
        assert scores[1.0][0] > 5.0 * scores[0.0][0]
        assert scores[1.0][1] > scores[0.0][1]

    def test_line_noise_peak_at_60hz(self):
        cfg = quiet_cfg(line_noise_amp=5.0, duration_s=60.0)
        rec = generate_subject_recording(cfg, 0, 0)
        freqs, psd = welch_psd(rec.data[0], cfg.fs)
        at_60 = psd[np.argmin(np.abs(freqs - 60.0))]
        at_50 = psd[np.argmin(np.abs(freqs - 50.0))]
        assert at_60 > 20.0 * at_50

    def test_artifacts_raise_peak_amplitude(self):
        clean = generate_subject_recording(quiet_cfg(duration_s=60.0), 0, 0)
        noisy = generate_subject_recording(
            quiet_cfg(duration_s=60.0, artifact_rate_per_min=30.0,
                      artifact_gain=10.0), 0, 0)
        assert np.max(np.abs(noisy.data)) > 3.0 * np.max(np.abs(clean.data))

    def test_artifact_schedule_deterministic(self):
        cfg = quiet_cfg(duration_s=20.0, artifact_rate_per_min=30.0)
        a = generate_subject_recording(cfg, 0, 0)
        b = generate_subject_recording(cfg, 0, 0)
        assert np.array_equal(a.data, b.data)


class TestOneSpectrum:
    """All bands share one spectrum and one inverse FFT; the recording is the
    per-band algorithm's up to rounding."""

    @pytest.mark.parametrize("kw", [
        dict(fs=64.0),                      # Gamma clipped at Nyquist (32 Hz)
        dict(fs=6.0),                       # Theta to Gamma skipped
        dict(fs=128.0, duration_s=0.25),    # 4 Hz bins: Delta has none
        dict(fs=127.0, duration_s=3.0),     # odd n (381)
        dict(artifact_rate_per_min=60.0),   # bursts on
    ], ids=["nyquist-clipped", "skipped-bands", "band-without-bins", "odd-n",
            "bursts"])
    def test_matches_per_band_algorithm(self, kw):
        base = dict(subjects=2, channels=3, fs=256.0, duration_s=10.0,
                    subject_bias_strength=1.0, line_noise_amp=0.5,
                    artifact_rate_per_min=0.0, seed=5)
        assert_matches_per_band(SynthConfig(**{**base, **kw}))

    @settings(max_examples=60, deadline=None)
    @given(channels=st.integers(1, 3), fs=st.floats(1.0, 300.0),
           samples=st.integers(1, 400), beta=st.floats(0.0, 2.0),
           rate=st.sampled_from([0.0, 30.0]), seed=st.integers(0, 2 ** 16))
    def test_small_configs_match_per_band_algorithm(self, channels, fs, samples,
                                                    beta, rate, seed):
        assert_matches_per_band(SynthConfig(
            subjects=1, channels=channels, fs=fs, duration_s=samples / fs,
            subject_bias_strength=beta, artifact_rate_per_min=rate, seed=seed))

    def test_peak_memory_per_sample(self):
        """One 1e6-sample recording peaks under 40 traced bytes a sample
        (about 34 at four channels)."""
        cfg = SynthConfig(subjects=1, channels=4, fs=250.0, duration_s=1000.0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            generate_subject_recording(cfg, 0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < 40.0


class TestGenerateDataset:
    PIPE = PipelineConfig(band_lo_hz=1.0, band_hi_hz=100.0, notch_hz=(60.0,),
                          target_rate_hz=256.0, epoch_seconds=2.0)

    def make(self, tmp_path, name="ds", **kw):
        cfg = SynthConfig(subjects=2, channels=3, fs=256.0, duration_s=30.0,
                          seed=3, **kw)
        out = str(tmp_path / name)
        manifest = generate_dataset(cfg, out, self.PIPE, AsrConfig())
        return cfg, out, manifest

    def test_writes_generate_epochs_in_order(self, tmp_path):
        """The files and manifest hold generate_epochs' epochs in its order,
        byte for byte, tagged as split_dataset tags them."""
        cfg, out, _ = self.make(tmp_path)
        _, written = load_manifest(out + "/manifest.csv")
        epochs = synth.generate_epochs(cfg, self.PIPE, AsrConfig())
        assert ([(ep.x.tobytes(), ep.y, ep.s) for ep in written.epochs]
                == [(ep.x.tobytes(), ep.y, ep.s) for ep in epochs])
        assert written.split == split_dataset(EpochSet(epochs=epochs),
                                              seed=cfg.seed).split

    def test_counts_and_split(self, tmp_path):
        cfg, out, manifest = self.make(tmp_path)
        assert len(manifest.rows) == 4 * 15  # 30 s / 2 s epochs per cell
        _, epoch_set = load_manifest(out + "/manifest.csv")
        counts = {tag: epoch_set.split.count(tag)
                  for tag in ("train", "val", "test")}
        assert counts == {"train": 48, "val": 4, "test": 8}

    def test_epochs_readable_and_consistent(self, tmp_path):
        cfg, out, manifest = self.make(tmp_path)
        _, epoch_set = load_manifest(out + "/manifest.csv")
        assert epoch_set.subjects == ["s00", "s01"]
        ys = {ep.y for ep in epoch_set.epochs}
        assert ys == {0, 1}
        ep = epoch_set.epochs[0]
        assert ep.x.shape == (3, 512)
        assert ep.sample_rate_hz == 256.0

    def test_dataset_deterministic(self, tmp_path):
        _, out_a, manifest_a = self.make(tmp_path, name="a")
        _, out_b, manifest_b = self.make(tmp_path, name="b")
        assert manifest_a.rows == manifest_b.rows
        fname = manifest_a.rows[0][0]
        blob_a = open(f"{out_a}/{fname}", "rb").read()
        blob_b = open(f"{out_b}/{fname}", "rb").read()
        assert blob_a == blob_b

    def test_split_stratified_per_cell(self, tmp_path):
        cfg, out, manifest = self.make(tmp_path)
        per_cell = {}
        for fname, subject, y, split in manifest.rows:
            per_cell.setdefault((subject, y), []).append(split)
        for cell, splits in per_cell.items():
            assert splits.count("train") == 12, cell
            assert splits.count("val") == 1, cell
            assert splits.count("test") == 2, cell
