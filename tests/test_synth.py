import warnings

import numpy as np
import pytest
from scipy import signal as sp_signal

from safnet import synth
from safnet.datamodel import load_manifest
from safnet.dsp import PipelineConfig
from safnet.errors import ValidationError
from safnet.metrics import (
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

    AMPLITUDE_BOUNDS = [("subject_bias_strength", synth.SUBJECT_BIAS_MAX),
                        ("line_noise_amp", synth.LINE_NOISE_AMP_MAX),
                        ("artifact_gain", synth.ARTIFACT_GAIN_MAX)]

    @pytest.mark.parametrize("name, most", AMPLITUDE_BOUNDS)
    def test_amplitude_above_its_bound_names_the_key(self, name, most):
        with pytest.raises(ValidationError, match=f"{name} must be <="):
            SynthConfig(**{name: np.nextafter(most, np.inf)})

    @pytest.mark.parametrize("name, most", AMPLITUDE_BOUNDS)
    def test_largest_amplitude_generates_finite_recordings(self, name, most):
        """Each key at its bound, the others at their defaults: every cell
        is finite and fits float32 epochs, with no overflow warning."""
        cfg = SynthConfig(**{name: most})
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


class TestGenerateDataset:
    PIPE = PipelineConfig(band_lo_hz=1.0, band_hi_hz=100.0, notch_hz=(60.0,),
                          target_rate_hz=256.0, epoch_seconds=2.0)

    def make(self, tmp_path, name="ds", **kw):
        cfg = SynthConfig(subjects=2, channels=3, fs=256.0, duration_s=30.0,
                          seed=3, **kw)
        out = str(tmp_path / name)
        manifest = generate_dataset(cfg, out, pipeline_cfg=self.PIPE)
        return cfg, out, manifest

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
