from fractions import Fraction

import numpy as np
import pytest
from scipy import signal

from safnet.datamodel import Recording
from safnet.dsp import (
    PipelineConfig,
    bandpass,
    notch,
    preprocess_pipeline,
    resample,
    slice_epochs,
)
from safnet.errors import ConfigError, ValidationError


def tone_amplitude(x, fs, freq):
    """Amplitude of the complex projection onto freq; exact for integer cycles."""
    n = len(x)
    t = np.arange(n) / fs
    return 2.0 * abs(np.dot(x, np.exp(-2j * np.pi * freq * t))) / n


def make_rec(data, fs):
    return Recording(data=np.atleast_2d(np.asarray(data, dtype=np.float64)),
                     sample_rate_hz=fs)


class TestPipelineConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.band_lo_hz == 1.0 and cfg.band_hi_hz == 128.0
        assert cfg.notch_hz == (60.0, 120.0)

    def test_corner_at_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(band_hi_hz=256.0)

    def test_notch_beyond_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(notch_hz=(300.0,))

    @pytest.mark.parametrize("kwargs", [{"notch_hz": (1e-4,)}, {"band_lo_hz": 1e-4}])
    def test_filter_frequency_below_the_floor_rejected(self, kwargs):
        """MIN_FILTER_RATIO of 512 Hz is 5.12e-4 Hz."""
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("seconds", [1e-4, 1e17, 1e308])
    def test_epoch_without_a_countable_sample_count_rejected(self, seconds):
        with pytest.raises(ValidationError, match="epoch_seconds"):
            PipelineConfig(epoch_seconds=seconds)


class TestResample:
    def test_dc_preserved(self):
        rec = make_rec(np.full(30000, 3.0), 30000.0)
        out = resample(rec, 512.0)
        assert out.sample_rate_hz == 512.0
        interior = out.data[0, 100:-100]
        assert np.max(np.abs(interior - 3.0)) < 1e-3

    def test_output_length(self):
        rec = make_rec(np.zeros(30000), 30000.0)
        assert resample(rec, 512.0).samples == 512

    def test_sine_amplitude_preserved(self):
        fs = 30000.0
        t = np.arange(int(fs * 5)) / fs
        rec = make_rec(np.sin(2 * np.pi * 10.0 * t), fs)
        out = resample(rec, 512.0)
        spectrum = np.abs(np.fft.rfft(out.data[0]))
        freqs = np.fft.rfftfreq(out.samples, 1.0 / 512.0)
        peak = freqs[np.argmax(spectrum)]
        assert peak == pytest.approx(10.0, abs=0.25)
        amp = 2.0 * spectrum.max() / out.samples
        assert abs(amp - 1.0) < 0.02

    def test_upsampling_rejected(self):
        rec = make_rec(np.zeros(100), 512.0)
        with pytest.raises(ValidationError):
            resample(rec, 1024.0)

    def test_identity_when_rates_match(self):
        rec = make_rec(np.arange(100.0), 512.0)
        assert resample(rec, 512.0) is rec

    @pytest.mark.parametrize("source, target", [
        (256.0, 128.0), (512.0, 128.0), (500.0, 128.0), (1000.0, 256.0),
        (300.0, 128.0), (44100.0, 1000.0)])
    def test_matches_hand_designed_filter(self, source, target):
        """The anti-alias filter is the Kaiser FIR once designed here by hand:
        20 taps a phase, cutoff min(1/up, 1/down) at 67 dB. The output must
        match that design to the byte."""
        ratio = Fraction(target) / Fraction(source)
        up, down = ratio.numerator, ratio.denominator
        fir = signal.firwin(20 * max(up, down) + 1, min(1.0 / up, 1.0 / down),
                            window=("kaiser", signal.kaiser_beta(67.0)))
        rec = make_rec(np.random.default_rng(0).standard_normal((3, 4410)), source)
        expected = signal.resample_poly(rec.data, up, down, axis=-1, window=fir)
        out = resample(rec, target)
        assert out.data.tobytes() == expected[:, :out.samples].tobytes()
        assert out.samples == int(4410 * target / source)


class TestBandpass:
    cfg = PipelineConfig()

    def test_dc_removed(self):
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(5120)
        rec = make_rec(noise + 5.0, 512.0)
        out = bandpass(rec, self.cfg)
        assert abs(out.data[0].mean()) < 0.01 * noise.std()

    def test_passband_10hz_within_1db(self):
        t = np.arange(5120) / 512.0
        x = np.sin(2 * np.pi * 10.0 * t)
        out = bandpass(make_rec(x, 512.0), self.cfg)
        gain_db = 20 * np.log10(tone_amplitude(out.data[0], 512.0, 10.0)
                                / tone_amplitude(x, 512.0, 10.0))
        assert abs(gain_db) < 1.0

    def test_stopband_0p1hz_40db(self):
        t = np.arange(512 * 40) / 512.0
        x = np.sin(2 * np.pi * 0.1 * t)
        out = bandpass(make_rec(x, 512.0), self.cfg)
        gain_db = 20 * np.log10(tone_amplitude(out.data[0], 512.0, 0.1)
                                / tone_amplitude(x, 512.0, 0.1))
        assert gain_db <= -40.0

    def test_fourth_order_rolloff(self):
        """Below the 1 Hz edge a 4th-order band-pass falls as a 2nd-order
        high-pass, squared by the forward-backward pass: 55.9 dB down at
        0.2 Hz, where order 2 would give 28 dB and order 6 84 dB."""
        t = np.arange(512 * 20) / 512.0
        x = np.sin(2 * np.pi * 0.2 * t)
        out = bandpass(make_rec(x, 512.0), self.cfg)
        gain_db = 20 * np.log10(tone_amplitude(out.data[0], 512.0, 0.2)
                                / tone_amplitude(x, 512.0, 0.2))
        assert -58.0 < gain_db < -53.0

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            bandpass(make_rec(np.zeros(100), 256.0), self.cfg)

    def test_zero_phase(self):
        t = np.arange(5120) / 512.0
        x = np.sin(2 * np.pi * 10.0 * t)
        out = bandpass(make_rec(x, 512.0), self.cfg).data[0]
        # peak of the cross-correlation must sit at zero lag
        lags = np.arange(-50, 51)
        xc = [np.dot(x[50:-50], out[50 + lag:len(out) - 50 + lag]) for lag in lags]
        assert lags[int(np.argmax(xc))] == 0

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2048)
        z = rng.standard_normal(2048)
        a, b = 2.5, -0.7
        cfg = self.cfg
        lhs = bandpass(make_rec(a * x + b * z, 512.0), cfg).data[0]
        rhs = (a * bandpass(make_rec(x, 512.0), cfg).data[0]
               + b * bandpass(make_rec(z, 512.0), cfg).data[0])
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(lhs)))


class TestNotch:
    cfg = PipelineConfig()

    def test_60hz_attenuated_30db(self):
        t = np.arange(5120) / 512.0
        x = np.sin(2 * np.pi * 60.0 * t)
        out = notch(make_rec(x, 512.0), self.cfg)
        gain_db = 20 * np.log10(tone_amplitude(out.data[0], 512.0, 60.0)
                                / tone_amplitude(x, 512.0, 60.0))
        assert gain_db <= -30.0

    def test_30hz_untouched(self):
        t = np.arange(5120) / 512.0
        x = np.sin(2 * np.pi * 30.0 * t)
        out = notch(make_rec(x, 512.0), self.cfg)
        gain_db = 20 * np.log10(tone_amplitude(out.data[0], 512.0, 30.0)
                                / tone_amplitude(x, 512.0, 30.0))
        assert abs(gain_db) < 1.0

    def test_zero_in_zero_out(self):
        out = notch(make_rec(np.zeros(2048), 512.0), self.cfg)
        assert np.all(out.data == 0.0)

    @pytest.mark.parametrize("filt, pad", [(bandpass, 15), (notch, 9)])
    def test_recording_shorter_than_the_edge_padding_rejected(self, filt, pad):
        """Three times the taps of two band-pass sections or one notch."""
        cfg = PipelineConfig(target_rate_hz=256.0, band_hi_hz=100.0, notch_hz=(60.0,))
        with pytest.raises(ValidationError, match="too short to filter"):
            filt(make_rec(np.ones((2, pad)), 256.0), cfg)
        assert filt(make_rec(np.ones((2, pad + 1)), 256.0), cfg).samples == pad + 1


class TestSliceEpochs:
    cfg = PipelineConfig()

    def test_61p5_seconds(self):
        rec = make_rec(np.random.default_rng(0).standard_normal(int(61.5 * 512)), 512.0)
        eps = slice_epochs(rec, self.cfg, y=1, s="a")
        assert len(eps) == 10
        assert all(ep.samples == 3072 for ep in eps)
        assert all(ep.y == 1 and ep.s == "a" for ep in eps)

    def test_too_short_gives_empty(self):
        rec = make_rec(np.zeros(int(5.9 * 512)), 512.0)
        assert slice_epochs(rec, self.cfg, 0, "a") == []

    def test_partition_identity(self):
        rng = np.random.default_rng(2)
        rec = make_rec(rng.standard_normal(int(12.0 * 512)), 512.0)
        eps = slice_epochs(rec, self.cfg, 0, "a")
        assert len(eps) == 2
        concat = np.concatenate([ep.x for ep in eps], axis=1)
        assert np.array_equal(concat, rec.data[:, :2 * 3072].astype(np.float32))


class TestPipeline:
    def test_six_seconds_one_epoch(self):
        rng = np.random.default_rng(3)
        rec = Recording(data=rng.standard_normal((2, int(6.0 * 512))),
                        sample_rate_hz=512.0)
        eps = preprocess_pipeline(rec, PipelineConfig(), y=0, s="a")
        assert len(eps) == 1
        assert eps[0].x.shape == (2, 3072)

    def test_notch_follows_bandpass(self, monkeypatch):
        """A 60 Hz tone added to the band-pass output is gone after the
        pipeline, so the notch runs on it."""
        rng = np.random.default_rng(4)
        n = int(12.0 * 512)
        rec = make_rec(rng.standard_normal(n), 512.0)
        t = np.arange(n) / 512.0
        seen = []

        def tone_after_bandpass(r, cfg):
            seen.append("bandpass")
            out = bandpass(r, cfg)
            return Recording(data=out.data + np.sin(2 * np.pi * 60.0 * t),
                             sample_rate_hz=out.sample_rate_hz,
                             channel_names=out.channel_names)

        def recorded_notch(r, cfg):
            seen.append("notch")
            return notch(r, cfg)

        monkeypatch.setattr("safnet.dsp.bandpass", tone_after_bandpass)
        monkeypatch.setattr("safnet.dsp.notch", recorded_notch)
        eps = preprocess_pipeline(rec, PipelineConfig(), y=0, s="a")
        assert seen == ["bandpass", "notch"]
        residual = tone_amplitude(np.concatenate([ep.x[0] for ep in eps]), 512.0, 60.0)
        assert residual < 10 ** (-30.0 / 20.0)
