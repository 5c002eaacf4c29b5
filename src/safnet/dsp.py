"""Resampling, band-pass/notch filtering, and epoch slicing.

Resampling is rational polyphase (scipy's resample_poly) through scipy's
own anti-alias filter: a Kaiser-windowed FIR at 67 dB of stopband
attenuation (RESAMPLE_ATTEN_DB), 20 * max(up, down) + 1 taps, cut off at
1 / max(up, down) of the upsampled Nyquist rate.

All filtering is zero-phase: scipy's second-order sections run forward and
backward along time (sosfiltfilt), so passband features keep their timing.
Filters run over the whole recording before slicing. The band-pass is a
Butterworth of order BUTTER_ORDER and each notch has quality NOTCH_Q;
PipelineConfig holds the band edges, notch frequencies, target rate and
epoch length, each bounded by what its consumer can compute: filter
frequencies of at least MIN_FILTER_RATIO times the rate, and an epoch of at
least one sample and at most an int64 of them. The filters refuse a
recording no longer than their edge padding. filter_recording is the one
filter chain; preprocess_pipeline adds artifact removal and slicing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy import signal

from .datamodel import Epoch, Recording
from .errors import ConfigError, ValidationError

RESAMPLE_ATTEN_DB = 67.0
BUTTER_ORDER = 4
NOTCH_Q = 30.0
# Nearer 0 Hz than this fraction of the sample rate, a section's poles round
# onto the unit circle and sosfiltfilt cannot solve for its initial state
# (a 1e-8 Hz notch or band edge at 256 Hz raises LinAlgError).
MIN_FILTER_RATIO = 1e-6


@dataclass(frozen=True)
class PipelineConfig:
    band_lo_hz: float = 1.0
    band_hi_hz: float = 128.0
    notch_hz: tuple[float, ...] = (60.0, 120.0)
    target_rate_hz: float = 512.0
    epoch_seconds: float = 6.0

    def __post_init__(self):
        nyq = self.target_rate_hz / 2.0
        floor = MIN_FILTER_RATIO * self.target_rate_hz
        if not (floor <= self.band_lo_hz < self.band_hi_hz < nyq):
            raise ConfigError(
                f"need {floor} <= band_lo < band_hi < {nyq} Hz, "
                f"got [{self.band_lo_hz}, {self.band_hi_hz}]"
            )
        for f in self.notch_hz:
            if not (floor <= f < nyq):
                raise ConfigError(f"notch frequency {f} Hz outside [{floor}, {nyq})")
        window_samples(self.epoch_seconds, self.target_rate_hz, "epoch_seconds")
        object.__setattr__(self, "notch_hz", tuple(float(f) for f in self.notch_hz))


def resample(rec: Recording, target_rate_hz: float) -> Recording:
    """Rational polyphase resampling to target_rate_hz through scipy's
    Kaiser-windowed anti-alias FIR at RESAMPLE_ATTEN_DB of stopband
    attenuation. Output length is floor(N * target / source)."""
    if target_rate_hz <= 0:
        raise ValidationError("target rate must be positive")
    if target_rate_hz > rec.sample_rate_hz:
        raise ValidationError(
            f"upsampling unsupported: {rec.sample_rate_hz} -> {target_rate_hz} Hz"
        )
    if target_rate_hz == rec.sample_rate_hz:
        return rec

    ratio = (Fraction(target_rate_hz).limit_denominator(10**6)
             / Fraction(rec.sample_rate_hz).limit_denominator(10**6))
    up, down = ratio.numerator, ratio.denominator
    out_len = int(np.floor(rec.samples * target_rate_hz / rec.sample_rate_hz))
    resampled = signal.resample_poly(
        rec.data, up, down, axis=-1,
        window=("kaiser", signal.kaiser_beta(RESAMPLE_ATTEN_DB)))[:, :out_len]
    return replace(rec, data=resampled, sample_rate_hz=float(target_rate_hz))


def bandpass(rec: Recording, cfg: PipelineConfig) -> Recording:
    if rec.sample_rate_hz != cfg.target_rate_hz:
        raise ValidationError(
            f"bandpass expects {cfg.target_rate_hz} Hz input, got {rec.sample_rate_hz}"
        )
    # a band-pass designed at order n has order 2n
    sos = signal.butter(BUTTER_ORDER // 2, [cfg.band_lo_hz, cfg.band_hi_hz],
                        btype="bandpass", fs=cfg.target_rate_hz, output="sos")
    return replace(rec, data=_zero_phase(sos, rec.data))


def notch(rec: Recording, cfg: PipelineConfig) -> Recording:
    if rec.sample_rate_hz != cfg.target_rate_hz:
        raise ValidationError(
            f"notch expects {cfg.target_rate_hz} Hz input, got {rec.sample_rate_hz}"
        )
    data = rec.data
    for f in cfg.notch_hz:
        sos = np.concatenate(signal.iirnotch(f, NOTCH_Q, fs=cfg.target_rate_hz))
        data = _zero_phase(sos[None, :], data)
    return replace(rec, data=data)


def _zero_phase(sos: np.ndarray, data: np.ndarray) -> np.ndarray:
    """sosfiltfilt along time. It pads each end with up to three times the
    sections' tap count and needs more samples than that, so a shorter
    recording is refused."""
    pad = 3 * (2 * len(sos) + 1)
    if data.shape[-1] <= pad:
        raise ValidationError(f"recording of {data.shape[-1]} samples is too short "
                              f"to filter: need more than {pad}")
    return signal.sosfiltfilt(sos, data, axis=-1)


def window_samples(seconds: float, rate_hz: float, what: str) -> int:
    """A window of `seconds` at `rate_hz` as a whole number of samples;
    refuses one that rounds to less than one sample or to more than an int64
    holds."""
    if not seconds * rate_hz < 2.0 ** 63:
        raise ValidationError(f"{what} of {seconds} s at {rate_hz} Hz is more "
                              f"samples than an int64 holds")
    n = int(round(seconds * rate_hz))
    if n < 1:
        raise ValidationError(f"{what} of {seconds} s is less than one sample "
                              f"at {rate_hz} Hz")
    return n


def slice_epochs(rec: Recording, cfg: PipelineConfig, y: int, s: str) -> list[Epoch]:
    """Consecutive non-overlapping windows; trailing partial window discarded."""
    m = window_samples(cfg.epoch_seconds, rec.sample_rate_hz, "epoch_seconds")
    count = rec.samples // m
    return [
        Epoch(x=rec.data[:, i * m:(i + 1) * m], y=y, s=s,
              sample_rate_hz=rec.sample_rate_hz)
        for i in range(count)
    ]


def filter_recording(rec: Recording, cfg: PipelineConfig) -> Recording:
    """Resample (if needed) -> bandpass -> notch: the filter chain ahead of
    artifact removal, shared by preprocessing and ASR calibration."""
    if rec.sample_rate_hz != cfg.target_rate_hz:
        rec = resample(rec, cfg.target_rate_hz)
    return notch(bandpass(rec, cfg), cfg)


def preprocess_pipeline(rec: Recording, cfg: PipelineConfig, asr_model=None,
                        y: int = 0, s: str = "", asr_config=None) -> list[Epoch]:
    """filter_recording -> ASR (if model) -> slice. asr_config is unused;
    the parameter stays for existing callers."""
    rec = filter_recording(rec, cfg)
    if asr_model is not None:
        from .asr import asr_apply

        rec = asr_apply(rec, asr_model)
    return slice_epochs(rec, cfg, y, s)
