"""Resampling, band-pass/notch filtering, and epoch slicing.

All filtering is zero-phase: each biquad cascade is applied forward and
backward per channel, so passband features keep their timing. Filters run
over the whole recording before slicing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import signal

from .datamodel import Epoch, Recording
from .errors import ConfigError, ValidationError

RESAMPLE_ATTEN_DB = 67.0
RESAMPLE_TAPS_PER_PHASE = 20


@dataclass(frozen=True)
class PipelineConfig:
    band_lo_hz: float = 1.0
    band_hi_hz: float = 128.0
    notch_hz: tuple[float, ...] = (60.0, 120.0)
    notch_q: float = 30.0
    target_rate_hz: float = 512.0
    epoch_seconds: float = 6.0
    butter_order: int = 4

    def __post_init__(self):
        nyq = self.target_rate_hz / 2.0
        if not (0 < self.band_lo_hz < self.band_hi_hz < nyq):
            raise ConfigError(
                f"need 0 < band_lo < band_hi < {nyq} Hz, "
                f"got [{self.band_lo_hz}, {self.band_hi_hz}]"
            )
        for f in self.notch_hz:
            if not (0 < f < nyq):
                raise ConfigError(f"notch frequency {f} Hz outside (0, {nyq})")
        if self.notch_q <= 0:
            raise ConfigError("notch_q must be positive")
        if self.epoch_seconds <= 0:
            raise ConfigError("epoch_seconds must be positive")
        if self.butter_order < 2 or self.butter_order % 2:
            raise ConfigError(f"butter_order must be a positive even integer, "
                              f"got {self.butter_order}")
        object.__setattr__(self, "notch_hz", tuple(float(f) for f in self.notch_hz))


@dataclass(frozen=True)
class BiquadCascade:
    """Stack of second-order sections, one (b0, b1, b2, 1, a1, a2) row each."""

    sos: np.ndarray
    description: str = ""

    def __post_init__(self):
        sos = np.asarray(self.sos, dtype=np.float64)
        if sos.ndim != 2 or sos.shape[1] != 6 or np.any(sos[:, 3] != 1.0):
            raise ValidationError(f"sections must be (n, 6) rows with a0 = 1 "
                                  f"in {self.description}")
        for row in sos:
            if not np.all(np.isfinite(row)):
                raise ValidationError(f"non-finite section {row} in {self.description}")
            poles = np.roots(row[3:])
            if np.any(np.abs(poles) >= 1.0):
                raise ValidationError(
                    f"unstable section (pole magnitude {np.abs(poles).max():.6f}) "
                    f"in {self.description}"
                )
        object.__setattr__(self, "sos", sos)

    def apply_zero_phase(self, data: np.ndarray) -> np.ndarray:
        """Forward-backward filtering along the last axis."""
        return signal.sosfiltfilt(self.sos, data, axis=-1)


def design_bandpass(cfg: PipelineConfig) -> BiquadCascade:
    sos = signal.butter(cfg.butter_order // 2,
                        [cfg.band_lo_hz, cfg.band_hi_hz],
                        btype="bandpass", fs=cfg.target_rate_hz, output="sos")
    return BiquadCascade(sos=sos,
                         description=f"butterworth-{cfg.butter_order} bandpass "
                                     f"{cfg.band_lo_hz}-{cfg.band_hi_hz} Hz")


def design_notch(freq_hz: float, q: float, fs: float) -> BiquadCascade:
    b, a = signal.iirnotch(freq_hz, q, fs=fs)
    return BiquadCascade(sos=np.concatenate([b, a])[None, :] / a[0],
                         description=f"notch {freq_hz} Hz Q={q}")


def resample(rec: Recording, target_rate_hz: float) -> Recording:
    """Rational polyphase resampling to target_rate_hz.

    The anti-alias FIR is Kaiser-designed for >= 60 dB stopband at cutoff
    min(pi/L, pi/M). Output length is floor(N * target / source).
    """
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

    cutoff = min(1.0 / up, 1.0 / down)  # normalized to upsampled Nyquist
    numtaps = RESAMPLE_TAPS_PER_PHASE * max(up, down) + 1
    beta = signal.kaiser_beta(RESAMPLE_ATTEN_DB)
    fir = signal.firwin(numtaps, cutoff, window=("kaiser", beta))

    out_len = int(np.floor(rec.samples * target_rate_hz / rec.sample_rate_hz))
    resampled = signal.resample_poly(rec.data, up, down, axis=-1, window=fir)
    resampled = resampled[:, :out_len]
    return Recording(data=resampled, sample_rate_hz=float(target_rate_hz),
                     channel_names=rec.channel_names)


def bandpass(rec: Recording, cfg: PipelineConfig) -> Recording:
    if rec.sample_rate_hz != cfg.target_rate_hz:
        raise ValidationError(
            f"bandpass expects {cfg.target_rate_hz} Hz input, got {rec.sample_rate_hz}"
        )
    cascade = design_bandpass(cfg)
    return Recording(data=cascade.apply_zero_phase(rec.data),
                     sample_rate_hz=rec.sample_rate_hz,
                     channel_names=rec.channel_names)


def notch(rec: Recording, cfg: PipelineConfig) -> Recording:
    if rec.sample_rate_hz != cfg.target_rate_hz:
        raise ValidationError(
            f"notch expects {cfg.target_rate_hz} Hz input, got {rec.sample_rate_hz}"
        )
    data = rec.data
    for f in cfg.notch_hz:
        data = design_notch(f, cfg.notch_q, cfg.target_rate_hz).apply_zero_phase(data)
    return Recording(data=data, sample_rate_hz=rec.sample_rate_hz,
                     channel_names=rec.channel_names)


def slice_epochs(rec: Recording, cfg: PipelineConfig, y: int, s: str) -> list[Epoch]:
    """Consecutive non-overlapping windows; trailing partial window discarded."""
    m = int(round(cfg.epoch_seconds * rec.sample_rate_hz))
    count = rec.samples // m
    return [
        Epoch(x=rec.data[:, i * m:(i + 1) * m], y=y, s=s,
              sample_rate_hz=rec.sample_rate_hz)
        for i in range(count)
    ]


def _unhooked(name: str, rec: Recording) -> Recording:
    return rec


def filter_recording(rec: Recording, cfg: PipelineConfig,
                     stage_hook=None) -> Recording:
    """Resample (if needed) -> bandpass -> notch: the filter chain ahead of
    artifact removal, shared by preprocessing and ASR calibration. stage_hook
    is as in preprocess_pipeline."""
    hook = stage_hook or _unhooked
    if rec.sample_rate_hz != cfg.target_rate_hz:
        rec = resample(rec, cfg.target_rate_hz)
    rec = hook("resample", rec)
    rec = hook("bandpass", bandpass(rec, cfg))
    return hook("notch", notch(rec, cfg))


def preprocess_pipeline(rec: Recording, cfg: PipelineConfig, asr_model=None,
                        y: int = 0, s: str = "", asr_config=None,
                        stage_hook=None) -> list[Epoch]:
    """filter_recording -> ASR (if model) -> slice.

    stage_hook(name, rec) -> Recording, when given, is called after each
    stage and may substitute the intermediate recording; tests use it to
    verify stage ordering.
    """
    hook = stage_hook or _unhooked
    rec = filter_recording(rec, cfg, hook)
    if asr_model is not None:
        from .asr import AsrConfig, asr_apply

        rec = hook("asr", asr_apply(rec, asr_model, asr_config or AsrConfig()))
    return slice_epochs(rec, cfg, y, s)
