"""Artifact subspace reconstruction.

Fit learns a mixing matrix (square root of the calibration covariance) and
per-component RMS thresholds from clean calibration data; apply slides
half-overlapping windows over the signal, rejects components whose window
variance exceeds the threshold, reconstructs the window from the surviving
subspace, and blends windows with a raised-cosine weight.

Statistics are robust (median / 1.4826*MAD) rather than the truncated
Gaussian fit used by some toolboxes; deterministic and adequate here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .datamodel import Recording
from .errors import ValidationError

EIGVAL_CLAMP = 1e-12
PINV_RCOND = 1e-10


@dataclass(frozen=True)
class AsrConfig:
    cutoff_k: float = 20.0
    calib_window_s: float = 1.0
    calib_z_lo: float = -3.5
    calib_z_hi: float = 5.5
    min_calib_windows: int = 30
    proc_window_s: float = 0.5
    proc_overlap: float = 0.5

    def __post_init__(self):
        if self.cutoff_k <= 0:
            raise ValidationError("cutoff_k must be positive")
        if not (0 <= self.proc_overlap < 1):
            raise ValidationError("proc_overlap must be in [0, 1)")


@dataclass(frozen=True)
class AsrModel:
    mixing_M: np.ndarray
    threshold_T: np.ndarray
    channels: int

    def __post_init__(self):
        m = np.asarray(self.mixing_M, dtype=np.float64)
        t = np.asarray(self.threshold_T, dtype=np.float64)
        c = self.channels
        if m.shape != (c, c) or t.shape != (c, c):
            raise ValidationError(f"model matrices must be {c}x{c}")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-8 * scale:
            raise ValidationError("mixing matrix must be symmetric")
        if np.linalg.eigvalsh(m).min() < -1e-8 * scale:
            raise ValidationError("mixing matrix must be positive semi-definite")
        if not np.all(np.isfinite(t)):
            raise ValidationError("thresholds must be finite")
        object.__setattr__(self, "mixing_M", m)
        object.__setattr__(self, "threshold_T", t)


def _window_rms(data: np.ndarray, width: int) -> np.ndarray:
    """(C, N) -> (C, N//width) RMS over consecutive non-overlapping windows."""
    c, n = data.shape
    nwin = n // width
    trimmed = data[:, : nwin * width].reshape(c, nwin, width)
    return np.sqrt(np.mean(trimmed**2, axis=2))


def _robust_z(values: np.ndarray) -> np.ndarray:
    """Per-row robust z-scores across columns; zero-MAD rows map equal
    values to 0 and everything else to +/-inf."""
    med = np.median(values, axis=1, keepdims=True)
    scale = 1.4826 * np.median(np.abs(values - med), axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (values - med) / scale
    z = np.where(scale > 0, z, np.where(values == med, 0.0, np.inf * np.sign(values - med)))
    return z


def select_calibration(rec: Recording, cfg: AsrConfig) -> Recording:
    """Keep windows whose every channel has robust z in [z_lo, z_hi].

    Falls back to the full recording when fewer than min_calib_windows
    windows survive.
    """
    width = int(round(cfg.calib_window_s * rec.sample_rate_hz))
    nwin = rec.samples // width
    if nwin < 1:
        raise ValidationError("recording shorter than one calibration window")
    rms = _window_rms(rec.data, width)
    z = _robust_z(rms)
    clean = np.all((z >= cfg.calib_z_lo) & (z <= cfg.calib_z_hi), axis=0)
    if int(clean.sum()) < cfg.min_calib_windows:
        return rec
    keep = np.concatenate(
        [rec.data[:, i * width:(i + 1) * width] for i in np.flatnonzero(clean)], axis=1
    )
    return Recording(data=keep, sample_rate_hz=rec.sample_rate_hz,
                     channel_names=rec.channel_names)


def asr_fit(calib: Recording, cfg: AsrConfig) -> AsrModel:
    """Mixing matrix and per-component RMS thresholds from calibration data."""
    width = int(round(cfg.proc_window_s * calib.sample_rate_hz))
    if calib.samples < 2 * width:
        raise ValidationError("calibration shorter than two processing windows")

    x = calib.data
    cov = x @ x.T / calib.samples
    evals, evecs = np.linalg.eigh(cov)
    if evals.min() < EIGVAL_CLAMP:
        warnings.warn("rank-deficient calibration covariance; clamping spectrum",
                      RuntimeWarning, stacklevel=2)
        evals = np.maximum(evals, EIGVAL_CLAMP)
    mixing = (evecs * np.sqrt(evals)) @ evecs.T

    projections = evecs.T @ x
    rms = _window_rms(projections, width)
    mu = np.median(rms, axis=1)
    sigma = 1.4826 * np.median(np.abs(rms - mu[:, None]), axis=1)
    threshold = (mu + cfg.cutoff_k * sigma)[:, None] * evecs.T
    return AsrModel(mixing_M=mixing, threshold_T=threshold, channels=calib.channels)


def asr_apply(rec: Recording, model: AsrModel, cfg: AsrConfig) -> Recording:
    """Sliding-window subspace reconstruction with raised-cosine blending."""
    if rec.channels != model.channels:
        raise ValidationError(
            f"recording has {rec.channels} channels, model expects {model.channels}"
        )
    width = int(round(cfg.proc_window_s * rec.sample_rate_hz))
    hop = max(1, int(round(width * (1.0 - cfg.proc_overlap))))
    n = rec.samples
    mixing = model.mixing_M
    thresh = model.threshold_T

    taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * (np.arange(width) + 0.5) / width)
    out = np.zeros_like(rec.data, dtype=np.float64)
    norm = np.zeros(n, dtype=np.float64)

    for start in range(0, n, hop):
        stop = min(start + width, n)
        xw = rec.data[:, start:stop]
        cov = xw @ xw.T / xw.shape[1]
        evals, evecs = np.linalg.eigh(cov)
        limits = np.sum((thresh @ evecs) ** 2, axis=0)
        rejected = evals > limits
        if np.any(rejected):
            a = evecs.T @ mixing
            a[rejected, :] = 0.0
            recon = mixing @ np.linalg.pinv(a, rcond=PINV_RCOND) @ evecs.T
            yw = recon @ xw
        else:
            yw = xw
        w = taper[: stop - start]
        out[:, start:stop] += yw * w
        norm[start:stop] += w

    out /= norm
    return Recording(data=out, sample_rate_hz=rec.sample_rate_hz,
                     channel_names=rec.channel_names)
