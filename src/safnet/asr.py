"""Artifact subspace reconstruction.

Fit learns a mixing matrix (square root of the calibration covariance) and
per-component RMS thresholds from clean calibration data; apply slides
half-overlapping windows over the signal, rejects components whose window
variance exceeds the threshold, reconstructs the window from the surviving
subspace, and blends windows with a raised-cosine weight.

Statistics are robust (median / normal-scaled MAD) rather than the truncated
Gaussian fit used by some toolboxes; deterministic and adequate here.

Calibration keeps the CALIB_WINDOW_S windows whose every channel has a
robust z-score of its RMS in [CALIB_Z_LO, CALIB_Z_HI], and falls back to
the whole recording when fewer than MIN_CALIB_WINDOWS survive. Fit and
apply work on PROC_WINDOW_S windows, overlapping by PROC_OVERLAP in apply.
Only the rejection cutoff, finite and positive, is configurable (AsrConfig).

Apply works on all windows at once: one np.matmul on a sliding-window view
gives the covariance of every full window (the few short windows at the end
are done one by one), one stacked eigh decomposes them all, and every
window's rejection limits come from one product. Only windows that reject
a component run the pseudo-inverse reconstruction. The blend adds the
weighted windows with one strided add per hop-sized segment of a window,
ordered so that every sample still sums its windows in window order: float
addition is not associative, and that order keeps the output bit-identical
to adding the windows one after the other, whatever the overlap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .datamodel import Recording
from .dsp import window_samples
from .errors import ValidationError

EIGVAL_CLAMP = 1e-12
PINV_RCOND = 1e-10
CALIB_WINDOW_S = 1.0
CALIB_Z_LO = -3.5
CALIB_Z_HI = 5.5
MIN_CALIB_WINDOWS = 30
PROC_WINDOW_S = 0.5
PROC_OVERLAP = 0.5


@dataclass(frozen=True)
class AsrConfig:
    cutoff_k: float = 20.0

    def __post_init__(self):
        if not (np.isfinite(self.cutoff_k) and self.cutoff_k > 0):
            raise ValidationError(f"cutoff_k must be finite and positive, "
                                  f"got {self.cutoff_k}")


@dataclass(frozen=True)
class AsrModel:
    mixing_M: np.ndarray
    threshold_T: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mixing_M, dtype=np.float64)
        t = np.asarray(self.threshold_T, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or t.shape != m.shape:
            raise ValidationError(f"model matrices {m.shape}, {t.shape} must be square")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-8 * scale:
            raise ValidationError("mixing matrix must be symmetric")
        if np.linalg.eigvalsh(m).min() < -1e-8 * scale:
            raise ValidationError("mixing matrix must be positive semi-definite")
        if not np.all(np.isfinite(t)):
            raise ValidationError("thresholds must be finite")
        object.__setattr__(self, "mixing_M", m)
        object.__setattr__(self, "threshold_T", t)

    @property
    def channels(self) -> int:
        return self.mixing_M.shape[0]


def _windows(data: np.ndarray, width: int) -> np.ndarray:
    """(C, N) -> (C, N//width, width) consecutive non-overlapping windows."""
    c, n = data.shape
    return data[:, : n // width * width].reshape(c, n // width, width)


def _window_rms(windows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(windows**2, axis=2))


def _robust_stats(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row median and normal-scaled MAD across columns, as (rows, 1) columns."""
    med = np.median(values, axis=1, keepdims=True)
    return med, 1.4826 * np.median(np.abs(values - med), axis=1, keepdims=True)


def _robust_z(values: np.ndarray) -> np.ndarray:
    """Per-row robust z-scores across columns; zero-MAD rows map equal
    values to 0 and everything else to +/-inf."""
    med, scale = _robust_stats(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (values - med) / scale
    z = np.where(scale > 0, z, np.where(values == med, 0.0, np.inf * np.sign(values - med)))
    return z


def select_calibration(rec: Recording, cfg: AsrConfig) -> Recording:
    """Keep windows whose every channel has robust z in [CALIB_Z_LO,
    CALIB_Z_HI].

    Falls back to the full recording when fewer than MIN_CALIB_WINDOWS
    windows survive. cfg is unused; the parameter stays for existing callers.
    """
    width = window_samples(CALIB_WINDOW_S, rec.sample_rate_hz, "calibration window")
    nwin = rec.samples // width
    if nwin < 1:
        raise ValidationError("recording shorter than one calibration window")
    windows = _windows(rec.data, width)
    z = _robust_z(_window_rms(windows))
    clean = np.all((z >= CALIB_Z_LO) & (z <= CALIB_Z_HI), axis=0)
    if int(clean.sum()) < MIN_CALIB_WINDOWS:
        return rec
    keep = windows[:, clean].reshape(rec.channels, -1)
    return replace(rec, data=keep)


def asr_fit(calib: Recording, cfg: AsrConfig) -> AsrModel:
    """Mixing matrix and per-component RMS thresholds from calibration data."""
    width = window_samples(PROC_WINDOW_S, calib.sample_rate_hz, "processing window")
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

    mu, sigma = _robust_stats(_window_rms(_windows(evecs.T @ x, width)))
    threshold = (mu + cfg.cutoff_k * sigma) * evecs.T
    return AsrModel(mixing_M=mixing, threshold_T=threshold)


def _overlap_add(frames: np.ndarray, hop: int, n: int) -> np.ndarray:
    """Sum (W, ..., width) frames, frame k starting at sample k*hop, into an
    (..., n) array; parts of frames beyond n are dropped.

    Frame segment j (samples j*hop onwards of each frame) of every frame is
    added in one strided add; taking j from last to first adds each
    sample's frames in window order.
    """
    count, width = frames.shape[0], frames.shape[-1]
    segments = -(-width // hop)
    out = np.zeros(frames.shape[1:-1] + (count + segments - 1, hop))
    for j in reversed(range(segments)):
        seg = np.moveaxis(frames[..., j * hop:(j + 1) * hop], 0, -2)
        out[..., j:j + count, :seg.shape[-1]] += seg
    return out.reshape(out.shape[:-2] + (-1,))[..., :n]


def asr_apply(rec: Recording, model: AsrModel) -> Recording:
    """Sliding-window subspace reconstruction with raised-cosine blending."""
    if rec.channels != model.channels:
        raise ValidationError(
            f"recording has {rec.channels} channels, model expects {model.channels}"
        )
    width = window_samples(PROC_WINDOW_S, rec.sample_rate_hz, "processing window")
    hop = max(1, int(round(width * (1.0 - PROC_OVERLAP))))
    n = rec.samples
    x = rec.data
    mixing = model.mixing_M
    thresh = model.threshold_T

    starts = np.arange(0, n, hop)
    full = max(0, (n - width) // hop + 1)
    # (full, C, width) view of the windows that fit; the rest are shorter
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(full, rec.channels, width),
        strides=(hop * x.strides[1],) + x.strides, writeable=False)
    tails = [x[:, start:] for start in starts[full:]]
    covs = np.concatenate(
        [np.matmul(windows, windows.transpose(0, 2, 1)) / width]
        + [(xw @ xw.T / xw.shape[1])[None] for xw in tails])
    evals, evecs = np.linalg.eigh(covs)
    limits = np.sum((thresh @ evecs) ** 2, axis=1)
    rejected = evals > limits

    taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * (np.arange(width) + 0.5) / width)
    frames = np.zeros((starts.size, rec.channels, width))
    frames[:full] = windows * taper
    for k, xw in enumerate(tails, start=full):
        frames[k, :, :xw.shape[1]] = xw * taper[:xw.shape[1]]
    for k in np.flatnonzero(rejected.any(axis=1)):
        xw = x[:, starts[k]:starts[k] + width]
        a = evecs[k].T @ mixing
        a[rejected[k], :] = 0.0
        recon = mixing @ np.linalg.pinv(a, rcond=PINV_RCOND) @ evecs[k].T
        frames[k, :, :xw.shape[1]] = (recon @ xw) * taper[:xw.shape[1]]

    out = (_overlap_add(frames, hop, n)
           / _overlap_add(np.broadcast_to(taper, (starts.size, width)), hop, n))
    return replace(rec, data=out)
