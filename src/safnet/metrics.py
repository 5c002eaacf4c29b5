"""Classification metrics and distribution analysis.

Macro metrics treat both classes equally regardless of support;
macro-accuracy is the unweighted mean of per-class recall (balanced
accuracy). The analysis half quantifies inter-subject variability on
spectral features: Welch PSD, band power, coefficient of variation,
one-way ANOVA F, silhouette, and IQR outlier filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sp_signal

from .errors import ConfigError, ValidationError

DEFAULT_BANDS = (
    ("Delta", 1.0, 4.0),
    ("Theta", 4.0, 8.0),
    ("Alpha", 8.0, 13.0),
    ("Beta", 13.0, 30.0),
    ("Gamma", 30.0, 100.0),
)


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # 2x2, rows true class, cols predicted

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (2, 2):
            raise ValidationError(f"confusion matrix must be 2x2, got {counts.shape}")
        if np.any(counts < 0):
            raise ValidationError("confusion matrix entries must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class BandDefinition:
    """Ordered, non-overlapping frequency ranges [lo, hi) in Hz."""

    bands: tuple[tuple[str, float, float], ...] = field(default=DEFAULT_BANDS)

    def __post_init__(self):
        prev_hi = 0.0
        for name, lo, hi in self.bands:
            if lo >= hi:
                raise ValidationError(f"band {name} has lo {lo} >= hi {hi}")
            if lo < prev_hi:
                raise ValidationError(f"band {name} overlaps the previous band")
            prev_hi = hi

    @property
    def names(self) -> list[str]:
        return [name for name, _, _ in self.bands]


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValidationError(
            f"length mismatch: {y_true.shape} truth vs {y_pred.shape} predictions"
        )
    for arr, kind in ((y_true, "true"), (y_pred, "predicted")):
        if arr.size and (arr.min() < 0 or arr.max() > 1):
            raise ValidationError(f"{kind} labels must be 0 or 1")
    counts = np.zeros((2, 2), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        counts[t, p] += 1
    return ConfusionMatrix(counts=counts)


def macro_metrics(cm: ConfusionMatrix) -> tuple[float, float, float, float]:
    """(macro_accuracy, macro_precision, macro_recall, macro_f1); per-class
    ratios with zero denominators count as 0."""
    if cm.total == 0:
        raise ValidationError("empty confusion matrix")
    counts = cm.counts.astype(np.float64)
    precisions, recalls, f1s = [], [], []
    for c in (0, 1):
        tp = counts[c, c]
        fn = counts[c, 1 - c]
        fp = counts[1 - c, c]
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    macro_recall = float(np.mean(recalls))
    return macro_recall, float(np.mean(precisions)), macro_recall, float(np.mean(f1s))


def welch_psd(x, fs: float, window_s: float = 2.0,
              overlap: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectral density of a single-channel series,
    Hann-windowed averaged periodograms."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"expected a 1-D series, got shape {x.shape}")
    nperseg = int(round(window_s * fs))
    if x.size < nperseg:
        raise ValidationError(
            f"series of {x.size} samples shorter than one {nperseg}-sample window"
        )
    freqs, psd = sp_signal.welch(x, fs=fs, window="hann", nperseg=nperseg,
                                 noverlap=int(round(nperseg * overlap)),
                                 scaling="density")
    return freqs, psd


def band_power(freqs: np.ndarray, psd: np.ndarray,
               bands: BandDefinition | None = None) -> dict[str, float]:
    """Trapezoidal integral of the PSD over each band, with the PSD linearly
    interpolated at the band edges so a flat PSD integrates to exactly the
    band width."""
    bands = bands or BandDefinition()
    freqs = np.asarray(freqs, dtype=np.float64)
    psd = np.asarray(psd, dtype=np.float64)
    powers: dict[str, float] = {}
    for name, lo, hi in bands.bands:
        if hi > freqs[-1] or lo < freqs[0]:
            raise ConfigError(
                f"band {name} [{lo},{hi}) outside PSD range "
                f"[{freqs[0]},{freqs[-1]}]"
            )
        inside = (freqs > lo) & (freqs < hi)
        grid = np.concatenate(([lo], freqs[inside], [hi]))
        values = np.concatenate(([np.interp(lo, freqs, psd)], psd[inside],
                                 [np.interp(hi, freqs, psd)]))
        powers[name] = float(np.trapezoid(values, grid))
    return powers


def coefficient_of_variation(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    mean = values.mean()
    if mean == 0.0:
        raise ValidationError("coefficient of variation undefined for zero mean")
    return float(values.std() / mean)


def f_statistic(features, groups) -> float:
    """One-way ANOVA F per feature dimension, averaged over dimensions."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    groups = np.asarray(groups)
    labels = np.unique(groups)
    if labels.size < 2:
        raise ValidationError("need at least two groups")
    members = [features[groups == g] for g in labels]
    for g, m in zip(labels, members):
        if m.shape[0] < 2:
            raise ValidationError(f"group {g!r} has fewer than two samples")

    n_total = features.shape[0]
    grand = features.mean(axis=0)
    ss_between = np.zeros(features.shape[1])
    ss_within = np.zeros(features.shape[1])
    for m in members:
        ss_between += m.shape[0] * (m.mean(axis=0) - grand) ** 2
        ss_within += ((m - m.mean(axis=0)) ** 2).sum(axis=0)
    df_between = labels.size - 1
    df_within = n_total - labels.size
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    with np.errstate(divide="ignore", invalid="ignore"):
        f_per_dim = ms_between / ms_within
    f_per_dim = np.where(ms_between == 0.0, 0.0, f_per_dim)
    return float(np.mean(f_per_dim))


def silhouette(features, labels) -> float:
    """Mean silhouette with Euclidean distance; singleton clusters score 0."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = features.shape[0]
    if n < 2:
        raise ValidationError("need at least two points")
    unique = np.unique(labels)
    if unique.size < 2:
        raise ValidationError("need at least two clusters")

    diff = features[:, None, :] - features[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    scores = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        n_own = int(own.sum())
        if n_own == 1:
            scores[i] = 0.0
            continue
        a = dist[i, own].sum() / (n_own - 1)
        b = min(dist[i, labels == other].mean()
                for other in unique if other != labels[i])
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def iqr_row_mask(features) -> np.ndarray:
    """Boolean mask of feature rows whose every dimension lies strictly inside
    that dimension's fence (Q1 - 1.5*IQR, Q3 + 1.5*IQR); in a dimension whose
    IQR is zero, only values equal to the common quartile pass."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValidationError("feature matrix must be 2-D")
    if features.shape[0] < 4:
        raise ValidationError("need at least four rows")
    mask = np.ones(features.shape[0], dtype=bool)
    for col in features.T:
        q1, q3 = np.percentile(col, [25.0, 75.0])
        iqr = q3 - q1
        if iqr == 0.0:
            mask &= col == q1
        else:
            mask &= (col > q1 - 1.5 * iqr) & (col < q3 + 1.5 * iqr)
    return mask


def clip_bands(bands: BandDefinition, max_hz: float) -> BandDefinition:
    """Intersect every band with (0, max_hz]; bands entirely above are
    dropped. Raises when nothing is left."""
    kept = []
    for name, lo, hi in bands.bands:
        if lo >= max_hz:
            continue
        kept.append((name, lo, min(hi, max_hz)))
    if not kept:
        raise ConfigError(f"no frequency band below {max_hz} Hz")
    return BandDefinition(bands=tuple(kept))


def log_band_power_features(arrays, fs: float, bands: BandDefinition | None = None,
                            window_s: float = 2.0,
                            overlap: float = 0.5) -> np.ndarray:
    """Row of log band powers, per channel, for each (C, M) array.

    Returns shape (len(arrays), n_bands * C), features ordered channel-major
    (all bands of channel 0, then channel 1, ...). Powers are floored at the
    smallest positive float before the log.
    """
    bands = bands if bands is not None else BandDefinition()
    rows = []
    for x in arrays:
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValidationError("each sample must be a (channels, samples) array")
        feats = []
        for ch in range(x.shape[0]):
            freqs, psd = welch_psd(x[ch], fs, window_s=window_s, overlap=overlap)
            feats.extend(band_power(freqs, psd, bands).values())
        rows.append(feats)
    powers = np.asarray(rows, dtype=np.float64)
    return np.log(np.maximum(powers, np.finfo(np.float64).tiny))


def standardize_features(features) -> np.ndarray:
    """Column-wise z-scoring; constant columns map to zero."""
    features = np.asarray(features, dtype=np.float64)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    return (features - mean) / std
