"""Classification metrics and distribution analysis.

Macro metrics treat both classes equally regardless of support;
macro-accuracy is the unweighted mean of per-class recall (balanced
accuracy). ``confusion`` returns the 2x2 int64 counts (rows the true class,
columns the predicted one) that ``macro_metrics`` reads. The analysis half
quantifies inter-subject variability on spectral features: Welch PSD, band
power, coefficient of variation, one-way ANOVA F, silhouette, and IQR
outlier filtering.

The feature path works on whole arrays: ``welch_psd`` transforms every
channel of every epoch it is given in one call along the last axis, and
``band_power`` integrates all those spectra at once into one array with
bands on its last axis. ``log_band_power_features`` hands them blocks of
at most FEATURE_BLOCK_VALUES float64 input values (one epoch, if an epoch
is larger), so it costs two numpy-level calls per block rather than one
Welch and one band loop per channel per epoch, and its temporaries stay
the size of one block however many epochs it gets; it checks every
epoch's shape once, before the first block. The Welch window and
overlap are constants, and ``welch_top_hz`` gives the top of the grid they
make, where every band must end. ``iqr_row_mask`` takes every column's
quartiles from one percentile call. ``silhouette`` takes its pairwise
distances from ``cdist`` and every point's per-cluster distance sums from
products with a one-hot membership matrix, in blocks of rows whose
distances to all n points hold at most SILHOUETTE_BLOCK_VALUES values, so
it builds neither the n x n distance matrix nor an n x n x d temporary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sp_signal
from scipy.spatial.distance import cdist

from .errors import ConfigError, ValidationError

DEFAULT_BANDS = (
    ("Delta", 1.0, 4.0),
    ("Theta", 4.0, 8.0),
    ("Alpha", 8.0, 13.0),
    ("Beta", 13.0, 30.0),
    ("Gamma", 30.0, 100.0),
)
WELCH_WINDOW_S = 2.0
WELCH_OVERLAP = 0.5
# float64 input values per Welch block of log_band_power_features (512 KiB)
FEATURE_BLOCK_VALUES = 1 << 16
# float64 distances per row block of silhouette (8 MiB)
SILHOUETTE_BLOCK_VALUES = 1 << 20


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


def confusion(y_true, y_pred) -> np.ndarray:
    """2x2 int64 counts, rows the true class and columns the predicted one."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.ndim != 1 or y_pred.ndim != 1:
        raise ValidationError(f"labels must be 1-D, got shapes {y_true.shape} "
                              f"and {y_pred.shape}")
    if y_true.shape != y_pred.shape:
        raise ValidationError(
            f"length mismatch: {y_true.shape} truth vs {y_pred.shape} predictions"
        )
    for arr, kind in ((y_true, "true"), (y_pred, "predicted")):
        if arr.size and (arr.min() < 0 or arr.max() > 1):
            raise ValidationError(f"{kind} labels must be 0 or 1")
    return np.bincount(2 * y_true + y_pred, minlength=4).reshape(2, 2)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def macro_metrics(counts) -> tuple[float, float, float, float]:
    """(macro_accuracy, macro_precision, macro_recall, macro_f1) of 2x2
    confusion counts; per-class ratios with zero denominators count as 0."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (2, 2):
        raise ValidationError(f"confusion matrix must be 2x2, got {counts.shape}")
    if np.any(counts < 0):
        raise ValidationError("confusion matrix entries must be non-negative")
    if counts.sum() == 0:
        raise ValidationError("empty confusion matrix")
    counts = counts.astype(np.float64)
    tp = np.diag(counts)
    recall = _ratio(tp, counts.sum(axis=1))
    precision = _ratio(tp, counts.sum(axis=0))
    f1 = _ratio(2 * precision * recall, precision + recall)
    macro_recall = float(recall.mean())
    return macro_recall, float(precision.mean()), macro_recall, float(f1.mean())


def _welch_samples(fs: float) -> int:
    """Samples in one Welch window at fs; a rate that leaves none is refused."""
    nperseg = int(round(WELCH_WINDOW_S * fs))
    if nperseg < 1:
        raise ValidationError(f"sample rate {fs} Hz leaves the Welch window empty")
    return nperseg


def welch_psd(x, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectral density along the last axis of an (..., M)
    array, Hann-windowed averaged periodograms of WELCH_WINDOW_S windows that
    overlap by WELCH_OVERLAP. Returns (freqs, psd), psd shaped (..., F)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        raise ValidationError("expected a series, got a scalar")
    nperseg = _welch_samples(fs)
    if x.shape[-1] < nperseg:
        raise ValidationError(
            f"series of {x.shape[-1]} samples shorter than one {nperseg}-sample window"
        )
    freqs, psd = sp_signal.welch(x, fs=fs, window="hann", nperseg=nperseg,
                                 noverlap=int(round(nperseg * WELCH_OVERLAP)),
                                 scaling="density", axis=-1)
    return freqs, psd


def welch_top_hz(fs: float) -> float:
    """The top frequency of welch_psd's grid at fs, where every band must
    end: fs/2 only for a window of an even number of samples, and even then
    it may lie an ulp below, so it is read off the grid of a window of
    zeros."""
    freqs, _ = welch_psd(np.zeros(_welch_samples(fs)), fs)
    return float(freqs[-1])


def _edge_value(freqs: np.ndarray, psd: np.ndarray, f: float) -> np.ndarray:
    """(...,) PSD at frequency f: the linear blend of the two bins around
    it, in np.interp's arithmetic, and the bin itself when f is on one."""
    j = int(np.searchsorted(freqs, f, side="right")) - 1
    if freqs[j] == f:
        return psd[..., j]
    slope = (psd[..., j + 1] - psd[..., j]) / (freqs[j + 1] - freqs[j])
    return slope * (f - freqs[j]) + psd[..., j]


def band_power(freqs: np.ndarray, psd: np.ndarray,
               bands: BandDefinition | None = None) -> np.ndarray:
    """Trapezoidal integral of a (..., F) PSD over each band, with the PSD
    linearly interpolated at the band edges so a flat PSD integrates to
    exactly the band width. Returns shape psd.shape[:-1] + (n_bands,), bands
    in the order of their definition."""
    bands = bands or BandDefinition()
    freqs = np.asarray(freqs, dtype=np.float64)
    psd = np.asarray(psd, dtype=np.float64)
    powers = []
    for name, lo, hi in bands.bands:
        if hi > freqs[-1] or lo < freqs[0]:
            raise ConfigError(
                f"band {name} [{lo},{hi}) outside PSD range "
                f"[{freqs[0]},{freqs[-1]}]"
            )
        # the bins strictly inside (lo, hi), as a slice so that values keeps
        # frequency as its contiguous axis and each row sums as a 1-D PSD would
        inside = slice(np.searchsorted(freqs, lo, side="right"),
                       np.searchsorted(freqs, hi, side="left"))
        grid = np.concatenate(([lo], freqs[inside], [hi]))
        values = np.concatenate((_edge_value(freqs, psd, lo)[..., None],
                                 psd[..., inside],
                                 _edge_value(freqs, psd, hi)[..., None]), axis=-1)
        powers.append(np.trapezoid(values, grid, axis=-1))
    return np.stack(powers, axis=-1)


def coefficient_of_variation(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    mean = values.mean()
    if mean == 0.0:
        raise ValidationError("coefficient of variation undefined for zero mean")
    return float(values.std() / mean)


def f_statistic(features, groups) -> float:
    """One-way ANOVA F per feature dimension, averaged over dimensions. A
    dimension with no spread at all scores 0; one with no spread within the
    groups but some between them, whose F is infinite, is refused with a
    ValidationError naming it."""
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
            raise ValidationError(f"group {g} has fewer than two samples")

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
    infinite = np.flatnonzero((ms_within == 0.0) & (ms_between > 0.0))
    if infinite.size:
        raise ValidationError(
            f"feature dimension {infinite[0]} varies between groups but not "
            f"within any, so its F statistic is infinite")
    f_per_dim = np.divide(ms_between, ms_within, out=np.zeros_like(ms_between),
                          where=ms_between != 0.0)
    return float(np.mean(f_per_dim))


def silhouette(features, labels) -> float:
    """Mean silhouette with Euclidean distance; a point in a singleton
    cluster, or whose own and nearest clusters lie on it (a = b = 0), scores 0.
    Each row's distance sums to the clusters come from a block of
    max(1, SILHOUETTE_BLOCK_VALUES // n) rows: the block's distances to all
    n rows times the (n, clusters) one-hot membership matrix. Up to 1,024
    rows are one block; the sums of smaller blocks can differ in the last
    bits, as BLAS may order a product's additions by its shape."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = features.shape[0]
    if n < 2:
        raise ValidationError("need at least two points")
    unique, cluster = np.unique(labels, return_inverse=True)
    if unique.size < 2:
        raise ValidationError("need at least two clusters")

    members = (cluster[:, None] == np.arange(unique.size)).astype(np.float64)
    sums = np.empty((n, unique.size))  # distance sums to every cluster
    per_block = max(1, SILHOUETTE_BLOCK_VALUES // n)
    for start in range(0, n, per_block):
        block = slice(start, start + per_block)
        np.matmul(cdist(features[block], features), members, out=sums[block])
    sizes = np.bincount(cluster)
    rows = np.arange(n)
    own = sizes[cluster] > 1
    a = sums[rows, cluster] / np.maximum(sizes[cluster] - 1, 1)
    means = sums / sizes
    means[rows, cluster] = np.inf
    b = means.min(axis=1)
    scores = np.zeros(n)
    scores[own] = _ratio(b[own] - a[own], np.maximum(a[own], b[own]))
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
    q1, q3 = np.percentile(features, [25.0, 75.0], axis=0)
    iqr = q3 - q1
    inside = (features > q1 - 1.5 * iqr) & (features < q3 + 1.5 * iqr)
    return np.where(iqr == 0.0, features == q1, inside).all(axis=1)


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


def log_band_power_features(arrays, fs: float,
                            bands: BandDefinition | None = None) -> np.ndarray:
    """Row of log band powers, per channel, for each (C, M) array.

    arrays is a sequence of equally shaped (C, M) arrays or one (N, C, M)
    array. Returns shape (N, n_bands * C), features ordered channel-major
    (all bands of channel 0, then channel 1, ...). Powers are floored at the
    smallest positive float before the log. An empty input, or samples not
    all of one (C, M) shape, are refused before the first block.

    The epochs go through Welch in blocks of max(1, FEATURE_BLOCK_VALUES //
    (C * M)), each stacked to float64 on its own, so the temporaries are
    those of one block, not of all N epochs: beyond the output, about 7
    float64 copies of a block (3.7 MB traced at 6 x 256 samples an epoch).
    Every step works one row at a time, so the rows are bit for bit those
    of one call over all epochs.
    """
    bands = bands if bands is not None else BandDefinition()
    try:
        shapes = {np.shape(a) for a in arrays}
    except ValueError as exc:  # a ragged nested sequence has no shape
        raise ValidationError(f"samples differ in shape: {exc}") from exc
    if not shapes or any(len(shape) != 2 for shape in shapes):
        raise ValidationError("each sample must be a (channels, samples) array")
    if len(shapes) > 1:
        raise ValidationError(f"samples differ in shape: {sorted(shapes)}")
    (channels, samples), = shapes
    out = np.empty((len(arrays), len(bands.bands) * channels))
    per_block = max(1, FEATURE_BLOCK_VALUES // max(1, channels * samples))
    for start in range(0, len(arrays), per_block):
        x = np.asarray(arrays[start:start + per_block], dtype=np.float64)
        freqs, psd = welch_psd(x, fs)
        powers = band_power(freqs, psd, bands).reshape(x.shape[0], -1)
        np.log(np.maximum(powers, np.finfo(np.float64).tiny),
               out=out[start:start + x.shape[0]])
    return out


def standardize_features(features) -> np.ndarray:
    """Column-wise z-scoring; constant columns map to zero."""
    features = np.asarray(features, dtype=np.float64)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    return (features - mean) / std
