import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal
from scipy import stats as sp_stats
from scipy.spatial.distance import cdist

from safnet import metrics
from safnet.errors import ConfigError, ValidationError
from safnet.metrics import (
    BandDefinition,
    band_power,
    clip_bands,
    coefficient_of_variation,
    confusion,
    f_statistic,
    iqr_row_mask,
    log_band_power_features,
    macro_metrics,
    silhouette,
    welch_psd,
    welch_top_hz,
)


def brute_force_macro(y_true, y_pred):
    """Independent per-class metric computation straight from the lists."""
    per_class = {}
    for c in (0, 1):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        recall = tp / (tp + fn) if tp + fn else 0.0
        precision = tp / (tp + fp) if tp + fp else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[c] = (precision, recall, f1)
    prec = (per_class[0][0] + per_class[1][0]) / 2
    rec = (per_class[0][1] + per_class[1][1]) / 2
    f1 = (per_class[0][2] + per_class[1][2]) / 2
    return rec, prec, rec, f1


def brute_force_silhouette(features, labels):
    n = len(features)
    scores = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(features[i] - features[j]) for j in same])
        b = min(
            np.mean([np.linalg.norm(features[i] - features[j])
                     for j in range(n) if labels[j] == lab])
            for lab in set(labels) if lab != labels[i]
        )
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


def loop_log_band_power_features(arrays, fs, bands, window_s=2.0, overlap=0.5):
    """The per-channel loop the batched features replaced: one Welch and one
    band loop, with np.interp at the band edges, per channel per epoch."""
    rows = []
    for x in arrays:
        feats = []
        for ch in np.asarray(x, dtype=np.float64):
            nperseg = int(round(window_s * fs))
            freqs, psd = sp_signal.welch(ch, fs=fs, window="hann", nperseg=nperseg,
                                         noverlap=int(round(nperseg * overlap)),
                                         scaling="density")
            for _, lo, hi in bands.bands:
                inside = (freqs > lo) & (freqs < hi)
                grid = np.concatenate(([lo], freqs[inside], [hi]))
                values = np.concatenate(([np.interp(lo, freqs, psd)], psd[inside],
                                         [np.interp(hi, freqs, psd)]))
                feats.append(float(np.trapezoid(values, grid)))
        rows.append(feats)
    return np.log(np.maximum(np.asarray(rows), np.finfo(np.float64).tiny))


class TestConfusion:
    def test_perfect(self):
        counts = confusion([0, 0, 1, 1], [0, 0, 1, 1])
        assert counts.dtype == np.int64
        assert np.array_equal(counts, [[2, 0], [0, 2]])

    def test_all_zero_prediction(self):
        assert np.array_equal(confusion([0, 1], [0, 0]), [[1, 0], [1, 0]])

    def test_empty(self):
        assert np.array_equal(confusion([], []), np.zeros((2, 2)))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            confusion([0, 1], [0])

    def test_bad_label(self):
        with pytest.raises(ValidationError):
            confusion([0, 2], [0, 1])

    @pytest.mark.parametrize("y_true, y_pred", [
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),  # 2-D
        (1, 1),                                 # 0-D
        ([0, 1], [[0, 1]]),                     # one side 2-D
    ])
    def test_labels_that_are_not_1d_rejected(self, y_true, y_pred):
        with pytest.raises(ValidationError, match="1-D"):
            confusion(y_true, y_pred)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            macro_metrics(np.array([[1, -1], [0, 0]]))


class TestMacroMetrics:
    def test_perfect_scores(self):
        assert macro_metrics(np.array([[5, 0], [0, 5]])) == \
               (1.0, 1.0, 1.0, 1.0)

    def test_all_zero_predictions_balanced(self):
        acc, _, _, f1 = macro_metrics(np.array([[4, 0], [4, 0]]))
        assert acc == pytest.approx(0.5)
        assert f1 == pytest.approx((2 * 0.5 * 1.0 / 1.5 + 0.0) / 2, abs=1e-4)

    def test_hand_case(self):
        _, _, recall, _ = macro_metrics(np.array([[3, 1], [2, 4]]))
        assert recall == pytest.approx((0.75 + 4 / 6) / 2, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            macro_metrics(np.zeros((2, 2), dtype=int))

    def test_non_2x2_rejected(self):
        with pytest.raises(ValidationError, match="2x2"):
            macro_metrics(np.ones((3, 3), dtype=int))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            y_true = rng.integers(0, 2, n).tolist()
            y_pred = rng.integers(0, 2, n).tolist()
            got = macro_metrics(confusion(y_true, y_pred))
            expected = brute_force_macro(y_true, y_pred)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_class_relabeling_symmetry(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 2, 50)
        y_pred = rng.integers(0, 2, 50)
        direct = macro_metrics(confusion(y_true, y_pred))
        flipped = macro_metrics(confusion(1 - y_true, 1 - y_pred))
        assert direct == pytest.approx(flipped, abs=1e-12)

    def test_macro_accuracy_ignores_imbalance(self):
        y_true = [0] * 10 + [1] * 5
        y_pred = [0] * 8 + [1] * 2 + [1] * 4 + [0]
        base = macro_metrics(confusion(y_true, y_pred))[0]
        dup = macro_metrics(confusion(y_true + [1] * 5, y_pred + y_pred[10:]))[0]
        assert base == pytest.approx(dup, abs=1e-12)


class TestWelchPsd:
    def test_sine_peak_and_power(self):
        fs = 512.0
        t = np.arange(int(60 * fs)) / fs
        x = np.sin(2 * np.pi * 10.0 * t)
        freqs, psd = welch_psd(x, fs)
        assert abs(freqs[np.argmax(psd)] - 10.0) <= 0.5
        total = np.trapezoid(psd, freqs)
        assert abs(total - 0.5) < 0.05 * 0.5

    def test_white_noise_parseval(self):
        fs = 128.0
        totals = []
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal(int(64 * fs))
            freqs, psd = welch_psd(x, fs)
            totals.append(np.trapezoid(psd, freqs))
        assert 0.9 <= np.mean(totals) <= 1.1

    def test_zero_signal(self):
        _, psd = welch_psd(np.zeros(4096), 512.0)
        assert np.all(psd == 0.0)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            welch_psd(np.zeros(100), 512.0)

    def test_rate_too_low_for_a_window(self):
        """At 0.2 Hz a 2 s window rounds to no sample at all."""
        with pytest.raises(ValidationError, match="Welch window empty"):
            welch_psd(np.zeros(4), 0.2)

    @pytest.mark.parametrize("fs, top", [
        (128.0, 64.0), (100.5, 50.0),
        (float(np.float32(8.8)), np.nextafter(float(np.float32(8.8)) / 2, 0.0))])
    def test_top_frequency_is_the_grid_top(self, fs, top):
        """An odd window (201 samples at 100.5 Hz) has no bin at fs/2, and at
        8.8 Hz stored as float32 the even window's top bin is an ulp below
        fs/2."""
        freqs, _ = welch_psd(np.zeros(int(4 * fs)), fs)
        assert welch_top_hz(fs) == freqs[-1] == top


class TestAnalysisBands:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(8.0, 1024.0, exclude_max=True, width=32))
    def test_clipped_bands_fit_the_grid(self, fs):
        """The bands analyze uses at any float32 rate in [8, 1024) Hz lie
        inside the Welch grid of 2.5 s epochs, so the features are computed
        without a refusal."""
        fs = float(fs)
        bands = clip_bands(BandDefinition(), welch_top_hz(fs))
        x = np.random.default_rng(0).standard_normal((1, 1, int(round(2.5 * fs))))
        features = log_band_power_features(x, fs, bands)
        assert features.shape == (1, len(bands.bands))
        assert np.all(np.isfinite(features))


class TestBandPower:
    def test_sine_concentrates_in_alpha(self):
        fs = 512.0
        t = np.arange(int(120 * fs)) / fs
        freqs, psd = welch_psd(np.sin(2 * np.pi * 10.0 * t), fs)
        delta, theta, alpha, beta, gamma = band_power(freqs, psd)
        for other in (delta, theta, beta, gamma):
            assert alpha > 10 * other

    def test_flat_psd_gives_band_width(self):
        freqs = np.linspace(0, 128, 257)
        powers = band_power(freqs, np.ones_like(freqs))
        widths = [hi - lo for _, lo, hi in BandDefinition().bands]
        np.testing.assert_allclose(powers, widths, rtol=0, atol=1e-9)

    def test_zero_psd(self):
        freqs = np.linspace(0, 128, 257)
        assert np.array_equal(band_power(freqs, np.zeros_like(freqs)), np.zeros(5))

    def test_band_beyond_psd_range(self):
        freqs = np.linspace(0, 40, 81)
        with pytest.raises(ConfigError):
            band_power(freqs, np.ones_like(freqs))

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValidationError):
            BandDefinition(bands=(("A", 1.0, 5.0), ("B", 4.0, 8.0)))


class TestBatchedFeatures:
    """log_band_power_features against the per-channel loop it replaced. The
    Welch window and overlap are module constants; the cases at other
    values set them for the length of the test."""

    @pytest.mark.parametrize("n, m, window_s, overlap", [
        (1, 256, 2.0, 0.5),     # one epoch, exactly one window
        (7, 700, 2.0, 0.5),     # M not a multiple of the window
        (7, 700, 1.5, 0.0),     # no overlap, window not a power of two
        (20, 384, 1.0, 0.5),
    ])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_matches_per_channel_loop(self, n, m, window_s, overlap, as_list,
                                      monkeypatch):
        monkeypatch.setattr(metrics, "WELCH_WINDOW_S", window_s)
        monkeypatch.setattr(metrics, "WELCH_OVERLAP", overlap)
        fs = 128.0
        rng = np.random.default_rng(n * m)
        x = rng.standard_normal((n, 3, m)).astype(np.float32)
        x[:, 1] += np.sin(2 * np.pi * 10.0 * np.arange(m) / fs)
        bands = clip_bands(BandDefinition(), fs / 2.0)  # Gamma ends at Nyquist
        got = log_band_power_features(list(x) if as_list else x, fs, bands)
        expected = loop_log_band_power_features(x, fs, bands, window_s, overlap)
        assert got.shape == (n, 3 * len(bands.bands))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_band_edges_between_and_on_bins(self):
        fs = 100.0
        x = np.random.default_rng(3).standard_normal((4, 2, 300))
        bands = BandDefinition(bands=(("a", 0.0, 1.0), ("b", 1.3, 7.77),
                                      ("c", 20.0, 50.0)))
        got = log_band_power_features(x, fs, bands)
        expected = loop_log_band_power_features(x, fs, bands)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_band_power_of_stacked_psd_matches_rows(self):
        freqs = np.linspace(0, 128, 257)
        psd = np.random.default_rng(4).uniform(0, 1, (5, 2, 257))
        stacked = band_power(freqs, psd)
        assert stacked.shape == (5, 2, 5)
        for i in range(5):
            for c in range(2):
                row = band_power(freqs, psd[i, c])
                assert row.shape == (5,)
                np.testing.assert_allclose(stacked[i, c], row, rtol=1e-12,
                                           atol=1e-12)

    def test_ragged_input_rejected(self):
        with pytest.raises(ValidationError):
            log_band_power_features([np.zeros((2, 512)), np.zeros((2, 600))], 128.0)
        with pytest.raises(ValidationError):
            log_band_power_features([np.zeros((2, 512)), np.zeros((3, 512))], 128.0)

    # the blocked path at C = 2, M = 256: b epochs go through Welch at a time
    FS, C, M = 128.0, 2, 256

    def per_block(self):
        return max(1, metrics.FEATURE_BLOCK_VALUES // (self.C * self.M))

    def bands(self):
        return clip_bands(BandDefinition(), self.FS / 2.0)

    def epochs(self, n):
        rng = np.random.default_rng(n)
        return rng.standard_normal((n, self.C, self.M)).astype(np.float32)

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                             ids=["1", "b-1", "b", "b+1", "2b+3"])
    def test_blocks_match_one_welch_bytes(self, blocks, extra):
        """Every step works one row at a time, so blocks change no bit."""
        n = blocks * self.per_block() + extra
        x = self.epochs(n)
        bands = self.bands()
        whole = np.asarray(x, dtype=np.float64)
        freqs, psd = welch_psd(whole, self.FS)
        powers = band_power(freqs, psd, bands).reshape(n, -1)
        expected = np.log(np.maximum(powers, np.finfo(np.float64).tiny))
        for arrays in (x, list(x)):
            got = log_band_power_features(arrays, self.FS, bands)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_extra, odd_shape", [
        (1, (2, 300)),      # the second block is the odd epoch alone
        (1, (3, 256)),      # the same with another channel count
        (2, (2, 300)),      # the odd epoch opens a two-epoch second block
    ], ids=["alone-samples", "alone-channels", "shared-samples"])
    def test_ragged_epoch_in_second_block_rejected(self, n_extra, odd_shape):
        b = self.per_block()
        arrays = list(self.epochs(b + n_extra))
        arrays[b] = np.zeros(odd_shape, dtype=np.float32)
        with pytest.raises(ValidationError, match="differ in shape"):
            log_band_power_features(arrays, self.FS, self.bands())

    def test_odd_epoch_in_the_last_block_refused_before_any_welch(self, monkeypatch):
        """Every epoch's shape is checked before the first block, so an odd
        one in the last block is refused before Welch has run once."""
        def welch(*args, **kwargs):
            raise AssertionError("welch_psd called")

        arrays = list(self.epochs(2 * self.per_block() + 1))
        arrays[-1] = np.zeros((self.C, self.M + 1), dtype=np.float32)
        monkeypatch.setattr(metrics, "welch_psd", welch)
        with pytest.raises(ValidationError, match="differ in shape"):
            log_band_power_features(arrays, self.FS, self.bands())

    @pytest.mark.parametrize("arrays", [[], np.zeros((0, 2, 256))],
                             ids=["list", "array"])
    def test_empty_input_rejected(self, arrays):
        with pytest.raises(ValidationError):
            log_band_power_features(arrays, self.FS, self.bands())

    def test_memory_bounded_by_the_block(self):
        """The traced peak beyond the output does not grow with N: at 8b
        epochs it is within 1.25x the peak at 2b plus the larger output."""
        b = self.per_block()
        peaks = {}
        for n in (2 * b, 8 * b):
            x = self.epochs(n)
            tracemalloc.start()
            try:
                out = log_band_power_features(x, self.FS, self.bands())
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8 * b] <= 1.25 * peaks[2 * b] + out.nbytes

    def test_one_channel_series_rejected(self):
        with pytest.raises(ValidationError):
            log_band_power_features(np.zeros((4, 512)), 128.0)


class TestCoefficientOfVariation:
    def test_identical_values(self):
        assert coefficient_of_variation([3.0, 3.0, 3.0]) == 0.0

    def test_two_point(self):
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_textbook_case(self):
        assert coefficient_of_variation([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(0.4)

    def test_zero_mean(self):
        with pytest.raises(ValidationError):
            coefficient_of_variation([-1.0, 1.0])


class TestFStatistic:
    def test_identical_distributions_near_one(self):
        # Two groups of n=1000 drawn from one distribution; averaging over
        # 300 independent dimensions concentrates the mean of the
        # per-dimension F draws tightly around 1.
        rng = np.random.default_rng(2)
        features = rng.standard_normal((2000, 300))
        groups = np.array([0] * 1000 + [1] * 1000)
        assert 0.8 <= f_statistic(features, groups) <= 1.3

    def test_separated_groups_large(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((200, 3))
        b = rng.standard_normal((200, 3)) + 10.0
        f = f_statistic(np.vstack([a, b]), np.array([0] * 200 + [1] * 200))
        assert f > 10.0

    def test_exact_copies_give_near_zero(self):
        # Duplicating a group makes the group means identical; the F collapses
        # to zero up to floating-point rounding of the grand mean.
        rng = np.random.default_rng(4)
        a = rng.standard_normal((50, 3))
        f = f_statistic(np.vstack([a, a]), np.array([0] * 50 + [1] * 50))
        assert 0.0 <= f < 1e-12

    def test_constant_features_give_zero(self):
        f = f_statistic(np.full((8, 3), 2.5), np.array([0] * 4 + [1] * 4))
        assert f == 0.0

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((90, 5)) + rng.integers(0, 3, 90)[:, None] * 0.5
        groups = rng.integers(0, 3, 90)
        mine = f_statistic(features, groups)
        per_dim = [
            sp_stats.f_oneway(*(features[groups == g, d] for g in np.unique(groups)))[0]
            for d in range(5)
        ]
        assert mine == pytest.approx(np.mean(per_dim), rel=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        features = rng.standard_normal((60, 2))
        groups = rng.integers(0, 2, 60)
        f1 = f_statistic(features, groups)
        f2 = f_statistic(features + 42.0, groups)
        assert f1 == pytest.approx(f2, rel=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        features = rng.standard_normal((60, 2))
        groups = rng.integers(0, 2, 60)
        assert f_statistic(features, groups) == pytest.approx(
            f_statistic(features * 7.5, groups), rel=1e-8)

    def test_dimension_without_spread_within_groups_refused(self):
        """Dimension 1 is constant within each group and differs between
        them, so its F is infinite: refused, naming the dimension, however
        informative dimension 0 is."""
        rng = np.random.default_rng(8)
        features = np.column_stack([rng.standard_normal(8),
                                    np.repeat([1.0, 3.0], 4)])
        with pytest.raises(ValidationError, match="feature dimension 1 varies"):
            f_statistic(features, np.repeat([0, 1], 4))

    def test_groups_of_equal_rows_refused_after_standardizing(self):
        """Each group's rows are equal, but after z-scoring the within-group
        sum of squares rounds to about 1e-31 instead of 0: still refused,
        not scored 1.6e33."""
        features = metrics.standardize_features(
            np.array([[0.1]] * 6 + [[0.2]] * 6))
        with pytest.raises(ValidationError, match="feature dimension 0 varies"):
            f_statistic(features, [0] * 6 + [1] * 6)

    @pytest.mark.parametrize("value, n0, n1", [
        (0.1, 6, 6),      # group means round apart from the grand mean: F 40
        (1 / 3, 10, 13),  # F 298.2
        (0.3, 5, 6),      # group rows equal their mean exactly: refused
        (1.1, 3, 4),
    ])
    def test_constant_dimension_scores_zero_whatever_its_rounding(self, value,
                                                                  n0, n1):
        """A constant column scores 0, however its group and grand means
        round; the sums of squares alone gave the F or refusal noted."""
        assert f_statistic(np.full((n0 + n1, 1), value), [0] * n0 + [1] * n1) == 0.0

    def test_singleton_group_rejected(self):
        with pytest.raises(ValidationError):
            f_statistic(np.ones((3, 2)), np.array([0, 0, 1]))


class TestSilhouette:
    def test_separated_blobs(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((30, 2)) * 0.1
        b = rng.standard_normal((30, 2)) * 0.1 + 20.0
        score = silhouette(np.vstack([a, b]), np.array([0] * 30 + [1] * 30))
        assert score > 0.9

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(9)
        blob = rng.standard_normal((60, 3))
        labels = rng.integers(0, 2, 60)
        assert abs(silhouette(blob, labels)) < 0.1

    def test_four_point_hand_case(self):
        features = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        got = silhouette(features, labels)
        assert got == pytest.approx(brute_force_silhouette(features, labels), abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            n = int(rng.integers(5, 50))
            features = rng.standard_normal((n, 3))
            labels = rng.integers(0, 3, n)
            if np.unique(labels).size < 2:
                continue
            got = silhouette(features, labels)
            expected = brute_force_silhouette(features, labels)
            assert got == pytest.approx(expected, abs=1e-12), trial

    def test_singleton_cluster_scores_zero(self):
        features = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1])
        assert silhouette(features, labels) == pytest.approx(
            brute_force_silhouette(features, labels), abs=1e-12)

    def test_coincident_points_score_zero(self):
        """A point whose own and nearest clusters are both at distance 0 has
        a = b = 0 and scores 0, as a singleton does; the others keep theirs."""
        assert silhouette(np.zeros((6, 3)), np.array([0, 0, 0, 1, 1, 1])) == 0.0
        features = np.array([[0.0], [0.0], [0.0], [0.0], [3.0], [3.0]])
        assert silhouette(features, np.array([0, 0, 1, 1, 2, 2])) == pytest.approx(1 / 3)

    def test_memory_grows_linearly_in_the_rows(self):
        """4x the rows stay within 5x the traced peak: the distances live in
        row blocks of SILHOUETTE_BLOCK_VALUES, not in an n x n matrix (8 MB
        at 1,000 rows, 128 MB at 4,000)."""
        rng = np.random.default_rng(16)
        peaks = {}
        for n in (1000, 4000):
            features = rng.standard_normal((n, 8))
            labels = np.arange(n) % 4
            tracemalloc.start()
            try:
                silhouette(features, labels)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] <= 5 * peaks[1000]

    def test_one_block_gives_the_unblocked_bytes(self):
        """Up to 1,024 rows are one block, whose product is the one the
        whole distance matrix went through."""
        rng = np.random.default_rng(17)
        for n in (480, 1024):
            labels = np.arange(n) % 8
            features = rng.standard_normal((n, 30)) + labels[:, None] * 0.05
            members = (labels[:, None] == np.arange(8)).astype(np.float64)
            sums = cdist(features, features) @ members
            a = sums[np.arange(n), labels] / (n // 8 - 1)
            means = sums / (n // 8)
            means[np.arange(n), labels] = np.inf
            b = means.min(axis=1)
            want = float(((b - a) / np.maximum(a, b)).mean())
            assert silhouette(features, labels) == want

    @pytest.mark.parametrize("block_values", [1, 7 * 481])
    def test_smaller_blocks_agree_to_rounding(self, monkeypatch, block_values):
        rng = np.random.default_rng(17)
        labels = np.arange(481) % 8
        features = rng.standard_normal((481, 30)) + labels[:, None] * 0.05
        want = silhouette(features, labels)
        monkeypatch.setattr(metrics, "SILHOUETTE_BLOCK_VALUES", block_values)
        assert silhouette(features, labels) == pytest.approx(want, rel=1e-12, abs=0)

    def test_matches_brute_force_at_analysis_size(self):
        """480 epochs of 30 features over 8 subjects, the size the signal
        analysis runs at; one subject reduced to a singleton."""
        rng = np.random.default_rng(15)
        labels = np.repeat(np.arange(8), 60)
        features = rng.standard_normal((480, 30)) + labels[:, None] * 0.05
        labels[0] = 8  # a singleton cluster
        got = silhouette(features, labels)
        assert got == pytest.approx(brute_force_silhouette(features, labels),
                                    rel=1e-12, abs=1e-12)

    def test_one_cluster_rejected(self):
        with pytest.raises(ValidationError):
            silhouette(np.ones((4, 2)), np.zeros(4))


class TestFeatureHelpers:
    def test_iqr_row_mask_drops_outlier_row(self):
        from safnet.metrics import iqr_row_mask
        rng = np.random.default_rng(12)
        features = rng.uniform(0, 1, (20, 3))
        features[7, 1] = 100.0
        mask = iqr_row_mask(features)
        assert not mask[7]
        assert mask.sum() >= 15

    def test_iqr_row_mask_needs_rows(self):
        from safnet.metrics import iqr_row_mask
        with pytest.raises(ValidationError):
            iqr_row_mask(np.ones((3, 2)))

    def test_clip_bands_trims_and_drops(self):
        from safnet.metrics import clip_bands
        clipped = clip_bands(BandDefinition(), 64.0)
        assert clipped.bands[-1] == ("Gamma", 30.0, 64.0)
        clipped = clip_bands(BandDefinition(), 20.0)
        names = [name for name, _, _ in clipped.bands]
        assert names == ["Delta", "Theta", "Alpha", "Beta"]
        assert clipped.bands[-1] == ("Beta", 13.0, 20.0)

    def test_clip_bands_none_left(self):
        from safnet.metrics import clip_bands
        with pytest.raises(ConfigError):
            clip_bands(BandDefinition(), 0.5)

    def test_log_band_power_feature_layout(self):
        from safnet.metrics import log_band_power_features
        fs = 256.0
        t = np.arange(int(8 * fs)) / fs
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, t.size)) * 0.1
        x[1] += np.sin(2 * np.pi * 10.0 * t)  # alpha-band tone, channel 1
        feats = log_band_power_features([x, x], fs)
        assert feats.shape == (2, 15)
        assert np.argmax(feats[0]) == 5 + 2  # channel 1 block, Alpha slot

    def test_log_band_power_zero_signal_finite(self):
        from safnet.metrics import log_band_power_features
        feats = log_band_power_features([np.zeros((2, 1024))], 256.0)
        assert np.all(np.isfinite(feats))

    def test_standardize_features(self):
        from safnet.metrics import standardize_features
        rng = np.random.default_rng(14)
        x = rng.normal(5.0, 3.0, (100, 4))
        x[:, 2] = 7.0  # constant column
        z = standardize_features(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z[:, [0, 1, 3]].std(axis=0), 1.0, atol=1e-12)
        assert np.all(z[:, 2] == 0.0)


class TestIqrFilter:
    """The fence rule of iqr_row_mask on a single feature column."""

    @staticmethod
    def kept(values):
        values = np.asarray(values, dtype=float)
        return values[iqr_row_mask(values[:, None])]

    def test_outlier_removed(self):
        values = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 100], dtype=float)
        assert sorted(self.kept(values)) == list(range(1, 10))

    def test_all_equal_retained(self):
        assert len(self.kept(np.full(6, 2.5))) == 6

    def test_zero_iqr_keeps_only_quartile_value(self):
        kept = self.kept(np.array([1.0, 5.0, 5.0, 5.0, 5.0, 9.0]))
        assert sorted(kept) == [5.0, 5.0, 5.0, 5.0]

    def test_clean_uniform_mostly_retained(self):
        rng = np.random.default_rng(11)
        rates = []
        for _ in range(20):
            values = rng.uniform(0, 1, 200)
            rates.append(len(self.kept(values)) / 200)
        assert np.mean(rates) >= 0.95

    @pytest.mark.parametrize("seed, kind", [(0, "normal"), (1, "zero_iqr"),
                                            (2, "rounded"), (3, "outliers")])
    def test_matches_per_column_loop(self, seed, kind):
        """The mask against the per-column loop it replaced, on matrices with
        zero-IQR, rounded and outlier-heavy columns."""
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n, d = int(rng.integers(4, 40)), int(rng.integers(1, 8))
            features = rng.standard_normal((n, d)) * rng.uniform(0.1, 100.0)
            if kind == "zero_iqr":
                features[:, :d // 2 + 1] = 3.0
                features[0, 0] = 4.0
            elif kind == "rounded":
                features = np.round(features * 0.2)
            elif kind == "outliers":
                features[rng.integers(0, n, 3)] *= 1000.0
            expected = np.ones(n, dtype=bool)
            for col in features.T:
                q1, q3 = np.percentile(col, [25.0, 75.0])
                iqr = q3 - q1
                if iqr == 0.0:
                    expected &= col == q1
                else:
                    expected &= (col > q1 - 1.5 * iqr) & (col < q3 + 1.5 * iqr)
            assert np.array_equal(iqr_row_mask(features), expected)

    def test_too_few_values(self):
        with pytest.raises(ValidationError):
            self.kept([1.0, 2.0, 3.0])