import numpy as np
import pytest
from scipy import stats as sp_stats

from safnet.errors import ConfigError, ValidationError
from safnet.metrics import (
    BandDefinition,
    ConfusionMatrix,
    band_power,
    coefficient_of_variation,
    confusion,
    f_statistic,
    iqr_row_mask,
    macro_metrics,
    silhouette,
    welch_psd,
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


class TestConfusion:
    def test_perfect(self):
        cm = confusion([0, 0, 1, 1], [0, 0, 1, 1])
        assert np.array_equal(cm.counts, [[2, 0], [0, 2]])

    def test_all_zero_prediction(self):
        cm = confusion([0, 1], [0, 0])
        assert np.array_equal(cm.counts, [[1, 0], [1, 0]])

    def test_empty(self):
        cm = confusion([], [])
        assert np.array_equal(cm.counts, np.zeros((2, 2)))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            confusion([0, 1], [0])

    def test_bad_label(self):
        with pytest.raises(ValidationError):
            confusion([0, 2], [0, 1])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix(counts=np.array([[1, -1], [0, 0]]))


class TestMacroMetrics:
    def test_perfect_scores(self):
        assert macro_metrics(ConfusionMatrix(np.array([[5, 0], [0, 5]]))) == \
               (1.0, 1.0, 1.0, 1.0)

    def test_all_zero_predictions_balanced(self):
        acc, _, _, f1 = macro_metrics(ConfusionMatrix(np.array([[4, 0], [4, 0]])))
        assert acc == pytest.approx(0.5)
        assert f1 == pytest.approx((2 * 0.5 * 1.0 / 1.5 + 0.0) / 2, abs=1e-4)

    def test_hand_case(self):
        _, _, recall, _ = macro_metrics(ConfusionMatrix(np.array([[3, 1], [2, 4]])))
        assert recall == pytest.approx((0.75 + 4 / 6) / 2, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            macro_metrics(ConfusionMatrix(np.zeros((2, 2), dtype=int)))

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


class TestBandPower:
    def test_sine_concentrates_in_alpha(self):
        fs = 512.0
        t = np.arange(int(120 * fs)) / fs
        freqs, psd = welch_psd(np.sin(2 * np.pi * 10.0 * t), fs)
        powers = band_power(freqs, psd)
        for name in ("Delta", "Theta", "Beta", "Gamma"):
            assert powers["Alpha"] > 10 * powers[name], name

    def test_flat_psd_gives_band_width(self):
        freqs = np.linspace(0, 128, 257)
        powers = band_power(freqs, np.ones_like(freqs))
        for name, lo, hi in BandDefinition().bands:
            assert powers[name] == pytest.approx(hi - lo, abs=1e-9)

    def test_zero_psd(self):
        freqs = np.linspace(0, 128, 257)
        powers = band_power(freqs, np.zeros_like(freqs))
        assert all(v == 0.0 for v in powers.values())

    def test_band_beyond_psd_range(self):
        freqs = np.linspace(0, 40, 81)
        with pytest.raises(ConfigError):
            band_power(freqs, np.ones_like(freqs))

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValidationError):
            BandDefinition(bands=(("A", 1.0, 5.0), ("B", 4.0, 8.0)))


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
        assert clipped.names == ["Delta", "Theta", "Alpha", "Beta"]
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

    def test_too_few_values(self):
        with pytest.raises(ValidationError):
            self.kept([1.0, 2.0, 3.0])