import numpy as np
import pytest

from safnet.datamodel import Epoch
from safnet.errors import ValidationError
from safnet.isbcs import SwapConfig, SwapRecord, isbcs_augment_batch, pair_by_class


def make_epoch(c=15, m=8, y=0, s="s0", seed=0):
    rng = np.random.default_rng(seed)
    return Epoch(x=rng.standard_normal((c, m)).astype(np.float32), y=y, s=s,
                 sample_rate_hz=128.0)


def make_batch(n, c=15, m=8, classes=(0, 1)):
    return [make_epoch(c=c, m=m, y=classes[i % len(classes)], s=f"s{i % 3}",
                       seed=100 + i) for i in range(n)]


class TestPairByClass:
    def test_two_classes_two_pairs(self):
        pairs = pair_by_class([0, 0, 1, 1], np.random.default_rng(0))
        assert len(pairs) == 2
        assert sorted(sorted(p) for p in pairs) == [[0, 1], [2, 3]]

    def test_odd_leftover(self):
        pairs = pair_by_class([0, 0, 0], np.random.default_rng(1))
        assert len(pairs) == 1
        a, b = pairs[0]
        assert a != b and {a, b} <= {0, 1, 2}

    def test_no_same_class_partner(self):
        assert pair_by_class([0, 1], np.random.default_rng(2)) == []

    def test_indices_disjoint(self):
        labels = [0] * 9 + [1] * 7
        pairs = pair_by_class(labels, np.random.default_rng(3))
        flat = [i for p in pairs for i in p]
        assert len(flat) == len(set(flat)) == 14

    def test_deterministic(self):
        labels = [0, 1, 0, 1, 0, 0, 1]
        a = pair_by_class(labels, np.random.default_rng(4))
        b = pair_by_class(labels, np.random.default_rng(4))
        assert a == b


class TestAugment:
    def test_p0_identity(self):
        batch = make_batch(8)
        x, records = isbcs_augment_batch(batch, SwapConfig(p=0.0),
                                         np.random.default_rng(0))
        assert x.shape == (8, 15, 8) and x.dtype == np.float32
        assert np.array_equal(x, np.stack([ep.x for ep in batch]))
        assert all(not r.swapped_channels.any() for r in records)

    def test_p1_full_exchange(self):
        a = make_epoch(y=0, s="a", seed=1)
        b = make_epoch(y=0, s="b", seed=2)
        x, records = isbcs_augment_batch([a, b], SwapConfig(p=1.0),
                                         np.random.default_rng(5))
        assert np.array_equal(x[0], b.x)
        assert np.array_equal(x[1], a.x)
        assert len(records) == 1 and records[0].swapped_channels.all()

    def test_inputs_untouched(self):
        batch = make_batch(6)
        before = [ep.x.copy() for ep in batch]
        isbcs_augment_batch(batch, SwapConfig(p=1.0), np.random.default_rng(3))
        assert all(np.array_equal(ep.x, b) for ep, b in zip(batch, before))

    def test_p05_swap_fraction(self):
        c, n_pairs = 15, 10000
        batch = [make_epoch(c=c, m=4, y=0, seed=i) for i in range(2 * n_pairs)]
        _, records = isbcs_augment_batch(batch, SwapConfig(p=0.5),
                                         np.random.default_rng(6))
        pair_records = [r for r in records if r.pair[0] != r.pair[1]]
        assert len(pair_records) == n_pairs
        frac = np.mean([r.swapped_channels.mean() for r in pair_records])
        assert 0.49 <= frac <= 0.51

    def test_label_multiset_preserved(self):
        """Row i keeps batch[i]'s label, so every channel in it must come
        from a sample of that class."""
        batch = make_batch(17)
        x, records = isbcs_augment_batch(batch, SwapConfig(p=0.7),
                                         np.random.default_rng(7))
        for r in records:
            assert batch[r.pair[0]].y == batch[r.pair[1]].y
        for i, ep in enumerate(batch):
            for ch in range(ep.channels):
                sources = [j for j, other in enumerate(batch)
                           if np.array_equal(other.x[ch], x[i, ch])]
                assert any(batch[j].y == ep.y for j in sources)

    def test_channel_conservation_within_class(self):
        batch = make_batch(12)
        x, _ = isbcs_augment_batch(batch, SwapConfig(p=0.5),
                                   np.random.default_rng(8))
        for y in (0, 1):
            before = sorted(ep.x[ch].tobytes() for ep in batch if ep.y == y
                            for ch in range(ep.channels))
            after = sorted(x[i, ch].tobytes() for i, ep in enumerate(batch)
                           if ep.y == y for ch in range(ep.channels))
            assert before == after

    def test_determinism(self):
        batch = make_batch(10)
        x1, rec1 = isbcs_augment_batch(batch, SwapConfig(p=0.5),
                                       np.random.default_rng(9))
        x2, rec2 = isbcs_augment_batch(batch, SwapConfig(p=0.5),
                                       np.random.default_rng(9))
        assert np.array_equal(x1, x2)
        for r1, r2 in zip(rec1, rec2):
            assert r1.pair == r2.pair
            assert np.array_equal(r1.swapped_channels, r2.swapped_channels)

    def test_empty_batch(self):
        with pytest.raises(ValidationError):
            isbcs_augment_batch([], SwapConfig(), np.random.default_rng(0))

    def test_mixed_shapes_rejected(self):
        batch = [make_epoch(c=4), make_epoch(c=5)]
        with pytest.raises(ValidationError):
            isbcs_augment_batch(batch, SwapConfig(), np.random.default_rng(0))

    def test_singleton_stratum_record(self):
        batch = [make_epoch(y=0, seed=1), make_epoch(y=0, seed=2),
                 make_epoch(y=1, seed=3)]
        x, records = isbcs_augment_batch(batch, SwapConfig(p=1.0),
                                         np.random.default_rng(11))
        singles = [r for r in records if r.pair[0] == r.pair[1]]
        assert len(singles) == 1
        assert singles[0].pair == (2, 2)
        assert not singles[0].swapped_channels.any()
        assert np.array_equal(x[2], batch[2].x)

    def test_bad_probability(self):
        with pytest.raises(ValidationError):
            SwapConfig(p=1.5)


def reference_augment(batch, p, rng):
    """Per-pair swap: one mask draw of C values and one exchange per pair."""
    c = batch[0].channels
    xs = [ep.x.copy() for ep in batch]
    records, paired = [], set()
    for a, b in pair_by_class([ep.y for ep in batch], rng):
        mask = rng.random(c) < p
        xa = xs[a][mask].copy()
        xs[a][mask] = xs[b][mask]
        xs[b][mask] = xa
        records.append(SwapRecord(pair=(a, b), swapped_channels=mask))
        paired.update((a, b))
    for i in range(len(batch)):
        if i not in paired:
            records.append(SwapRecord(pair=(i, i),
                                      swapped_channels=np.zeros(c, dtype=bool)))
    return np.stack(xs), records


class TestReferenceEquivalence:
    """The vectorised swap against the per-pair loop, bit for bit, including
    the state the generator is left in."""

    BATCHES = {
        "even": [0, 1] * 16,
        "odd_classes": [0] * 7 + [1] * 5,
        "singleton_class": [0] * 6 + [1],
        "one_sample": [1],
        "no_partners": [0, 1],
    }

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("labels", sorted(BATCHES))
    def test_matches_per_pair_loop(self, p, labels):
        batch = [make_epoch(c=6, m=16, y=y, s=f"s{i % 3}", seed=200 + i)
                 for i, y in enumerate(self.BATCHES[labels])]
        rng_vec, rng_ref = np.random.default_rng(42), np.random.default_rng(42)
        x, records = isbcs_augment_batch(batch, SwapConfig(p=p), rng_vec)
        x_ref, records_ref = reference_augment(batch, p, rng_ref)
        assert x.dtype == x_ref.dtype and x.tobytes() == x_ref.tobytes()
        assert [r.pair for r in records] == [r.pair for r in records_ref]
        for r, ref in zip(records, records_ref):
            assert r.swapped_channels.dtype == bool
            assert np.array_equal(r.swapped_channels, ref.swapped_channels)
        assert rng_vec.random() == rng_ref.random()
