"""Inter-Subject Balanced Channel Swap (ISBCS) between same-class samples.

Within each class group of a batch, samples are paired at random, whatever
their subject (a pair may share one), and each pair exchanges a
Bernoulli-selected subset of channels, full time series, both directions.
Each row keeps the label and subject of the sample it was built on, so
callers read both from the input batch. One SwapRecord per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import Epoch
from .errors import ValidationError


@dataclass(frozen=True)
class SwapConfig:
    p: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValidationError(f"swap probability must be in [0,1], got {self.p}")


@dataclass(frozen=True)
class SwapRecord:
    pair: tuple[int, int]
    swapped_channels: np.ndarray  # boolean, length C


def pair_by_class(labels, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random disjoint same-label pairs; odd leftovers stay unpaired."""
    by_class: dict[int, list[int]] = {}
    for i, y in enumerate(labels):
        by_class.setdefault(int(y), []).append(i)
    pairs = []
    for y in sorted(by_class):
        idx = by_class[y]
        shuffled = [idx[k] for k in rng.permutation(len(idx))]
        pairs.extend(zip(shuffled[::2], shuffled[1::2]))
    return pairs


def isbcs_augment_batch(batch: list[Epoch], cfg: SwapConfig,
                        rng: np.random.Generator) -> tuple[np.ndarray, list[SwapRecord]]:
    """Swap Bernoulli(p)-masked channels between randomly paired same-class
    epochs. Returns the augmented batch as one (B, C, M) float32 array, row i
    built on batch[i], and one SwapRecord per pair.

    The masks of all P pairs come from a single (P, C) draw, which consumes
    rng exactly as P consecutive draws of C values.
    """
    if not batch:
        raise ValidationError("cannot augment an empty batch")
    shapes = {(ep.channels, ep.samples) for ep in batch}
    if len(shapes) != 1:
        raise ValidationError(f"mixed epoch shapes in batch: {sorted(shapes)}")
    x = np.stack([ep.x for ep in batch])
    c = x.shape[1]

    pairs = pair_by_class([ep.y for ep in batch], rng)
    masks = rng.random((len(pairs), c)) < cfg.p
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    k, ch = np.nonzero(masks)
    a, b = ends[k, 0], ends[k, 1]
    x[a, ch], x[b, ch] = x[b, ch], x[a, ch]

    return x, [SwapRecord(pair=pair, swapped_channels=mask)
               for pair, mask in zip(pairs, masks)]
