"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``. ``run_round``
does one fixed unit of work and returns what it produced; the harness repeats
rounds for the requested time. ``finish`` checks every round's outputs and
reduces the rounds to the end-to-end metrics.

- loso: the paper's leave-one-subject-out ablation. Training (autodiff,
  model, train, isbcs) does nearly all timed work; dsp and asr run only in
  set-up. A round is one held-out fold with the four configs.
- grid: ``grid_search`` over a pool of worker processes. Short cells make
  per-fit fixed costs (model init, validation, pool start-up, pickling the
  epoch lists into every task) a large share. A round is one grid search.
- signal: raw recordings through ``safnet preprocess`` and the analysis
  functions ``safnet analyze`` calls. dsp, asr, datamodel and metrics do all
  the work and autodiff none. A round preprocesses every recording and
  analyses the resulting epochs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from safnet import cli
from safnet.datamodel import (
    Manifest,
    load_manifest,
    read_recording,
    write_manifest,
    write_recording,
)
from safnet.dsp import bandpass, notch, resample
from safnet.errors import ValidationError
from safnet.isbcs import SwapConfig
from safnet.metrics import (
    BandDefinition,
    clip_bands,
    f_statistic,
    iqr_row_mask,
    log_band_power_features,
    silhouette,
    standardize_features,
)
from safnet.model import EncoderConfig, SafModel
from safnet.synth import generate_subject_recording
from safnet.train import (
    LossWeights,
    TrainConfig,
    evaluate_macro_accuracy,
    fit,
    grid_search,
    make_lambda_grid,
)

from .data import (
    CRITERION8_GEN_SEED,
    LOSO_BIAS,
    PIPE,
    SUBJECTS,
    build_epochs,
    loso_split,
    preprocess_subject,
    synth_config,
)

# one fixed lambda pair for the adversarial configs of the ablation
LOSO_LAMBDA = 1.0
GRID_BUDGET = 1  # training epochs of every grid cell, fixed
LOSO_CONFIGS = (("baseline", 0.0, 0.0, 0.0),
                ("swap", 0.5, 0.0, 0.0),
                ("adversarial", 0.0, LOSO_LAMBDA, LOSO_LAMBDA),
                ("combined", 0.5, LOSO_LAMBDA, LOSO_LAMBDA))
SIGNAL_SOURCE_HZ = 256.0  # above PIPE.target_rate_hz, so resampling runs
# At subject bias 1.0, 3 of 40 seeds gave a subject whose mixing matrix
# nearly cancels one channel; the analysis' outlier filter then kept 1-7 of
# its 120 epochs, and with one left f_statistic (as `safnet analyze`)
# rejects the data: an open defect, which run_round records as a failed
# operation and bench/tests reproduces at bias 1.0, seed 24. At 0.5 no seed
# of 40 kept fewer than 26 epochs of a subject.
SIGNAL_BIAS = 0.5
SIGNAL_CONFIG = """\
[pipeline]
band_lo_hz = 1.0
band_hi_hz = 45.0
notch_hz = 60
target_rate_hz = 128.0
epoch_seconds = 2.0
"""


@dataclass(frozen=True)
class Sizes:
    duration_s: float = 120.0  # length of every synthetic recording
    loso_epochs: int = 4  # training epochs of every LOSO fit, fixed
    grid_side: int = 4  # the grid has grid_side x grid_side cells
    signal_subjects: int = 4


FULL = Sizes()
TINY = Sizes(duration_s=16.0, loso_epochs=1, grid_side=2, signal_subjects=2)


class Ops:
    """Operations attempted and failed, with the failures' descriptions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


@dataclass
class Round:
    index: int
    traced: bool
    wall_s: float  # as measured, less the harness's pauses inside the round
    scale: float  # times the scale gives reference seconds (harness.Yardstick)
    out: object


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _untraced(rounds):
    return [rd for rd in rounds if not rd.traced]


def _encoder(epochs) -> EncoderConfig:
    return EncoderConfig(C=epochs[0].channels, M=epochs[0].samples,
                         fs=epochs[0].sample_rate_hz)


def _seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _pass(r: int, trace: bool) -> int:
    # traced runs alternate untraced and traced rounds on the same work
    return r // 2 if trace else r


class Loso:
    """A round fits the four configs on one held-out fold; an untraced run
    makes at least one pass over the folds, and later passes repeat it.
    Every (fold, config) fit draws its own seed from the workload seed:
    with one seed shared by all 16 fits, a bad initialization sank the mean
    held-out accuracy of a whole run."""

    name = "loso"

    def __init__(self, seed: int, sizes: Sizes, jobs: int, work_root: str):
        self.seed = seed
        self.sizes = sizes
        # called between fits; the harness times its yardstick there
        self.pause = lambda: None

    def setup(self):
        epochs = build_epochs(CRITERION8_GEN_SEED, LOSO_BIAS, self.sizes.duration_s)
        return [loso_split(epochs, k, self.seed) for k in range(SUBJECTS)]

    def teardown(self, state) -> None:
        pass

    def min_rounds(self, trace: bool) -> int:
        return 2 if trace else SUBJECTS

    def run_round(self, folds, r: int, trace: bool):
        fold = _pass(r, trace) % SUBJECTS
        train, val, test = folds[fold]
        epochs = self.sizes.loso_epochs
        fits = []
        for c, (name, p, lam_mi, lam_grl) in enumerate(LOSO_CONFIGS):
            if c:
                self.pause()
            seed = _seed(self.seed, fold, c)
            cfg = TrainConfig(batch_size=32, min_epochs=epochs, max_epochs=epochs,
                              patience=5, seed=seed, swap=SwapConfig(p=p))
            model = SafModel(_encoder(train), num_domains=SUBJECTS - 1, seed=seed)
            t0 = perf_counter()
            model, log = fit(train, val, model, cfg,
                             LossWeights(lambda_mi=lam_mi, lambda_grl=lam_grl))
            fit_s = perf_counter() - t0
            fits.append({"key": (fold, name), "fit_s": fit_s,
                         "samples": epochs * len(train), "log": log,
                         "test_acc": evaluate_macro_accuracy(model, test)})
        return fits

    def finish(self, folds, rounds, ops: Ops):
        epochs = self.sizes.loso_epochs
        seen = {}
        for rd in rounds:
            for f in rd.out:
                log = f["log"]
                losses = tuple((r.l_task, r.l_domain, r.l_mi, r.l_total)
                               for r in log.records)
                accs = [r.val_macro_acc for r in log.records] + [f["test_acc"]]
                ok = (len(log.records) == epochs
                      and log.stop_reason == "max_epochs"
                      and all(math.isfinite(v) for row in losses for v in row)
                      and all(0.0 <= a <= 1.0 for a in accs))
                outcome = (f["test_acc"], losses)
                if ok and f["key"] in seen:
                    ok = seen[f["key"]] == outcome  # repeats reproduce exactly
                seen.setdefault(f["key"], outcome)
                ops.record(ok, f"loso round {rd.index} (fold, config) "
                               f"{f['key']}: {len(log.records)} epochs, "
                               f"test acc {f['test_acc']}")
        plain = _untraced(rounds)
        per_fit = [f["samples"] / (f["fit_s"] * rd.scale)
                   for rd in plain for f in rd.out]
        accs = [f["test_acc"] for rd in plain[:SUBJECTS] for f in rd.out]
        named = {
            "train_samples_per_s": (_median(per_fit), "1/s"),
            "test_macro_acc": (float(np.mean(accs)), "1"),
        }
        return named["train_samples_per_s"][0], named["test_macro_acc"][0], named


class Grid:
    """A round is one grid search. Rounds cycle through four cell seeds, and
    the best validation accuracy is averaged over them: the best of 16
    one-epoch cells on a 54-epoch validation set varies widely with the
    seed."""

    name = "grid"
    variants = 4

    def __init__(self, seed: int, sizes: Sizes, jobs: int, work_root: str):
        self.seed = seed
        self.sizes = sizes
        self.jobs = jobs

    def setup(self):
        # the first fold, where the acceptance study runs its grid
        epochs = build_epochs(CRITERION8_GEN_SEED, LOSO_BIAS, self.sizes.duration_s)
        return loso_split(epochs, 0, self.seed)

    def teardown(self, state) -> None:
        pass

    def min_rounds(self, trace: bool) -> int:
        return 2 if trace else self.variants

    def run_round(self, split, r: int, trace: bool):
        train, val, _ = split
        n, budget = self.sizes.grid_side, GRID_BUDGET
        variant = _pass(r, trace) % self.variants
        cfg = TrainConfig(batch_size=32, min_epochs=budget, max_epochs=budget,
                          patience=5, seed=_seed(self.seed, variant),
                          swap=SwapConfig(p=0.5))
        best, rows = grid_search(train, val, _encoder(train), cfg, n_mi=n,
                                 n_grl=n, budget_epochs=budget, jobs=self.jobs)
        return {"variant": variant, "best": best, "rows": rows,
                "samples": n * n * budget * len(train)}

    def finish(self, split, rounds, ops: Ops):
        n = self.sizes.grid_side
        grid = make_lambda_grid(n=n)
        cells = [(mi, grl) for mi in grid for grl in grid]
        first = {}
        for rd in rounds:
            rows, best = rd.out["rows"], rd.out["best"]
            ref = first.setdefault(rd.out["variant"], rows)
            pairs = [(mi, grl) for mi, grl, _ in rows]
            for k, cell in enumerate(cells):
                ok = (len(rows) == len(cells) and pairs[k] == cell
                      and 0.0 <= rows[k][2] <= 1.0 and rows[k] == ref[k])
                ops.record(ok, f"grid round {rd.index} cell {cell}")
            best_acc = max(acc for _, _, acc in rows)
            chosen = (best.lambda_mi, best.lambda_grl)
            ops.record(chosen in cells and chosen in
                       [(mi, grl) for mi, grl, acc in rows if acc == best_acc],
                       f"grid round {rd.index} chose {chosen} off the grid "
                       f"or below its best cell")
        plain = _untraced(rounds)
        named = {
            "grid_cells_per_s": (
                _median([len(cells) / (rd.wall_s * rd.scale) for rd in plain]), "1/s"),
            "grid_best_val_acc": (
                float(np.mean([max(acc for _, _, acc in rows)
                               for rows in first.values()])), "1"),
            "train_samples_per_s": (
                _median([rd.out["samples"] / (rd.wall_s * rd.scale) for rd in plain]),
                "1/s"),
        }
        return named["grid_cells_per_s"][0], named["grid_best_val_acc"][0], named


@dataclass
class SignalInputs:
    work: str
    config: str
    recordings: list  # (subject, class, raw path, duration_s)


class Signal:
    name = "signal"

    def __init__(self, seed: int, sizes: Sizes, jobs: int, work_root: str):
        self.seed = seed
        self.sizes = sizes
        self.work_root = work_root
        # called after each subject's recordings; the harness times its
        # yardstick there
        self.pause = lambda: None
        self.synth = synth_config(seed, SIGNAL_BIAS, sizes.duration_s,
                                  fs=SIGNAL_SOURCE_HZ,
                                  subjects=sizes.signal_subjects)

    def setup(self) -> SignalInputs:
        work = tempfile.mkdtemp(prefix="signal-", dir=self.work_root)
        config = os.path.join(work, "config.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(SIGNAL_CONFIG)
        recordings = []
        for j in range(self.synth.subjects):
            for y in (0, 1):
                rec = generate_subject_recording(self.synth, j, y)
                path = os.path.join(work, f"s{j:02d}_c{y}.safr")
                write_recording(rec, path)
                recordings.append((j, y, path, rec.duration_s))
        return SignalInputs(work=work, config=config, recordings=recordings)

    def teardown(self, inputs: SignalInputs) -> None:
        shutil.rmtree(inputs.work, ignore_errors=True)

    def min_rounds(self, trace: bool) -> int:
        return 2

    def _calib(self, inputs: SignalInputs, subject: int) -> str:
        # each subject's artifact model is calibrated on its class-0 recording
        return os.path.join(inputs.work, f"s{subject:02d}_c0.safr")

    def run_round(self, inputs: SignalInputs, r: int, trace: bool):
        out = os.path.join(inputs.work, "epochs")
        codes, rows, counts, notes = [], [], [], []
        preprocess_s = 0.0
        for j, y, path, _ in inputs.recordings:
            sub = f"s{j:02d}_c{y}"
            t_rec = perf_counter()
            # the command reports to stderr; keep it for the failure message
            with contextlib.redirect_stderr(io.StringIO()) as note:
                codes.append(cli.main([
                    "preprocess", "--config", inputs.config, "--in", path,
                    "--subject", f"s{j:02d}", "--class", str(y),
                    "--out", os.path.join(out, sub),
                    "--asr-calib", self._calib(inputs, j)]))
            preprocess_s += perf_counter() - t_rec
            if y == 1:
                self.pause()
            notes.append(note.getvalue().strip())
            with open(os.path.join(out, sub, "manifest.csv"), encoding="utf-8") as fh:
                lines = fh.read().splitlines()[1:]
            counts.append(len(lines))
            for line in lines:
                fname, subject, cls, split = line.split(",")
                rows.append((f"{sub}/{fname}", subject, int(cls), split))
        merged = os.path.join(out, "manifest.csv")
        write_manifest(Manifest(rows=rows, base_dir=out), merged)

        # the analysis sequence of ``safnet analyze``
        _, epoch_set = load_manifest(merged)
        epochs = epoch_set.epochs
        fs = epochs[0].sample_rate_hz
        bands = clip_bands(BandDefinition(), fs / 2.0)
        t1 = perf_counter()
        features = log_band_power_features([ep.x for ep in epochs], fs, bands)
        features_s = perf_counter() - t1
        mask = iqr_row_mask(features)
        subjects = epoch_set.subjects
        labels = np.array([subjects.index(ep.s)
                           for ep, keep in zip(epochs, mask) if keep])
        kept = np.bincount(labels, minlength=len(subjects)).tolist()
        standardized = standardize_features(features[mask])
        try:
            scores, rejected = (silhouette(standardized, labels),
                                f_statistic(standardized, labels)), None
        except ValidationError as exc:
            scores, rejected = (), str(exc)
        return {"kept": kept, "rejected": rejected,
                "codes": codes, "notes": notes, "counts": counts,
                "preprocess_s": preprocess_s,
                "features_s": features_s, "n_epochs": len(epochs),
                "shape": features.shape, "n_bands": len(bands.bands),
                "channels": epochs[0].channels,
                "finite": bool(np.all(np.isfinite(features))
                               and np.all(np.isfinite(scores))),
                "digest": hashlib.sha256(features.tobytes()).hexdigest(),
                "scores": scores, "manifest": merged}

    def _expected_epochs(self, duration_s: float) -> int:
        m = int(round(PIPE.epoch_seconds * PIPE.target_rate_hz))
        return int(math.floor(duration_s * PIPE.target_rate_hz / m))

    def _reference(self, inputs: SignalInputs, k: int, clean: bool):
        """Recording k through the library directly: the CLI's epochs, or
        (clean) the filtered signal without line noise and artifacts."""
        j, y, path, _ = inputs.recordings[k]
        if clean:
            cfg = replace(self.synth, line_noise_amp=0.0, artifact_rate_per_min=0.0)
            rec = resample(generate_subject_recording(cfg, j, y), PIPE.target_rate_hz)
            return notch(bandpass(rec, PIPE), PIPE).data
        return preprocess_subject(read_recording(self._calib(inputs, j)),
                                  [(y, read_recording(path))], f"s{j:02d}")

    def finish(self, inputs: SignalInputs, rounds, ops: Ops):
        first = rounds[0].out
        for rd in rounds:
            o = rd.out
            for k, (j, y, _, duration) in enumerate(inputs.recordings):
                ops.record(o["codes"][k] == 0
                           and o["counts"][k] == self._expected_epochs(duration),
                           f"signal round {rd.index} recording s{j:02d}_c{y}: "
                           f"exit {o['codes'][k]} ({o['notes'][k]}), "
                           f"{o['counts'][k]} epochs")
            ops.record(o["finite"]
                       and o["shape"] == (o["n_epochs"], o["n_bands"] * o["channels"])
                       and o["digest"] == first["digest"],
                       f"signal round {rd.index} features {o['shape']}")
            ops.record(o["rejected"] is None,
                       f"signal round {rd.index}: the analysis rejected the "
                       f"data ({o['rejected']}); epochs kept per subject "
                       f"{o['kept']}")

        # the outputs on disk are those of the last round, identical to all
        _, epoch_set = load_manifest(rounds[-1].out["manifest"])
        epochs = epoch_set.epochs
        reference = self._reference(inputs, 0, clean=False)[0]
        ops.record(epochs[0].x.tobytes() == reference.x.tobytes()
                   and (epochs[0].y, epochs[0].s) == (reference.y, reference.s),
                   "signal: first NDF differs from the library's epoch")

        # quality: correlation of the cleaned epochs with the same signal
        # generated without line noise and artifacts, filtered alike
        corrs = []
        start = 0
        for k, n in enumerate(first["counts"]):
            cleaned = np.concatenate([ep.x for ep in epochs[start:start + n]], axis=1)
            start += n
            truth = self._reference(inputs, k, clean=True)[:, :cleaned.shape[1]]
            corrs.extend(np.corrcoef(a, b)[0, 1] for a, b in zip(cleaned, truth))

        plain = _untraced(rounds)
        recorded_s = sum(duration for *_, duration in inputs.recordings)
        named = {
            "preprocess_rec_s_per_s": (
                _median([recorded_s / (rd.out["preprocess_s"] * rd.scale)
                         for rd in plain]), "1/s"),
            "features_epochs_per_s": (
                _median([rd.out["n_epochs"] / (rd.out["features_s"] * rd.scale)
                         for rd in plain]),
                "1/s"),
            "clean_signal_corr": (float(np.mean(corrs)), "1"),
        }
        return (named["preprocess_rec_s_per_s"][0], named["clean_signal_corr"][0],
                named)


WORKLOADS = {w.name: w for w in (Loso, Grid, Signal)}
