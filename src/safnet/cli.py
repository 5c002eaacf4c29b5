"""Command-line entry point wiring the pipeline into reproducible runs.

Subcommands: synth, preprocess, train, grid, eval, analyze. A single INI
configuration file (sections [pipeline], [asr], [swap], [train], [synth])
carries defaults; flags override. A section's keys are the number fields of
its config dataclass (INI_SCHEMA); unknown sections or keys, and floats that
are not finite, are rejected.
Exit codes: 0 success, 1 validation/configuration error, 2 I/O error. All
diagnostics go to standard error; data outputs go to files only, so
re-running a command with identical inputs reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from .asr import AsrConfig, asr_apply, asr_fit, select_calibration
from .datamodel import (
    SPLIT_TOKENS,
    EpochSet,
    check_manifest_field,
    load_manifest,
    read_recording,
    write_epoch_dir,
)
from .dsp import PipelineConfig, filter_recording, slice_epochs
from .errors import ConfigError, SafError, ValidationError
from .isbcs import SwapConfig
from .metrics import (
    BandDefinition,
    clip_bands,
    coefficient_of_variation,
    f_statistic,
    iqr_row_mask,
    log_band_power_features,
    macro_metrics,
    silhouette,
    standardize_features,
    welch_top_hz,
)
from .model import EncoderConfig, SafModel, load_checkpoint, save_checkpoint
from .synth import SynthConfig, generate_dataset
from .textio import format_float, write_csv
from .train import (
    LossWeights,
    TrainConfig,
    eval_confusion,
    fit,
    grid_search,
    write_grid_table,
    write_train_log,
)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw.strip()!r}")
    return value


def _finite_list(raw: str) -> tuple[float, ...]:
    return tuple(_finite(tok) for tok in raw.split(",") if tok.strip())


_CONVERTERS = {float: _finite, int: int, tuple[float, ...]: _finite_list}
# Each section's keys and their converters: the fields of its config dataclass
# annotated float, int or tuple[float, ...], plus synth's class signature pair.
INI_SCHEMA = {section: {name: _CONVERTERS[kind]
                        for name, kind in get_type_hints(cls).items()
                        if kind in _CONVERTERS}
              for section, cls in (("pipeline", PipelineConfig), ("asr", AsrConfig),
                                   ("swap", SwapConfig), ("train", TrainConfig),
                                   ("synth", SynthConfig))}
INI_SCHEMA["synth"].update(class_signature_0=_finite_list,
                           class_signature_1=_finite_list)


@dataclass(frozen=True)
class CliConfig:
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    asr: AsrConfig = field(default_factory=AsrConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)


def load_cli_config(path: str) -> CliConfig:
    """Parse and validate the INI configuration file."""
    # no section header can name a newline, so [DEFAULT] is an unknown section
    # instead of defaults copied into every section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in INI_SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        converters = INI_SCHEMA[section]
        kwargs = values[section] = {}
        for key, raw in parser[section].items():
            if key not in converters:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                kwargs[key] = converters[key](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None

    synth_kwargs = values.get("synth", {})
    sig0 = synth_kwargs.pop("class_signature_0", None)
    sig1 = synth_kwargs.pop("class_signature_1", None)
    if (sig0 is None) != (sig1 is None):
        raise ConfigError(
            f"{path}: class_signature_0 and class_signature_1 must be given "
            "together")
    if sig0 is not None:
        synth_kwargs["class_signature"] = (sig0, sig1)

    def build(section, cls, kwargs):
        """cls(**kwargs), its refusal named by the file and the section."""
        try:
            return cls(**kwargs)
        except SafError as exc:
            raise ConfigError(f"{path} [{section}]: {exc}") from None

    return CliConfig(
        pipeline=build("pipeline", PipelineConfig, values.get("pipeline", {})),
        asr=build("asr", AsrConfig, values.get("asr", {})),
        train=build("train", TrainConfig, dict(
            values.get("train", {}), swap=build("swap", SwapConfig, values.get("swap", {})))),
        synth=build("synth", SynthConfig, synth_kwargs),
    )


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _split_epochs(manifest_path: str, *tags: str) -> list[list]:
    """One list of the manifest's epochs per tag; refuses an empty one."""
    _, epoch_set = load_manifest(manifest_path)
    out = []
    for tag in tags:
        eps = epoch_set.subset(tag)
        if not eps:
            raise ValidationError(
                f"{manifest_path}: no epochs tagged {tag!r}")
        out.append(eps)
    return out


def _make_parents(*paths) -> None:
    """Create the directory each output path names, if any. Commands call
    this once their work has succeeded, so a refused run writes nothing."""
    for path in paths:
        parent = os.path.dirname(path or "")
        if parent:
            os.makedirs(parent, exist_ok=True)


def _encoder_config(epochs) -> EncoderConfig:
    first = epochs[0]
    return EncoderConfig(C=first.channels, M=first.samples,
                         fs=first.sample_rate_hz)


def _cmd_synth(args) -> int:
    cfg = load_cli_config(args.config)
    manifest = generate_dataset(cfg.synth, args.out, pipeline_cfg=cfg.pipeline,
                                asr_cfg=cfg.asr)
    _note(f"wrote {len(manifest.rows)} epochs and manifest.csv to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    check_manifest_field(args.subject)
    cfg = load_cli_config(args.config)
    rec = filter_recording(read_recording(args.input), cfg.pipeline)
    if args.asr_calib:
        # a class-0 recording is its own calibration: filter it once
        calib = (rec if os.path.samefile(args.asr_calib, args.input) else
                 filter_recording(read_recording(args.asr_calib), cfg.pipeline))
        rec = asr_apply(rec, asr_fit(select_calibration(calib, cfg.asr), cfg.asr))
    epochs = slice_epochs(rec, cfg.pipeline, args.label, args.subject)
    write_epoch_dir(EpochSet(epochs=epochs), args.out)
    _note(f"wrote {len(epochs)} epochs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_cli_config(args.config)
    weights = LossWeights(lambda_mi=args.lambda_mi, lambda_grl=args.lambda_grl)
    train_eps, val_eps = _split_epochs(args.manifest, "train", "val")
    num_domains = len({ep.s for ep in train_eps})
    model = SafModel(_encoder_config(train_eps), num_domains=num_domains,
                     seed=cfg.train.seed)
    model, log = fit(train_eps, val_eps, model, cfg.train, weights)
    _make_parents(args.out, args.log)
    save_checkpoint(model, args.out)
    if args.log:
        write_train_log(log, args.log)
    _note(f"trained {len(log.records)} epochs ({log.stop_reason}); "
          f"best epoch {log.best_epoch} "
          f"val_macro_acc {format_float(max(log.val_accuracies))}")
    return 0


def _cmd_grid(args) -> int:
    cfg = load_cli_config(args.config)
    train_eps, val_eps = _split_epochs(args.manifest, "train", "val")
    best, rows = grid_search(train_eps, val_eps, _encoder_config(train_eps),
                             cfg.train, n_mi=args.n_mi, n_grl=args.n_grl,
                             budget_epochs=args.budget, jobs=args.jobs)
    _make_parents(args.out)
    write_grid_table(rows, args.out)
    _note(f"best lambda_mi={format_float(best.lambda_mi)} "
          f"lambda_grl={format_float(best.lambda_grl)}")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    (epochs,) = _split_epochs(args.manifest, args.split)
    acc, prec, rec, f1 = macro_metrics(eval_confusion(model, epochs))
    _make_parents(args.out)
    write_csv(args.out, ["metric", "value"],
              [("macro_accuracy", acc), ("macro_precision", prec),
               ("macro_recall", rec), ("macro_f1", f1)])
    _note(f"evaluated {len(epochs)} epochs: macro_accuracy "
          f"{format_float(acc)}")
    return 0


def _cmd_analyze(args) -> int:
    _, epoch_set = load_manifest(args.manifest)
    epochs = epoch_set.epochs
    if len(epochs) < 4:
        raise ValidationError("analysis needs at least four epochs")
    if len(epoch_set.subjects) < 2:
        raise ValidationError("analysis needs at least two subjects")

    fs = epochs[0].sample_rate_hz
    bands = clip_bands(BandDefinition(), welch_top_hz(fs))
    n_bands = len(bands.bands)
    features = log_band_power_features([ep.x for ep in epochs], fs, bands)
    mask = iqr_row_mask(features)
    features = features[mask]
    # object dtype: a numpy string array would drop trailing NULs of an id
    subjects, labels = np.unique(
        np.array([ep.s for ep, kept in zip(epochs, mask) if kept], dtype=object),
        return_inverse=True)
    if subjects.size < 2:
        raise ValidationError("outlier filtering left fewer than two subjects")
    counts = np.bincount(labels)
    if counts.min() < 2:
        s = int(np.argmin(counts))
        raise ValidationError(
            f"outlier filtering left subject {subjects[s]!r} with {counts[s]} "
            f"epoch; the analysis needs at least two per subject")

    # per-subject mean band power (power units, averaged over epochs and
    # channels), then the across-subject coefficient of variation per band.
    # Each band's values are summed channel by channel, each channel over its
    # epochs, as a mean over a (epochs, channels) column copy would.
    powers = np.exp(features).reshape(len(features), -1, n_bands)
    means = np.array([
        np.ascontiguousarray(powers[labels == s].T).reshape(n_bands, -1).mean(axis=1)
        for s in range(subjects.size)])
    names = [name for name, _, _ in bands.bands]
    cv = [(name, coefficient_of_variation(col)) for name, col in zip(names, means.T)]
    standardized = standardize_features(features)
    sil = silhouette(standardized, labels)
    fstat = f_statistic(standardized, labels)

    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "psd_bands.csv"),
              ["subject", "band", "mean_power"],
              [(subject, name, value) for subject, row in zip(subjects, means)
               for name, value in zip(names, row)])
    write_csv(os.path.join(args.out, "cv.csv"), ["band", "cv"], cv)
    for fname, value in (("silhouette.txt", sil), ("fstat.txt", fstat)):
        with open(os.path.join(args.out, fname), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(format_float(value) + "\n")
    _note(f"analyzed {len(features)} of {len(epochs)} epochs "
          f"({len(epoch_set.subjects)} subjects) into {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safnet",
        description="swap-adversarial training pipeline for multichannel "
                    "neural time series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="filter, clean and slice a recording")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--class", dest="label", type=int, choices=(0, 1),
                   required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--asr-calib", default=None)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train", help="train one model from a manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--lambda-mi", type=float, default=0.0)
    p.add_argument("--lambda-grl", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("grid", help="lambda grid search")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-mi", type=int, default=25)
    p.add_argument("--n-grl", type=int, default=10)
    p.add_argument("--budget", type=int, default=40)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=SPLIT_TOKENS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="band-power distribution analysis")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except SafError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
