"""Command-line entry point wiring the pipeline into reproducible runs.

Subcommands: synth, preprocess, train, grid, eval, analyze. A single INI
configuration file (sections [pipeline], [asr], [swap], [train], [synth])
carries defaults; flags override. Unknown sections or keys are rejected.
Exit codes: 0 success, 1 validation/configuration error, 2 I/O error. All
diagnostics go to standard error; data outputs go to files only, so
re-running a command with identical inputs reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .asr import AsrConfig, asr_fit, select_calibration
from .datamodel import (
    Manifest,
    check_manifest_field,
    load_manifest,
    read_recording,
    write_manifest,
    write_ndf,
)
from .dsp import PipelineConfig, filter_recording, preprocess_pipeline
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

FLOAT_TUPLE = "float_tuple"

_PIPELINE_KEYS = {
    "band_lo_hz": float, "band_hi_hz": float, "notch_hz": FLOAT_TUPLE,
    "notch_q": float, "target_rate_hz": float, "epoch_seconds": float,
    "butter_order": int,
}
_ASR_KEYS = {
    "cutoff_k": float, "calib_window_s": float, "calib_z_lo": float,
    "calib_z_hi": float, "min_calib_windows": int, "proc_window_s": float,
    "proc_overlap": float,
}
_SWAP_KEYS = {"p": float}
_TRAIN_KEYS = {
    "lr": float, "batch_size": int, "min_epochs": int, "max_epochs": int,
    "patience": int, "plateau_window": int, "improvement_eps": float,
    "lr_factor": float, "lr_floor": float, "beta1": float, "beta2": float,
    "adam_eps": float, "seed": int,
}
_SYNTH_KEYS = {
    "subjects": int, "channels": int, "fs": float, "duration_s": float,
    "subject_bias_strength": float, "line_noise_amp": float,
    "artifact_rate_per_min": float, "artifact_gain": float, "seed": int,
    "class_signature_0": FLOAT_TUPLE, "class_signature_1": FLOAT_TUPLE,
}
_SECTIONS = {
    "pipeline": _PIPELINE_KEYS, "asr": _ASR_KEYS, "swap": _SWAP_KEYS,
    "train": _TRAIN_KEYS, "synth": _SYNTH_KEYS,
}

@dataclass(frozen=True)
class CliConfig:
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    asr: AsrConfig = field(default_factory=AsrConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)


def _convert(section: str, key: str, raw: str, kind):
    where = f"[{section}] {key}"
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind == FLOAT_TUPLE:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: unsupported value kind")


def load_cli_config(path: str) -> CliConfig:
    """Parse and validate the INI configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        keymap = _SECTIONS[section]
        kwargs = {}
        for key, raw in parser[section].items():
            if key not in keymap:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            kwargs[key] = _convert(section, key, raw, keymap[key])
        values[section] = kwargs

    synth_kwargs = values.get("synth", {})
    sig0 = synth_kwargs.pop("class_signature_0", None)
    sig1 = synth_kwargs.pop("class_signature_1", None)
    if (sig0 is None) != (sig1 is None):
        raise ConfigError(
            f"{path}: class_signature_0 and class_signature_1 must be given "
            "together")
    if sig0 is not None:
        synth_kwargs["class_signature"] = (sig0, sig1)

    return CliConfig(
        pipeline=PipelineConfig(**values.get("pipeline", {})),
        asr=AsrConfig(**values.get("asr", {})),
        train=TrainConfig(swap=SwapConfig(**values.get("swap", {})),
                          **values.get("train", {})),
        synth=SynthConfig(**synth_kwargs),
    )


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _split_epochs(manifest_path: str, *tags: str):
    _, epoch_set = load_manifest(manifest_path)
    out = []
    for tag in tags:
        eps = epoch_set.subset(tag)
        if not eps:
            raise ValidationError(
                f"{manifest_path}: no epochs tagged {tag!r}")
        out.append(eps)
    return out if len(out) > 1 else out[0]


def _encoder_config(epochs) -> EncoderConfig:
    first = epochs[0]
    return EncoderConfig(C=first.channels, M=first.samples,
                         fs=first.sample_rate_hz)


def _cmd_synth(args) -> int:
    cfg = load_cli_config(args.config)
    _, manifest = generate_dataset(cfg.synth, args.out,
                                   pipeline_cfg=cfg.pipeline, asr_cfg=cfg.asr)
    _note(f"wrote {len(manifest.rows)} epochs and manifest.csv to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    check_manifest_field(args.subject)
    cfg = load_cli_config(args.config)
    rec = read_recording(args.input)
    asr_model = None
    if args.asr_calib:
        calib = filter_recording(read_recording(args.asr_calib), cfg.pipeline)
        asr_model = asr_fit(select_calibration(calib, cfg.asr), cfg.asr)
    epochs = preprocess_pipeline(rec, cfg.pipeline, asr_model=asr_model,
                                 y=args.label, s=args.subject,
                                 asr_config=cfg.asr)
    if not epochs:
        raise ValidationError("recording shorter than one epoch")
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for k, ep in enumerate(epochs):
        fname = f"{args.subject}_c{args.label}_{k:04d}.ndf"
        write_ndf(ep, os.path.join(args.out, fname))
        rows.append((fname, args.subject, args.label, "none"))
    write_manifest(Manifest(rows=rows, base_dir=args.out),
                   os.path.join(args.out, "manifest.csv"))
    _note(f"wrote {len(epochs)} epochs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_cli_config(args.config)
    train_cfg = cfg.train
    if args.baseline:
        weights = LossWeights()
        train_cfg = replace(train_cfg,
                            swap=replace(train_cfg.swap, p=0.0))
    else:
        weights = LossWeights(lambda_mi=args.lambda_mi,
                              lambda_grl=args.lambda_grl)
    train_eps, val_eps = _split_epochs(args.manifest, "train", "val")
    num_domains = len({ep.s for ep in train_eps})
    model = SafModel(_encoder_config(train_eps), num_domains=num_domains,
                     seed=train_cfg.seed)
    model, log = fit(train_eps, val_eps, model, train_cfg, weights)
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
    write_grid_table(rows, args.out)
    _note(f"best lambda_mi={format_float(best.lambda_mi)} "
          f"lambda_grl={format_float(best.lambda_grl)}")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    epochs = _split_epochs(args.manifest, args.split)
    acc, prec, rec, f1 = macro_metrics(eval_confusion(model, epochs))
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
    subjects = epoch_set.subjects
    if len(subjects) < 2:
        raise ValidationError("analysis needs at least two subjects")

    fs = epochs[0].sample_rate_hz
    channels = epochs[0].channels
    bands = clip_bands(BandDefinition(), fs / 2.0)
    n_bands = len(bands.bands)
    features = log_band_power_features([ep.x for ep in epochs], fs, bands)
    mask = iqr_row_mask(features)
    kept = [ep for ep, keep in zip(epochs, mask) if keep]
    features = features[mask]
    labels = np.array([subjects.index(ep.s) for ep in kept])
    if np.unique(labels).size < 2:
        raise ValidationError("outlier filtering left fewer than two subjects")

    os.makedirs(args.out, exist_ok=True)

    # per-subject mean band power (power units, averaged over epochs and
    # channels), then the across-subject coefficient of variation per band
    powers = np.exp(features)
    subject_means = {}
    psd_rows = []
    for s_idx, subject in enumerate(subjects):
        rows = powers[labels == s_idx]
        if rows.size == 0:
            continue
        for b in range(n_bands):
            cols = [ch * n_bands + b for ch in range(channels)]
            subject_means.setdefault(b, []).append(float(rows[:, cols].mean()))
            psd_rows.append((subject, bands.bands[b][0],
                             subject_means[b][-1]))
    write_csv(os.path.join(args.out, "psd_bands.csv"),
              ["subject", "band", "mean_power"], psd_rows)
    cv_rows = [(bands.bands[b][0], coefficient_of_variation(subject_means[b]))
               for b in range(n_bands)]
    write_csv(os.path.join(args.out, "cv.csv"), ["band", "cv"], cv_rows)

    standardized = standardize_features(features)
    with open(os.path.join(args.out, "silhouette.txt"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write(format_float(silhouette(standardized, labels)) + "\n")
    with open(os.path.join(args.out, "fstat.txt"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write(format_float(f_statistic(standardized, labels)) + "\n")
    _note(f"analyzed {len(kept)} of {len(epochs)} epochs "
          f"({len(subjects)} subjects) into {args.out}")
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
    p.add_argument("--baseline", action="store_true",
                   help="force swap probability 0 and both lambdas 0")
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
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test", "none"))
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
