"""The criterion-8 dataset builder and LOSO split, kept here so the benchmark
measures the library without depending on test code.

``build_epochs`` and ``loso_split`` reproduce ``benchmark_epochs`` and
``loso_split`` of ``tests/test_acceptance.py`` byte for byte at the default
duration; ``bench/tests/test_bench.py`` asserts it.
"""

from __future__ import annotations

import numpy as np

from safnet.asr import AsrConfig, asr_fit, select_calibration
from safnet.dsp import PipelineConfig, bandpass, notch, preprocess_pipeline, resample
from safnet.synth import SynthConfig, generate_subject_recording

PIPE = PipelineConfig(band_lo_hz=1.0, band_hi_hz=45.0, notch_hz=(60.0,),
                      target_rate_hz=128.0, epoch_seconds=2.0)
ASR = AsrConfig()
SUBJECTS = 4
# The loso and grid workloads train on the criterion-8 dataset itself; their
# seed drives the split and all training randomness. Across generation seeds
# the held-out accuracy of the same study spread 0.15 (IQR over median, 4
# training epochs), against 0.05 across training seeds on this one dataset.
CRITERION8_GEN_SEED = 0
LOSO_BIAS = 1.5


def synth_config(gen_seed: int, bias_strength: float, duration_s: float = 120.0,
                 fs: float = 128.0, subjects: int = SUBJECTS) -> SynthConfig:
    return SynthConfig(
        subjects=subjects, channels=6, fs=fs, duration_s=duration_s,
        class_signature=((1.0,) * 5, (1.7, 1.7, 1.7, 1.0, 1.0)),
        subject_bias_strength=bias_strength, line_noise_amp=0.5,
        artifact_rate_per_min=1.0, artifact_gain=6.0, seed=gen_seed)


def preprocess_subject(rec0, recordings, s: str) -> list:
    """The epochs of one subject's recordings, given as (class, recording)
    pairs: ASR is fit on the filtered class-0 recording ``rec0``, then each
    recording runs the full pipeline."""
    calib = notch(bandpass(resample(rec0, PIPE.target_rate_hz), PIPE), PIPE)
    asr_model = asr_fit(select_calibration(calib, ASR), ASR)
    epochs = []
    for y, rec in recordings:
        epochs.extend(preprocess_pipeline(rec, PIPE, asr_model=asr_model, y=y,
                                          s=s, asr_config=ASR))
    return epochs


def build_epochs(gen_seed: int, bias_strength: float,
                 duration_s: float = 120.0) -> list:
    """All preprocessed epochs of one dataset, subject by subject."""
    cfg = synth_config(gen_seed, bias_strength, duration_s)
    epochs = []
    for j in range(cfg.subjects):
        rec0 = generate_subject_recording(cfg, j, 0)
        rec1 = generate_subject_recording(cfg, j, 1)
        epochs.extend(preprocess_subject(rec0, [(0, rec0), (1, rec1)], f"s{j:02d}"))
    return epochs


def loso_split(epochs, held_out: int, seed: int):
    """Held-out subject becomes the test set; the rest split 85/15."""
    subject = f"s{held_out:02d}"
    test = [ep for ep in epochs if ep.s == subject]
    pool = [ep for ep in epochs if ep.s != subject]
    rng = np.random.default_rng(seed)
    train, val = [], []
    for s in sorted({ep.s for ep in pool}):
        sub = [ep for ep in pool if ep.s == s]
        order = rng.permutation(len(sub))
        n_val = max(1, round(0.15 * len(sub)))
        val.extend(sub[k] for k in order[:n_val])
        train.extend(sub[k] for k in order[n_val:])
    return train, val, test
