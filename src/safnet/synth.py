"""Deterministic multi-subject synthetic signal generator.

Each (subject, class) cell is a sum of band-limited Gaussian noise
components (one per frequency band, unit variance in expectation per
channel) weighted by a per-class amplitude signature, passed through a
subject-specific channel
mixing matrix I + beta*G_j, plus a subject-specific 60 Hz sinusoid and
Poisson-scheduled 0.5 s artifact bursts. The subject-bias dial beta
scales both the mixing perturbation and a per-subject multiplicative
band tilt exp(beta * 0.2 * t_jb), so beta = 0 makes all subjects
statistically identical up to line noise and artifacts.

The bands are metrics.DEFAULT_BANDS. Subject-level draws (G_j, band tilt,
line-noise gain and phase) are fixed per (seed, subject); cell-level noise
and artifact schedules are fixed per (seed, subject, class). Everything is
bit-reproducible. generate_dataset splits the epochs in
datamodel.SPLIT_RATIOS, writes them with datamodel.write_epoch_dir and
returns only the manifest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asr import AsrConfig, asr_apply, asr_fit, select_calibration
from .datamodel import EpochSet, Manifest, Recording, split_dataset, write_epoch_dir
from .dsp import PipelineConfig, filter_recording, slice_epochs, window_samples
from .errors import ValidationError
from .metrics import DEFAULT_BANDS

LINE_FREQ_HZ = 60.0
BURST_SECONDS = 0.5
TILT_SCALE = 0.2

# Amplitude bounds. `safnet synth` stores recordings as float32 epochs (whose
# largest value is 3.4e38), and each burst's RMS squares float64 samples, so
# each term of a recording is kept under 1e30 for normal draws within 8
# sigma (a larger one has probability 1e-15), with the other keys at their
# defaults:
# - the band tilt exp(beta * TILT_SCALE * t) stays under 1e30 while
#   beta <= ln(1e30) / (8 * TILT_SCALE) = 43.2;
# - the 60 Hz term is line_noise_amp times a per-subject gain below 1.5,
#   under 1e30 up to 6.7e29;
# - a burst adds artifact_gain * rms * envelope * z to its channel, which
#   raises the channel's RMS by a factor of about artifact_gain *
#   sqrt(3/8 * BURST_SECONDS / duration_s) (3/8 is the envelope's mean
#   square); at 1e6 and the default 60 s, seven bursts on one channel stay
#   under 1e38. How many land on one channel grows with
#   artifact_rate_per_min, which these bounds do not cover.
SUBJECT_BIAS_MAX = 40.0
LINE_NOISE_AMP_MAX = 1e29
ARTIFACT_GAIN_MAX = 1e6

DEFAULT_CLASS_SIGNATURE = ((1.0, 1.0, 1.0, 1.0, 1.0),
                           (2.0, 1.0, 1.0, 1.0, 1.0))


@dataclass(frozen=True)
class SynthConfig:
    subjects: int = 4
    channels: int = 6
    fs: float = 512.0
    duration_s: float = 60.0
    class_signature: tuple[tuple[float, ...], tuple[float, ...]] = \
        DEFAULT_CLASS_SIGNATURE
    subject_bias_strength: float = 1.0
    line_noise_amp: float = 1.0
    artifact_rate_per_min: float = 2.0
    artifact_gain: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.subjects < 1 or self.channels < 1:
            raise ValidationError("need at least one subject and one channel")
        if self.fs <= 0 or self.duration_s <= 0:
            raise ValidationError("fs and duration_s must be positive")
        window_samples(self.duration_s, self.fs, "duration_s")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if len(self.class_signature) != 2:
            raise ValidationError("class_signature needs exactly two classes")
        n_bands = len(DEFAULT_BANDS)
        for sig in self.class_signature:
            if len(sig) != n_bands:
                raise ValidationError(
                    f"each class signature needs {n_bands} band amplitudes")
            for a in sig:
                if not np.isfinite(a) or a < 0:
                    raise ValidationError("band amplitudes must be finite "
                                          "and >= 0")
        for name, most in (("subject_bias_strength", SUBJECT_BIAS_MAX),
                           ("line_noise_amp", LINE_NOISE_AMP_MAX),
                           ("artifact_rate_per_min", np.inf),
                           ("artifact_gain", ARTIFACT_GAIN_MAX)):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValidationError(f"{name} must be finite and >= 0")
            if v > most:
                raise ValidationError(f"{name} must be <= {most:g}, got {v!r}")
        # the burst count is a Poisson draw of rate * duration / 60
        if self.artifact_rate_per_min > 60.0 * self.fs:
            raise ValidationError(f"artifact_rate_per_min {self.artifact_rate_per_min} "
                                  f"is above one burst per sample ({60.0 * self.fs})")


def _subject_draws(cfg: SynthConfig, subject: int):
    """Per-subject quantities, fixed across classes and beta values."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, subject]))
    mixing_noise = rng.standard_normal((cfg.channels, cfg.channels))
    band_tilt = rng.standard_normal(len(DEFAULT_BANDS))
    line_gain = rng.uniform(0.5, 1.5)
    line_phase = rng.uniform(0.0, 2.0 * np.pi)
    return mixing_noise, band_tilt, line_gain, line_phase


def _band_limited_noise(rng, channels: int, n: int, fs: float,
                        lo: float, hi: float) -> np.ndarray | None:
    """White noise restricted to [lo, hi) Hz, unit variance in expectation.

    Normalization uses the retained spectral energy fraction rather than
    the realized RMS: pinning each recording to its sample RMS would make
    every subject's mean band power identical by construction and bias
    between-subject statistics low.
    """
    spectrum = np.fft.rfft(rng.standard_normal((channels, n)), axis=1)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    mask = (freqs >= lo) & (freqs < hi)
    bin_weight = np.full(freqs.shape, 2.0)
    bin_weight[0] = 1.0
    if n % 2 == 0:
        bin_weight[-1] = 1.0
    energy_fraction = bin_weight[mask].sum() / n
    if energy_fraction == 0.0:
        return None
    spectrum[:, ~mask] = 0.0
    return np.fft.irfft(spectrum, n=n, axis=1) / np.sqrt(energy_fraction)


def generate_subject_recording(cfg: SynthConfig, subject: int,
                               y: int) -> Recording:
    """One (subject, class) cell; fully determined by (cfg.seed, subject, y)."""
    if not 0 <= subject < cfg.subjects:
        raise ValidationError(
            f"subject must be in [0, {cfg.subjects}), got {subject}")
    if y not in (0, 1):
        raise ValidationError(f"class must be 0 or 1, got {y}")

    mixing_noise, band_tilt, line_gain, line_phase = _subject_draws(cfg, subject)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, subject, y]))
    beta = cfg.subject_bias_strength
    c = cfg.channels
    n = window_samples(cfg.duration_s, cfg.fs, "duration_s")
    nyquist = cfg.fs / 2.0

    x = np.zeros((c, n))
    for b, (_, lo, hi) in enumerate(DEFAULT_BANDS):
        hi_eff = min(hi, nyquist)
        if lo >= hi_eff:
            continue
        component = _band_limited_noise(rng, c, n, cfg.fs, lo, hi_eff)
        if component is None:
            continue
        amp = cfg.class_signature[y][b] * np.exp(beta * TILT_SCALE * band_tilt[b])
        x += amp * component

    x = (np.eye(c) + beta * mixing_noise) @ x

    if cfg.line_noise_amp > 0:
        t = np.arange(n) / cfg.fs
        x += cfg.line_noise_amp * line_gain * np.sin(
            2.0 * np.pi * LINE_FREQ_HZ * t + line_phase)

    width = int(round(BURST_SECONDS * cfg.fs))
    if cfg.artifact_rate_per_min > 0 and n > width:
        count = rng.poisson(cfg.artifact_rate_per_min * cfg.duration_s / 60.0)
        envelope = 0.5 - 0.5 * np.cos(
            2.0 * np.pi * (np.arange(width) + 0.5) / width)
        for _ in range(count):
            ch = int(rng.integers(0, c))
            start = int(rng.integers(0, n - width + 1))
            rms = np.sqrt(np.mean(np.square(x[ch])))
            x[ch, start:start + width] += (
                cfg.artifact_gain * rms * envelope * rng.standard_normal(width))

    return Recording(data=x, sample_rate_hz=cfg.fs)


def generate_dataset(cfg: SynthConfig, out_dir: str,
                     pipeline_cfg: PipelineConfig | None = None,
                     asr_cfg: AsrConfig | None = None) -> Manifest:
    """Generate all subjects x {0,1} cells, preprocess them (filter once,
    then artifact removal calibrated per subject on the filtered class-0
    recording), slice into epochs, and write NDF files plus a
    stratified-split manifest into out_dir, and return the manifest. A
    config that yields no epochs is refused before out_dir is created.
    """
    pipeline_cfg = pipeline_cfg or PipelineConfig()
    asr_cfg = asr_cfg or AsrConfig()

    epochs = []
    for j in range(cfg.subjects):
        filtered = [filter_recording(generate_subject_recording(cfg, j, y),
                                     pipeline_cfg) for y in (0, 1)]
        asr_model = asr_fit(select_calibration(filtered[0], asr_cfg), asr_cfg)
        for y, rec in enumerate(filtered):
            epochs += slice_epochs(asr_apply(rec, asr_model), pipeline_cfg, y,
                                   f"s{j:02d}")

    epoch_set = split_dataset(EpochSet(epochs=epochs), seed=cfg.seed)
    return write_epoch_dir(epoch_set, out_dir)
