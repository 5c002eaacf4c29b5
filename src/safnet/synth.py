"""Deterministic multi-subject synthetic signal generator.

Each (subject, class) cell is a sum of band-limited Gaussian noise
components (one per frequency band, unit variance in expectation per
channel) weighted by a per-class amplitude signature, passed through a
subject-specific channel mixing matrix I + beta*G_j, plus a
subject-specific 60 Hz sinusoid and Poisson-scheduled 0.5 s artifact
bursts. The bands are disjoint runs of frequency bins, so a recording's
band components fill one spectrum and take one inverse FFT, before the
mixing. The subject-bias dial beta scales both the mixing perturbation and
a per-subject multiplicative band tilt exp(beta * 0.2 * t_jb), so beta = 0
makes all subjects statistically identical up to line noise and artifacts.

The bands are metrics.DEFAULT_BANDS. Subject-level draws (G_j, band tilt,
line-noise gain and phase) are fixed per (seed, subject); cell-level noise
and artifact schedules are fixed per (seed, subject, class). Everything is
bit-reproducible. generate_epochs preprocesses every cell into epochs in
memory; generate_dataset splits those in datamodel.SPLIT_RATIOS, writes
them with datamodel.write_epoch_dir and returns only the manifest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asr import AsrConfig, asr_apply, asr_fit, select_calibration
from .datamodel import Epoch, EpochSet, Manifest, Recording, split_dataset, write_epoch_dir
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
# - a band term is class_signature[y][b] * exp(beta * TILT_SCALE * t) times
#   unit-variance noise; at the default beta = 1 the tilt is below
#   exp(8 * TILT_SCALE) = 4.95, so the term stays under 1e30 up to 2.0e29;
# - a burst scales its channel's RMS by about sqrt(1 + artifact_gain^2 * 3/8
#   * min(1, BURST_SECONDS / duration_s)) (3/8: the envelope's mean square),
#   and the artifact_rate_per_min * duration_s / 60 / channels bursts
#   expected on a channel compound to under BURST_GROWTH_MAX: 6.3 bursts at
#   artifact_gain 1e6 and 60 s, 757 at the default gain.
# RECORDING_SAMPLES_MAX bounds a recording before it is allocated; the
# generator peaks at about 33 bytes a sample at six channels and 40 at one
# (tracemalloc, 1e6 samples).
SUBJECT_BIAS_MAX = 40.0
LINE_NOISE_AMP_MAX = 1e29
CLASS_SIGNATURE_MAX = 1e29
ARTIFACT_GAIN_MAX = 1e6
BURST_GROWTH_MAX = 1e30
RECORDING_SAMPLES_MAX = 10_000_000

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
        n = window_samples(self.duration_s, self.fs, "duration_s")
        if self.channels * n > RECORDING_SAMPLES_MAX:
            raise ValidationError(f"{self.channels} x {n} samples (fs x duration_s) "
                                  f"is above {RECORDING_SAMPLES_MAX:g} a recording")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if len(self.class_signature) != 2:
            raise ValidationError("class_signature needs exactly two classes")
        n_bands = len(DEFAULT_BANDS)
        for y, sig in enumerate(self.class_signature):
            if len(sig) != n_bands:
                raise ValidationError(
                    f"each class signature needs {n_bands} band amplitudes")
            if not all(np.isfinite(a) and a >= 0 for a in sig):
                raise ValidationError("band amplitudes must be finite and >= 0")
            if max(sig) > CLASS_SIGNATURE_MAX:
                raise ValidationError(
                    f"class_signature[{y}] amplitudes must be <= "
                    f"{CLASS_SIGNATURE_MAX:g}, got {max(sig)!r}")
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
        growth = 0.5 * np.log1p(self.artifact_gain ** 2 * 0.375
                                * min(1.0, BURST_SECONDS / self.duration_s))
        per_channel = self.artifact_rate_per_min * self.duration_s / 60.0 / self.channels
        if per_channel * growth > np.log(BURST_GROWTH_MAX):
            raise ValidationError(f"artifact_rate_per_min {self.artifact_rate_per_min} "
                                  f"compounds {per_channel:.4g} bursts a channel "
                                  f"past {BURST_GROWTH_MAX:g}")


def _subject_draws(cfg: SynthConfig, subject: int):
    """Per-subject quantities, fixed across classes and beta values."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, subject]))
    mixing_noise = rng.standard_normal((cfg.channels, cfg.channels))
    band_tilt = rng.standard_normal(len(DEFAULT_BANDS))
    line_gain = rng.uniform(0.5, 1.5)
    line_phase = rng.uniform(0.0, 2.0 * np.pi)
    return mixing_noise, band_tilt, line_gain, line_phase


def _band_noise(cfg: SynthConfig, rng, y: int, band_tilt, n: int) -> np.ndarray:
    """Class y's band components of one recording, summed: (channels, n).

    Each band is white noise kept to its bins [lo, hi) and divided by the
    square root of the spectral energy fraction those bins retain, so it has
    unit variance in expectation. Normalizing by the retained fraction rather
    than the realized RMS matters: pinning each recording to its sample RMS
    would make every subject's mean band power identical by construction and
    bias between-subject statistics low. The bands are disjoint runs of bins,
    so they share one spectrum and one inverse FFT.
    """
    c = cfg.channels
    beta = cfg.subject_bias_strength
    freqs = np.fft.rfftfreq(n, d=1.0 / cfg.fs)
    bin_weight = np.full(freqs.shape, 2.0)
    bin_weight[0] = 1.0
    if n % 2 == 0:
        bin_weight[-1] = 1.0
    spectrum = np.zeros((c, freqs.size), dtype=complex)
    for b, (_, lo, hi) in enumerate(DEFAULT_BANDS):
        hi_eff = min(hi, cfg.fs / 2.0)
        if lo >= hi_eff:
            continue
        # drawn before the energy check: a band with no bins still uses up
        # its draw, which keeps every later draw in place
        noise = np.fft.rfft(rng.standard_normal((c, n)), axis=1)
        start, stop = np.searchsorted(freqs, (lo, hi_eff))
        energy_fraction = bin_weight[start:stop].sum() / n
        if energy_fraction == 0.0:
            continue
        amp = cfg.class_signature[y][b] * np.exp(beta * TILT_SCALE * band_tilt[b])
        spectrum[:, start:stop] = noise[:, start:stop] * (amp / np.sqrt(energy_fraction))
    return np.fft.irfft(spectrum, n=n, axis=1)


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
    x = (np.eye(c) + beta * mixing_noise) @ _band_noise(cfg, rng, y, band_tilt, n)

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


def generate_epochs(cfg: SynthConfig, pipeline_cfg: PipelineConfig,
                    asr_cfg: AsrConfig) -> list[Epoch]:
    """All subjects x {0,1} cells, preprocessed and sliced into epochs,
    subject by subject with class 0 first. Each recording is filtered once;
    ASR is fit per subject on the clean windows of the filtered class-0
    recording and cleans both of the subject's recordings."""
    epochs = []
    for j in range(cfg.subjects):
        filtered = [filter_recording(generate_subject_recording(cfg, j, y),
                                     pipeline_cfg) for y in (0, 1)]
        asr_model = asr_fit(select_calibration(filtered[0], asr_cfg), asr_cfg)
        for y, rec in enumerate(filtered):
            epochs += slice_epochs(asr_apply(rec, asr_model), pipeline_cfg, y,
                                   f"s{j:02d}")
    return epochs


def generate_dataset(cfg: SynthConfig, out_dir: str, pipeline_cfg: PipelineConfig,
                     asr_cfg: AsrConfig) -> Manifest:
    """Write generate_epochs' epochs as NDF files plus a stratified-split
    manifest into out_dir, and return the manifest. A config that yields no
    epochs is refused before out_dir is created."""
    epochs = generate_epochs(cfg, pipeline_cfg, asr_cfg)
    epoch_set = split_dataset(EpochSet(epochs=epochs), seed=cfg.seed)
    return write_epoch_dir(epoch_set, out_dir)
