"""Compact convolutional encoder with task and adversarial domain heads.

The encoder is a two-block depthwise/separable design: a temporal
convolution learns frequency-selective filters, a depthwise spatial
convolution collapses the electrode axis, and a separable convolution
mixes the resulting feature maps. The task head is a single linear layer;
the domain head reads the features through a gradient reversal layer so
that the encoder is trained to make subjects indistinguishable. Only
training runs the domain head; predict skips it.

The encoder reads (B,C,M) batches of epochs and builds a gradient graph
only in training: eval mode runs under autodiff.no_grad, as predict does.
Its first block (temporal conv, batch norm, depthwise spatial conv, batch
norm, ELU, average pool, dropout) runs as one op, autodiff.first_stage,
which applies the spatial mix first, so the temporal convolution runs on
F1*D rows per epoch instead of F1*C. Its second block (depthwise temporal
conv, pointwise conv, batch norm, ELU, average pool, dropout, flatten)
runs as another, autodiff.second_stage; the two hand each other their
output and input gradient in first_stage's (F1*D, B, time) layout. The
parameters, buffers and checkpoint layout are those of the separate
layers.
Only the input's channels, length and rate are configurable (EncoderConfig);
the other sizes are the constants below, with a half-second temporal kernel,
and load_checkpoint refuses a header that stores other values. Checkpoints
are written by datamodel.write_file and read through its ContainerReader.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datamodel import ContainerReader, write_file
from .errors import FormatError, ValidationError

CHECKPOINT_MAGIC = b"SAFM"
CHECKPOINT_VERSION = 3
# C, M, fs, F1, D, F2, temporal kernel, pool1, pool2, dropout, domains, tensors
_HEADER = "<IIdIIIIIIdII"
F1 = 8  # temporal filters
D = 2  # spatial filters per temporal filter
F2 = 16  # separable-conv output maps
POOL1 = 4
POOL2 = 8
DROPOUT = 0.25
SEP_KERNEL = 16
DOMAIN_HIDDEN = 64
NUM_CLASSES = 2


@dataclass(frozen=True)
class EncoderConfig:
    C: int
    M: int
    fs: float

    def __post_init__(self):
        if self.temporal_kernel < 1:
            raise ValidationError("temporal kernel must be at least 1 sample")
        if min(self.C, self.M) < 1:
            raise ValidationError("C and M must be positive")
        if self.feature_dim < 1:
            raise ValidationError(
                f"pooling {POOL1}x{POOL2} leaves no features for M={self.M}")

    @property
    def temporal_kernel(self) -> int:
        return int(round(self.fs / 2))

    @property
    def feature_dim(self) -> int:
        return F2 * ((self.M // POOL1) // POOL2)


def _architecture(cfg: EncoderConfig) -> tuple:
    """The header fields after C, M and fs, in _HEADER order."""
    return F1, D, F2, cfg.temporal_kernel, POOL1, POOL2, DROPOUT


def _tensor_specs(cfg: EncoderConfig, num_domains: int):
    """Shape and initial value of every parameter and of every batch-norm
    running buffer, by name in checkpoint order. The initial value is a
    (fan_in, fan_out) pair for a Glorot-uniform draw, or a constant fill."""
    c, k = cfg.C, cfg.temporal_kernel
    fdim = cfg.feature_dim
    params = {
        "conv_temporal_w": ((F1, k), (k, F1 * k)),
        "bn1_gamma": ((F1,), 1.0),
        "bn1_beta": ((F1,), 0.0),
        "conv_spatial_w": ((F1, D, c), (c, D * c)),
        "bn2_gamma": ((F1 * D,), 1.0),
        "bn2_beta": ((F1 * D,), 0.0),
        "conv_sep_depth_w": ((F1 * D, SEP_KERNEL), (SEP_KERNEL, SEP_KERNEL)),
        "conv_sep_point_w": ((F2, F1 * D), (F1 * D, F2)),
        "bn3_gamma": ((F2,), 1.0),
        "bn3_beta": ((F2,), 0.0),
        "task_w": ((fdim, NUM_CLASSES), (fdim, NUM_CLASSES)),
        "task_b": ((NUM_CLASSES,), 0.0),
        "dom1_w": ((fdim, DOMAIN_HIDDEN), (fdim, DOMAIN_HIDDEN)),
        "dom1_b": ((DOMAIN_HIDDEN,), 0.0),
        "dom2_w": ((DOMAIN_HIDDEN, num_domains), (DOMAIN_HIDDEN, num_domains)),
        "dom2_b": ((num_domains,), 0.0),
    }
    buffers = {f"bn{i}_{stat}": ((n,), fill)
               for i, n in ((1, F1), (2, F1 * D), (3, F2))
               for stat, fill in (("mean", 0.0), ("var", 1.0))}
    return params, buffers


def _initial(rng, shape, init, dtype) -> np.ndarray:
    if isinstance(init, tuple):
        fan_in, fan_out = init
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape).astype(dtype)
    return np.full(shape, init, dtype=dtype)


class SafModel:
    """Encoder f, task head g and domain head h."""

    def __init__(self, cfg: EncoderConfig, num_domains: int, seed: int = 0,
                 dtype=np.float32):
        if num_domains < 1:
            raise ValidationError("need at least one domain")
        self.cfg = cfg
        self.num_domains = int(num_domains)
        self.dtype = np.dtype(dtype)

        rng = np.random.default_rng(seed)
        params, buffers = _tensor_specs(cfg, self.num_domains)
        self.params: dict[str, Tensor] = {
            name: Tensor(_initial(rng, shape, init, self.dtype), requires_grad=True)
            for name, (shape, init) in params.items()}
        self.buffers: dict[str, np.ndarray] = {
            name: _initial(rng, shape, init, self.dtype)
            for name, (shape, init) in buffers.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def encoder_forward(self, x, mode: str = "eval", rng=None) -> Tensor:
        """(B,C,M) -> (B, feature_dim). Train mode draws dropout masks from
        rng and updates batch-norm running statistics."""
        if mode not in ("train", "eval"):
            raise ValidationError(f"mode must be train or eval, got {mode!r}")
        training = mode == "train"
        if training and rng is None:
            raise ValidationError("train mode needs an rng for dropout")
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        shape = x.data.shape
        if len(shape) != 3 or shape[0] < 1 or shape[1:] != (self.cfg.C, self.cfg.M):
            raise ValidationError(f"expected input (B >= 1, {self.cfg.C}, "
                                  f"{self.cfg.M}), got {shape}")

        p, bufs = self.params, self.buffers
        h = ad.first_stage(x, p["conv_temporal_w"], p["bn1_gamma"], p["bn1_beta"],
                           p["conv_spatial_w"], p["bn2_gamma"], p["bn2_beta"],
                           (bufs["bn1_mean"], bufs["bn1_var"], bufs["bn2_mean"],
                            bufs["bn2_var"]), POOL1, DROPOUT, rng, training)
        return ad.second_stage(h, p["conv_sep_depth_w"], p["conv_sep_point_w"],
                               p["bn3_gamma"], p["bn3_beta"],
                               (bufs["bn3_mean"], bufs["bn3_var"]), POOL2, DROPOUT,
                               rng, training)

    def heads_forward(self, z: Tensor, lambda_grl: float):
        """(task_logits, domain_logits); the domain head reads z through the
        gradient reversal layer with coefficient lambda_grl."""
        p = self.params
        task = ad.linear(z, p["task_w"], p["task_b"])
        zd = ad.grl(z, lambda_grl)
        hidden = ad.elu(ad.linear(zd, p["dom1_w"], p["dom1_b"]))
        domain = ad.linear(hidden, p["dom2_w"], p["dom2_b"])
        return task, domain

    def predict(self, x) -> np.ndarray:
        """Class labels for a (B,C,M) batch: encoder and task head, eval mode."""
        p = self.params
        with ad.no_grad():
            task = ad.linear(self.encoder_forward(x), p["task_w"], p["task_b"])
        return np.argmax(task.data, axis=1)


def save_checkpoint(model: SafModel, path: str) -> None:
    """Binary checkpoint: architecture header, then every parameter and
    batch-norm running buffer as a named float32 tensor, then the CRC-32 of
    all the bytes before it, as one blob. A tensor that is not float32, or
    holds a value that is not finite, is refused before the file is created,
    since load_checkpoint would give back a float32 model or reject it."""
    entries = []
    for name, value in list(model.params.items()) + list(model.buffers.items()):
        arr = value.data if isinstance(value, Tensor) else value
        if arr.dtype != np.float32:
            raise ValidationError(f"cannot save a model whose {name} is "
                                  f"{arr.dtype}: checkpoints hold float32")
        if not np.isfinite(arr).all():
            raise ValidationError(f"cannot save a model whose {name} is not "
                                  f"finite")
        entries.append((name, np.ascontiguousarray(arr, dtype="<f4")))
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack(_HEADER, model.cfg.C, model.cfg.M, model.cfg.fs,
                         *_architecture(model.cfg), model.num_domains, len(entries))]
    for name, arr in entries:
        nbytes = name.encode("utf-8")
        parts += [struct.pack("<I", len(nbytes)), nbytes,
                  struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    blob = b"".join(parts)
    write_file(path, blob + struct.pack("<I", zlib.crc32(blob)))


def load_checkpoint(path: str) -> SafModel:
    """Read a checkpoint written by save_checkpoint through
    datamodel.ContainerReader. After the magic and version, the CRC-32 is
    checked before any header field or tensor is parsed. Each stored tensor
    is then checked, as it is read, against the shape the header implies and
    for values that are not finite, and the model is built last, so a
    corrupted header cannot ask for more memory than the file holds. A
    header whose architecture is not the encoder constants' is refused."""
    with ContainerReader(path, "checkpoint", crc32=True) as r:
        magic, version = r.unpack("<4sI", "magic and version")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a model checkpoint")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        r.check_crc32()
        c, m, fs, *arch, num_domains, count = r.unpack(_HEADER, "header")
        try:
            cfg = EncoderConfig(C=c, M=m, fs=fs)
            if tuple(arch) != _architecture(cfg):
                raise ValidationError(f"architecture {tuple(arch)} is not the "
                                      f"encoder's {_architecture(cfg)}")
        except (ValidationError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: invalid model header: {exc}") from exc
        params, buffers = _tensor_specs(cfg, num_domains)
        shapes = {name: shape for name, (shape, _) in (params | buffers).items()}
        stored = {}
        for _ in range(count):
            name = r.text("tensor name")
            if name not in shapes:
                raise FormatError(f"{path}: unknown tensor {name!r}")
            (ndim,) = r.unpack("<I", f"shape of {name}")
            shape = r.unpack(f"<{ndim}I", f"shape of {name}")
            if shape != shapes[name]:
                raise FormatError(f"{path}: {name} stored with shape {shape}, "
                                  f"model expects {shapes[name]}")
            arr = r.array("<f4", shape, f"payload of {name}")
            if not np.isfinite(arr).all():
                raise FormatError(f"{path}: {name} holds a value that is not finite")
            stored[name] = arr
        r.finish("last tensor")
    missing = set(shapes) - set(stored)
    if missing:
        raise FormatError(f"{path}: missing tensors {sorted(missing)}")
    try:
        model = SafModel(cfg, num_domains=num_domains, seed=0)
    except ValidationError as exc:
        raise FormatError(f"{path}: invalid model header: {exc}") from exc
    for name, arr in stored.items():
        target = model.params[name].data if name in model.params else model.buffers[name]
        target[...] = arr
    return model
