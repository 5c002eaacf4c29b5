"""Compact convolutional encoder with task and adversarial domain heads.

The encoder is a two-block depthwise/separable design: a temporal
convolution learns frequency-selective filters, a depthwise spatial
convolution collapses the electrode axis, and a separable convolution
mixes the resulting feature maps. The task head is a single linear layer;
the domain head reads the features through a gradient reversal layer so
that the encoder is trained to make subjects indistinguishable.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import FormatError, ValidationError

CHECKPOINT_MAGIC = b"SAFM"
CHECKPOINT_VERSION = 2
# C, M, fs, F1, D, F2, temporal kernel, pool1, pool2, dropout, domains, tensors
_HEADER = struct.Struct("<IIdIIIIIIdII")
SEP_KERNEL = 16
DOMAIN_HIDDEN = 64
NUM_CLASSES = 2
BN_MOMENTUM = 0.1


@dataclass(frozen=True)
class EncoderConfig:
    C: int
    M: int
    fs: float
    F1: int = 8
    D: int = 2
    F2: int = 16
    temporal_kernel: int = 0  # 0 means round(fs / 2)
    dropout: float = 0.25
    pool1: int = 4
    pool2: int = 8

    def __post_init__(self):
        if self.temporal_kernel == 0:
            object.__setattr__(self, "temporal_kernel", int(round(self.fs / 2)))
        if self.temporal_kernel < 1:
            raise ValidationError("temporal kernel must be at least 1 sample")
        if min(self.C, self.M, self.F1, self.D, self.F2, self.pool1, self.pool2) < 1:
            raise ValidationError("all architecture sizes must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ValidationError(f"dropout must be in [0,1), got {self.dropout}")
        if self.feature_dim < 1:
            raise ValidationError(
                f"pooling {self.pool1}x{self.pool2} leaves no features for M={self.M}"
            )

    @property
    def feature_dim(self) -> int:
        return self.F2 * ((self.M // self.pool1) // self.pool2)


def _tensor_specs(cfg: EncoderConfig, num_domains: int):
    """Shape and initial value of every parameter and of every batch-norm
    running buffer, by name in checkpoint order. The initial value is a
    (fan_in, fan_out) pair for a Glorot-uniform draw, or a constant fill."""
    c, k = cfg.C, cfg.temporal_kernel
    f1, d, f2 = cfg.F1, cfg.D, cfg.F2
    fdim = cfg.feature_dim
    params = {
        "conv_temporal_w": ((f1, k), (k, f1 * k)),
        "bn1_gamma": ((f1,), 1.0),
        "bn1_beta": ((f1,), 0.0),
        "conv_spatial_w": ((f1, d, c), (c, d * c)),
        "bn2_gamma": ((f1 * d,), 1.0),
        "bn2_beta": ((f1 * d,), 0.0),
        "conv_sep_depth_w": ((f1 * d, SEP_KERNEL), (SEP_KERNEL, SEP_KERNEL)),
        "conv_sep_point_w": ((f2, f1 * d), (f1 * d, f2)),
        "bn3_gamma": ((f2,), 1.0),
        "bn3_beta": ((f2,), 0.0),
        "task_w": ((fdim, NUM_CLASSES), (fdim, NUM_CLASSES)),
        "task_b": ((NUM_CLASSES,), 0.0),
        "dom1_w": ((fdim, DOMAIN_HIDDEN), (fdim, DOMAIN_HIDDEN)),
        "dom1_b": ((DOMAIN_HIDDEN,), 0.0),
        "dom2_w": ((DOMAIN_HIDDEN, num_domains), (DOMAIN_HIDDEN, num_domains)),
        "dom2_b": ((num_domains,), 0.0),
    }
    buffers = {f"bn{i}_{stat}": ((n,), fill)
               for i, n in ((1, f1), (2, f1 * d), (3, f2))
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
        """(B,1,C,M) -> (B, feature_dim). Train mode draws dropout masks from
        rng and updates batch-norm running statistics."""
        if mode not in ("train", "eval"):
            raise ValidationError(f"mode must be train or eval, got {mode!r}")
        training = mode == "train"
        if training and rng is None and self.cfg.dropout > 0:
            raise ValidationError("train mode needs an rng for dropout")
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        b = x.data.shape[0]
        expected = (b, 1, self.cfg.C, self.cfg.M)
        if x.data.shape != expected:
            raise ValidationError(f"expected input {expected}, got {x.data.shape}")

        p, bufs = self.params, self.buffers
        h = ad.temporal_conv(x, p["conv_temporal_w"])
        h = ad.batch_norm(h, p["bn1_gamma"], p["bn1_beta"], bufs["bn1_mean"],
                          bufs["bn1_var"], training, BN_MOMENTUM)
        h = ad.depthwise_spatial_conv(h, p["conv_spatial_w"])
        h = ad.batch_norm(h, p["bn2_gamma"], p["bn2_beta"], bufs["bn2_mean"],
                          bufs["bn2_var"], training, BN_MOMENTUM)
        h = ad.elu(h)
        h = ad.avg_pool_time(h, self.cfg.pool1)
        h = ad.dropout(h, self.cfg.dropout, rng, training)
        h = ad.depthwise_temporal_conv(h, p["conv_sep_depth_w"])
        h = ad.pointwise_conv(h, p["conv_sep_point_w"])
        h = ad.batch_norm(h, p["bn3_gamma"], p["bn3_beta"], bufs["bn3_mean"],
                          bufs["bn3_var"], training, BN_MOMENTUM)
        h = ad.elu(h)
        h = ad.avg_pool_time(h, self.cfg.pool2)
        h = ad.dropout(h, self.cfg.dropout, rng, training)
        return ad.reshape(h, (b, self.cfg.feature_dim))

    def heads_forward(self, z: Tensor, lambda_grl: float):
        """(task_logits, domain_logits); the domain head reads z through the
        gradient reversal layer with coefficient lambda_grl."""
        p = self.params
        task = ad.linear(z, p["task_w"], p["task_b"])
        zd = ad.grl(z, lambda_grl)
        hidden = ad.elu(ad.linear(zd, p["dom1_w"], p["dom1_b"]))
        domain = ad.linear(hidden, p["dom2_w"], p["dom2_b"])
        return task, domain

    def forward(self, x, mode: str = "eval", rng=None):
        """Both heads' logits. The reversal layer is the identity forward, so
        its coefficient (0 here) shapes only gradients, which training takes
        from train.compute_losses."""
        z = self.encoder_forward(x, mode=mode, rng=rng)
        return self.heads_forward(z, 0.0)

    def predict(self, x) -> np.ndarray:
        """Class labels for a (B,1,C,M) batch, eval mode."""
        with ad.no_grad():
            task, _ = self.forward(x, mode="eval")
        return np.argmax(task.data, axis=1)


def save_checkpoint(model: SafModel, path: str) -> None:
    """Binary checkpoint: architecture header, then every parameter and
    batch-norm running buffer as a named float32 tensor. A model holding a
    value that is not finite in float32 is refused before the file is
    opened, since load_checkpoint would reject it."""
    cfg = model.cfg
    entries = []
    for name, value in list(model.params.items()) + list(model.buffers.items()):
        arr = value.data if isinstance(value, Tensor) else value
        with np.errstate(over="ignore"):
            arr = np.ascontiguousarray(arr, dtype="<f4")
        if not np.isfinite(arr).all():
            raise ValidationError(f"cannot save a model whose {name} is not "
                                  f"finite in float32")
        entries.append((name, arr))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(_HEADER.pack(cfg.C, cfg.M, cfg.fs, cfg.F1, cfg.D, cfg.F2,
                              cfg.temporal_kernel, cfg.pool1, cfg.pool2, cfg.dropout,
                              model.num_domains, len(entries)))
        for name, arr in entries:
            nbytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nbytes)))
            fh.write(nbytes)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path: str) -> SafModel:
    """Read a checkpoint written by save_checkpoint. Every stored tensor is
    checked against the shapes the header implies, and for values that are
    not finite, before the model is built, so a corrupted header cannot ask
    for more memory than the file holds."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a model checkpoint")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    offset = 8
    try:
        (c, m, fs, f1, d, f2, k, pool1, pool2, dropout, num_domains,
         count) = _HEADER.unpack_from(blob, offset)
        offset += _HEADER.size
        stored = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset:offset + nlen].decode("utf-8")
            offset += nlen
            (ndim,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            size = math.prod(shape)
            arr = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
            offset += 4 * size
            stored[name] = arr.reshape(shape)
    except (struct.error, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: truncated checkpoint") from exc
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after the "
                          f"last tensor")
    try:
        cfg = EncoderConfig(C=c, M=m, fs=fs, F1=f1, D=d, F2=f2, temporal_kernel=k,
                            dropout=dropout, pool1=pool1, pool2=pool2)
    except (ValidationError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: invalid model header: {exc}") from exc
    params, buffers = _tensor_specs(cfg, num_domains)
    shapes = {name: shape for name, (shape, _) in (params | buffers).items()}
    for name, arr in stored.items():
        if name not in shapes:
            raise FormatError(f"{path}: unknown tensor {name!r}")
        if arr.shape != shapes[name]:
            raise FormatError(f"{path}: {name} stored with shape {arr.shape}, "
                              f"model expects {shapes[name]}")
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: {name} holds a value that is not finite")
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
