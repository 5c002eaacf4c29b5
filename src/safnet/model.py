"""Compact convolutional encoder with task and adversarial domain heads.

The encoder is a two-block depthwise/separable design: a temporal
convolution learns frequency-selective filters, a depthwise spatial
convolution collapses the electrode axis, and a separable convolution
mixes the resulting feature maps. The task head is a single linear layer;
the domain head reads the features through a gradient reversal layer so
that the encoder is trained to make subjects indistinguishable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import FormatError, ValidationError

CHECKPOINT_MAGIC = b"SAFM"
CHECKPOINT_VERSION = 1
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


def _glorot(rng, shape, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class SafModel:
    """Encoder f, task head g, domain head h, and the GRL coefficient."""

    def __init__(self, cfg: EncoderConfig, num_domains: int, grl_lambda: float = 0.0,
                 seed: int = 0, dtype=np.float32):
        if num_domains < 1:
            raise ValidationError("need at least one domain")
        self.cfg = cfg
        self.num_domains = int(num_domains)
        self.grl_lambda = float(grl_lambda)
        self.dtype = np.dtype(dtype)

        rng = np.random.default_rng(seed)
        c, k = cfg.C, cfg.temporal_kernel
        f1, d, f2 = cfg.F1, cfg.D, cfg.F2
        fdim = cfg.feature_dim

        def param(values):
            return Tensor(np.asarray(values, dtype=self.dtype), requires_grad=True)

        self.params: dict[str, Tensor] = {
            "conv_temporal_w": param(_glorot(rng, (f1, k), k, f1 * k, self.dtype)),
            "bn1_gamma": param(np.ones(f1)),
            "bn1_beta": param(np.zeros(f1)),
            "conv_spatial_w": param(_glorot(rng, (f1, d, c), c, d * c, self.dtype)),
            "bn2_gamma": param(np.ones(f1 * d)),
            "bn2_beta": param(np.zeros(f1 * d)),
            "conv_sep_depth_w": param(
                _glorot(rng, (f1 * d, SEP_KERNEL), SEP_KERNEL, SEP_KERNEL, self.dtype)),
            "conv_sep_point_w": param(_glorot(rng, (f2, f1 * d), f1 * d, f2, self.dtype)),
            "bn3_gamma": param(np.ones(f2)),
            "bn3_beta": param(np.zeros(f2)),
            "task_w": param(_glorot(rng, (fdim, NUM_CLASSES), fdim, NUM_CLASSES,
                                    self.dtype)),
            "task_b": param(np.zeros(NUM_CLASSES)),
            "dom1_w": param(_glorot(rng, (fdim, DOMAIN_HIDDEN), fdim, DOMAIN_HIDDEN,
                                    self.dtype)),
            "dom1_b": param(np.zeros(DOMAIN_HIDDEN)),
            "dom2_w": param(_glorot(rng, (DOMAIN_HIDDEN, self.num_domains),
                                    DOMAIN_HIDDEN, self.num_domains, self.dtype)),
            "dom2_b": param(np.zeros(self.num_domains)),
        }
        self.buffers: dict[str, np.ndarray] = {
            "bn1_mean": np.zeros(f1, dtype=self.dtype),
            "bn1_var": np.ones(f1, dtype=self.dtype),
            "bn2_mean": np.zeros(f1 * d, dtype=self.dtype),
            "bn2_var": np.ones(f1 * d, dtype=self.dtype),
            "bn3_mean": np.zeros(f2, dtype=self.dtype),
            "bn3_var": np.ones(f2, dtype=self.dtype),
        }

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

    def heads_forward(self, z: Tensor, lambda_grl: float | None = None):
        """(task_logits, domain_logits); the domain head reads z through the
        gradient reversal layer."""
        lam = self.grl_lambda if lambda_grl is None else float(lambda_grl)
        p = self.params
        task = ad.linear(z, p["task_w"], p["task_b"])
        zd = ad.grl(z, lam)
        hidden = ad.elu(ad.linear(zd, p["dom1_w"], p["dom1_b"]))
        domain = ad.linear(hidden, p["dom2_w"], p["dom2_b"])
        return task, domain

    def forward(self, x, mode: str = "eval", rng=None):
        z = self.encoder_forward(x, mode=mode, rng=rng)
        return self.heads_forward(z)

    def predict(self, x) -> np.ndarray:
        """Class labels for a (B,1,C,M) batch, eval mode."""
        with ad.no_grad():
            task, _ = self.forward(x, mode="eval")
        return np.argmax(task.data, axis=1)


def encoder_forward(model: SafModel, x, mode: str = "eval", rng=None) -> Tensor:
    return model.encoder_forward(x, mode=mode, rng=rng)


def heads_forward(model: SafModel, z: Tensor, lambda_grl: float | None = None):
    return model.heads_forward(z, lambda_grl)


def save_checkpoint(model: SafModel, path: str) -> None:
    """Binary checkpoint: architecture header, then every parameter and
    batch-norm running buffer as a named float32 tensor."""
    cfg = model.cfg
    entries = list(model.params.items()) + list(model.buffers.items())
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<IIdIIIIIId", cfg.C, cfg.M, cfg.fs, cfg.F1, cfg.D,
                             cfg.F2, cfg.temporal_kernel, cfg.pool1, cfg.pool2,
                             cfg.dropout))
        fh.write(struct.pack("<Id", model.num_domains, model.grl_lambda))
        fh.write(struct.pack("<I", len(entries)))
        for name, value in entries:
            arr = value.data if isinstance(value, Tensor) else value
            nbytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nbytes)))
            fh.write(nbytes)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path: str) -> SafModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a model checkpoint")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    offset = 8
    try:
        c, m, fs, f1, d, f2, k, pool1, pool2, dropout = struct.unpack_from(
            "<IIdIIIIIId", blob, offset)
        offset += struct.calcsize("<IIdIIIIIId")
        num_domains, grl_lambda = struct.unpack_from("<Id", blob, offset)
        offset += struct.calcsize("<Id")
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4

        cfg = EncoderConfig(C=c, M=m, fs=fs, F1=f1, D=d, F2=f2, temporal_kernel=k,
                            dropout=dropout, pool1=pool1, pool2=pool2)
        model = SafModel(cfg, num_domains=num_domains, grl_lambda=grl_lambda, seed=0)
        seen = set()
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset:offset + nlen].decode("utf-8")
            offset += nlen
            (ndim,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
            offset += 4 * size
            if name in model.params:
                target = model.params[name].data
            elif name in model.buffers:
                target = model.buffers[name]
            else:
                raise FormatError(f"{path}: unknown tensor {name!r}")
            if shape != target.shape:
                raise FormatError(f"{path}: {name} stored with shape {shape}, "
                                  f"model expects {target.shape}")
            target[...] = arr.reshape(shape)
            seen.add(name)
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: truncated checkpoint") from exc
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after the "
                          f"last tensor")
    missing = (set(model.params) | set(model.buffers)) - seen
    if missing:
        raise FormatError(f"{path}: missing tensors {sorted(missing)}")
    return model
