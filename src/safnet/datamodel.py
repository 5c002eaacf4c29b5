"""Core data types and on-disk formats.

Binary epoch container (NDF), little-endian throughout:

    magic   4 bytes ASCII "SAF1"
    version u32 (currently 1)
    C       u32 channel count
    M       u32 samples per channel
    fs      f32 sample rate in Hz
    y       u8 class label (0 or 1)
    subject u32 byte length, then UTF-8 subject id
    payload C*M f32 values, channel-major

Raw recording container (SAFR), used by the CLI as pipeline input:

    magic   4 bytes ASCII "SAFR"
    version u32 (currently 1)
    C       u32, N u64, fs f64
    names   C entries of (u32 byte length + UTF-8)
    payload C*N f64 values, channel-major

Manifest: CSV with exact header "path,subject,class,split", UTF-8,
LF line endings, no quoting, so no path or subject id may contain a
comma, a double quote, CR or LF. Relative paths resolve against the
manifest's own directory.

The NDF, SAFR and SAFM (safnet.model) readers parse through one
ContainerReader, which names the file and the field in the FormatError of a
truncated file. Any blob the readers cannot decode into a valid value,
truncated or corrupted alike, raises FormatError.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ParseError, ValidationError
from .textio import write_csv

NDF_MAGIC = b"SAF1"
NDF_VERSION = 1
SAFR_MAGIC = b"SAFR"
SAFR_VERSION = 1

MANIFEST_HEADER = ["path", "subject", "class", "split"]
SPLIT_TOKENS = ("train", "val", "test", "none")
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, val, test
_MANIFEST_FORBIDDEN = (",", '"', "\n", "\r")
NAME_MAX_BYTES = 255  # the usual file-name limit (NAME_MAX)


@dataclass(frozen=True)
class Recording:
    """Continuous multichannel signal, data shaped (channels, samples)."""

    data: np.ndarray
    sample_rate_hz: float
    channel_names: tuple[str, ...] = ()

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValidationError(f"recording data must be 2-D, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValidationError("recording must have at least one channel and one sample")
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValidationError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if not np.all(np.isfinite(data)):
            raise ValidationError("recording contains non-finite values")
        names = self.channel_names or tuple(f"ch{i}" for i in range(data.shape[0]))
        if len(names) != data.shape[0]:
            raise ValidationError(
                f"{len(names)} channel names for {data.shape[0]} channels"
            )
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "channel_names", tuple(names))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.data.shape[1] / self.sample_rate_hz


@dataclass(frozen=True)
class Epoch:
    """One fixed-length training sample: x is (channels, samples) float32."""

    x: np.ndarray
    y: int
    s: str
    sample_rate_hz: float

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float32)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValidationError(f"epoch data must be non-empty 2-D, got shape {x.shape}")
        if self.y not in (0, 1):
            raise ValidationError(f"class label must be 0 or 1, got {self.y}")
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValidationError("sample rate must be positive")
        if not np.all(np.isfinite(x)):
            raise ValidationError("epoch contains non-finite values")
        object.__setattr__(self, "x", x)

    @property
    def channels(self) -> int:
        return self.x.shape[0]

    @property
    def samples(self) -> int:
        return self.x.shape[1]


@dataclass
class EpochSet:
    """A collection of epochs with consistent shape and a per-epoch split tag."""

    epochs: list[Epoch]
    split: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.split:
            self.split = ["none"] * len(self.epochs)
        if len(self.split) != len(self.epochs):
            raise ValidationError("split list length must match epoch count")
        for tag in self.split:
            if tag not in SPLIT_TOKENS:
                raise ValidationError(f"unknown split tag {tag!r}")
        if self.epochs:
            c, m = self.epochs[0].channels, self.epochs[0].samples
            fs = self.epochs[0].sample_rate_hz
            for ep in self.epochs:
                if ep.channels != c or ep.samples != m or ep.sample_rate_hz != fs:
                    raise ValidationError(
                        "all epochs in a set must share channel count, length and rate"
                    )

    @property
    def subjects(self) -> list[str]:
        return sorted({ep.s for ep in self.epochs})

    def subset(self, tag: str) -> list[Epoch]:
        return [ep for ep, t in zip(self.epochs, self.split) if t == tag]


@dataclass
class Manifest:
    """Rows of (path, subject, class, split); paths relative to base_dir."""

    rows: list[tuple[str, str, int, str]]
    base_dir: str = "."


class ContainerReader:
    """Bounds-checked cursor over the bytes of one container file. Every read
    names its field; one that runs past the end raises FormatError naming the
    file and the field."""

    def __init__(self, blob: bytes, path: str, kind: str):
        self.blob, self.path, self.kind = blob, path, kind
        self.offset = 0

    def _advance(self, size: int, field: str) -> int:
        start = self.offset
        if size > len(self.blob) - start:
            raise FormatError(f"{self.path}: truncated {self.kind}: too short "
                              f"for the {field}")
        self.offset = start + size
        return start

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack_from(fmt, self.blob,
                                  self._advance(struct.calcsize(fmt), field))

    def text(self, field: str) -> str:
        """u32 byte length, then that many bytes of UTF-8."""
        (size,) = self.unpack("<I", f"{field} length")
        start = self._advance(size, field)
        try:
            return self.blob[start:self.offset].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: {field} is not valid UTF-8") from exc

    def array(self, dtype: str, shape: tuple[int, ...], field: str) -> np.ndarray:
        """A read-only view of the next prod(shape) values, not a copy."""
        count = math.prod(shape)
        start = self._advance(count * np.dtype(dtype).itemsize, field)
        return np.frombuffer(self.blob, dtype=dtype, count=count,
                             offset=start).reshape(shape)

    def finish(self, field: str) -> None:
        """Reject bytes after the last field."""
        extra = len(self.blob) - self.offset
        if extra:
            raise FormatError(f"{self.path}: {extra} trailing bytes after the "
                              f"{field}")


def write_ndf(epoch: Epoch, path: str) -> None:
    """Serialize one epoch to the binary NDF layout (see module docstring)."""
    x = epoch.x
    if not np.all(np.isfinite(x)):
        raise ValidationError("refusing to write non-finite epoch data")
    sbytes = epoch.s.encode("utf-8")
    header = struct.pack(
        "<4sIIIfB I",
        NDF_MAGIC,
        NDF_VERSION,
        epoch.channels,
        epoch.samples,
        float(epoch.sample_rate_hz),
        epoch.y,
        len(sbytes),
    )
    payload = np.ascontiguousarray(x, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(sbytes)
        fh.write(payload)


def read_ndf(path: str) -> Epoch:
    """Read one epoch written by write_ndf; rejects bad magic and truncation."""
    with open(path, "rb") as fh:
        r = ContainerReader(fh.read(), path, "NDF epoch")
    magic, version, c, m, fs, y = r.unpack("<4sIIIfB", "header")
    if magic != NDF_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != NDF_VERSION:
        raise FormatError(f"{path}: unsupported NDF version {version}")
    subject = r.text("subject")
    x = r.array("<f4", (c, m), "payload")
    r.finish("payload")
    try:
        return Epoch(x=x.copy(), y=int(y), s=subject, sample_rate_hz=float(fs))
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_recording(rec: Recording, path: str) -> None:
    """Serialize a continuous recording to the SAFR container."""
    with open(path, "wb") as fh:
        fh.write(SAFR_MAGIC)
        fh.write(struct.pack("<IIQd", SAFR_VERSION, rec.channels, rec.samples,
                             float(rec.sample_rate_hz)))
        for name in rec.channel_names:
            nbytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nbytes)))
            fh.write(nbytes)
        fh.write(np.ascontiguousarray(rec.data, dtype="<f8").tobytes())


def read_recording(path: str) -> Recording:
    """Read a SAFR recording container."""
    with open(path, "rb") as fh:
        r = ContainerReader(fh.read(), path, "SAFR recording")
    magic, version, c, n, fs = r.unpack("<4sIIQd", "header")
    if magic != SAFR_MAGIC:
        raise FormatError(f"{path}: not a SAFR recording")
    if version != SAFR_VERSION:
        raise FormatError(f"{path}: unsupported SAFR version {version}")
    names = tuple(r.text("channel name") for _ in range(c))
    data = r.array("<f8", (c, n), "payload")
    r.finish("payload")
    try:
        return Recording(data=data.copy(), sample_rate_hz=fs, channel_names=names)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def check_manifest_field(value: str, what: str = "subject id") -> None:
    """Reject a path or subject id that the unquoted manifest CSV cannot carry."""
    for ch in _MANIFEST_FORBIDDEN:
        if ch in value:
            raise ValidationError(f"{what} {value!r} contains {ch!r}, which a "
                                  f"manifest cannot hold")


def write_manifest(manifest: Manifest, path: str) -> None:
    for row_path, subject, _, _ in manifest.rows:
        check_manifest_field(row_path, "path")
        check_manifest_field(subject)
    write_csv(path, MANIFEST_HEADER, manifest.rows)


def write_epoch_dir(epoch_set: EpochSet, out_dir: str) -> Manifest:
    """Write each epoch as {subject}_c{class}_{k:04d}.ndf, k counting the
    epochs of its (subject, class) cell, then manifest.csv listing them with
    their split tags, into out_dir. Each manifest row, and so each file
    name, is built once. An empty set, or a subject id that the manifest or
    a file name cannot hold, is refused before out_dir is created: one with
    a character check_manifest_field refuses, a path separator (which would
    put its files outside out_dir) or a NUL, one that is not valid UTF-8,
    or one whose cell's last, longest name passes NAME_MAX_BYTES bytes."""
    if not epoch_set.epochs:
        raise ValidationError("no epochs to write: every recording is shorter "
                              "than one epoch")
    counts: dict[tuple[str, int], int] = {}
    rows = []
    for ep, split in zip(epoch_set.epochs, epoch_set.split):
        k = counts.get((ep.s, ep.y), 0)
        counts[(ep.s, ep.y)] = k + 1
        rows.append((f"{ep.s}_c{ep.y}_{k:04d}.ndf", ep.s, ep.y, split))
    last_names = {(subject, y): fname for fname, subject, y, _ in rows}
    for (subject, _), fname in sorted(last_names.items()):
        check_manifest_field(subject)
        for ch, what in (("/", "a path separator"), ("\\", "a path separator"),
                         ("\0", "a NUL")):
            if ch in subject:
                raise ValidationError(f"subject id {subject!r} holds {what}, "
                                      f"which a file name cannot")
        try:  # NDF and the manifest store the id as UTF-8
            longest = len(fname.encode("utf-8"))
        except UnicodeEncodeError:
            raise ValidationError(f"subject id {subject!r} cannot be encoded "
                                  f"as UTF-8") from None
        if longest > NAME_MAX_BYTES:
            raise ValidationError(
                f"subject id {subject[:16]!r}... ({len(subject)} characters) gives "
                f"file names of up to {longest} bytes, more than a file name's "
                f"{NAME_MAX_BYTES}")
    os.makedirs(out_dir, exist_ok=True)
    for ep, (fname, *_) in zip(epoch_set.epochs, rows):
        write_ndf(ep, os.path.join(out_dir, fname))
    manifest = Manifest(rows=rows, base_dir=out_dir)
    write_manifest(manifest, os.path.join(out_dir, "manifest.csv"))
    return manifest


def load_manifest(path: str) -> tuple[Manifest, EpochSet]:
    """Load a manifest CSV and every epoch it references, in row order."""
    base_dir = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty manifest") from None
        if header != MANIFEST_HEADER:
            raise ParseError(f"{path}: bad header {header!r}")
        rows: list[tuple[str, str, int, str]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            p, subject, cls_s, split = row
            if cls_s not in ("0", "1"):
                raise ParseError(f"{path}:{lineno}: class must be 0 or 1, got {cls_s!r}")
            if split not in SPLIT_TOKENS:
                raise ParseError(f"{path}:{lineno}: unknown split {split!r}")
            rows.append((p, subject, int(cls_s), split))

    manifest = Manifest(rows=rows, base_dir=base_dir)
    epochs: list[Epoch] = []
    splits: list[str] = []
    for p, subject, cls, split in rows:
        full = p if os.path.isabs(p) else os.path.join(base_dir, p)
        ep = read_ndf(full)
        if ep.y != cls:
            raise ValidationError(f"{full}: class {ep.y} disagrees with manifest {cls}")
        if ep.s != subject:
            raise ValidationError(f"{full}: subject {ep.s!r} disagrees with manifest {subject!r}")
        epochs.append(ep)
        splits.append(split)
    return manifest, EpochSet(epochs=epochs, split=splits)


def split_dataset(epoch_set: EpochSet, seed: int) -> EpochSet:
    """Assign train/val/test tags in SPLIT_RATIOS, stratified by (subject,
    class).

    Within each stratum the epochs are shuffled with a generator seeded from
    `seed` and assigned by cumulative ratio with floor rounding; remainder
    epochs go to train. The assignment is deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    strata: dict[tuple[str, int], list[int]] = {}
    for i, ep in enumerate(epoch_set.epochs):
        strata.setdefault((ep.s, ep.y), []).append(i)

    # position p of a shuffled stratum takes tags[k], k the number of
    # cumulative edges at or below p; past the last edge (float shortfall)
    # is train
    tags = np.array(["train", "val", "test", "train"], dtype=object)
    split = np.empty(len(epoch_set.epochs), dtype=object)
    for key in sorted(strata):
        idx = np.asarray(strata[key])
        order = rng.permutation(len(idx))
        # cumulative boundaries keep every split within one epoch of its ratio
        edges = np.floor(len(idx) * np.cumsum(SPLIT_RATIOS))
        split[idx[order]] = tags[np.searchsorted(edges, np.arange(len(idx)),
                                                 side="right")]
    return EpochSet(epochs=list(epoch_set.epochs), split=split.tolist())
