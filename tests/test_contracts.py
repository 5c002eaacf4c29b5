"""Writer contracts: every public writer's output reads back bit-exactly
through its reader, or the writer raises a SafError and leaves no file.
Each property builds its input from drawn fields, lets the constructors
refuse what they refuse, may then spoil a checked value in place, and
checks that the writer refuses exactly the inputs its reader could not
give back. The NDF and SAFR payloads must read back into arrays that own
aligned, writable memory, not views of the file's bytes."""

import operator
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypothesis.extra.numpy as hnp
from safnet import datamodel
from safnet.datamodel import (
    SPLIT_TOKENS,
    Epoch,
    EpochSet,
    Manifest,
    Recording,
    load_manifest,
    read_ndf,
    read_recording,
    write_epoch_dir,
    write_manifest,
    write_ndf,
    write_recording,
)
from safnet.errors import SafError, ValidationError
from safnet.model import EncoderConfig, SafModel, load_checkpoint, save_checkpoint

# every code point; the manifest's refused characters come up now and then
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
# TEXT, or text that holds a lone surrogate or a refused character often
ANY_TEXT = (TEXT
            | st.text(st.characters(exclude_categories=())
                      | st.characters(categories=["Cs"]), max_size=8)
            | st.text(st.sampled_from(',"\r\n\0/\\a'), max_size=3))
# values of other types where a str belongs
NOT_TEXT = st.integers() | st.none() | st.binary(max_size=3) | st.floats()
LABELS = (st.sampled_from([0, 1]) | st.integers(-1, 2) | st.booleans()
          | st.floats(0, 1) | st.sampled_from([np.int64(1), np.float32(1)]))
SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 6))
RATES = st.floats(1e-30, 1e30) | st.floats()


def utf8_encodable(text):
    return not any(0xD800 <= ord(ch) <= 0xDFFF for ch in text)


def manifest_can_hold(text):
    return (isinstance(text, str) and utf8_encodable(text)
            and not any(ch in text for ch in ',"\r\n\0'))


def integer_label(value):
    return (isinstance(value, (int, np.integer))
            and operator.index(value) in (0, 1))


def written(write, value, tmp):
    """The bytes write(value, path) puts in a file in the empty directory
    tmp, or None if it refused value with a SafError and created nothing."""
    path = os.path.join(tmp, "out")
    try:
        write(value, path)
    except SafError:
        assert os.listdir(tmp) == []
        return None
    with open(path, "rb") as fh:
        return fh.read()


def rewritten(write, value, blob):
    """Writing value again, in a fresh directory, gives blob again."""
    with tempfile.TemporaryDirectory() as tmp:
        assert written(write, value, tmp) == blob


def owns_aligned_memory(arr):
    return arr.flags.owndata and arr.flags.aligned and arr.flags.writeable


@settings(max_examples=300, deadline=None)
@given(x=hnp.arrays(np.float32, SHAPES, elements=st.floats(
           width=32, allow_nan=False, allow_infinity=False)),
       y=LABELS, s=ANY_TEXT | NOT_TEXT, fs=RATES, spoil=st.booleans())
def test_write_ndf(x, y, s, fs, spoil):
    try:
        epoch = Epoch(x=x, y=y, s=s, sample_rate_hz=fs)
    except ValidationError:
        return
    assert isinstance(s, str)
    if spoil:
        epoch.x[0, 0] = np.nan
    with tempfile.TemporaryDirectory() as tmp:
        blob = written(write_ndf, epoch, tmp)
        assert (blob is None) == (spoil or not utf8_encodable(s))
        if blob is None:
            return
        back = read_ndf(os.path.join(tmp, "out"))
    assert back.x.tobytes() == epoch.x.tobytes() and back.x.shape == epoch.x.shape
    assert owns_aligned_memory(back.x)
    assert type(back.y) is int and back.y == epoch.y
    assert back.s == s
    # NDF stores the rate as float32
    assert back.sample_rate_hz == float(np.float32(fs))
    rewritten(write_ndf, back, blob)


@settings(max_examples=300, deadline=None)
@given(data=hnp.arrays(np.float64, SHAPES, elements=st.floats(
           allow_nan=False, allow_infinity=False)),
       fs=RATES, names=st.lists(ANY_TEXT | NOT_TEXT, max_size=3),
       spoil=st.booleans())
def test_write_recording(data, fs, names, spoil):
    try:
        rec = Recording(data=data, sample_rate_hz=fs, channel_names=tuple(names))
    except ValidationError:
        return
    assert all(isinstance(name, str) for name in rec.channel_names)
    if spoil:
        rec.data[-1, -1] = np.inf
    with tempfile.TemporaryDirectory() as tmp:
        blob = written(write_recording, rec, tmp)
        assert (blob is None) == (spoil or not all(map(utf8_encodable, names)))
        if blob is None:
            return
        back = read_recording(os.path.join(tmp, "out"))
    assert back.data.tobytes() == rec.data.tobytes()
    assert back.data.shape == rec.data.shape
    assert owns_aligned_memory(back.data)
    assert back.sample_rate_hz == fs
    assert back.channel_names == rec.channel_names
    rewritten(write_recording, back, blob)


def stored_tensors(model):
    return {name: value.data if name in model.params else value
            for name, value in (model.params | model.buffers).items()}


@settings(max_examples=100, deadline=None)
@given(c=st.integers(1, 3), m=st.integers(32, 64) | st.integers(1, 64),
       fs=st.floats(1.0, 12.0) | st.floats(0.0, 12.0),
       domains=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       spoil=st.none() | st.sampled_from([np.nan, -np.inf, "float64"]),
       which=st.integers(0, 21))
def test_save_checkpoint(c, m, fs, domains, seed, spoil, which):
    try:
        model = SafModel(EncoderConfig(C=c, M=m, fs=fs), num_domains=domains,
                         seed=seed)
    except ValidationError:
        return
    name = sorted(stored_tensors(model))[which]
    if spoil == "float64":
        if name in model.params:
            model.params[name].data = model.params[name].data.astype(np.float64)
        else:
            model.buffers[name] = model.buffers[name].astype(np.float64)
    elif spoil is not None:
        stored_tensors(model)[name].flat[0] = spoil
    with tempfile.TemporaryDirectory() as tmp:
        blob = written(save_checkpoint, model, tmp)
        assert (blob is None) == (spoil is not None)
        if blob is None:
            return
        back = load_checkpoint(os.path.join(tmp, "out"))
    assert back.cfg == model.cfg and back.num_domains == domains
    tensors = stored_tensors(back)
    for name, value in stored_tensors(model).items():
        assert tensors[name].dtype == np.float32
        assert tensors[name].tobytes() == value.tobytes()
    rewritten(save_checkpoint, back, blob)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(
    st.tuples(TEXT, TEXT, st.sampled_from([0, 1]), st.sampled_from(SPLIT_TOKENS))
    | st.tuples(ANY_TEXT | NOT_TEXT, ANY_TEXT | NOT_TEXT, LABELS,
                st.sampled_from(SPLIT_TOKENS) | ANY_TEXT),
    max_size=4))
def test_write_manifest(rows):
    """load_manifest reads every row's epoch; here a stand-in read_ndf hands
    back, row by row, an epoch that agrees with the row."""
    holdable = all(manifest_can_hold(p) and manifest_can_hold(s)
                   and integer_label(cls) and split in SPLIT_TOKENS
                   for p, s, cls, split in rows)
    with tempfile.TemporaryDirectory() as tmp:
        blob = written(write_manifest, Manifest(rows=rows), tmp)
        assert (blob is None) == (not holdable)
        if blob is None:
            return
        pending = iter(rows)

        def read_row_epoch(full):
            p, s, cls, _ = next(pending)
            assert full == (p if os.path.isabs(p) else os.path.join(tmp, p))
            return Epoch(x=np.zeros((1, 1), np.float32), y=cls, s=s,
                         sample_rate_hz=1.0)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(datamodel, "read_ndf", read_row_epoch)
            manifest, _ = load_manifest(os.path.join(tmp, "out"))
    assert manifest.rows == [(p, s, operator.index(cls), split)
                             for p, s, cls, split in rows]
    rewritten(write_manifest, Manifest(rows=manifest.rows), blob)


@settings(max_examples=150, deadline=None)
@given(subjects=st.lists(TEXT, min_size=1, max_size=3)
       | st.lists(ANY_TEXT, min_size=1, max_size=3),
       cells=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0, 1]),
                                st.sampled_from(SPLIT_TOKENS)), max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_write_epoch_dir(subjects, cells, seed):
    rng = np.random.default_rng(seed)
    epochs = [Epoch(x=rng.standard_normal((2, 3)).astype(np.float32), y=y,
                    s=subjects[i % len(subjects)], sample_rate_hz=128.0)
              for i, y, _ in cells]
    used = {ep.s for ep in epochs}
    writable = bool(epochs) and all(
        manifest_can_hold(s) and not any(ch in s for ch in "/\\") for s in used)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        try:
            manifest = write_epoch_dir(
                EpochSet(epochs=epochs, split=[split for *_, split in cells]), out)
        except SafError:
            assert not writable and os.listdir(tmp) == []
            return
        assert writable
        assert sorted(os.listdir(out)) == sorted(
            [row[0] for row in manifest.rows] + ["manifest.csv"])
        back_manifest, back = load_manifest(os.path.join(out, "manifest.csv"))
    assert back_manifest.rows == manifest.rows
    assert back.split == [split for *_, split in cells]
    for ep, got in zip(epochs, back.epochs, strict=True):
        assert got.x.tobytes() == ep.x.tobytes()
        assert (got.y, got.s, got.sample_rate_hz) == (ep.y, ep.s, ep.sample_rate_hz)

