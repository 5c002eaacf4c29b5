import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corruption import check_reader, corruptions, valid_blob
from safnet.datamodel import (
    SPLIT_RATIOS,
    Epoch,
    EpochSet,
    Manifest,
    Recording,
    load_manifest,
    read_ndf,
    read_recording,
    split_dataset,
    write_epoch_dir,
    write_manifest,
    write_ndf,
    write_recording,
)
from safnet import datamodel
from safnet.errors import FormatError, ParseError, ValidationError


def make_epoch(c=2, m=16, y=0, s="s0", fs=512.0, seed=0):
    rng = np.random.default_rng(seed)
    return Epoch(x=rng.standard_normal((c, m)).astype(np.float32), y=y, s=s,
                 sample_rate_hz=fs)


class TestRecording:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Recording(data=np.array([[1.0, np.nan]]), sample_rate_hz=512.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValidationError):
            Recording(data=np.ones((2, 4)), sample_rate_hz=0.0)

    def test_default_channel_names(self):
        rec = Recording(data=np.ones((3, 4)), sample_rate_hz=10.0)
        assert rec.channel_names == ("ch0", "ch1", "ch2")
        assert rec.channels == 3 and rec.samples == 4
        assert rec.duration_s == pytest.approx(0.4)


class TestNdf:
    def test_header_arithmetic(self, tmp_path):
        # 4 magic + 4 version + 4 C + 4 M + 4 fs + 1 y + 4 slen + 2 "r1" + 8 payload
        ep = Epoch(x=np.array([[0.0, 1.0]], dtype=np.float32), y=0, s="r1",
                   sample_rate_hz=512.0)
        path = str(tmp_path / "e.ndf")
        write_ndf(ep, path)
        assert os.path.getsize(path) == 35

    def test_round_trip_bit_exact(self, tmp_path):
        ep = make_epoch(c=15, m=3072, y=1, s="subjA", seed=3)
        path = str(tmp_path / "e.ndf")
        write_ndf(ep, path)
        back = read_ndf(path)
        assert back.y == ep.y
        assert back.s == ep.s
        assert back.sample_rate_hz == ep.sample_rate_hz
        assert back.x.dtype == np.float32
        assert np.array_equal(back.x, ep.x)

    def test_nan_rejected(self, tmp_path):
        ep = make_epoch()
        ep.x[0, 0] = np.nan  # mutate after construction to hit the write-side check
        with pytest.raises(ValidationError):
            write_ndf(ep, str(tmp_path / "bad.ndf"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ndf"
        ep = make_epoch()
        write_ndf(ep, str(path))
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(FormatError):
            read_ndf(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.ndf"
        write_ndf(make_epoch(), str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError):
            read_ndf(str(path))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.ndf"
        write_ndf(make_epoch(), str(path))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_ndf(str(path))

    def test_nan_sample_rate(self, tmp_path):
        path = tmp_path / "e.ndf"
        write_ndf(make_epoch(), str(path))
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="sample rate"):
            read_ndf(str(path))

    @pytest.mark.parametrize("fs", [1e39, 3.5e38, 1e-46])
    def test_rate_float32_cannot_hold_refused(self, fs):
        """NDF stores the rate as float32: 1e39 and 3.5e38 overflow it and
        1e-46 rounds to 0, so write_ndf could not pack them or read_ndf
        would refuse the file."""
        with pytest.raises(ValidationError, match=re.escape(f"sample rate {fs} Hz")):
            make_epoch(fs=fs)

    def test_largest_float32_rate_round_trips(self, tmp_path):
        fs = float(np.finfo(np.float32).max)
        path = str(tmp_path / "e.ndf")
        write_ndf(make_epoch(fs=fs), path)
        assert read_ndf(path).sample_rate_hz == fs

    def test_subject_not_utf8(self, tmp_path):
        path = tmp_path / "e.ndf"
        write_ndf(make_epoch(s="ab"), str(path))
        blob = bytearray(path.read_bytes())
        blob[25:27] = b"\xc3\x28"  # a UTF-8 lead byte without its continuation
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="UTF-8"):
            read_ndf(str(path))

    def test_subject_utf8_cannot_encode_refused_before_the_file_is_opened(
            self, tmp_path):
        path = tmp_path / "e.ndf"
        with pytest.raises(ValidationError, match="cannot be encoded as UTF-8"):
            write_ndf(make_epoch(s="a\udc80"), str(path))
        assert not path.exists()

    def test_bytes_are_header_subject_payload(self, tmp_path):
        ep = make_epoch(c=3, m=5, y=1, s="s\u00e9", fs=250.0, seed=4)
        path = tmp_path / "e.ndf"
        write_ndf(ep, str(path))
        sbytes = "s\u00e9".encode("utf-8")
        assert path.read_bytes() == (
            struct.pack("<4sIIIfBI", b"SAF1", 1, 3, 5, 250.0, 1, len(sbytes))
            + sbytes + ep.x.astype("<f4").tobytes())

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        """A write that takes fewer bytes than offered is resumed from the
        first byte not taken, so the file gets every byte once."""
        ep = make_epoch(c=2, m=9, s="short", seed=5)
        whole = tmp_path / "whole.ndf"
        write_ndf(ep, str(whole))
        real_write, taken = os.write, []

        def seven_at_most(fd, data):
            taken.append(real_write(fd, bytes(data[:7])))
            return taken[-1]

        monkeypatch.setattr(os, "write", seven_at_most)
        write_ndf(ep, str(tmp_path / "short.ndf"))
        monkeypatch.undo()
        assert (tmp_path / "short.ndf").read_bytes() == whole.read_bytes()
        assert len(taken) == -(-whole.stat().st_size // 7)

    def test_failed_write_closes_the_file(self, tmp_path, monkeypatch):
        opened, closed = [], []
        real_open, real_close = os.open, os.close

        def open_(*args):
            opened.append(real_open(*args))
            return opened[-1]

        def full(fd, data):
            raise OSError(28, "No space left on device")

        def close(fd):
            closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(os, "open", open_)
        monkeypatch.setattr(os, "write", full)
        monkeypatch.setattr(os, "close", close)
        with pytest.raises(OSError, match="No space left"):
            write_ndf(make_epoch(), str(tmp_path / "e.ndf"))
        monkeypatch.undo()
        assert len(opened) == 1 and closed == opened


class TestSafr:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        rec = Recording(data=rng.standard_normal((4, 100)), sample_rate_hz=250.0,
                        channel_names=("a", "b", "c", "d"))
        path = str(tmp_path / "r.safr")
        write_recording(rec, path)
        back = read_recording(path)
        assert back.channel_names == rec.channel_names
        assert back.sample_rate_hz == rec.sample_rate_hz
        assert np.array_equal(back.data, rec.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "r.safr"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            read_recording(str(path))

    def test_header_truncated_after_magic(self, tmp_path):
        path = tmp_path / "r.safr"
        path.write_bytes(b"SAFR\x01\x00")
        with pytest.raises(FormatError):
            read_recording(str(path))

    def test_channel_name_not_utf8(self, tmp_path):
        path = tmp_path / "r.safr"
        blob = b"SAFR" + struct.pack("<IIQd", 1, 1, 1, 10.0)
        blob += struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<d", 0.5)
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="UTF-8"):
            read_recording(str(path))

    def test_bytes_are_header_names_payload(self, tmp_path):
        data = np.random.default_rng(2).standard_normal((2, 3))
        path = tmp_path / "r.safr"
        write_recording(Recording(data=data, sample_rate_hz=250.0,
                                  channel_names=("Fz", "C\u00e93")), str(path))
        assert path.read_bytes() == (
            b"SAFR" + struct.pack("<IIQd", 1, 2, 3, 250.0)
            + struct.pack("<I", 2) + b"Fz" + struct.pack("<I", 4)
            + "C\u00e93".encode("utf-8") + data.astype("<f8").tobytes())

    def test_data_written_to_non_finite_refused_before_the_file_is_opened(
            self, tmp_path):
        """Recording checks its data when built; a later write into its
        array would give a file read_recording refuses."""
        rec = Recording(data=np.zeros((2, 100)), sample_rate_hz=10.0)
        rec.data[0, 0] = np.nan
        path = tmp_path / "r.safr"
        with pytest.raises(ValidationError, match="non-finite"):
            write_recording(rec, str(path))
        assert not path.exists()

    def test_channel_name_utf8_cannot_encode_refused_before_the_file_is_opened(
            self, tmp_path):
        rec = Recording(data=np.zeros((2, 4)), sample_rate_hz=10.0,
                        channel_names=("Fz", "a\udc80"))
        path = tmp_path / "r.safr"
        with pytest.raises(ValidationError, match=re.escape(
                "channel name " + repr("a\udc80"))):
            write_recording(rec, str(path))
        assert not path.exists()


# every code point, surrogates included; the second branch draws them often
_ANY_CHAR = st.characters(exclude_categories=())
ANY_TEXT = (st.text(_ANY_CHAR, max_size=8)
            | st.text(_ANY_CHAR | st.characters(categories=["Cs"]), max_size=8))


def utf8_encodable(text):
    return not any(0xD800 <= ord(ch) <= 0xDFFF for ch in text)


class TestTextFields:
    """An NDF subject id and SAFR channel names round-trip through their
    writer and reader exactly when UTF-8 can encode them; otherwise the
    writer refuses them with ValidationError and creates no file."""

    @settings(max_examples=200, deadline=None)
    @given(ANY_TEXT)
    def test_ndf_subject(self, subject):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "e.ndf")
            try:
                write_ndf(make_epoch(s=subject), path)
            except ValidationError:
                assert not utf8_encodable(subject)
                assert os.listdir(tmp) == []
                return
            assert utf8_encodable(subject)
            assert read_ndf(path).s == subject

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ANY_TEXT, min_size=1, max_size=3))
    def test_safr_channel_names(self, names):
        rec = Recording(data=np.arange(4.0 * len(names)).reshape(len(names), 4),
                        sample_rate_hz=10.0, channel_names=tuple(names))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.safr")
            try:
                write_recording(rec, path)
            except ValidationError:
                assert not all(map(utf8_encodable, names))
                assert os.listdir(tmp) == []
                return
            assert all(map(utf8_encodable, names))
            back = read_recording(path)
        assert back.channel_names == rec.channel_names
        assert np.array_equal(back.data, rec.data)


NDF_BLOB = valid_blob(write_ndf, Epoch(
    x=np.array([[0.5, -1.0, 2.0], [3.0, 0.0, -0.25]], dtype=np.float32), y=1,
    s="s\u00e91", sample_rate_hz=128.0))
SAFR_BLOB = valid_blob(write_recording, Recording(
    data=np.array([[0.5, -1.0, 2.0], [3.0, 0.0, -0.25]]), sample_rate_hz=256.0,
    channel_names=("Fz", "C\u00e93")))


class TestCorruptContainers:
    """Every truncation and single-byte flip of a valid container either
    reads back or raises FormatError; truncations always raise it."""

    @settings(max_examples=400, deadline=None)
    @given(corruptions(NDF_BLOB))
    def test_ndf(self, corruption):
        check_reader(read_ndf, corruption)

    @settings(max_examples=400, deadline=None)
    @given(corruptions(SAFR_BLOB))
    def test_safr(self, corruption):
        check_reader(read_recording, corruption)


def truncated_read(reader, blob, cut, tmp_path):
    """The FormatError message reader raises on blob[:cut]."""
    path = tmp_path / "blob"
    path.write_bytes(blob[:cut])
    with pytest.raises(FormatError) as info:
        reader(str(path))
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    return message


class TestTruncatedFields:
    """A cut one byte into a field, or one byte before its end, names that
    field."""

    # header 0..21, subject length 21..25, subject "s\u00e91" 25..29,
    # payload 29..53
    @pytest.mark.parametrize("field, start, end", [
        ("header", 0, 21), ("subject length", 21, 25), ("subject", 25, 29),
        ("payload", 29, 53)])
    def test_ndf(self, tmp_path, field, start, end):
        assert len(NDF_BLOB) == 53
        for cut in (start + 1, end - 1):
            message = truncated_read(read_ndf, NDF_BLOB, cut, tmp_path)
            assert message.endswith(f"truncated NDF epoch: too short for the "
                                    f"{field}")

    # header 0..28, then per channel a u32 length and the name ("Fz" 32..34,
    # "C\u00e93" 38..42), payload 42..90
    @pytest.mark.parametrize("field, start, end", [
        ("header", 0, 28), ("channel name length", 28, 32),
        ("channel name", 32, 34), ("channel name length", 34, 38),
        ("channel name", 38, 42), ("payload", 42, 90)])
    def test_safr(self, tmp_path, field, start, end):
        assert len(SAFR_BLOB) == 90
        for cut in (start + 1, end - 1):
            message = truncated_read(read_recording, SAFR_BLOB, cut, tmp_path)
            assert message.endswith(f"truncated SAFR recording: too short for "
                                    f"the {field}")


def write_set(tmp_path, rows):
    """rows: list of (subject, y, split). Returns manifest path."""
    manifest_rows = []
    for i, (subject, y, split) in enumerate(rows):
        name = f"ep{i}.ndf"
        write_ndf(make_epoch(y=y, s=subject, seed=i), str(tmp_path / name))
        manifest_rows.append((name, subject, y, split))
    mpath = str(tmp_path / "manifest.csv")
    write_manifest(Manifest(rows=manifest_rows), mpath)
    return mpath


class TestManifest:
    def test_subject_index_sorted(self, tmp_path):
        mpath = write_set(tmp_path, [("b", 0, "train"), ("a", 1, "train")])
        _, eset = load_manifest(mpath)
        assert eset.subjects == ["a", "b"]
        assert [ep.s for ep in eset.epochs] == ["b", "a"]  # row order kept

    def test_class_out_of_range(self, tmp_path):
        mpath = write_set(tmp_path, [("a", 0, "train")])
        with open(mpath, "a", encoding="utf-8") as fh:
            fh.write("ep0.ndf,a,2,train\n")
        with pytest.raises(ParseError):
            load_manifest(mpath)

    def test_unknown_split_token(self, tmp_path):
        mpath = write_set(tmp_path, [("a", 0, "train")])
        with open(mpath, "a", encoding="utf-8") as fh:
            fh.write("ep0.ndf,a,0,holdout\n")
        with pytest.raises(ParseError):
            load_manifest(mpath)

    def test_bad_header(self, tmp_path):
        mpath = tmp_path / "m.csv"
        mpath.write_text("file,subj,cls,split\n")
        with pytest.raises(ParseError):
            load_manifest(str(mpath))

    @pytest.mark.parametrize("text", [
        b"pa\xffth,subject,class,split\n",
        b"path,subject,class,split\nep\xff.ndf,s0,0,test\n"], ids=["header", "row"])
    def test_not_utf8_is_parse_error(self, tmp_path, text):
        mpath = tmp_path / "m.csv"
        mpath.write_bytes(text)
        with pytest.raises(ParseError, match=r"m\.csv: not UTF-8 text"):
            load_manifest(str(mpath))

    def test_nul_in_path_refused_before_any_epoch_is_read(self, tmp_path, monkeypatch):
        """open() would raise ValueError on the NUL; the row is refused as a
        parse error naming its line, and no epoch is read, not even the
        valid row's before it."""
        mpath = write_set(tmp_path, [("a", 0, "train")])
        with open(mpath, "a", encoding="utf-8") as fh:
            fh.write("a\0b.ndf,a,0,test\n")
        reads = []
        monkeypatch.setattr(datamodel, "read_ndf", reads.append)
        with pytest.raises(ParseError,
                           match=r"manifest\.csv:3: path 'a\\x00b\.ndf' holds a NUL"):
            load_manifest(mpath)
        assert reads == []

    def test_field_over_csv_limit_is_parse_error(self, tmp_path):
        mpath = tmp_path / "m.csv"
        mpath.write_text("path,subject,class,split\n" + "a" * 200_000 + ",s0,0,test\n")
        with pytest.raises(ParseError, match=r"m\.csv:2: field larger than field limit"):
            load_manifest(str(mpath))

    def test_relative_paths_resolve_from_manifest_dir(self, tmp_path):
        sub = tmp_path / "data"
        sub.mkdir()
        mpath = write_set(sub, [("a", 0, "train")])
        cwd = os.getcwd()
        os.chdir(str(tmp_path))
        try:
            _, eset = load_manifest(mpath)
        finally:
            os.chdir(cwd)
        assert len(eset.epochs) == 1

    def test_inconsistent_shapes(self, tmp_path):
        write_ndf(make_epoch(c=2, m=16, s="a"), str(tmp_path / "a.ndf"))
        write_ndf(make_epoch(c=3, m=16, s="b"), str(tmp_path / "b.ndf"))
        mpath = str(tmp_path / "m.csv")
        write_manifest(Manifest(rows=[("a.ndf", "a", 0, "train"),
                                      ("b.ndf", "b", 0, "train")]), mpath)
        with pytest.raises(ValidationError):
            load_manifest(mpath)


    def test_written_bytes(self, tmp_path):
        """Exact header, one LF-terminated line a row, no quoting."""
        mpath = tmp_path / "m.csv"
        write_manifest(Manifest(rows=[("a b.ndf", "s 1", 0, "train"),
                                      ("d/e.ndf", "s'2", np.int64(1), "none")]),
                       str(mpath))
        assert mpath.read_bytes() == (b"path,subject,class,split\n"
                                      b"a b.ndf,s 1,0,train\n"
                                      b"d/e.ndf,s'2,1,none\n")


class TestManifestFields:
    @pytest.mark.parametrize("subject", ["a,b", "a\nb", "a\rb", '"a'])
    def test_unwritable_subject_rejected(self, tmp_path, subject):
        mpath = str(tmp_path / "m.csv")
        with pytest.raises(ValidationError):
            write_manifest(Manifest(rows=[("e.ndf", subject, 0, "none")]), mpath)
        assert not os.path.exists(mpath)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=12))
    def test_subject_round_trips_or_is_rejected(self, subject):
        with tempfile.TemporaryDirectory() as tmp:
            write_ndf(make_epoch(s=subject), os.path.join(tmp, "e.ndf"))
            mpath = os.path.join(tmp, "m.csv")
            try:
                write_manifest(Manifest(rows=[("e.ndf", subject, 0, "none")]), mpath)
            except ValidationError:
                assert any(ch in subject for ch in ',"\r\n\0')
                return
            manifest, eset = load_manifest(mpath)
        assert manifest.rows == [("e.ndf", subject, 0, "none")]
        assert eset.epochs[0].s == subject


class TestWriteEpochDir:
    def test_nul_in_subject_refused_before_out_dir_is_created(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match="holds a NUL"):
            write_epoch_dir(EpochSet(epochs=[make_epoch(s="a\x00")]), str(out))
        assert not out.exists()

    @pytest.mark.parametrize("subject", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_subject_the_manifest_cannot_hold_refused_before_out_dir_is_created(
            self, tmp_path, subject):
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match="which a manifest cannot hold"):
            write_epoch_dir(EpochSet(epochs=[make_epoch(s=subject)]), str(out))
        assert not out.exists()

    def test_manifest_rows_name_the_files_written(self, tmp_path):
        """k counts each (subject, class) cell on its own, in epoch order."""
        epochs = [make_epoch(s=s, y=y, seed=i) for i, (s, y) in
                  enumerate([("b", 1), ("a", 0), ("b", 1), ("a", 1), ("a", 0)])]
        manifest = write_epoch_dir(EpochSet(epochs=epochs), str(tmp_path))
        assert [row[0] for row in manifest.rows] == [
            "b_c1_0000.ndf", "a_c0_0000.ndf", "b_c1_0001.ndf", "a_c1_0000.ndf",
            "a_c0_0001.ndf"]
        assert sorted(os.listdir(tmp_path)) == sorted(
            [row[0] for row in manifest.rows] + ["manifest.csv"])
        for (fname, *_), ep in zip(manifest.rows, epochs):
            assert np.array_equal(read_ndf(str(tmp_path / fname)).x, ep.x)

    @pytest.mark.parametrize("subject", ["a\ud800", "a\udc80"])
    def test_subject_that_is_not_utf8_refused_before_out_dir_is_created(
            self, tmp_path, subject):
        """A lone surrogate, such as the one Python decodes a stray byte of
        a command-line argument to, cannot be written into NDF or the
        manifest."""
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match="cannot be encoded as UTF-8"):
            write_epoch_dir(EpochSet(epochs=[make_epoch(s=subject)]), str(out))
        assert not out.exists()

    @pytest.mark.parametrize("subject, fits", [
        ("s" * 243, True),   # s..s_c0_0000.ndf is 255 bytes
        ("s" * 244, False),
        ("\u00e9" * 121 + "s", True),  # two UTF-8 bytes a character
        ("\u00e9" * 122, False)])
    def test_subject_whose_file_names_pass_255_bytes_refused(self, tmp_path,
                                                             subject, fits):
        out = tmp_path / "out"
        epoch_set = EpochSet(epochs=[make_epoch(s=subject)])
        if fits:
            write_epoch_dir(epoch_set, str(out))
            assert len(os.fsencode(os.listdir(out)[0])) <= 255
            return
        with pytest.raises(ValidationError, match="more than a file name's 255"):
            write_epoch_dir(epoch_set, str(out))
        assert not out.exists()

    def test_longest_name_counts_the_cell_index(self, tmp_path):
        """10,001 epochs of one cell number their files up to 10000, five
        digits, so the 243 characters that fit one epoch are one too many."""
        epoch = make_epoch(s="s" * 243)
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match="up to 256 bytes"):
            write_epoch_dir(EpochSet(epochs=[epoch] * 10_001), str(out))
        assert not out.exists()


class TestSubjectIndex:
    def test_bijection_stable_under_reordering(self):
        eps = [make_epoch(s=s, seed=i) for i, s in enumerate(["c", "a", "b", "a"])]
        fwd = EpochSet(epochs=list(eps))
        rev = EpochSet(epochs=list(reversed(eps)))
        assert fwd.subjects == rev.subjects == ["a", "b", "c"]


class TestSplitDataset:
    def make_set(self, n, subject="a", y=0):
        return EpochSet(epochs=[make_epoch(s=subject, y=y, seed=i) for i in range(n)])

    def counts(self, eset):
        return {tag: eset.split.count(tag) for tag in ("train", "val", "test")}

    def test_100_to_80_10_10(self):
        out = split_dataset(self.make_set(100), seed=0)
        assert self.counts(out) == {"train": 80, "val": 10, "test": 10}

    def test_10_to_8_1_1(self):
        out = split_dataset(self.make_set(10), seed=0)
        assert self.counts(out) == {"train": 8, "val": 1, "test": 1}

    def test_same_seed_identical(self):
        eset = self.make_set(37)
        a = split_dataset(eset, seed=7)
        b = split_dataset(eset, seed=7)
        assert a.split == b.split

    def test_multiset_preserved(self):
        eset = self.make_set(23)
        out = split_dataset(eset, seed=1)
        before = sorted(ep.x.tobytes() for ep in eset.epochs)
        after = sorted(ep.x.tobytes() for ep in out.epochs)
        assert before == after

    def test_each_tag_follows_cumulative_edges(self):
        """Two strata of n and 41 - n epochs, n = 1..40: the epoch at shuffled
        position p of a stratum of size m is train below floor(0.8 m), val
        below floor(0.9 m), test below floor(1.0 m), and train past that."""
        r_train, r_val, r_test = SPLIT_RATIOS
        for n in range(1, 41):
            strata = {("a", 1): n, ("b", 0): 41 - n}
            eset = EpochSet(epochs=[make_epoch(s=s, y=y, seed=i)
                                    for (s, y), m in strata.items()
                                    for i in range(m)])
            got = split_dataset(eset, seed=n).split
            rng = np.random.default_rng(n)
            first = 0
            for m in strata.values():  # already in sorted key order
                edges = (np.floor(m * r_train), np.floor(m * (r_train + r_val)),
                         np.floor(m * (r_train + r_val + r_test)))
                for pos, j in enumerate(rng.permutation(m)):
                    if pos < edges[0]:
                        tag = "train"
                    elif pos < edges[1]:
                        tag = "val"
                    elif pos < edges[2]:
                        tag = "test"
                    else:
                        tag = "train"
                    assert got[first + j] == tag, (n, m, pos)
                first += m

    def test_proportions_within_one_epoch_per_stratum(self):
        rng = np.random.default_rng(5)
        epochs = []
        for i in range(200):
            epochs.append(make_epoch(s=f"s{rng.integers(3)}", y=int(rng.integers(2)),
                                     seed=i))
        eset = EpochSet(epochs=epochs)
        out = split_dataset(eset, seed=2)
        strata = {}
        for ep, tag in zip(out.epochs, out.split):
            strata.setdefault((ep.s, ep.y), []).append(tag)
        for key, tags in strata.items():
            n = len(tags)
            for ratio, tag in [(0.8, "train"), (0.1, "val"), (0.1, "test")]:
                got = tags.count(tag)
                assert abs(got - ratio * n) <= 1.0 + 1e-9, (key, tag, got, n)
