"""Corrupted copies of a valid container blob, shared by the reader tests."""

import os
import tempfile

from hypothesis import strategies as st

from safnet.errors import FormatError


def valid_blob(writer, value) -> bytes:
    """The bytes writer(value, path) puts in a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "blob")
        writer(value, path)
        with open(path, "rb") as fh:
            return fh.read()


@st.composite
def corruptions(draw, blob):
    """A strict prefix of blob, or blob with one byte XORed by a non-zero mask."""
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob) - 1))], True
    pos = draw(st.integers(0, len(blob) - 1))
    flipped = bytearray(blob)
    flipped[pos] ^= draw(st.integers(1, 255))
    return bytes(flipped), False


def check_reader(reader, corruption):
    """The reader either reads the corrupted blob back or raises FormatError;
    a truncated blob must raise it."""
    blob, truncated = corruption
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "blob")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            reader(path)
        except FormatError:
            return
    assert not truncated, "a truncated container was accepted"
