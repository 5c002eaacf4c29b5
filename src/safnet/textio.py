"""Deterministic plain-text table output.

All CSV emitted by this package uses a '.' decimal separator, six
significant digits for floating-point values, LF line endings, and no
quoting. Formatting is locale-independent.
"""

from __future__ import annotations

import numpy as np


def format_float(value: float) -> str:
    """Six significant digits, shortest form ('%.6g')."""
    return f"{float(value):.6g}"


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write one header line and one line per row, LF-terminated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
