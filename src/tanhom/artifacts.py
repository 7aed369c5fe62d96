"""CSV and JSON artifact files.

Every artifact goes through one CSV writer (``write_columns``, block-buffered),
one CSV reader (``read_csv``) and ``write_json``, so all of them share one byte
format: floats as ``.17g`` (exact round trip), integers and flags as ``%d``,
``\\n`` line ends, and JSON with two-space indent, sorted keys and a trailing
newline.  Identical data therefore gives identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import MalformedArtifact

BLOCK_ROWS = 1024  # rows formatted per write: bounds the strings held at once


def fmt(value: float) -> str:
    return f"{value:.17g}"


def write_columns(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length 1-D columns: floats as ``%.17g``, ints and bools as ``%d``."""
    columns = [np.asarray(col) for col in columns]
    template = ",".join("%.17g" if col.dtype.kind == "f" else "%d" for col in columns)
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, BLOCK_ROWS):
            block = [col[start : start + BLOCK_ROWS].tolist() for col in columns]
            fh.write("\n".join(map(template.__mod__, zip(*block))) + "\n")


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and data rows of a numeric CSV, the rows as a (rows, columns) float array.

    Raises ``MalformedArtifact`` for an empty file, a ragged row or a non-numeric
    cell.  Blank lines are skipped (``np.loadtxt`` skips them).
    """
    with open(path) as fh:
        header, start = fh.readline().rstrip("\n").split(","), fh.tell()
        if header == [""]:
            raise MalformedArtifact(f"{path}: empty file")
        if not any(map(str.strip, iter(fh.readline, ""))):
            return header, np.empty((0, len(header)))
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise MalformedArtifact(f"{path}: rows do not form a numeric table ({exc})") from None
    if data.shape[1] != len(header):
        raise MalformedArtifact(f"{path}: {data.shape[1]} columns under {len(header)} names")
    return header, data


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
