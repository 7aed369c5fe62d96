"""CSV and JSON artifact files.

Every artifact goes through one CSV writer (``write_columns``), one CSV reader
(``read_csv``) and ``write_json``, so all of them share one byte format: floats
as ``.17g`` (exact round trip, except that every NaN is written ``nan``),
integers and flags as ``%d``, ``\\n`` line ends, and JSON with two-space indent,
sorted keys and a trailing newline.  Identical data therefore gives identical
bytes.

The writer formats each distinct value of a column once and builds the rows
from those texts, ``BLOCK_ROWS`` rows at a time, in one byte buffer per file:
each column's texts are gathered straight into that column's fixed-width
slot of the buffer's rows, and a block is written with its NUL padding
deleted.  Its bytes are those of one ``%.17g`` / ``%d`` per value.  Float
columns are grouped by a sort of their bit patterns; an int or bool column
whose value range is shorter than the column (grid indices, flags) is
indexed by offset from its minimum, without a sort.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from .errors import MalformedArtifact, ShapeMismatch

BLOCK_ROWS = 1024  # rows assembled per write: bounds the bytes held at once


def fmt(value: float) -> str:
    return f"{value:.17g}"


def _distinct_texts(col: np.ndarray, end: str) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of ``col`` formatted once and followed by ``end``, and the
    row-to-text index, in the narrowest unsigned dtype that holds it.

    Floats are grouped by bit pattern, so ``-0.0`` and ``0.0`` (and NaNs with
    different bits) are told apart, and each keeps the text ``%.17g`` gives it.
    An int or bool column whose range ``min..max`` is shorter than the column
    needs no sort: every value in the range is formatted, and a row's index is
    its offset from ``min``.
    """
    if col.dtype.kind == "b":
        col = col.view(np.uint8)
    if col.dtype.kind == "f":
        bits = np.ascontiguousarray(col, dtype=np.float64).view(np.uint64)
        keys, inverse = np.unique(bits, return_inverse=True)
        values, template = keys.view(np.float64).tolist(), "%.17g" + end
    else:
        template = "%d" + end
        # Python ints: the range of int64 or uint64 extremes does not overflow.
        lo, hi = (int(col.min()), int(col.max())) if len(col) else (0, -1)
        if hi - lo < len(col):
            values = range(lo, hi + 1)
            # Offsets may wrap in the column's dtype; the cast to the index
            # dtype, no wider than the column, keeps them exact.
            inverse = col - col.dtype.type(lo)
        else:
            keys, inverse = np.unique(col, return_inverse=True)
            values = keys.tolist()
    # numpy 2.0 changed the inverse's shape for some inputs; keep it 1-D
    index = inverse.reshape(-1).astype(np.min_scalar_type(max(len(values) - 1, 0)))
    return np.array(list(map(template.__mod__, values)), dtype=np.bytes_), index


def write_columns(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length 1-D columns: floats as ``%.17g``, ints and bools as ``%d``.

    Raises ``ShapeMismatch``, before the file is opened, unless every column is
    1-D, all have one length and ``header`` names each of them once.
    """
    columns = [np.asarray(col) for col in columns]
    if len(header) != len(columns):
        raise ShapeMismatch(f"{len(header)} header names over {len(columns)} columns")
    if any(col.ndim != 1 for col in columns):
        raise ShapeMismatch(f"columns must be 1-D, got shapes {[col.shape for col in columns]}")
    if len({len(col) for col in columns}) > 1:
        raise ShapeMismatch(f"columns differ in length: {[len(col) for col in columns]}")
    rows = len(columns[0]) if columns else 0
    ends = [","] * (len(columns) - 1) + ["\n"]
    texts = [_distinct_texts(col, end) for col, end in zip(columns, ends)]
    # One fixed-width byte row per CSV row: each column's texts fill their own
    # slot of it, and the NUL padding of the shorter texts is dropped on write.
    edges = np.cumsum([0] + [table.itemsize for table, _ in texts])
    buf = np.empty((min(rows, BLOCK_ROWS), edges[-1]), dtype=np.uint8)
    slots = [
        buf[:, lo:hi].view(table.dtype)[:, 0]
        for (table, _), lo, hi in zip(texts, edges, edges[1:])
    ]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, BLOCK_ROWS):
            n = min(BLOCK_ROWS, rows - start)
            for (table, index), slot in zip(texts, slots):
                # take, not []: [] with a uint8/uint16 index is several times slower;
                # every index is in range, so "clip" only skips the bounds check
                table.take(index[start : start + n], out=slot[:n], mode="clip")
            fh.write(buf[:n].tobytes().translate(None, b"\0"))


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


def read_json(path) -> dict:
    """The JSON object at ``path``; text that is not one raises ``MalformedArtifact`` naming the file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise MalformedArtifact(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise MalformedArtifact(f"{path}: not a JSON object")
    return obj


def json_field(path, obj: dict, key: str, convert: Callable):
    """``convert(obj[key])`` of the object read from ``path``; a missing key, or a value
    ``convert`` refuses, raises ``MalformedArtifact`` naming the file and the key."""
    if key not in obj:
        raise MalformedArtifact(f"{path}: no {key!r} key")
    try:
        return convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedArtifact(f"{path}: {key!r}: {exc}") from None


def write_json(path, payload: dict) -> None:
    # One ``dumps`` and one write: with ``indent`` set, ``json.dump`` streams the
    # same bytes through the same pure-Python encoder, chunk by chunk.
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
