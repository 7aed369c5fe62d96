"""CSV and JSON artifact files.

Every artifact the package writes goes through these helpers, so all of them
share one byte format: floats as ``.17g`` (exact round trip), ``\\n`` line
ends, and JSON with two-space indent, sorted keys and a trailing newline.
Identical data therefore gives identical bytes.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable

import numpy as np

from .errors import MalformedArtifact


def fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(path, header: list[str], rows: Iterable[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and data rows of a numeric CSV, the rows as a (rows, columns) float array."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header is None:
        raise MalformedArtifact(f"{path}: empty file")
    try:
        return header, np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError as exc:
        raise MalformedArtifact(f"{path}: rows do not form a numeric table ({exc})") from None


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
