"""Flat-CSV interchange for per-record feature tables and the manifest.

Every intermediate product is a header-row CSV so runs can be inspected and
diffed; floats are written with repr so a re-read is bit-exact and repeated
runs are byte-identical.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .evaluation import FeatureTable
from .exceptions import MissingInput
from .record_io import LABEL_TEXT, parse_label


def write_feature_csv(
    path: str | Path,
    records: list[str],
    labels: list[int],
    matrix: np.ndarray,
    columns: list[str],
    comment: str | None = None,
) -> None:
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record", "label"] + list(columns))
        for name, label, row in zip(records, labels, matrix):
            writer.writerow([name, LABEL_TEXT[label]] + [repr(float(v)) for v in row])


def read_feature_csv(path: str | Path, columns: list[str]) -> FeatureTable:
    """The table at `path`, whose header must be record, label and `columns`
    in that order; MissingInput names the file and the record of any row
    that does not fit it."""
    path = Path(path)
    if not path.exists():
        raise MissingInput(f"feature CSV not found: {path}")
    records: list[str] = []
    labels: list[int] = []
    values: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(ln for ln in fh if not ln.startswith("#"))
        if next(reader, None) != ["record", "label", *columns]:
            raise MissingInput(f"{path.name}: header is not record,label and the "
                               f"{len(columns)} feature columns in order; featurize again")
        for row in filter(None, reader):  # a blank line is no row
            if len(row) != len(columns) + 2:
                raise MissingInput(f"{path.name}: row {len(records) + 1} ({row[0]!r}) has "
                                   f"{len(row)} fields, the header {len(columns) + 2}")
            records.append(row[0])
            labels.append(parse_label(row[1], row[0]))
            try:
                values.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise MissingInput(f"{path.name}: record {row[0]!r}: {exc}") from None
    # A header-only table keeps its width: X has shape (0, len(columns)).
    X = np.asarray(values, dtype=np.float64).reshape(len(values), len(columns))
    # A tree would split a nan column at threshold nan and send every row right.
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        r, c = bad[0]
        raise MissingInput(f"{path.name}: record {records[r]!r}, column {columns[c]!r} "
                           f"holds {float(X[r, c])!r}; features must be finite")
    return FeatureTable(records, np.asarray(labels, dtype=int), X)


MANIFEST_COLUMNS = ("record", "alarm_type", "label", "n_samples", "skipped_reason")


def write_manifest(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in sorted(rows, key=lambda r: r["record"]):
            writer.writerow(row)


def read_manifest(path: str | Path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise MissingInput(f"manifest not found: {path} (run ingest first)")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
