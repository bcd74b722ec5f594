"""The pipeline's on-disk layout, every file under ``--out`` (OUTPUTS): only
this module builds their paths, lists columns and deletes them. The manifest
and the tables are header-row CSVs, so runs can be inspected and diffed; the
HLF and DWT banks carry a layout line above the header, and a table is read
only with its own bank's line. Floats are written with repr, so a re-read is
bit-exact and repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .dwt import DWT_LAYOUT_VERSION, LEVELS, N_BAND_STATS, STAT_NAMES
from .evaluation import FeatureTable
from .exceptions import MissingInput
from .feature_synthesis import HLF_LAYOUT_VERSION, HLF_LENGTH, HLF_METRICS
from .record_io import LABEL_TEXT, parse_label
from .segment_features import LLF_LENGTH

# Feature bank -> the columns of its table, filled from the RecordFeatures
# field of the same name; _LAYOUTS holds the line above a bank's header row.
FEATURE_BANKS = {
    "llf": [f"f{i}" for i in range(1, LLF_LENGTH + 1)],
    **{bank: [f"f{i}" for i in range(1, HLF_LENGTH + 1)] for bank in HLF_METRICS},
    "dwt": [f"d{level}_f{i}" for level in range(1, LEVELS + 1)
            for i in range(1, N_BAND_STATS + 1)],
}
_LAYOUTS = {"dwt": f"layout={DWT_LAYOUT_VERSION} stats={','.join(STAT_NAMES)}",
            **{b: f"layout={HLF_LAYOUT_VERSION} metric={m}" for b, m in HLF_METRICS.items()}}


# Each command's files under --out, as glob patterns, in pipeline order: a
# command reads only what the commands before it wrote.
OUTPUTS = {
    "ingest": ["manifest.csv", "cache/*.npy"],
    "featurize": [f"{bank}.csv" for bank in FEATURE_BANKS],
    "evaluate": ["report.json", "report.md", "roc/roc_*.csv"],
}


def remove_outputs(out: str | Path, command: str) -> None:
    """Delete the files of `command` and of every later command: they are
    stale once `command` starts, so a run that fails leaves none behind."""
    commands = list(OUTPUTS)
    for stale in commands[commands.index(command):]:
        for pattern in OUTPUTS[stale]:
            for path in Path(out).glob(pattern):
                path.unlink()


def signal_path(out: str | Path, record: str) -> Path:
    """The decoded lead II that ingest hands to featurize."""
    return Path(out) / "cache" / f"{record}.npy"


def write_feature_csv(out: str | Path, bank: str, records: list[str], labels: list[int],
                      matrix: np.ndarray) -> None:
    with open(Path(out) / f"{bank}.csv", "w", newline="") as fh:
        if bank in _LAYOUTS:
            fh.write(f"# {_LAYOUTS[bank]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record", "label"] + FEATURE_BANKS[bank])
        for name, label, row in zip(records, labels, matrix):
            writer.writerow([name, LABEL_TEXT[label]] + [repr(float(v)) for v in row])


def _rows(path: Path, header: list[str], expected: str, fix: str = "", layout: str = ""):
    """The nonblank rows below the header of the CSV at `path`; MissingInput
    unless the file starts with the line `# <layout>` when a layout is
    given, then the header `header`, and every row is as wide."""
    with open(path, newline="") as fh:
        if layout and next(fh, "").rstrip("\r\n") != f"# {layout}":
            raise MissingInput(f"{path.name}: first line is not '# {layout}'; featurize again")
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise MissingInput(f"{path.name}: header is not {expected}")
        for n, row in enumerate(filter(None, reader), 1):
            if len(row) != len(header):
                raise MissingInput(f"{path.name}: row {n} ({row[0]!r}) has {len(row)} fields, "
                                   f"the header {len(header)}{fix}")
            yield row


def read_feature_csv(out: str | Path, bank: str) -> FeatureTable:
    """`bank`'s table under `out`, whose first line must be the bank's layout
    line (for a bank with one) and whose header must be record, label and
    the bank's columns in that order; MissingInput names the file, and the
    record of any row that does not fit it or repeats a record."""
    path = Path(out) / f"{bank}.csv"
    columns = FEATURE_BANKS[bank]
    if not path.exists():
        raise MissingInput(f"feature CSV not found: {path}")
    labels: dict[str, int] = {}
    values: list[list[float]] = []
    expected = f"record,label and the {len(columns)} feature columns in order; featurize again"
    for name, label, *row in _rows(path, ["record", "label", *columns], expected,
                                   layout=_LAYOUTS.get(bank, "")):
        if name in labels:
            raise MissingInput(f"{path.name}: record {name!r} is listed twice; featurize again")
        labels[name] = parse_label(label, name, path.name)
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise MissingInput(f"{path.name}: record {name!r}: {exc}") from None
    records = list(labels)
    # A header-only table keeps its width: X has shape (0, len(columns)).
    X = np.asarray(values, dtype=np.float64).reshape(len(values), len(columns))
    # A tree would split a nan column at threshold nan and send every row right.
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        r, c = bad[0]
        raise MissingInput(f"{path.name}: record {records[r]!r}, column {columns[c]!r} "
                           f"holds {float(X[r, c])!r}; features must be finite")
    return FeatureTable(records, np.asarray(list(labels.values()), dtype=int), X)


MANIFEST_COLUMNS = ["record", "alarm_type", "label", "n_samples", "skipped_reason"]


def write_manifest(out: str | Path, rows: list[dict]) -> None:
    with open(Path(out) / "manifest.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(sorted(rows, key=lambda r: r["record"]))


def read_manifest(out: str | Path) -> list[dict]:
    path = Path(out) / "manifest.csv"
    if not path.exists():
        raise MissingInput(f"manifest not found: {path} (run ingest first)")
    fix = "; run ingest again"
    return [dict(zip(MANIFEST_COLUMNS, row))
            for row in _rows(path, MANIFEST_COLUMNS, ",".join(MANIFEST_COLUMNS) + fix, fix)]


def usable_records(rows: list[dict]) -> dict[str, tuple[str, int]]:
    """Each usable record of the manifest `rows` -> (alarm type, label), in record order."""
    return {r["record"]: (r["alarm_type"], parse_label(r["label"], r["record"], "manifest.csv"))
            for r in sorted(rows, key=lambda r: r["record"]) if not r["skipped_reason"]}


def write_report(out: str | Path, report: dict, markdown: str) -> None:
    """report.json, report.md and a roc/roc_<scenario>_<classifier>.csv per cell."""
    out = Path(out)
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    (out / "report.md").write_text(markdown)
    (out / "roc").mkdir(exist_ok=True)
    for key, cell in report["cells"].items():
        scenario, classifier = key.split("/")
        path = out / "roc" / f"roc_{scenario.replace('+', '-')}_{classifier}.csv"
        with open(path, "w", newline="") as fh:
            fh.write("fpr,tpr,threshold\n")
            for fpr, tpr, thr in cell["roc_points"]:
                fh.write(f"{fpr!r},{tpr!r},{thr!r}\n")
