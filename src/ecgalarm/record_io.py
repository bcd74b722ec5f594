"""WFDB-style record ingestion for the 2015 PhysioNet alarm challenge layout.

Handles the subset of the WFDB format the challenge training set actually
uses: text headers (.hea) plus format-16 binary signals with an optional
byte offset (the challenge's ``16+24`` .mat containers). Signals are
converted to physical units (mV) and the ECG lead II channel is selected.
A malformed header raises ParseError and nothing else. ``load_any`` owns the
admission rule: a record is used only with lead II, a label, an alarm type
and a rate of TARGET_FS (250 Hz, the challenge's rate), cut to its
ANALYSIS_SAMPLES; records are never resampled.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import (
    LabelError,
    MissingLabel,
    ParseError,
    TruncatedSignal,
    UnsupportedFormat,
)

# Alarm types in canonical one-hot order.
ALARM_TYPES = ("ASY", "EBR", "ETC", "VTA", "VFB")

# Classifier label convention: true alarm is the positive class.
TRUE_ALARM = 1
FALSE_ALARM = -1
# How a label is written in the labels file, the manifest and feature tables.
LABEL_TEXT = {TRUE_ALARM: "true", FALSE_ALARM: "false"}

TARGET_FS = 250.0
# Challenge alarms fire at 5:00; long records carry 30 s of post-alarm
# signal. Analysis uses the five minutes leading up to the alarm.
ANALYSIS_SAMPLES = 75000

# Record-name first letter fallback (challenge naming convention).
_PREFIX_TO_ALARM = {"a": "ASY", "b": "EBR", "t": "ETC", "v": "VTA", "f": "VFB"}

_FORMAT_RE = re.compile(r"^(\d{1,9})(?:\+(\d{1,9}))?$")
_RECORD_NAME_RE = re.compile(r"[A-Za-z0-9_]+")  # WFDB's; it becomes a file name
_GAIN_RE = re.compile(r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?:\((-?\d{1,9})\))?$")


@dataclass
class SignalSpec:
    file_name: str
    storage_format: int
    byte_offset: int
    adc_gain: float
    baseline: int
    signal_name: str


@dataclass
class RecordHeader:
    record_name: str
    n_signals: int
    sampling_rate: float
    n_samples: int
    signals: list[SignalSpec]
    comments: list[str] = field(default_factory=list)


@dataclass
class EcgRecord:
    """One header's manifest facts. A skipped record has a skipped_reason
    (``no_lead_II``, ``fs_<rate>``) and no samples; without lead II it has
    no label either."""
    record_name: str
    alarm_type: str = ""
    label: int | None = None  # TRUE_ALARM or FALSE_ALARM
    n_samples: int = 0
    skipped_reason: str = ""
    samples: np.ndarray | None = None  # lead II in mV, cut to ANALYSIS_SAMPLES


def parse_header(text: str) -> RecordHeader:
    """Parse WFDB header text into a RecordHeader.

    Expects ``name n_signals fs n_samples`` on the first line, one line per
    signal, then ``#``-prefixed comment lines (preserved verbatim). The name
    holds only letters, digits and underscores.
    """
    lines = [ln.rstrip("\r\n") for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(1, "empty header")

    first = lines[0].split()
    if len(first) < 4:
        raise ParseError(1, f"expected 'name n_signals fs n_samples', got {lines[0]!r}")
    record_name = first[0]
    if not _RECORD_NAME_RE.fullmatch(record_name):
        raise ParseError(1, f"record name {record_name!r} is not letters, digits and underscores")
    try:
        n_signals = int(first[1])
        sampling_rate = float(first[2].split("/")[0])  # fs may carry a counter suffix
        n_samples = int(first[3])
    except ValueError as exc:
        raise ParseError(1, f"non-numeric field in first line: {exc}") from None
    if n_signals < 1:
        raise ParseError(1, f"n_signals must be >= 1, got {n_signals}")
    if not (np.isfinite(sampling_rate) and sampling_rate > 0) or n_samples <= 0:
        raise ParseError(1, "sampling rate and sample count must be positive and finite")

    signals = []
    comments = []
    for i, line in enumerate(lines[1:], start=2):
        if line.lstrip().startswith("#"):
            comments.append(line)
            continue
        if comments:
            raise ParseError(i, "signal line after comment block")
        signals.append(_parse_signal_line(line, i))

    if len(signals) != n_signals:
        raise ParseError(
            1, f"header declares {n_signals} signals but lists {len(signals)}"
        )
    return RecordHeader(record_name, n_signals, sampling_rate, n_samples, signals, comments)


def _parse_signal_line(line: str, line_no: int) -> SignalSpec:
    tokens = line.split()
    if len(tokens) < 2:
        raise ParseError(line_no, f"signal line needs file name and format: {line!r}")
    file_name = tokens[0]
    if "\0" in file_name:  # no file can have it; opening it would raise ValueError
        raise ParseError(line_no, f"NUL byte in signal file name {file_name!r}")
    if "/" in file_name or file_name in (".", ".."):  # it must stay beside its header
        raise ParseError(line_no, f"signal file name {file_name!r} has a directory part")

    m = _FORMAT_RE.match(tokens[1])
    if m is None:
        raise ParseError(line_no, f"cannot parse storage format token {tokens[1]!r}")
    storage_format = int(m.group(1))
    byte_offset = int(m.group(2)) if m.group(2) else 0

    # Gain token: gain[(baseline)][/units]; WFDB treats gain 0 as the default 200.
    adc_gain = 200.0
    baseline = None
    if len(tokens) > 2:
        gain_tok = tokens[2].split("/")[0]
        bm = _GAIN_RE.match(gain_tok)
        if bm is None or not np.isfinite(float(bm.group(1))):
            raise ParseError(line_no, f"cannot parse gain token {tokens[2]!r}")
        adc_gain = float(bm.group(1))
        if bm.group(2) is not None:
            baseline = int(bm.group(2))
    if adc_gain == 0:
        adc_gain = 200.0

    adc_zero = 0
    if len(tokens) > 4:
        try:
            adc_zero = int(tokens[4])
        except ValueError:
            raise ParseError(line_no, f"non-integer adc zero {tokens[4]!r}") from None
    if baseline is None:
        baseline = adc_zero

    signal_name = " ".join(tokens[8:]) if len(tokens) > 8 else ""
    return SignalSpec(file_name, storage_format, byte_offset, adc_gain, baseline, signal_name)


INVALID_ADC = -32768  # WFDB format-16 marker for an invalid sample


def read_signal(header: RecordHeader, raw: bytes, signal_index: int) -> np.ndarray:
    """Decode one channel of a format-16 multiplexed signal file into mV.

    Invalid samples (ADC value -32768, e.g. sensor detachment) decode to
    0 mV instead of a huge spike so downstream filtering stays sane.
    """
    spec = header.signals[signal_index]
    if spec.storage_format != 16:
        raise UnsupportedFormat(f"storage format {spec.storage_format} (only 16 supported)")
    needed = spec.byte_offset + 2 * header.n_signals * header.n_samples
    if len(raw) < needed:
        raise TruncatedSignal(
            f"{spec.file_name}: need {needed} bytes, have {len(raw)}"
        )
    adc = np.frombuffer(
        raw, dtype="<i2", count=header.n_signals * header.n_samples, offset=spec.byte_offset
    )
    channel = adc.reshape(header.n_samples, header.n_signals)[:, signal_index]
    mv = (channel.astype(np.float64) - spec.baseline) / spec.adc_gain
    mv[channel == INVALID_ADC] = 0.0
    return mv


def encode_signal(channels: list[np.ndarray], byte_offset: int = 0) -> bytes:
    """Multiplex integer ADC channels into format-16 bytes (inverse of read_signal).

    Used to build binary fixtures; the offset region is zero-filled.
    """
    adc = np.column_stack([np.asarray(c, dtype="<i2") for c in channels])
    return bytes(byte_offset) + adc.astype("<i2").tobytes()


def alarm_type_from_header(header: RecordHeader) -> str | None:
    """Derive the alarm type, preferring header comments over the name prefix."""
    for comment in header.comments:
        text = comment.lstrip("#").strip().lower().replace("_", " ")
        if "asystole" in text:
            return "ASY"
        if "bradycardia" in text:
            return "EBR"
        if "ventricular" in text and ("flutter" in text or "fib" in text):
            return "VFB"
        if "ventricular" in text and "tachycardia" in text:
            return "VTA"
        if "tachycardia" in text:
            return "ETC"
    return _PREFIX_TO_ALARM.get(header.record_name[:1].lower())


def parse_label(text: str, record: str, source: str | Path) -> int:
    """TRUE_ALARM for "true", FALSE_ALARM for "false" (case and surrounding
    whitespace ignored); LabelError (a ValueError) naming the file `source`
    and `record` for any other text."""
    value = text.strip().lower()
    for label, name in LABEL_TEXT.items():
        if value == name:
            return label
    raise LabelError(f"{source}: label for {record!r} must be true/false, got {value!r}")


def load_labels(path: str | Path) -> dict[str, int]:
    """The labels CSV: header ``record,label``, one row per record. LabelError
    names the file and the record of a row without two fields or repeated."""
    labels = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["record", "label"]:
            raise LabelError(f"{path}: header is not record,label")
        for row in filter(None, reader):
            record = row[0].strip()
            if len(row) != 2:
                raise LabelError(f"{path}: record {record!r} has {len(row)} fields, not 2")
            if record in labels:
                raise LabelError(f"{path}: record {record!r} is listed twice")
            labels[record] = parse_label(row[1], record, path)
    return labels


def load_any(path: str | Path, labels: dict[str, int]) -> EcgRecord:
    """The record whose .hea header is at `path`, checked in the order lead II,
    label, alarm type, decoding, rate. A record without lead II or at another
    rate is returned skipped; MissingLabel, ParseError (no alarm type) and the
    decoding errors are raised."""
    path = Path(path)
    header = parse_header(path.read_text())
    name = header.record_name
    alarm = alarm_type_from_header(header)
    lead = next((i for i, spec in enumerate(header.signals) if spec.signal_name == "II"), None)
    if lead is None:
        return EcgRecord(name, alarm or "", None, header.n_samples, "no_lead_II")
    if name not in labels:
        raise MissingLabel(name)
    if alarm is None:
        raise ParseError(1, f"cannot derive the alarm type of record {name!r}")

    raw = (path.parent / header.signals[lead].file_name).read_bytes()
    samples = read_signal(header, raw, lead)[:ANALYSIS_SAMPLES]
    if header.sampling_rate != TARGET_FS:
        return EcgRecord(name, alarm, labels[name], header.n_samples,
                         f"fs_{header.sampling_rate:g}")
    return EcgRecord(name, alarm, labels[name], len(samples), "", samples)


def discover_records(data_dir: str | Path) -> list[Path]:
    """The .hea header of every record in a directory, sorted."""
    return sorted(Path(data_dir).glob("*.hea"))
