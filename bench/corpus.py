"""Seeded synthetic corpus in the 2015 PhysioNet/CinC alarm challenge layout.

Every record is five minutes of lead II (plus a dummy V lead) at 250 Hz,
written as a ``.hea`` header and a format-16 ``.mat`` container with a
24-byte offset, with labels in a ``record,label`` CSV next to the data
directory. The alarm-type and label mix is the paper's: 721 usable records
split exactly as in ``EXPECTED_TYPE_COUNTS`` of the acceptance tests, plus a
few records without lead II that ingestion must skip.

Heart rate and SNR per (alarm, label) follow the test fixture's plan: true
alarms carry a rhythm consistent with the alarm, false alarms a normal one.
True asystole records drop beats, so the detector's search-back runs. On the
fixture plan alone the labels are separable: every boosting round after the
first fits perfectly and stops, which is neither the paper's problem (AUC
0.85) nor its cost. So a seeded 15% of records are discordant: they are
generated exactly as a record of the other label would be, which leaves
about the paper's share of alarms that no classifier can get right.

A five-minute record is the concatenation of 15-second ``synthetic_ecg``
segments, each with its own small rate jitter and noise seed. Generating
the record in one call costs beats x samples Gaussian evaluations (several
seconds per record); per-segment generation is 20 times cheaper and gives
beat-to-beat rate variation at the joins.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from ecgalarm.record_io import ALARM_TYPES, encode_signal
from ecgalarm.synthetic import synthetic_ecg

FS = 250.0
RECORD_S = 300.0
SEGMENT_S = 15.0
GAIN = 200.0  # ADC units per mV

# (false alarms, true alarms) per type: the paper's 721-record training set.
PAPER_COUNTS = {
    "ASY": (94, 22),
    "EBR": (41, 45),
    "ETC": (8, 123),
    "VTA": (245, 86),
    "VFB": (51, 6),
}
RATE_BPM = {
    ("ASY", True): 25, ("ASY", False): 75,
    ("EBR", True): 38, ("EBR", False): 72,
    ("ETC", True): 150, ("ETC", False): 80,
    ("VTA", True): 170, ("VTA", False): 85,
    ("VFB", True): 190, ("VFB", False): 78,
}
SNR_DB = {True: 18.0, False: 12.0}
ALARM_COMMENT = {
    "ASY": "#Asystole",
    "EBR": "#Bradycardia",
    "ETC": "#Tachycardia",
    "VTA": "#Ventricular_Tachycardia",
    "VFB": "#Ventricular_Flutter_Fib",
}
ALARM_PREFIX = {"ASY": "a", "EBR": "b", "ETC": "t", "VTA": "v", "VFB": "f"}
NO_LEAD_II = 8  # pool records that carry only V and PLETH
DISCORDANT = 0.15

# (alarm, is_true) label strata in a fixed order.
STRATA = [(alarm, is_true) for alarm in ALARM_TYPES for is_true in (False, True)]


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(tag.encode())])


def record_signal(alarm: str, true_rhythm: bool, seed: int) -> np.ndarray:
    """Five minutes of lead II in mV with the rhythm of a true or a false alarm."""
    rng = _rng(seed, f"{alarm}|{true_rhythm}")
    bpm = RATE_BPM[(alarm, true_rhythm)] * rng.uniform(0.95, 1.05)
    parts = []
    for seg in range(int(RECORD_S / SEGMENT_S)):
        # Asystole: drop one beat in every other segment, a gap the
        # adaptive threshold can only bridge by searching back.
        drop = (2,) if alarm == "ASY" and true_rhythm and seg % 2 else ()
        ecg = synthetic_ecg(
            SEGMENT_S,
            bpm * rng.uniform(0.98, 1.02),
            fs=FS,
            snr_db=SNR_DB[true_rhythm],
            seed=int(rng.integers(2**31)),
            drop_beats=drop,
        )
        parts.append(ecg.samples)
    return np.concatenate(parts)


def write_record(directory: Path, name: str, alarm: str, true_rhythm: bool, seed: int,
                 include_ii: bool = True) -> None:
    """Write one .hea/.mat pair in the challenge's 16+24 layout."""
    adc = np.clip(np.round(record_signal(alarm, true_rhythm, seed) * GAIN), -32768, 32767)
    adc = adc.astype(np.int16)
    leads = (["II", "V"] if include_ii else ["V", "PLETH"])
    channels = [adc] + [np.zeros_like(adc)] * (len(leads) - 1)
    (directory / f"{name}.mat").write_bytes(encode_signal(channels, byte_offset=24))
    lines = [f"{name} {len(leads)} {FS:g} {len(adc)}"]
    lines += [f"{name}.mat 16+24 {GAIN:g}(0) 16 0 0 0 0 {lead}" for lead in leads]
    lines.append(ALARM_COMMENT[alarm])
    (directory / f"{name}.hea").write_text("\n".join(lines) + "\n")


def pool_plan(seed: int) -> list[dict]:
    """The paper-size record list: name, label, rhythm, per-record seed, lead II flag."""
    rng = _rng(seed, "discordant")
    plan = []
    idx = 0
    for alarm, is_true in STRATA:
        for _ in range(PAPER_COUNTS[alarm][int(is_true)]):
            idx += 1
            rhythm = is_true != (rng.random() < DISCORDANT)
            plan.append({"name": f"{ALARM_PREFIX[alarm]}{idx:04d}l", "alarm": alarm,
                         "is_true": is_true, "rhythm": rhythm, "seed": seed * 100003 + idx,
                         "ii": True})
    for j in range(NO_LEAD_II):
        alarm = ALARM_TYPES[j % len(ALARM_TYPES)]
        idx += 1
        plan.append({"name": f"{ALARM_PREFIX[alarm]}{idx:04d}l", "alarm": alarm,
                     "is_true": False, "rhythm": False, "seed": seed * 100003 + idx,
                     "ii": False})
    return plan


def write_plan_entry(directory: str, entry: dict) -> None:
    write_record(Path(directory), entry["name"], entry["alarm"], entry["rhythm"],
                 entry["seed"], include_ii=entry["ii"])


def write_labels(path: Path, plan: list[dict]) -> None:
    lines = ["record,label"] + [
        f"{e['name']},{'true' if e['is_true'] else 'false'}" for e in plan
    ]
    path.write_text("\n".join(lines) + "\n")


def select(plan: list[dict], n_usable: int, n_skipped: int, seed: int) -> list[dict]:
    """Seeded subset of `plan` with the paper's mix.

    Strata are (alarm, label, rhythm). Their sizes are fixed by
    largest-remainder allocation of `n_usable` over the plan's counts, so
    every seed carries the same amount of each kind of work; the seed only
    picks which records fill them.
    """
    strata: dict[tuple, list[dict]] = {}
    for e in plan:
        if e["ii"]:
            strata.setdefault((e["alarm"], e["is_true"], e["rhythm"]), []).append(e)
    keys = sorted(strata, key=lambda k: (ALARM_TYPES.index(k[0]), k[1], k[2]))
    usable = sum(len(m) for m in strata.values())
    quotas = {k: n_usable * len(strata[k]) / usable for k in keys}
    alloc = {k: int(q) for k, q in quotas.items()}
    by_remainder = sorted(keys, key=lambda k: (-(quotas[k] - alloc[k]), keys.index(k)))
    for k in by_remainder[: n_usable - sum(alloc.values())]:
        alloc[k] += 1

    rng = _rng(seed, "select")
    chosen = []
    for k in keys:
        picks = rng.choice(len(strata[k]), size=alloc[k], replace=False)
        chosen += [strata[k][i] for i in sorted(picks)]
    skipped = [e for e in plan if not e["ii"]]
    chosen += [skipped[i] for i in sorted(rng.choice(len(skipped), size=n_skipped, replace=False))]
    return sorted(chosen, key=lambda e: e["name"])
