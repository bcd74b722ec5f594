"""Walkthrough: the full pipeline end to end on a generated mini-dataset.

Builds a small challenge-style dataset on disk (WFDB headers + format-16
binary + labels CSV), then drives the same code the CLI uses:
ingest -> featurize -> evaluate, and prints the resulting report.

With the real training set downloaded, the equivalent shell commands are:

    ecgalarm all --data-dir training/ --labels answers.csv --out out/ --workers 8
"""

import tempfile
from pathlib import Path

import numpy as np

from ecgalarm.cli import main as ecgalarm_main
from ecgalarm.record_io import encode_signal
from ecgalarm.synthetic import synthetic_ecg

COMMENTS = {
    "ASY": "#Asystole", "EBR": "#Bradycardia", "ETC": "#Tachycardia",
    "VTA": "#Ventricular_Tachycardia", "VFB": "#Ventricular_Flutter_Fib",
}
PREFIX = {"ASY": "a", "EBR": "b", "ETC": "t", "VTA": "v", "VFB": "f"}
RATES = {  # (true-alarm bpm, false-alarm bpm)
    "ASY": (28, 75), "EBR": (38, 72), "ETC": (150, 80),
    "VTA": (170, 85), "VFB": (190, 78),
}


def write_record(directory: Path, name: str, mv: np.ndarray, comment: str) -> None:
    adc = np.clip(np.round(mv * 200.0), -32768, 32767).astype(np.int16)
    (directory / f"{name}.mat").write_bytes(
        encode_signal([adc, np.zeros_like(adc)], byte_offset=24)
    )
    (directory / f"{name}.hea").write_text(
        f"{name} 2 250 {len(adc)}\n"
        f"{name}.mat 16+24 200(0) 16 0 0 0 0 II\n"
        f"{name}.mat 16+24 200(0) 16 0 0 0 0 V\n"
        f"{comment}\n"
    )


with tempfile.TemporaryDirectory() as tmp:
    data_dir = Path(tmp) / "data"
    out_dir = Path(tmp) / "out"
    data_dir.mkdir()

    labels = ["record,label"]
    idx = 0
    for alarm, (true_bpm, false_bpm) in RATES.items():
        for is_true in (True, False):
            for _ in range(3):
                idx += 1
                name = f"{PREFIX[alarm]}{100 + idx}l"
                ecg = synthetic_ecg(
                    30, true_bpm if is_true else false_bpm,
                    snr_db=18 if is_true else 12, seed=idx,
                )
                write_record(data_dir, name, ecg.samples, COMMENTS[alarm])
                labels.append(f"{name},{'true' if is_true else 'false'}")
    (Path(tmp) / "labels.csv").write_text("\n".join(labels) + "\n")
    print(f"built {idx} records in {data_dir}\n")

    code = ecgalarm_main([
        "all",
        "--data-dir", str(data_dir),
        "--labels", str(Path(tmp) / "labels.csv"),
        "--out", str(out_dir),
        "--seed", "0",
        "--folds", "5",
        "--scenarios", "LLF,DWT,HLF_cityblock,HLF_euclidean",
    ])
    print(f"\npipeline exit code: {code}")
    print(f"outputs: {sorted(p.name for p in out_dir.iterdir())}")

raise SystemExit(code)  # a failed pipeline fails the demo
