"""Shared fixtures: a small synthetic challenge-style dataset on disk.

The dataset mimics the real training-set layout (.hea headers + format-16
binary with a 24-byte offset, plus a labels CSV) but is generated from the
synthetic ECG model, so tests never need the real data.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import ecgalarm
from ecgalarm.record_io import encode_signal
from ecgalarm.synthetic import synthetic_ecg

# Property tests draw the same examples on every run and machine: a failure
# reproduces from the test id alone, no example database is kept, and no
# per-example deadline depends on the machine's speed.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def _openblas_core() -> str:
    """The kernel OpenBLAS picked for this CPU, read from numpy's bundled
    library; "unknown" when numpy bundles none or it cannot say."""
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def _kernel_lines() -> list[str]:
    """The CPU kernels that pinned bytes depend on: numpy's SIMD targets, as
    numpy.show_runtime() lists them, and OpenBLAS's core (np.convolve sums
    through its ddot)."""
    umath = np._core._multiarray_umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]
    not_found = [f for f in umath.__cpu_dispatch__ if not umath.__cpu_features__[f]]
    return [
        f"numpy {np.__version__} SIMD: baseline {' '.join(umath.__cpu_baseline__)}; "
        f"found {' '.join(found) or '-'}; not found {' '.join(not_found) or '-'}",
        f"OpenBLAS core: {_openblas_core()}",
    ]


def pytest_report_header(config):
    return _kernel_lines()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header; a failed run still names its kernels.
    if config.get_verbosity() < 0 and exitstatus != pytest.ExitCode.OK:
        for line in _kernel_lines():
            terminalreporter.write_line(line)


ALARM_COMMENT = {
    "ASY": "#Asystole",
    "EBR": "#Bradycardia",
    "ETC": "#Tachycardia",
    "VTA": "#Ventricular_Tachycardia",
    "VFB": "#Ventricular_Flutter_Fib",
}
ALARM_PREFIX = {"ASY": "a", "EBR": "b", "ETC": "t", "VTA": "v", "VFB": "f"}


def _rate(alarm: str, is_true: bool) -> float:
    # True alarms get a rhythm consistent with the alarm type, false alarms
    # a normal rhythm; noise levels differ so the toy problem is learnable.
    plan = {
        ("ASY", True): 25, ("ASY", False): 75,
        ("EBR", True): 38, ("EBR", False): 72,
        ("ETC", True): 150, ("ETC", False): 80,
        ("VTA", True): 170, ("VTA", False): 85,
        ("VFB", True): 190, ("VFB", False): 78,
    }
    return plan[(alarm, is_true)]


def write_wfdb_record(
    directory: Path,
    name: str,
    samples_mv: np.ndarray,
    fs: float = 250.0,
    comment: str = "#Asystole",
    extra_leads: tuple[str, ...] = ("V",),
    include_ii: bool = True,
    gain: float = 200.0,
    baseline: int = 0,
) -> None:
    """Write one .hea/.mat pair in the challenge's 16+24 layout."""
    adc = np.clip(np.round(samples_mv * gain) + baseline, -32768, 32767).astype(np.int16)
    leads = (["II"] if include_ii else []) + list(extra_leads)
    channels = [adc] + [np.zeros_like(adc)] * (len(leads) - 1)
    (directory / f"{name}.mat").write_bytes(encode_signal(channels, byte_offset=24))
    lines = [f"{name} {len(leads)} {fs:g} {len(adc)}"]
    for lead in leads:
        lines.append(f"{name}.mat 16+24 {gain:g}({baseline}) 16 0 0 0 0 {lead}")
    lines.append(comment)
    (directory / f"{name}.hea").write_text("\n".join(lines) + "\n")


def build_fixture_dataset(root: Path, per_cell: int = 3, duration_s: float = 30.0):
    """Synthetic dataset: `per_cell` records per (alarm, label) cell, plus one
    record without lead II that ingestion must skip."""
    root.mkdir(parents=True, exist_ok=True)
    labels_lines = ["record,label"]
    idx = 0
    for alarm in ("ASY", "EBR", "ETC", "VTA", "VFB"):
        for is_true in (True, False):
            for j in range(per_cell):
                idx += 1
                name = f"{ALARM_PREFIX[alarm]}{100 + idx}l"
                snr = 18.0 if is_true else 12.0
                ecg = synthetic_ecg(
                    duration_s, _rate(alarm, is_true), snr_db=snr, seed=idx
                )
                write_wfdb_record(root, name, ecg.samples, comment=ALARM_COMMENT[alarm])
                labels_lines.append(f"{name},{'true' if is_true else 'false'}")
    # One record with no ECG lead II: must be skipped, not fail.
    noii = synthetic_ecg(duration_s, 70, seed=999)
    write_wfdb_record(root, "a999l", noii.samples, include_ii=False,
                      extra_leads=("V", "PLETH"))
    labels_lines.append("a999l,false")
    labels_path = root / "labels.csv"
    labels_path.write_text("\n".join(labels_lines) + "\n")
    return root, labels_path


@pytest.fixture(scope="session")
def fixture_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    return build_fixture_dataset(root)


def run_python(*args, **env):
    """Run a fresh interpreter that imports this checkout's ecgalarm."""
    src = str(Path(ecgalarm.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


@pytest.fixture
def fresh_python():
    return run_python


# numpy picks its SIMD kernels at run time; these are the AVX-512 levels.
_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.fixture
def without_avx512():
    """Rerun the given tests in a fresh pytest with numpy's AVX-512 kernels off,
    to check that pinned bytes hold at the lower (AVX2) dispatch level."""
    if not np._core._multiarray_umath.__cpu_features__.get("X86_V4", False):
        pytest.skip("the CPU has no AVX-512, so there is no lower dispatch level to compare")

    def rerun(*tests):
        return run_python("-m", "pytest", "-q", "-p", "no:cacheprovider", *tests,
                          NPY_DISABLE_CPU_FEATURES=_AVX512)

    return rerun
