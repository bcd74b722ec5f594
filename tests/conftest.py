"""Shared fixtures: a small synthetic challenge-style dataset on disk.

The dataset mimics the real training-set layout (.hea headers + format-16
binary with a 24-byte offset, plus a labels CSV) but is generated from the
synthetic ECG model, so tests never need the real data.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
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


# numpy picks its SIMD kernels, and OpenBLAS its core, by CPU at run time, so
# the same code can compute other last bits on another machine. A test marked
# `pins_numpy_simd` pins bytes that numpy's SIMD kernels compute, and one
# marked `pins_openblas` results that pass through OpenBLAS. Each environment
# below reruns the marked tests of the session in one fresh pytest.

# numpy's AVX-512 dispatch targets.
_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
_NO_AVX512 = (not np._core._multiarray_umath.__cpu_features__.get("X86_V4", False)
              and "the CPU has no AVX-512, so there is no lower dispatch level to compare")
_NOT_X86 = (platform.machine() not in ("x86_64", "AMD64")
            and "OpenBLAS core types name x86 kernels")

# Per environment: the marker it reruns, its variables, the SIMD targets the
# child's header must list as not found, the OpenBLAS core the header must
# name, and why this machine cannot run it (or False).
KERNEL_ENVIRONMENTS = {
    "avx512-off": ("pins_numpy_simd", {"NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512)},
                   set(_AVX512), None, _NO_AVX512),
    "openblas-Haswell": ("pins_openblas", {"OPENBLAS_CORETYPE": "Haswell"},
                         set(), "Haswell", _NOT_X86),
    # numpy 2.4.6's bundled OpenBLAS runs its Katmai kernel for this name.
    "openblas-Prescott": ("pins_openblas", {"OPENBLAS_CORETYPE": "Prescott"},
                          set(), "Katmai", _NOT_X86),
}


def pytest_generate_tests(metafunc):
    if "kernel_environment" in metafunc.fixturenames:
        metafunc.parametrize("kernel_environment", list(KERNEL_ENVIRONMENTS))


def _in_scope(nodeid, scope):
    return nodeid == scope or nodeid.startswith((f"{scope}::", f"{scope}["))


class KernelRerun:
    """One fresh pytest of the session's tests marked for one environment."""

    def __init__(self, session, name):
        marker, self.env, self.not_found, self.core, _ = KERNEL_ENVIRONMENTS[name]
        self.marker, config = marker, session.config
        self.session_ids = [item.nodeid for item in session.items]
        self.selected = [item.nodeid for item in session.items if item.get_closest_marker(marker)]
        if not self.selected:
            return
        # -rA lists each passed test as "PASSED <node id>", the node id
        # relative to the directory pytest was started in.
        self.done = run_python(
            "-m", "pytest", "-p", "no:cacheprovider", "-rA", f"--rootdir={config.rootpath}",
            *(str(config.rootpath / nodeid) for nodeid in self.selected), **self.env)
        self.output = (self.done.stdout + self.done.stderr)[-4000:]
        lines = self.done.stdout.splitlines()
        passed = {line[len("PASSED "):] for line in lines if line.startswith("PASSED ")}
        self.passed = {n for n in self.selected if config.cwd_relative_nodeid(n) in passed}
        self.outcomes = {word: int(n) for n, word in
                         re.findall(r"(\d+) (\w+)", lines[-1] if lines else "")}

    def assert_took_effect(self):
        """The child's session header (`_kernel_lines`) shows the environment:
        OpenBLAS runs its default core, silently, for a core name it does not
        know."""
        simd = re.search(r"^numpy \S+ SIMD: .*; not found (.*)$", self.done.stdout, re.M)
        core = re.search(r"^OpenBLAS core: (\S+)$", self.done.stdout, re.M)
        assert simd and core, self.output
        missing = self.not_found - set(simd.group(1).split())
        assert not missing, f"numpy still dispatches to {missing}"
        assert self.core in (None, core.group(1)), \
            f"OpenBLAS ran its {core.group(1)} core, not {self.core}"

    def assert_all_passed(self):
        """The child passed exactly the tests it selected, and nothing failed."""
        if not self.selected:
            pytest.skip(f"this session collected no test marked {self.marker}")
        self.assert_took_effect()
        assert self.done.returncode == 0 and self.outcomes == {"passed": len(self.selected)}, \
            self.output

    def assert_passed(self, *scopes):
        """Each scope (a node id or its prefix) holds marked tests of this
        session, and the child passed every one of them."""
        for scope in scopes:
            if not any(_in_scope(n, scope) for n in self.session_ids):
                pytest.skip(f"this session did not collect {scope}")
            marked = [n for n in self.selected if _in_scope(n, scope)]
            assert marked, f"no test in {scope} is marked {self.marker}"
            assert set(marked) <= self.passed, self.output
        self.assert_took_effect()


@pytest.fixture(scope="session")
def kernel_rerun(request):
    """`kernel_rerun(name)` reruns this session's marked tests in the named
    environment once per session and returns the `KernelRerun`; it skips when
    the machine cannot run the environment."""
    runs = {}

    def rerun(name):
        why_not = KERNEL_ENVIRONMENTS[name][-1]
        if why_not:
            pytest.skip(why_not)
        if name not in runs:
            runs[name] = KernelRerun(request.session, name)
        return runs[name]

    return rerun

