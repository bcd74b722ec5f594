"""ecgalarm benchmark: closed-loop batch workloads over a seeded synthetic corpus.

One run, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload and every metric, aggregated over seeds (one fresh process
per run), optionally saved as a baseline file:

    python3 bench/run.py --all [--seeds 1-10] [--save bench/BENCH_baseline.json]

A run is a closed loop with one client: it starts one pipeline command in a
fresh interpreter, waits for it to finish, and starts the next only while
another fits in ``--seconds``. The program only sees generated files. See
``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import ctypes
import fcntl
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "ecgalarm"
POOL = WORK / "pool"
LEDGER = WORK / "ledger.json"
REFERENCE = BENCH / "reference.json"
POOL_SEED = 2015
FOLDS = 5
COMMAND_TIMEOUT_S = 150.0
POOL_TIMEOUT_S = 800.0  # the first run of a checkout may take 900 s
MIN_SETUP_SAMPLES = 3
# The reference computation's time at the machine speed every gated time is
# scaled to (see ``reference_s``); about its time on the baseline machine in
# a fast phase.
REFERENCE_S = 0.2
NPROC = len(os.sched_getaffinity(0))

CLASSIFIERS = ("BoostedTrees", "RUSBoostedTrees")
FEATURE_COLUMNS = {"llf.csv": 588, "hlf_cityblock.csv": 31,
                   "hlf_euclidean.csv": 31, "dwt.csv": 120}
FEATURE_FILES = ("manifest.csv", *FEATURE_COLUMNS)

# Why each workload exists is in bench/README.md.
FEATURIZE_RECORDS = 16  # usable records per featurize-mix command (plus one without lead II)
NARROW_SCENARIOS = ("HLF_cityblock", "HLF_euclidean")
HEADLINE_CELL = "HLF_cityblock/BoostedTrees"
WORKLOADS = ("featurize-mix", "evaluate-narrow")
END_TO_END_UNITS = {"wall_s": "s", "records_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Children run single-threaded BLAS/OpenMP, so threads never exceed nproc,
# and ignore any ECGALARM_* settings of the caller's environment.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("ECGALARM_")}
CHILD_ENV.update({
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
})
PAGE = os.sysconf("SC_PAGE_SIZE")


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Running one command


@dataclass
class CommandResult:
    wall_s: float
    setup_s: float
    peak_rss: int
    returncode: int


def _tree_rss(pid: int) -> int:
    """Resident bytes of a process and all its descendants."""
    total, todo = 0, [str(pid)]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo += fh.read().split()
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def run_command(argv: list[str], rundir: Path, trace: Path | None = None,
                timeout: float = COMMAND_TIMEOUT_S) -> CommandResult:
    """Run one ecgalarm command in a fresh interpreter and wait for it.

    Set-up time runs from process start to the end of ``import ecgalarm``;
    peak RSS is sampled over the whole process tree (pool workers too).
    """
    stamp = rundir / "stamp"
    stamp.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "launch.py"), "--stamp", str(stamp)]
    if trace:
        cmd += ["--trace", str(trace)]
    cmd += ["--", *argv]
    done = threading.Event()
    peak = [0]
    with open(rundir / "commands.log", "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=CHILD_ENV, stdout=log, stderr=log, cwd=ROOT,
                                start_new_session=True)

        def sample() -> None:
            while not done.wait(0.02):
                peak[0] = max(peak[0], _tree_rss(proc.pid))
                if time.monotonic() - start > timeout:
                    _kill_group(proc.pid)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            done.set()
            sampler.join()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Pool workers are joined by the program; this is a backstop.
    _kill_group(proc.pid)
    stop_strays()
    setup = float(stamp.read_text()) - start if stamp.exists() else float("nan")
    return CommandResult(wall, setup, max(peak[0], usage.ru_maxrss * 1024), proc.returncode)


def reference_s() -> float:
    """Wall time of a fixed pure-Python and numpy computation in this process.

    The shared host the benchmark was tuned on changes speed by up to 2x in
    phases of seconds to minutes (see README, "Noise"); timing this right
    before and after each command measures the speed the command ran at.
    """
    import numpy as np

    data = np.random.default_rng(0).random(300_000)
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    for _ in range(10):
        np.sort(data)
        np.cumsum(data)
    return time.perf_counter() - start


def _scale(refs: list[float]) -> float:
    """Factor that takes a time measured between the last two references to REFERENCE_S speed."""
    return REFERENCE_S / statistics.fmean(refs[-2:])


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def become_subreaper() -> None:
    """Adopt orphaned descendants, so ``stop_strays`` can reap them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids += [int(p) for p in fh.read().split()]
        except FileNotFoundError:
            continue
    return pids


def stop_strays() -> None:
    """Kill and reap every process still below this one.

    Called only when no child of ours should be running, so anything left
    is a stray: a worker that outlived its command, adopted by us as
    subreaper. Their own children are adopted in turn, hence the loop.
    """
    for _ in range(100):
        pids = _children()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


# --------------------------------------------------------------------------
# Corpus pool: generated and featurized once per checkout


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def _write_json(path: Path, doc: dict) -> None:
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)


def ensure_pool() -> dict:
    """The paper-size corpus and its feature tables, built on first use.

    Building takes a few minutes: the records are generated, ingested and
    featurized by the program with ``--workers nproc`` under tracing. The
    tables and per-record counts must match the digests in reference.json.
    """
    marker = POOL / "pool.json"
    if marker.exists():
        return json.loads(marker.read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "pool.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not marker.exists():
            _build_pool()
    return json.loads(marker.read_text())


def _build_pool() -> None:
    import multiprocessing

    import corpus
    import tracing

    tmp = WORK / "pool.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "data").mkdir(parents=True)
    plan = corpus.pool_plan(POOL_SEED)
    # A fork pool forks its workers before it starts any thread, needs no
    # resource-tracker process (spawn would leave one running), and joins
    # its workers when the block ends.
    with multiprocessing.get_context("fork").Pool(NPROC) as pool:
        pool.starmap(corpus.write_plan_entry, [(str(tmp / "data"), e) for e in plan])
    corpus.write_labels(tmp / "labels.csv", plan)
    (tmp / "plan.json").write_text(json.dumps(plan))

    out = tmp / "out"
    trace = tmp / "trace.json"  # of featurize, whose spans carry the per-record counts
    for argv, spans in ((["ingest", "--data-dir", str(tmp / "data"), "--labels",
                          str(tmp / "labels.csv"), "--out", str(out), "--seed", "0"], None),
                        (["featurize", "--out", str(out), "--workers", str(NPROC), "--seed", "0"],
                         trace)):
        if run_command(argv, tmp, spans, POOL_TIMEOUT_S).returncode != 0:
            raise BenchError(f"pool build failed: {' '.join(argv)} (see {tmp / 'commands.log'})")
    counts = tracing.record_counts(json.loads(trace.read_text()))
    (tmp / "counts.json").write_text(json.dumps(counts, sort_keys=True))
    shutil.rmtree(out / "cache")

    digests = {name: _sha((out / name).read_bytes()) for name in FEATURE_FILES}
    digests["counts.json"] = _sha((tmp / "counts.json").read_bytes())
    want = _load_json(REFERENCE).get("pool")
    if want is None:
        status = "unreferenced"
    else:
        status = "ok" if want == digests else "mismatch: " + ", ".join(
            sorted(k for k in digests if want.get(k) != digests[k]))
    _write_json(tmp / "pool.json", {"status": status, "digests": digests})
    tmp.rename(POOL)


# --------------------------------------------------------------------------
# Workload plans


@dataclass
class Plan:
    commands: list[list[str]]  # "{out}" stands for the iteration's output dir
    records: list[str]  # usable records each iteration carries through
    cells: list[str] = field(default_factory=list)
    inputs: Path | None = None  # copied into each output dir before timing
    expected: dict[str, str] = field(default_factory=dict)  # pool-derived feature CSVs
    counts: dict[str, dict[str, int]] = field(default_factory=dict)  # per-record, from the pool

    @property
    def operations(self) -> list[str]:
        """Records featurized and cells evaluated."""
        return (self.records if self.expected else []) + self.cells


def _csv_rows(text: str) -> tuple[str, dict[str, str]]:
    """Split a program CSV into its preamble (comment + header) and rows by record."""
    preamble, rows = [], {}
    for line in text.splitlines(keepends=True):
        if line.startswith("#") or not preamble or preamble[-1].startswith("#"):
            preamble.append(line)
        else:
            rows[line.split(",", 1)[0]] = line
    return "".join(preamble), rows


def _subset(text: str, keep: set[str]) -> str:
    preamble, rows = _csv_rows(text)
    return preamble + "".join(line for name, line in rows.items() if name in keep)


def make_plan(workload: str, seed: int, rundir: Path) -> Plan:
    pool_out = POOL / "out"
    if workload == "evaluate-narrow":
        # The pool's paper-size tables; the seed drives folds and resampling.
        inputs = rundir / "inputs"
        inputs.mkdir()
        for name in ("manifest.csv", "hlf_cityblock.csv", "hlf_euclidean.csv"):
            shutil.copy(pool_out / name, inputs / name)
        records = sorted(_csv_rows((pool_out / "hlf_cityblock.csv").read_text())[1])
        argv = ["evaluate", "--out", "{out}", "--scenarios", ",".join(NARROW_SCENARIOS),
                "--folds", str(FOLDS), "--seed", str(seed)]
        cells = [f"{s}/{c}" for s in NARROW_SCENARIOS for c in CLASSIFIERS]
        return Plan([argv], records, cells, inputs=inputs)

    # featurize-mix: the seed picks the records from the pool.
    import corpus

    chosen = corpus.select(json.loads((POOL / "plan.json").read_text()), FEATURIZE_RECORDS,
                           1, seed)
    data = rundir / "data"
    data.mkdir()
    for entry in chosen:
        for ext in (".hea", ".mat"):
            shutil.copy(POOL / "data" / (entry["name"] + ext), data)
    labels = rundir / "labels.csv"
    corpus.write_labels(labels, chosen)
    names = {e["name"] for e in chosen}
    records = sorted(e["name"] for e in chosen if e["ii"])
    pool_counts = json.loads((POOL / "counts.json").read_text())
    commands = [["ingest", "--data-dir", str(data), "--labels", str(labels), "--out", "{out}",
                 "--seed", "0"],
                ["featurize", "--out", "{out}", "--workers", "1", "--seed", "0"]]
    return Plan(commands, records,
                expected={f: _subset((pool_out / f).read_text(), names) for f in FEATURE_FILES},
                counts={r: pool_counts[r] for r in records})


# --------------------------------------------------------------------------
# Correctness


def artifact_digests(out: Path, plan: Plan) -> dict[str, str]:
    digests = {}
    if plan.expected:
        for name in FEATURE_FILES:
            if (out / name).exists():
                digests[name] = _sha((out / name).read_bytes())
    report = out / "report.json"
    if plan.cells and report.exists():
        digests["report.json"] = _sha(report.read_bytes())
        for key, cell in json.loads(report.read_text())["cells"].items():
            digests[f"cell:{key}"] = _sha(json.dumps(cell, sort_keys=True).encode())
        for roc in sorted((out / "roc").glob("*.csv")):
            digests[f"roc/{roc.name}"] = _sha(roc.read_bytes())
    return digests


def _roc_name(cell: str) -> str:
    scenario, classifier = cell.split("/")
    return f"roc/roc_{scenario.replace('+', '-')}_{classifier}.csv"


def failed_operations(plan: Plan, out: Path, digests: dict[str, str], want: dict[str, str],
                      problems: list[str]) -> set[str]:
    """Records and cells of one iteration whose outputs are wrong or missing."""
    failed: set[str] = set()
    for name, text in plan.expected.items():
        path = out / name
        if not path.exists():
            problems.append(f"{name} missing")
            failed.update(plan.records)
            continue
        got_pre, got = _csv_rows(path.read_text())
        want_pre, rows = _csv_rows(text)
        columns = len(got_pre.splitlines()[-1].split(",")) - 2 if got_pre else -1
        if got_pre != want_pre or (name in FEATURE_COLUMNS and columns != FEATURE_COLUMNS[name]):
            problems.append(f"{name}: header differs ({columns} feature columns)")
            failed.update(plan.records)
        bad = {r for r in set(rows) | set(got) if rows.get(r) != got.get(r)}
        if bad:
            problems.append(f"{name}: {len(bad)} rows differ from the pool")
            # A wrong row of a skipped record (manifest) taints the whole ingest.
            failed.update(bad if bad <= set(plan.records) else plan.records)
    bad_cells = [c for c in plan.cells
                 if any(digests.get(k) != want.get(k) for k in (f"cell:{c}", _roc_name(c)))]
    if plan.cells and not bad_cells and digests.get("report.json") != want.get("report.json"):
        bad_cells = list(plan.cells)
    if bad_cells:
        problems.append(f"report: cells differ from the reference: {', '.join(bad_cells)}")
    failed.update(bad_cells)
    return failed


def expected_entry(workload: str, seed: int) -> tuple[dict, str]:
    """The recorded outputs for (workload, seed): reference.json, else this checkout's ledger."""
    for path, source in ((REFERENCE, "reference"), (LEDGER, "ledger")):
        entry = _load_json(path).get("runs", {}).get(workload, {}).get(str(seed))
        if entry:
            return entry, source
    return {}, "none"


def record_entry(workload: str, seed: int, artifacts: dict, counts: dict | None) -> None:
    doc = _load_json(LEDGER)
    entry = doc.setdefault("runs", {}).setdefault(workload, {}).setdefault(str(seed), {})
    entry.setdefault("artifacts", artifacts)
    if counts is not None:
        entry.setdefault("counts", counts)
    _write_json(LEDGER, doc)


# --------------------------------------------------------------------------
# One run


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine() -> dict:
    info = {"nproc": NPROC, "cpu": platform.machine(), "python": platform.python_version(),
            "commit": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for package in ("numpy", "scipy"):
        try:
            info[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            info[package] = "unknown"
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False).stdout.strip()
        info["commit"] = head or "unknown"
    return info


def _headline_auc(plan: Plan, out: Path) -> float | None:
    if not plan.cells or not (out / "report.json").exists():
        return None
    return json.loads((out / "report.json").read_text())["cells"][HEADLINE_CELL]["auc"]


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pool = ensure_pool()
    rundir = WORK / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, pool, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, trace: bool, pool: dict,
             rundir: Path) -> dict:
    plan = make_plan(workload, seed, rundir)
    problems = [] if pool["status"] in ("ok", "unreferenced") else [f"pool {pool['status']}"]
    if pool["status"] == "unreferenced":
        print("# note: no pool digests in bench/reference.json; outputs checked for repeatability only")

    # Warm-up, kept out of every figure: a fresh import fills the page cache
    # and writes the bytecode cache of a new checkout.
    run_command([], rundir)

    iterations: list[dict] = []
    setups: list[float] = []
    raw_setups: list[float] = []
    refs = [reference_s()]
    started = time.monotonic()
    while True:
        traced = trace and len(iterations) == 1
        out = rundir / f"out{len(iterations)}"
        if plan.inputs:
            shutil.copytree(plan.inputs, out)
        results = []  # (result, its scale factor)
        for j, argv in enumerate(plan.commands):
            result = run_command([a.replace("{out}", str(out)) for a in argv], rundir,
                                 rundir / f"trace{j}.json" if traced else None)
            refs.append(reference_s())
            results.append((result, _scale(refs)))
        raw_setups += [r.setup_s for r, _ in results]
        setups += [r.setup_s * k for r, k in results]
        last = sum(r.wall_s for r, _ in results)
        iterations.append({
            "out": out, "traced": traced, "raw_wall_s": last,
            "wall_s": sum(r.wall_s * k for r, k in results),
            "peak_rss": max(r.peak_rss for r, _ in results),
            "ok": all(r.returncode == 0 for r, _ in results),
        })
        if trace:
            if len(iterations) == 2:
                break
        elif time.monotonic() - started + last > seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        raw_setups.append(run_command([], rundir).setup_s)
        refs.append(reference_s())
        setups.append(raw_setups[-1] * _scale(refs))

    # Correctness: pool-derived feature rows for any seed; the recorded
    # outputs of (workload, seed) for evaluation, else the first iteration's.
    first = artifact_digests(iterations[0]["out"], plan)
    entry, source = expected_entry(workload, seed)
    want = entry.get("artifacts", first)
    failed: set[tuple[int, str]] = set()
    for i, it in enumerate(iterations):
        digests = artifact_digests(it["out"], plan)
        if not it["ok"]:
            problems.append(f"iteration {i}: a command exited non-zero (see commands.log)")
            failed.update((i, op) for op in plan.operations)
            continue
        failed.update((i, op) for op in failed_operations(plan, it["out"], digests, want, problems))
        if trace and digests != first:
            problems.append("traced artifacts differ from the untraced run's")

    counts = None
    layer = {}
    if trace:
        import tracing

        spans = [s for j in range(len(plan.commands))
                 for s in json.loads((rundir / f"trace{j}.json").read_text())]
        layer = tracing.layer_metrics(spans)
        layer["trace.overhead_s"] = {
            "value": iterations[1]["wall_s"] - iterations[0]["wall_s"], "unit": "s"}
        counts = {k: layer[k]["value"] for k in tracing.EXACT_COUNTS}
        got = tracing.record_counts(spans)
        bad = [r for r in plan.records if got.get(r) != plan.counts.get(r)] if plan.counts else []
        if bad:
            problems.append(f"beat or Lloyd-iteration counts differ from the pool: {bad[:5]}")
            failed.update((1, r) for r in bad)
        if "counts" in entry and entry["counts"] != counts:
            problems.append(f"exact counts differ from the {source}: {counts} != {entry['counts']}")
            failed.update((1, c) for c in plan.cells)

    attempted = len(plan.operations) * len(iterations)
    correct = not problems and not failed
    if correct:
        record_entry(workload, seed, first, counts)
    for line in problems:
        print(f"# check failed: {line}")

    timed = [it for it in iterations if not it["traced"]]
    walls = [it["wall_s"] for it in timed]
    fits = len(plan.cells) * FOLDS
    values = {
        "wall_s": walls,
        "records_per_s": [len(plan.records) / w for w in walls],
        "setup_s": setups,
        "peak_rss_mb": [it["peak_rss"] / 2**20 for it in timed],
    }
    raw_walls = [it["raw_wall_s"] for it in timed]
    info = {"workload": workload, "seed": seed, "iterations": len(timed),
            "records": len(plan.records), "cells": len(plan.cells),
            "walls": walls, "setups": setups, "raw_walls": raw_walls, "raw_setups": raw_setups,
            "references": refs, "wall_s_raw": _median(raw_walls),
            "setup_s_raw": _median(raw_setups), "speed": REFERENCE_S / _median(refs),
            "failed_frac": len(failed) / attempted, "reference": source,
            "fits_per_s": _median([fits / w for w in walls]) if fits else None,
            "auc": _headline_auc(plan, iterations[0]["out"]), "machine": machine()}
    for name, vals in values.items():
        q1, q3 = _quartiles(vals)
        print(f"{name:14s} {_median(vals):10.4f} {END_TO_END_UNITS[name]:4s} "
              f"q1 {q1:.4f} q3 {q3:.4f} n={len(vals)}")
    print(f"{'wall_s_raw':14s} {info['wall_s_raw']:10.4f} s    unscaled")
    print(f"{'setup_s_raw':14s} {info['setup_s_raw']:10.4f} s    unscaled")
    print(f"{'speed':14s} {info['speed']:10.4f} 1    {REFERENCE_S} s / reference time")
    if info["fits_per_s"] is not None:
        print(f"{'fits_per_s':14s} {info['fits_per_s']:10.4f} 1/s")
    if info["auc"] is not None:
        print(f"{'auc':14s} {info['auc']:10.4f} 1    {HEADLINE_CELL}")
    print(f"{'failed_frac':14s} {info['failed_frac']:10.4f} 1    "
          f"{len(failed)}/{attempted} operations")
    print("# info " + json.dumps(info, sort_keys=True))

    metrics = layer if trace else {
        k: {"value": _median(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}


# --------------------------------------------------------------------------
# All workloads


def _seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _child_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    info = next(json.loads(ln[7:]) for ln in lines if ln.startswith("# info "))
    for ln in lines:
        if ln.startswith("# check failed") or ln.startswith("# note"):
            print(f"  {workload} seed {seed}: {ln[2:]}")
    return json.loads(lines[-1]), info


def run_all(seeds: list[int], workloads: list[str], seconds: float, save: Path | None,
            record: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = [_child_run(workload, s, seconds, 0) for s in seeds]
        traced, _ = _child_run(workload, seeds[0], seconds, 1)
        entry = {"correct": all(r["correct"] for r, _ in runs) and traced["correct"],
                 "attempted": sum(r["attempted"] for r, _ in runs) + traced["attempted"],
                 "failed": sum(r["failed"] for r, _ in runs) + traced["failed"],
                 "end_to_end": {}, "info": {}, "per_layer": traced["metrics"]}
        ok &= entry["correct"]
        print(f"\n== {workload}: {len(seeds)} runs, correct={entry['correct']} "
              f"failed={entry['failed']}/{entry['attempted']}")
        print(f"   {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} bound")
        named = [*END_TO_END_UNITS.items(), ("wall_s_raw", "s"), ("setup_s_raw", "s"),
                 ("speed", "1"), ("fits_per_s", "1/s"), ("auc", "1"), ("failed_frac", "1")]
        for name, unit in named:
            if name in END_TO_END_UNITS:
                vals = [r["metrics"][name]["value"] for r, _ in runs]
            else:
                vals = [i[name] for _, i in runs if i.get(name) is not None]
            if not vals:
                continue
            med = statistics.median(vals)
            q1, q3 = _quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  WIDE"
            print(f"   {name:14s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} "
                  f"{bound if bound is not None else '-'}{flag} {unit}")
            target = entry["end_to_end"] if name in END_TO_END_UNITS else entry["info"]
            target[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "values": vals}
        print(f"   traced run (seed {seeds[0]}): trace.overhead_s = "
              f"{traced['metrics']['trace.overhead_s']['value']:.3f}")
        report["workloads"][workload] = entry
        if record:
            _record_reference(workload, seeds)
    if save:
        _write_json(save, report)
        print(f"\nsaved {save}")
    return 0 if ok else 1


def _record_reference(workload: str, seeds: list[int]) -> None:
    """Copy this checkout's ledger entries for `seeds` into reference.json."""
    ledger = _load_json(LEDGER).get("runs", {}).get(workload, {})
    doc = _load_json(REFERENCE)
    if "pool" not in doc:
        doc["pool"] = json.loads((POOL / "pool.json").read_text())["digests"]
    runs = doc.setdefault("runs", {}).setdefault(workload, {})
    for seed in seeds:
        if str(seed) in ledger:
            runs.setdefault(str(seed), {}).update(ledger[str(seed)])
    _write_json(REFERENCE, doc)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload over --seeds")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--save", type=Path, help="write the aggregate as a baseline JSON")
    parser.add_argument("--record", action="store_true",
                        help="record the runs' outputs in bench/reference.json")
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so the running command is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "ecgalarm" / "__init__.py").exists():
        print(f"error: no ecgalarm source tree at {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not args.all and not args.workload:
        parser.error("--workload is required without --all")
    become_subreaper()
    try:
        if args.all:
            return run_all(_seed_list(args.seeds), args.workloads.split(","), args.seconds,
                           args.save, args.record)
        result = one_run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_strays()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
