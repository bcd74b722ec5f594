"""Command-line pipeline: ingest -> featurize -> evaluate, or all three.

Flags are the only configuration, and each subcommand takes only the flags
it reads (``all`` takes every one; see ``build_parser``); the boosting
settings are the fixed ``ensemble.DEFAULT_*``. Only ingest creates the
output directory, and ``tables`` names every file under it. Each command
first deletes its own and every later command's files
(``tables.remove_outputs``), so a failed run leaves nothing stale. Ingest
then decodes every record; ``record_io.load_any`` decides which ones it
admits, and only a package error, an OSError or an undecodable header skips
one. A single seed drives fold shuffling, k-means init, and RUSBoost
sampling, so identical flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import record_io
from .evaluation import SCENARIOS, FeatureTable, render_markdown, run_matrix
from .exceptions import EcgAlarmError, EmptyDataset, MissingInput
from .pipeline import _featurize_task
from .record_io import ALARM_TYPES, FALSE_ALARM, LABEL_TEXT, TRUE_ALARM, EcgRecord
from .tables import (
    FEATURE_BANKS,
    read_feature_csv,
    read_manifest,
    remove_outputs,
    signal_path,
    usable_records,
    write_feature_csv,
    write_manifest,
    write_report,
)


def cmd_ingest(cfg: dict) -> int:
    """Label and cache every record `record_io.load_any` admits. Every header
    gets a manifest row: a record it skips or cannot read, or one an earlier
    header named, gets its skipped_reason and no cached signal."""
    out = Path(cfg["out"])
    remove_outputs(out, "ingest")
    labels = record_io.load_labels(cfg["labels"])
    rows, claimed = [], set()
    for path in record_io.discover_records(cfg["data_dir"]):
        try:
            record = record_io.load_any(path, labels)
        except (EcgAlarmError, OSError, UnicodeDecodeError) as exc:
            record = EcgRecord(path.stem, skipped_reason=type(exc).__name__)
        reason = "duplicate_record" if record.record_name in claimed else record.skipped_reason
        claimed.add(record.record_name)
        if not reason:
            cached = signal_path(out, record.record_name)
            cached.parent.mkdir(parents=True, exist_ok=True)
            np.save(cached, record.samples)
        rows.append({"record": record.record_name, "alarm_type": record.alarm_type,
                     "label": LABEL_TEXT.get(record.label, ""),
                     "n_samples": record.n_samples, "skipped_reason": reason})

    usable = list(usable_records(rows).values())
    if not usable:
        raise EmptyDataset(f"no usable records in {cfg['data_dir']}")
    write_manifest(out, rows)
    print(f"usable records: {len(usable)}   skipped: {len(rows) - len(usable)}")
    for alarm in ALARM_TYPES:
        n_false, n_true = usable.count((alarm, FALSE_ALARM)), usable.count((alarm, TRUE_ALARM))
        print(f"  {alarm}: {n_false + n_true} patients, {n_false} false, {n_true} true")
    return 0


def cmd_featurize(cfg: dict) -> int:
    """Feature tables for every usable record. A record that fails is left
    out of every table; EmptyDataset when no record featurizes."""
    out = Path(cfg["out"])
    remove_outputs(out, "featurize")
    usable = usable_records(read_manifest(out))
    tasks = [(name, str(signal_path(out, name)), alarm_type, cfg["seed"])
             for name, (alarm_type, _) in usable.items()]

    if cfg["workers"] > 1:
        import multiprocessing  # here only: every other command would pay its ~8 ms import

        # fork, by name: Python 3.14 makes forkserver the POSIX default, and
        # bench/tracing.py follows workers only through os.register_at_fork.
        with multiprocessing.get_context("fork").Pool(cfg["workers"]) as pool:
            results = pool.map(_featurize_task, tasks)
    else:
        results = [_featurize_task(t) for t in tasks]

    done = []
    for name, feats, error in results:
        if feats is None:
            print(f"featurize failed for {name}: {error}", file=sys.stderr)
        else:
            done.append(feats)
    if not done:
        raise EmptyDataset(f"no record could be featurized ({len(tasks)} tried)")

    records = [f.record_name for f in done]
    labels = [usable[name][1] for name in records]
    for bank in FEATURE_BANKS:
        write_feature_csv(out, bank, records, labels, np.array([getattr(f, bank) for f in done]))
    print(f"featurized {len(done)} records -> {out}")
    return 0


def _load_tables(out: Path, scenarios: list[str], manifest: dict) -> dict[str, FeatureTable]:
    """Each scenario's table, its banks' columns side by side. Reads each bank
    once and checks that all list the same records, each one in `manifest`
    with the manifest's label."""
    banks = {}
    for bank in dict.fromkeys(bank for scenario in scenarios for bank in SCENARIOS[scenario]):
        table = banks[bank] = read_feature_csv(out, bank)
        first_bank, first = next(iter(banks.items()))
        if table.records != first.records:
            raise MissingInput(f"{bank}.csv and {first_bank}.csv list different records "
                               "(featurize again)")
        unknown = [name for name in table.records if name not in manifest]
        if unknown:
            raise MissingInput(f"{len(unknown)} {bank}.csv records are not in the manifest, "
                               f"first {unknown[0]!r} (featurize again after ingest)")
        relabelled = [name for name, label in zip(table.records, table.y)
                      if manifest[name][1] != label]
        if relabelled:
            raise MissingInput(f"{len(relabelled)} {bank}.csv labels differ from the manifest, "
                               f"first {relabelled[0]!r} (featurize again after ingest)")
    return {
        scenario: FeatureTable(first.records, first.y,
                               np.hstack([banks[bank].X for bank in SCENARIOS[scenario]]))
        for scenario in scenarios
    }


def cmd_evaluate(cfg: dict) -> int:
    out = Path(cfg["out"])
    remove_outputs(out, "evaluate")
    manifest = usable_records(read_manifest(out))
    tables = _load_tables(out, cfg["scenarios"], manifest)
    report = run_matrix(tables, manifest, cfg["folds"], cfg["seed"])

    markdown = render_markdown(report)
    write_report(out, report, markdown)
    print(markdown)
    return 0


def cmd_all(cfg: dict) -> int:
    cmd_ingest(cfg)
    cmd_featurize(cfg)
    return cmd_evaluate(cfg)


def _scenario_list(text: str) -> list[str]:
    """`--scenarios`: a comma-separated list of one or more SCENARIOS names."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names or not set(names) <= set(SCENARIOS):
        raise argparse.ArgumentTypeError(f"choose from {list(SCENARIOS)}, got {text!r}")
    return names


def _int_at_least(low: int):
    """An argparse type: an integer >= `low`."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgalarm",
        description="ECG false-alarm classification pipeline",
    )
    flags = {
        "--data-dir": dict(required=True, help="directory of .hea/.mat records"),
        "--labels": dict(required=True, help="labels CSV (record,label)"),
        "--out": dict(default="out", help="output directory (default: out)"),
        "--seed": dict(type=_int_at_least(0), default=0),
        "--folds": dict(type=_int_at_least(2), default=5),
        "--scenarios": dict(type=_scenario_list, default=list(SCENARIOS),
                            help="comma-separated scenario list (default: all six)"),
        "--workers": dict(type=_int_at_least(1), default=1),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, takes in [
        # ingest reads no seed. It keeps --seed because the benchmark
        # (bench/run.py) passes `--seed 0` to every ingest it runs.
        ("ingest", "parse records, attach labels, cache signals",
         ["--data-dir", "--labels", "--out", "--seed"]),
        ("featurize", "compute LLF/HLF/DWT feature CSVs", ["--out", "--seed", "--workers"]),
        ("evaluate", "cross-validated experiment matrix and reports",
         ["--out", "--seed", "--folds", "--scenarios"]),
        ("all", "ingest + featurize + evaluate", list(flags)),
    ]:
        p = sub.add_parser(name, help=help_text)
        for flag in takes:
            p.add_argument(flag, **flags[flag])
    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "featurize": cmd_featurize,
    "evaluate": cmd_evaluate,
    "all": cmd_all,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](vars(args))
    except (EcgAlarmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
