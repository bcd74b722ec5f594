import ast
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from ecgalarm.cli import _load_tables, build_parser, main
from ecgalarm.feature_synthesis import HLF_LENGTH
from ecgalarm.segment_features import LLF_LENGTH
from ecgalarm.tables import (
    FEATURE_BANKS,
    read_feature_csv,
    read_manifest,
    usable_records,
    write_feature_csv,
)


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline_out(fixture_dataset, tmp_path_factory):
    """One full ingest+featurize+evaluate run shared by the read-only tests."""
    data_dir, labels = fixture_dataset
    out = tmp_path_factory.mktemp("out")
    code = run_cli(
        "all", "--data-dir", data_dir, "--labels", labels, "--out", out,
        "--seed", "11", "--folds", "5",
        "--scenarios", "LLF,DWT,HLF_cityblock,HLF_euclidean,DWT+HLF_cityblock,DWT+HLF_euclidean",
    )
    assert code == 0
    return out


# sha256 of every artifact of the `pipeline_out` run. A change meant to keep
# the pipeline's outputs (a refactor, a speed-up) must leave every one as it is.
FIXTURE_DIGESTS = {
    "manifest.csv": "35225bc768cfa224b52dd0aa7dae65451ca54968be3ec1a726da413934aff57e",
    "llf.csv": "23fdc9f9035248085eb0ac7972ba02d594aa88049a36c88f4031fb73871c64cd",
    "hlf_cityblock.csv": "f5b3e5b07b984e7068b6b16e761ac7d242784328f24bcdcaa0ecd7af3e9bedb2",
    "hlf_euclidean.csv": "0b5fb859121f4e989e5248013f05a21422f36fd7120cbc56905017c356729879",
    "dwt.csv": "466320eb703f4ef513dd036927a34dcfdefaa0906af9f69bdf142f262c368d78",
    "report.json": "464ae6d9c53ebb3cea5ddc1d40788d8c0078fe27b5cf20924b7d44834f2ce0f8",
    "report.md": "31ce15ff357d0c7fa124c16bbd7b7167143131942a002c10b99df1b752d213ea",
    "roc/roc_DWT-HLF_cityblock_BoostedTrees.csv": "39b9700a7b48852eebc1ec9fc49bb97c258d490b0f554fa36bea50d1862debc2",
    "roc/roc_DWT-HLF_cityblock_RUSBoostedTrees.csv": "39b9700a7b48852eebc1ec9fc49bb97c258d490b0f554fa36bea50d1862debc2",
    "roc/roc_DWT-HLF_euclidean_BoostedTrees.csv": "39b9700a7b48852eebc1ec9fc49bb97c258d490b0f554fa36bea50d1862debc2",
    "roc/roc_DWT-HLF_euclidean_RUSBoostedTrees.csv": "39b9700a7b48852eebc1ec9fc49bb97c258d490b0f554fa36bea50d1862debc2",
    "roc/roc_DWT_BoostedTrees.csv": "39b9700a7b48852eebc1ec9fc49bb97c258d490b0f554fa36bea50d1862debc2",
    "roc/roc_DWT_RUSBoostedTrees.csv": "39b9700a7b48852eebc1ec9fc49bb97c258d490b0f554fa36bea50d1862debc2",
    "roc/roc_HLF_cityblock_BoostedTrees.csv": "45a7463401a70c5c082e4ea1e1eebe90e73a2e9d2e865fffb50d17e27e2b08bf",
    "roc/roc_HLF_cityblock_RUSBoostedTrees.csv": "45a7463401a70c5c082e4ea1e1eebe90e73a2e9d2e865fffb50d17e27e2b08bf",
    "roc/roc_HLF_euclidean_BoostedTrees.csv": "5f289ddce13401ebadecc15932e709694bba729ec80aa70f4a0ad46e50f47bae",
    "roc/roc_HLF_euclidean_RUSBoostedTrees.csv": "5f289ddce13401ebadecc15932e709694bba729ec80aa70f4a0ad46e50f47bae",
    "roc/roc_LLF_BoostedTrees.csv": "f8a6ad3fb1531a9e996b69a720f37ee44bed4c8d4549871cb50ff8e3ac78d55e",
    "roc/roc_LLF_RUSBoostedTrees.csv": "f8a6ad3fb1531a9e996b69a720f37ee44bed4c8d4549871cb50ff8e3ac78d55e",
}


@pytest.mark.pins_numpy_simd
def test_fixture_artifacts_byte_identical(pipeline_out):
    got = {
        name: hashlib.sha256((pipeline_out / name).read_bytes()).hexdigest()
        for name in FIXTURE_DIGESTS
    }
    assert got == FIXTURE_DIGESTS
    assert sorted(p.name for p in (pipeline_out / "roc").iterdir()) == sorted(
        name.split("/", 1)[1] for name in FIXTURE_DIGESTS if name.startswith("roc/")
    )


def test_fixture_artifacts_byte_identical_without_avx512(kernel_rerun):
    # The digests hold whichever SIMD kernels numpy dispatches to.
    kernel_rerun("avx512-off").assert_passed("tests/test_cli.py::test_fixture_artifacts_byte_identical")


def test_import_loads_no_scipy(fresh_python):
    done = fresh_python("-c", "import sys, ecgalarm, ecgalarm.cli; "
                              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_commands_import_no_numpy_ma(fixture_dataset, tmp_path, fresh_python):
    # np.median, np.percentile and np.unique import numpy.ma (about 15 ms)
    # the first time they run; no command path calls them. `all` runs
    # featurize_record, fit_adaboost and fit_rusboost; the k-means call on
    # coinciding points takes the zero-cost seeding fallback.
    data_dir, labels = fixture_dataset
    done = fresh_python("-c", f"""
import sys
import numpy as np
from ecgalarm.cli import main
from ecgalarm.clustering import kmeans
assert main(["all", "--data-dir", {str(data_dir)!r}, "--labels", {str(labels)!r},
             "--out", {str(tmp_path / "out")!r}, "--scenarios", "HLF_cityblock"]) == 0
kmeans(np.ones((6, 2)), 3)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]), file=sys.stderr)
""")
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "[]"


def test_benchmark_tracer_finds_every_name(fixture_dataset, tmp_path, fresh_python):
    # bench/tracing.py wraps package functions by name; a renamed one would
    # fail every traced benchmark run, so installing the tracer must work.
    # A traced ingest times every header in `record_io.load_any`, the one
    # without lead II included, so its ms_p50 covers them all. A traced
    # evaluate sees every fit through the names the tracer wraps, inside the
    # span of its cell, so the benchmark's tree and split counts cover them.
    data_dir, labels = fixture_dataset
    bench = Path(__file__).resolve().parents[1] / "bench"
    spans = tmp_path / "spans.json"
    out = tmp_path / "out"
    done = fresh_python("-c", f"""
import json, sys
sys.path.insert(0, {str(bench)!r})
import tracing
from ecgalarm import cli
tracer = tracing.install({str(spans)!r})
assert cli.main(["ingest", "--data-dir", {str(data_dir)!r}, "--labels", {str(labels)!r},
                 "--out", {str(out)!r}]) == 0
assert cli.main(["featurize", "--out", {str(out)!r}]) == 0
assert cli.main(["evaluate", "--out", {str(out)!r}, "--scenarios", "HLF_cityblock,DWT"]) == 0
tracer.dump()
with open({str(spans)!r}) as fh:
    print(json.dumps(tracing.layer_metrics(json.load(fh))))
""")
    assert done.returncode == 0, done.stderr
    found = json.loads(spans.read_text())
    loads = [s for s in found if s[2] == "record_io.load_any"]
    assert sorted(s[3] for s in loads) == sorted(p.stem for p in data_dir.glob("*.hea"))
    assert len(loads) == 31 and not any(s[6] for s in loads)

    parent = {s[0]: s[2:4] for s in found}
    fits = sorted((*parent.get(s[1], [None, None]), s[2]) for s in found
                  if s[2].startswith("ensemble.fit_"))
    booster = {"ensemble.fit_adaboost": "BoostedTrees",
               "ensemble.fit_rusboost": "RUSBoostedTrees"}
    assert fits == sorted(("evaluation.run_cell", f"{scenario}/{booster[name]}", name)
                          for scenario in ("HLF_cityblock", "DWT") for name in booster
                          for _ in range(5))
    metrics = json.loads(done.stdout.splitlines()[-1])
    assert metrics["ensemble.trees"]["value"] > 0 and metrics["ensemble.splits"]["value"] > 0


def test_readme_degenerate_input_table_names_existing_tests():
    # Each row of the README's degenerate-input table names the tests that
    # pin its result, as `tests/<file>::<class>::<test>`; each must exist.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = re.search(r"^## Degenerate inputs\n(.*?)(?=^## |\Z)", readme, re.M | re.S).group(1)
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    assert len(rows) == 8
    for row in rows:
        named = re.findall(r"`(tests/[a-z_]+\.py)::([A-Za-z_0-9:]+)`", row.rsplit(" | ", 1)[1])
        assert named, row
        for path, qualname in named:
            scope = ast.parse((root / path).read_text()).body
            for name in qualname.split("::"):
                found = [node for node in scope if getattr(node, "name", None) == name]
                assert found, f"{path}::{qualname}"
                scope = found[0].body


def _files_by_command(out: Path) -> dict[str, dict[str, bytes]]:
    """Every file under `out`, by the command that writes it, in pipeline
    order; "other" for a file no command writes."""
    found = {"ingest": {}, "featurize": {}, "evaluate": {}, "other": {}}
    tables = {f"{bank}.csv" for bank in FEATURE_BANKS}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        command = ("ingest" if name == "manifest.csv" or name.startswith("cache/")
                   else "featurize" if name in tables
                   else "evaluate" if name.startswith(("report.", "roc/roc_")) else "other")
        found[command][name] = path.read_bytes()
    return found


@pytest.mark.parametrize("command", ["ingest", "featurize", "evaluate"])
def test_command_deletes_its_outputs_and_later_ones(command, fixture_dataset, pipeline_out,
                                                    tmp_path, capsys):
    # A command first deletes the files of every command from it on in
    # pipeline order, so a run that fails or covers fewer records leaves
    # none of them stale; what earlier commands wrote stays byte for byte.
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    if command == "featurize":
        shutil.rmtree(out / "cache")  # every record then fails to load
    before = _files_by_command(out)
    assert [len(files) for files in before.values()] == [
        1 + 30 * (command != "featurize"), 4, 14, 0]
    if command == "ingest":
        data_dir, labels = fixture_dataset
        data = tmp_path / "data"
        data.mkdir()
        for header in sorted(data_dir.glob("*.hea"))[:12]:
            for part in data_dir.glob(f"{header.stem}.*"):
                shutil.copy(part, data)
        assert run_cli("ingest", "--data-dir", data, "--labels", labels, "--out", out) == 0
    elif command == "featurize":
        assert run_cli("featurize", "--out", out) == 2
    else:
        assert run_cli("evaluate", "--out", out, "--scenarios", "DWT", "--folds", "1000") == 2
    after = _files_by_command(out)
    order = ["ingest", "featurize", "evaluate"]
    for earlier in order[:order.index(command)]:
        assert after[earlier] == before[earlier]
    for stale in order[order.index(command) + 1:] + ["other"]:
        assert after[stale] == {}, stale
    if command == "ingest":
        usable = usable_records(read_manifest(out))
        assert len(usable) == 11
        assert sorted(after["ingest"]) == [f"cache/{name}.npy" for name in usable] + [
            "manifest.csv"]
    else:
        assert after[command] == {}
    if command != "evaluate":  # no table is left for evaluate to read
        capsys.readouterr()
        assert run_cli("evaluate", "--out", out, "--scenarios", "DWT") == 2
        assert capsys.readouterr().err == f"error: feature CSV not found: {out / 'dwt.csv'}\n"


class TestIngest:
    def test_manifest_counts(self, fixture_dataset, tmp_path):
        data_dir, labels = fixture_dataset
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data_dir, "--labels", labels, "--out", out) == 0
        rows = read_manifest(out)
        usable = [r for r in rows if not r["skipped_reason"]]
        skipped = [r for r in rows if r["skipped_reason"]]
        assert len(usable) == 30
        assert len(skipped) == 1
        assert skipped[0]["skipped_reason"] == "no_lead_II"
        for row in usable:
            assert (out / "cache" / f"{row['record']}.npy").exists()

    def test_reingest_follows_changed_inputs(self, fixture_dataset, tmp_path):
        # Ingest decodes every record on every run: the manifest and the
        # cached signals follow the current labels and signal files.
        data_dir, labels = fixture_dataset
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        labels_copy = tmp_path / "labels.csv"
        shutil.copy(labels, labels_copy)
        out = tmp_path / "out"

        def ingest():
            assert run_cli("ingest", "--data-dir", data, "--labels", labels_copy,
                           "--out", out) == 0
            return read_manifest(out)

        ingest()

        # Relabel one record: the manifest must follow the new labels file.
        text = labels_copy.read_text()
        labels_copy.write_text(text.replace("a101l,true", "a101l,false"))
        rows = {r["record"]: r for r in ingest()}
        assert rows["a101l"]["label"] == "false"

        # Zero one record's samples: its cached signal must follow.
        assert np.any(np.load(out / "cache" / "b107l.npy"))
        signal = (data / "b107l.mat").read_bytes()
        (data / "b107l.mat").write_bytes(signal[:24] + bytes(len(signal) - 24))
        ingest()
        assert not np.any(np.load(out / "cache" / "b107l.npy"))

    def test_bad_label_exits_2(self, fixture_dataset, tmp_path, capsys):
        data_dir, labels = fixture_dataset
        bad = tmp_path / "labels.csv"
        bad.write_text(labels.read_text().replace("a101l,true", "a101l,ture"))
        assert run_cli("ingest", "--data-dir", data_dir, "--labels", bad,
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: label for 'a101l' must be true/false, got 'ture'"]

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda text: text.replace("record,label", "record,lab"), "header is not record,label"),
         (lambda text: text.replace("a101l,true", "a101l"), "record 'a101l' has 1 fields, not 2"),
         (lambda text: text + "a101l,false\n", "record 'a101l' is listed twice")],
        ids=["header", "short_row", "repeated_record"],
    )
    def test_malformed_labels_exit_2(self, fixture_dataset, tmp_path, capsys, edit, message):
        data_dir, labels = fixture_dataset
        bad = tmp_path / "labels.csv"
        bad.write_text(edit(labels.read_text()))
        assert run_cli("ingest", "--data-dir", data_dir, "--labels", bad,
                       "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]

    def test_repeated_record_skipped(self, fixture_dataset, tmp_path):
        # zz.hea names a101l again, over a signal of zeros: the record is
        # ingested once, from the first header, and featurized once.
        data_dir, labels = fixture_dataset
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        header = (data / "a101l.hea").read_text()
        (data / "zz.hea").write_text(header.replace("a101l.mat", "zz.mat"))
        (data / "zz.mat").write_bytes(bytes(len((data / "a101l.mat").read_bytes())))
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data, "--labels", labels, "--out", out) == 0
        rows = [r for r in read_manifest(out) if r["record"] == "a101l"]
        assert [r["skipped_reason"] for r in rows] == ["", "duplicate_record"]
        assert np.any(np.load(out / "cache" / "a101l.npy"))
        assert run_cli("featurize", "--out", out) == 0
        assert read_feature_csv(out, "llf").records.count("a101l") == 1

    def test_empty_dir_fails(self, pipeline_out, tmp_path):
        # Ingest deletes the manifest and tables of an earlier run before it
        # reads anything, so when it fails featurize and evaluate find none.
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        empty = tmp_path / "empty"
        empty.mkdir()
        labels = tmp_path / "labels.csv"
        labels.write_text("record,label\n")
        assert run_cli("ingest", "--data-dir", empty, "--labels", labels, "--out", out) == 2
        assert list(out.glob("*.csv")) == []
        assert run_cli("featurize", "--out", out) == 2
        assert run_cli("evaluate", "--out", out, "--scenarios", "DWT") == 2

    def test_corrupt_record_skipped_not_fatal(self, tmp_path):
        # One header points at a missing signal file and one is not UTF-8;
        # the rest still ingest.
        from ecgalarm.record_io import encode_signal

        data = tmp_path / "data"
        data.mkdir()
        good = np.arange(7500, dtype=np.int16)
        (data / "a700l.mat").write_bytes(encode_signal([good], byte_offset=24))
        (data / "a700l.hea").write_text(
            "a700l 1 250 7500\na700l.mat 16+24 200(0) 16 0 0 0 0 II\n#Asystole\n"
        )
        (data / "a701l.hea").write_text(
            "a701l 1 250 7500\na701l.mat 16+24 200(0) 16 0 0 0 0 II\n#Asystole\n"
        )
        (data / "a702l.hea").write_bytes(b"a702l 1 250 7500\n#Asystole \xff\n")  # not UTF-8
        (tmp_path / "labels.csv").write_text("record,label\na700l,true\na701l,false\n")
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data, "--labels",
                       tmp_path / "labels.csv", "--out", out) == 0
        rows = {r["record"]: r for r in read_manifest(out)}
        assert rows["a700l"]["skipped_reason"] == ""
        assert rows["a701l"]["skipped_reason"] == "FileNotFoundError"
        assert rows["a702l"]["skipped_reason"] == "UnicodeDecodeError"

    def test_signal_file_cannot_leave_data_dir(self, tmp_path):
        # a701l's header names a valid signal file outside --data-dir: the
        # header is a ParseError, and nothing of that file reaches cache/.
        from ecgalarm.record_io import encode_signal

        data, outside = tmp_path / "data", tmp_path / "outside"
        data.mkdir()
        outside.mkdir()
        signal = encode_signal([np.arange(7500, dtype=np.int16)], byte_offset=24)
        (data / "a700l.mat").write_bytes(signal)
        (outside / "secret.mat").write_bytes(signal)
        for name, file_name in [("a700l", "a700l.mat"), ("a701l", "../outside/secret.mat")]:
            (data / f"{name}.hea").write_text(
                f"{name} 1 250 7500\n{file_name} 16+24 200(0) 16 0 0 0 0 II\n#Asystole\n")
        (tmp_path / "labels.csv").write_text("record,label\na700l,true\na701l,false\n")
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data, "--labels",
                       tmp_path / "labels.csv", "--out", out) == 0
        rows = {r["record"]: r["skipped_reason"] for r in read_manifest(out)}
        assert rows == {"a700l": "", "a701l": "ParseError"}
        assert [p.name for p in (out / "cache").iterdir()] == ["a700l.npy"]

    def test_other_rate_skipped(self, tmp_path):
        # Only 250 Hz records are usable; a record at another rate gets a
        # manifest row naming its rate and no cached signal.
        from ecgalarm.record_io import encode_signal

        data = tmp_path / "data"
        data.mkdir()
        for name, fs in (("a700l", 250), ("a701l", 500)):
            n = 30 * fs
            adc = (np.arange(n) % 200).astype(np.int16)
            (data / f"{name}.mat").write_bytes(encode_signal([adc], byte_offset=24))
            (data / f"{name}.hea").write_text(
                f"{name} 1 {fs} {n}\n{name}.mat 16+24 200(0) 16 0 0 0 0 II\n#Asystole\n"
            )
        (tmp_path / "labels.csv").write_text("record,label\na700l,true\na701l,false\n")
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data, "--labels",
                       tmp_path / "labels.csv", "--out", out) == 0
        rows = {r["record"]: r for r in read_manifest(out)}
        assert rows["a700l"]["skipped_reason"] == ""
        assert rows["a701l"]["skipped_reason"] == "fs_500"
        assert sorted(p.name for p in (out / "cache").iterdir()) == ["a700l.npy"]

    def test_long_record_truncated_to_analysis_window(self, tmp_path):
        # 5.5-minute records keep only the 5 minutes before the alarm.
        from ecgalarm.record_io import ANALYSIS_SAMPLES, encode_signal

        data = tmp_path / "data"
        data.mkdir()
        n = 82500
        adc = np.arange(n, dtype=np.int64) % 400 - 200
        (data / "v600l.mat").write_bytes(
            encode_signal([adc.astype(np.int16)], byte_offset=24)
        )
        (data / "v600l.hea").write_text(
            f"v600l 1 250 {n}\nv600l.mat 16+24 200(0) 16 0 0 0 0 II\n"
            "#Ventricular_Tachycardia\n"
        )
        (tmp_path / "labels.csv").write_text("record,label\nv600l,true\n")
        out = tmp_path / "out"
        run_cli("ingest", "--data-dir", data, "--labels", tmp_path / "labels.csv", "--out", out)
        rows = read_manifest(out)
        assert rows[0]["n_samples"] == str(ANALYSIS_SAMPLES)
        cached = np.load(out / "cache" / "v600l.npy")
        assert len(cached) == ANALYSIS_SAMPLES

    def test_edge_case_manifest(self, tmp_path, capsys):
        # One header per admission case, in file-name order; the whole
        # manifest and cache/ are pinned. A header without lead II needs no
        # label. A failed first header (t103l, no signal file) still claims
        # its file-stem name, so zz2's readable t103l is a duplicate.
        from ecgalarm.record_io import encode_signal

        data = tmp_path / "data"
        data.mkdir()

        def record(stem, name=None, fs=250, n=7500, leads=("II",), comment="#Asystole",
                   signal=True):
            lines = [f"{name or stem} {len(leads)} {fs} {n}"]
            lines += [f"{stem}.mat 16+24 200(0) 16 0 0 0 0 {lead}" for lead in leads]
            (data / f"{stem}.hea").write_text("\n".join(lines + [comment]) + "\n")
            if signal:
                adc = (np.arange(n) % 400 - 200).astype(np.int16)
                (data / f"{stem}.mat").write_bytes(
                    encode_signal([adc] * len(leads), byte_offset=24))

        record("a100l")
        record("a101l", leads=("V", "PLETH"))
        record("b102l", fs=500, n=15000, comment="#Bradycardia")
        record("t103l", comment="#Tachycardia", signal=False)
        record("v104l", n=82500, comment="#Ventricular_Tachycardia")
        record("x105l", comment="")  # no alarm comment, no alarm-type prefix
        record("f106l", comment="#Ventricular_Flutter_Fib")  # not in the labels file
        record("zz1", name="a100l")
        record("zz2", name="t103l", comment="#Tachycardia")
        labels = tmp_path / "labels.csv"
        labels.write_text("record,label\na100l,true\nb102l,false\nt103l,true\n"
                          "v104l,true\nx105l,false\n")
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data, "--labels", labels, "--out", out) == 0
        assert capsys.readouterr().out.splitlines()[0] == "usable records: 2   skipped: 7"
        assert (out / "manifest.csv").read_text() == (
            "record,alarm_type,label,n_samples,skipped_reason\n"
            "a100l,ASY,true,7500,\n"
            "a100l,ASY,true,7500,duplicate_record\n"
            "a101l,ASY,,7500,no_lead_II\n"
            "b102l,EBR,false,15000,fs_500\n"
            "f106l,,,0,MissingLabel\n"
            "t103l,,,0,FileNotFoundError\n"
            "t103l,ETC,true,7500,duplicate_record\n"
            "v104l,VTA,true,75000,\n"
            "x105l,,,0,ParseError\n"
        )
        assert sorted(p.name for p in (out / "cache").iterdir()) == ["a100l.npy", "v104l.npy"]

    def test_record_name_cannot_leave_out(self, tmp_path):
        # A header's record name becomes the cache file's name; one that
        # would name another directory is a ParseError row under its file
        # stem, and ingest writes nothing outside --out.
        from ecgalarm.record_io import encode_signal

        data = tmp_path / "data"
        data.mkdir()
        adc = (np.arange(7500) % 400 - 200).astype(np.int16)
        for stem, name in (("a700l", "a700l"), ("evil", "../../escaped")):
            (data / f"{stem}.mat").write_bytes(encode_signal([adc], byte_offset=24))
            (data / f"{stem}.hea").write_text(
                f"{name} 1 250 7500\n{stem}.mat 16+24 200(0) 16 0 0 0 0 II\n#Asystole\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("record,label\na700l,true\n../../escaped,true\n")
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "out"  # cache/../../escaped.npy would be tmp_path/escaped.npy
        assert run_cli("ingest", "--data-dir", data, "--labels", labels, "--out", out) == 0
        rows = {r["record"]: r["skipped_reason"] for r in read_manifest(out)}
        assert rows == {"a700l": "", "evil": "ParseError"}
        assert [p for p in sorted(tmp_path.rglob("*")) if p not in before] == [
            out, out / "cache", out / "cache" / "a700l.npy", out / "manifest.csv"]

    def test_each_header_parsed_once(self, fixture_dataset, tmp_path, monkeypatch):
        # The header without lead II is read and parsed once too.
        from ecgalarm import record_io

        data_dir, labels = fixture_dataset
        real, parsed = record_io.parse_header, []

        def spy(text):
            parsed.append(text.split(None, 1)[0])
            return real(text)

        monkeypatch.setattr(record_io, "parse_header", spy)
        assert run_cli("ingest", "--data-dir", data_dir, "--labels", labels,
                       "--out", tmp_path / "out") == 0
        assert sorted(parsed) == sorted(p.stem for p in data_dir.glob("*.hea"))
        assert len(parsed) == 31

    def test_defect_fails_the_run(self, fixture_dataset, tmp_path, monkeypatch):
        # Only a package error, an OSError or an undecodable header skips a
        # record. Anything else is a defect: ingest stops with the exception
        # and leaves no manifest (an earlier run's included).
        from ecgalarm import record_io

        data_dir, labels = fixture_dataset
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data_dir, "--labels", labels, "--out", out) == 0

        def broken(*args):
            raise ValueError("injected defect")

        monkeypatch.setattr(record_io, "read_signal", broken)
        with pytest.raises(ValueError, match="^injected defect$"):
            run_cli("ingest", "--data-dir", data_dir, "--labels", labels, "--out", out)
        assert not (out / "manifest.csv").exists()

    def test_failed_save_exits_2(self, fixture_dataset, tmp_path, monkeypatch, capsys):
        # Writing the cache is not reading a record: its OSError fails the
        # command instead of becoming a skipped row.
        data_dir, labels = fixture_dataset

        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "save", full)
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data_dir, "--labels", labels, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: [Errno 28] No space left on device"]
        assert not (out / "manifest.csv").exists()

    def test_reingest_needs_featurize_again(self, fixture_dataset, pipeline_out, tmp_path,
                                            capsys):
        # A re-ingest over changed samples leaves no table built from the
        # old ones: evaluate refuses to run until featurize has run again.
        data_dir, labels = fixture_dataset
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        signal = (data / "b107l.mat").read_bytes()
        (data / "b107l.mat").write_bytes(signal[:24] + bytes(len(signal) - 24))
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        assert run_cli("ingest", "--data-dir", data, "--labels", labels, "--out", out) == 0
        assert [p.name for p in out.glob("*.csv")] == ["manifest.csv"]
        capsys.readouterr()
        assert run_cli("evaluate", "--out", out, "--scenarios", "HLF_cityblock") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: feature CSV not found: {out / 'hlf_cityblock.csv'}"]
        assert run_cli("featurize", "--out", out, "--seed", "11") == 0
        old = read_feature_csv(pipeline_out, "hlf_cityblock")
        new = read_feature_csv(out, "hlf_cityblock")
        at = old.records.index("b107l")
        assert new.records == old.records and not np.array_equal(new.X[at], old.X[at])
        assert run_cli("evaluate", "--out", out, "--scenarios", "HLF_cityblock") == 0


class TestFeaturize:
    def test_feature_csv_shapes(self, pipeline_out):
        llf = read_feature_csv(pipeline_out, "llf")
        hlf_c = read_feature_csv(pipeline_out, "hlf_cityblock")
        hlf_e = read_feature_csv(pipeline_out, "hlf_euclidean")
        dwt = read_feature_csv(pipeline_out, "dwt")
        assert llf.X.shape == (30, LLF_LENGTH)
        assert hlf_c.X.shape == (30, HLF_LENGTH)
        assert hlf_e.X.shape == (30, HLF_LENGTH)
        assert dwt.X.shape == (30, 120)
        assert llf.records == sorted(llf.records)
        assert llf.records == hlf_c.records == dwt.records

    def test_hlf_layout_comment(self, pipeline_out):
        first = (pipeline_out / "hlf_cityblock.csv").read_text().splitlines()[0]
        assert first.startswith("# layout=hlf-v1")

    def test_missing_manifest_fails(self, tmp_path):
        # Only ingest creates --out; a command that finds no manifest
        # leaves no directory behind.
        for command in ("featurize", "evaluate"):
            assert run_cli(command, "--out", tmp_path / "nowhere") == 2
            assert not (tmp_path / "nowhere").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda lines: [ln.rsplit(",", 1)[0] for ln in lines],
          "header is not record,alarm_type,label,n_samples,skipped_reason"),
         (lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0]] + lines[2:],
          "row 1 ('a101l') has 4 fields, the header 5")],
        ids=["no_skipped_reason", "short_row"],
    )
    def test_malformed_manifest_exits_2(self, pipeline_out, tmp_path, capsys, edit, message):
        lines = (pipeline_out / "manifest.csv").read_text().splitlines()
        (tmp_path / "manifest.csv").write_text("\n".join(edit(lines)) + "\n")
        assert run_cli("featurize", "--out", tmp_path) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: manifest.csv: {message}; run ingest again"]

    def test_misspelled_manifest_label_exits_2(self, pipeline_out, tmp_path, capsys):
        manifest = (pipeline_out / "manifest.csv").read_text()
        assert "\na101l,ASY,true," in manifest
        (tmp_path / "manifest.csv").write_text(
            manifest.replace("\na101l,ASY,true,", "\na101l,ASY,ture,"))
        assert run_cli("featurize", "--out", tmp_path) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: manifest.csv: label for 'a101l' must be true/false, got 'ture'"]

    def test_no_record_featurizes_fails(self, fixture_dataset, tmp_path):
        # Every cached signal is gone, so every record fails: exit 2, no tables.
        data_dir, labels = fixture_dataset
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data_dir, "--labels", labels, "--out", out) == 0
        for cached in (out / "cache").glob("*.npy"):
            cached.unlink()
        assert run_cli("featurize", "--out", out) == 2
        assert [p.name for p in out.glob("*.csv")] == ["manifest.csv"]

    def test_non_finite_record_dropped(self, fixture_dataset, tmp_path, capsys):
        data_dir, labels = fixture_dataset
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data_dir, "--labels", labels, "--out", out) == 0
        cached = out / "cache" / "b107l.npy"
        samples = np.load(cached)
        samples[100] = np.inf
        np.save(cached, samples)
        assert run_cli("featurize", "--out", out) == 0
        assert "featurize failed for b107l: NonFiniteSignal: sample 100 is inf" in (
            capsys.readouterr().err)
        table = read_feature_csv(out, "dwt")
        assert len(table.records) == 29 and "b107l" not in table.records

    @pytest.mark.parametrize("workers", [1, 2])
    def test_defect_fails_the_run(self, fixture_dataset, tmp_path, fresh_python, workers):
        # A defect that is not a per-record error (here an IndexError in
        # segment_features for the fast rhythms) stops featurize with exit 1
        # and the traceback: dropping the records it hits would leave tables
        # of a biased subset, the fast rhythms missing.
        data_dir, labels = fixture_dataset
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data_dir, "--labels", labels, "--out", out) == 0
        done = fresh_python("-c", f"""
import sys
from ecgalarm import cli, pipeline
real = pipeline.segment_features
def broken(marks):
    if len(marks) > 40:
        raise IndexError("injected defect")
    return real(marks)
pipeline.segment_features = broken
sys.exit(cli.main(["featurize", "--out", {str(out)!r}, "--workers", "{workers}"]))
""")
        assert done.returncode == 1, done.stdout + done.stderr
        assert "Traceback" in done.stderr
        assert done.stderr.rstrip().endswith("IndexError: injected defect")
        assert "featurize failed" not in done.stderr
        assert [p.name for p in out.glob("*.csv")] == ["manifest.csv"]

    def test_workers_fork_and_match_one_worker(self, pipeline_out, tmp_path, monkeypatch):
        # The pool forks by name, whatever the platform's default start
        # method, and two workers write the bytes of one (`pipeline_out`).
        import multiprocessing

        real, methods = multiprocessing.get_context, []

        def spy(method=None):
            methods.append(method)
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(pipeline_out / "manifest.csv", out)
        shutil.copytree(pipeline_out / "cache", out / "cache")
        assert run_cli("featurize", "--out", out, "--seed", "11", "--workers", "2") == 0
        assert methods == ["fork"]
        for bank in FEATURE_BANKS:
            assert (out / f"{bank}.csv").read_bytes() == (pipeline_out / f"{bank}.csv").read_bytes()

    def test_zero_beat_record_gets_sentinel_rows(self, tmp_path):
        # A flatline record: no beats -> zero LLF row, padded HLF row.
        from ecgalarm.record_io import encode_signal

        data = tmp_path / "data"
        data.mkdir()
        flat = np.zeros(7500, dtype=np.int16)
        (data / "a500l.mat").write_bytes(encode_signal([flat], byte_offset=24))
        (data / "a500l.hea").write_text(
            "a500l 1 250 7500\na500l.mat 16+24 200(0) 16 0 0 0 0 II\n#Asystole\n"
        )
        (tmp_path / "labels.csv").write_text("record,label\na500l,true\n")
        out = tmp_path / "out"
        run_cli("ingest", "--data-dir", data, "--labels", tmp_path / "labels.csv", "--out", out)
        assert run_cli("featurize", "--out", out) == 0
        llf = read_feature_csv(out, "llf")
        hlf = read_feature_csv(out, "hlf_cityblock")
        np.testing.assert_array_equal(llf.X[0], np.zeros(LLF_LENGTH))
        expected_hlf = np.zeros(HLF_LENGTH)
        expected_hlf[1] = 1.0  # ASY one-hot; heart rate 0
        np.testing.assert_array_equal(hlf.X[0], expected_hlf)


class TestEvaluate:
    def test_report_files(self, pipeline_out):
        report = json.loads((pipeline_out / "report.json").read_text())
        assert len(report["cells"]) == 12  # 6 scenarios x 2 classifiers
        md = (pipeline_out / "report.md").read_text()
        assert "## BoostedTrees" in md and "## RUSBoostedTrees" in md
        roc_files = list((pipeline_out / "roc").glob("roc_*.csv"))
        assert len(roc_files) == 12
        first = roc_files[0].read_text().splitlines()
        assert first[0] == "fpr,tpr,threshold"

    def test_scenario_restriction(self, pipeline_out, tmp_path):
        # reuse the featurized CSVs and the wider run's roc/; evaluate a
        # single scenario: roc/ keeps only that scenario's cells
        out = tmp_path / "restricted"
        out.mkdir()
        for name in ("manifest.csv", "llf.csv", "dwt.csv",
                     "hlf_cityblock.csv", "hlf_euclidean.csv"):
            shutil.copy(pipeline_out / name, out / name)
        shutil.copytree(pipeline_out / "roc", out / "roc")
        assert run_cli("evaluate", "--out", out, "--scenarios", "DWT",
                       "--folds", "5", "--seed", "11") == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["cells"]) == {"DWT/BoostedTrees", "DWT/RUSBoostedTrees"}
        assert sorted(p.name for p in (out / "roc").iterdir()) == [
            "roc_DWT_BoostedTrees.csv", "roc_DWT_RUSBoostedTrees.csv"]

    def test_missing_feature_csv_fails(self, pipeline_out, tmp_path):
        out = tmp_path / "missing"
        out.mkdir()
        shutil.copy(pipeline_out / "manifest.csv", out / "manifest.csv")
        shutil.copy(pipeline_out / "dwt.csv", out / "dwt.csv")
        assert run_cli("evaluate", "--out", out, "--scenarios", "HLF_cityblock") == 2

    def test_header_only_tables_fail_cleanly(self, pipeline_out, tmp_path):
        # Tables with a header and no rows keep their width, and evaluate
        # stops with exit 2 (too few records for the folds).
        out = tmp_path / "empty"
        out.mkdir()
        shutil.copy(pipeline_out / "manifest.csv", out / "manifest.csv")
        for name in ("hlf_cityblock.csv", "dwt.csv"):
            header = (pipeline_out / name).read_text().splitlines()[:2]  # comment, header
            (out / name).write_text("\n".join(header) + "\n")
        assert read_feature_csv(out, "dwt").X.shape == (0, 120)
        assert read_feature_csv(out, "hlf_cityblock").X.shape == (0, HLF_LENGTH)
        assert run_cli("evaluate", "--out", out, "--scenarios", "DWT+HLF_cityblock") == 2

    def test_misspelled_label_rejected(self, tmp_path):
        write_feature_csv(tmp_path, "hlf_cityblock", ["r1", "r2"], [1, -1],
                          np.zeros((2, HLF_LENGTH)))
        path = tmp_path / "hlf_cityblock.csv"
        path.write_text(path.read_text().replace("\nr2,false,", "\nr2,ture,"))
        with pytest.raises(ValueError, match="^hlf_cityblock.csv: label for 'r2' must be "
                                             "true/false, got 'ture'$"):
            read_feature_csv(tmp_path, "hlf_cityblock")

    def test_bad_table_label_exits_2(self, pipeline_out, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(pipeline_out / "manifest.csv", out / "manifest.csv")
        table = (pipeline_out / "hlf_cityblock.csv").read_text()
        assert "\na101l,true," in table
        (out / "hlf_cityblock.csv").write_text(table.replace("\na101l,true,", "\na101l,ture,"))
        assert run_cli("evaluate", "--out", out, "--scenarios", "HLF_cityblock") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: hlf_cityblock.csv: label for 'a101l' must be true/false, got 'ture'"]

    @pytest.mark.parametrize("bad", ["nan", "-inf"])
    def test_non_finite_feature_exits_2(self, pipeline_out, tmp_path, capsys, bad):
        # A near-constant wavelet band gives `dwt` a nan skewness; a tree
        # would split on it at threshold nan and send every row right.
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(pipeline_out / "manifest.csv", out / "manifest.csv")
        lines = (pipeline_out / "dwt.csv").read_text().splitlines()
        columns = next(ln for ln in lines if ln.startswith("record,")).split(",")
        at = next(i for i, ln in enumerate(lines) if ln.startswith("a101l,"))
        cells = lines[at].split(",")
        cells[7] = bad
        lines[at] = ",".join(cells)
        (out / "dwt.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("evaluate", "--out", out, "--scenarios", "DWT") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: dwt.csv: record 'a101l', column {columns[7]!r} holds "
                       f"{float(bad)!r}; features must be finite"]

    def test_tables_of_records_outside_manifest_fail(self, fixture_dataset, pipeline_out,
                                                      tmp_path, capsys):
        # Ingest deletes the tables of an earlier run; tables copied in by
        # hand after ingesting a 12-record subset name records the new
        # manifest lacks.
        data_dir, labels = fixture_dataset
        subset = tmp_path / "subset"
        subset.mkdir()
        for header in sorted(data_dir.glob("*.hea"))[:12]:
            for ext in (".hea", ".mat"):
                shutil.copy(header.with_suffix(ext), subset)
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", subset, "--labels", labels, "--out", out) == 0
        assert len(read_manifest(out)) == 12
        for name in ("llf.csv", "hlf_cityblock.csv", "hlf_euclidean.csv", "dwt.csv"):
            shutil.copy(pipeline_out / name, out / name)
        capsys.readouterr()
        assert run_cli("evaluate", "--out", out, "--scenarios", "HLF_cityblock") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not in the manifest" in err[0]

    def test_relabelled_record_refuses_stale_tables(self, fixture_dataset, pipeline_out,
                                                    tmp_path, capsys):
        # Tables copied in by hand after ingesting with a changed label carry
        # the old one; evaluate must not train on it.
        data_dir, labels = fixture_dataset
        relabelled = tmp_path / "labels.csv"
        relabelled.write_text(labels.read_text().replace("a101l,true", "a101l,false"))
        out = tmp_path / "out"
        assert run_cli("ingest", "--data-dir", data_dir, "--labels", relabelled,
                       "--out", out) == 0
        for name in ("llf.csv", "hlf_cityblock.csv", "hlf_euclidean.csv", "dwt.csv"):
            shutil.copy(pipeline_out / name, out / name)
        capsys.readouterr()
        assert run_cli("evaluate", "--out", out, "--scenarios", "HLF_cityblock") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'a101l'" in err[0] and "featurize again" in err[0]

    @pytest.mark.parametrize("trues, message", [
        (["a101l"], "HLF_cityblock/BoostedTrees fold 0 (0 true, 24 false in training): "
                    "training labels contain a single class"),
        (["a101l", "a102l"], "HLF_cityblock/RUSBoostedTrees fold 4 (1 true, 23 false in "
                             "training): boosting round 0 has weighted error 0.667 >= 0.5"),
    ], ids=["single_class", "no_weak_learner"])
    def test_too_few_true_alarms_exit_2(self, fixture_dataset, tmp_path, capsys, trues,
                                        message):
        # With one true alarm, fold 0 trains on false alarms only. With two,
        # fold 4 trains on one of them: RUSBoost's first tree sees it and one
        # false alarm, and its weighted error on the fold's training rows is
        # no better than chance. Either stops the whole run, with the cell,
        # the fold and its class counts in the message.
        data_dir, labels = fixture_dataset
        rows = [line.split(",")[0] for line in labels.read_text().splitlines()[1:]]
        relabelled = tmp_path / "labels.csv"
        relabelled.write_text("record,label\n" + "".join(
            f"{name},{'true' if name in trues else 'false'}\n" for name in rows))
        capsys.readouterr()
        assert run_cli("all", "--data-dir", data_dir, "--labels", relabelled,
                       "--out", tmp_path / "out", "--scenarios", "HLF_cityblock") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out" / "report.json").exists()

    @staticmethod
    def _evaluate_edited(pipeline_out, out, bank, edit, scenarios):
        """Evaluate `scenarios` on the fixture's tables, with the lines of
        `bank`'s table passed through `edit` first."""
        out.mkdir()
        for name in ("manifest.csv", "llf.csv", "hlf_cityblock.csv",
                     "hlf_euclidean.csv", "dwt.csv"):
            shutil.copy(pipeline_out / name, out / name)
        path = out / f"{bank}.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        return run_cli("evaluate", "--out", out, "--scenarios", scenarios)

    @staticmethod
    def _edit_row(record, change):
        def edit(lines):
            at = next(i for i, ln in enumerate(lines) if ln.startswith(f"{record},"))
            lines[at] = ",".join(change(lines[at].split(",")))
            return lines
        return edit

    @pytest.mark.parametrize(
        "change, message",
        [(lambda cells: cells[:-1], "row 1 ('a101l') has 32 fields, the header 33"),
         (lambda cells: cells + ["0.0"], "row 1 ('a101l') has 34 fields, the header 33"),
         (lambda cells: cells[:5] + ["abc"] + cells[6:],
          "record 'a101l': could not convert string to float: 'abc'")],
        ids=["short_row", "extra_field", "not_a_number"],
    )
    def test_malformed_row_exits_2(self, pipeline_out, tmp_path, capsys, change, message):
        edit = self._edit_row("a101l", change)
        assert self._evaluate_edited(pipeline_out, tmp_path / "out", "hlf_cityblock", edit,
                                     "HLF_cityblock") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: hlf_cityblock.csv: {message}"]

    @pytest.mark.parametrize(
        "bank, change, scenarios",
        [("hlf_cityblock", lambda cols: cols[:-1], "HLF_cityblock"),
         ("hlf_cityblock", lambda cols: cols[:3] + cols[2:3] + cols[4:], "HLF_cityblock"),
         ("dwt", lambda cols: cols[:2] + [cols[3], cols[2]] + cols[4:], "DWT+HLF_euclidean"),
         ("dwt", lambda cols: cols[:2] + ["d1_mean"] + cols[3:], "DWT")],
        ids=["narrow", "duplicate_column", "reordered", "renamed"],
    )
    def test_header_off_layout_exits_2(self, pipeline_out, tmp_path, capsys, bank, change,
                                       scenarios):
        # A table must carry its bank's columns by name and in order; a
        # width check alone passes a renamed, reordered or duplicated one.
        edit = self._edit_row("record", change)
        assert self._evaluate_edited(pipeline_out, tmp_path / "out", bank, edit, scenarios) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bank}.csv: header is not ")

    @pytest.mark.parametrize(
        "bank, edit, scenarios",
        [("hlf_cityblock", lambda lines: ["# layout=hlf-v1 metric=sqeuclidean"] + lines[1:],
          "HLF_cityblock"),
         ("dwt", lambda lines: [lines[0].replace("=dwt-stats-v1 ", "=dwt-stats-v0 ")] + lines[1:],
          "DWT"),
         ("hlf_euclidean", lambda lines: lines[1:], "DWT+HLF_euclidean"),
         ("llf", lambda lines: ["# layout=hlf-v1 metric=cityblock"] + lines, "LLF")],
        ids=["other_metric", "older_layout", "missing", "on_llf"],
    )
    def test_layout_line_off_bank_exits_2(self, pipeline_out, tmp_path, capsys, bank, edit,
                                          scenarios):
        # Both HLF banks have the same header, so a table copied over the
        # other one differs only in its layout line, as does a table from a
        # featurize with another layout. llf.csv has no layout line.
        first = (pipeline_out / f"{bank}.csv").read_text().splitlines()[0]
        assert self._evaluate_edited(pipeline_out, tmp_path / "out", bank, edit, scenarios) == 2
        want = (f"first line is not '{first}'" if bank != "llf" else
                f"header is not record,label and the {LLF_LENGTH} feature columns in order")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bank}.csv: {want}; featurize again"]

    def test_repeated_record_exits_2(self, pipeline_out, tmp_path, capsys):
        # Two copies of one record would be dealt to folds separately, so one
        # could train the model that scores the other.
        def repeat_a101l(lines):
            return lines + [ln for ln in lines if ln.startswith("a101l,")]

        assert self._evaluate_edited(pipeline_out, tmp_path / "out", "hlf_cityblock",
                                     repeat_a101l, "HLF_cityblock") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: hlf_cityblock.csv: record 'a101l' is listed twice; featurize again"]

    def test_banks_listing_other_records_exit_2(self, pipeline_out, tmp_path, capsys):
        def drop_a101l(lines):
            return [ln for ln in lines if not ln.startswith("a101l,")]

        assert self._evaluate_edited(pipeline_out, tmp_path / "out", "hlf_cityblock",
                                     drop_a101l, "DWT+HLF_cityblock") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: hlf_cityblock.csv and dwt.csv list different records (featurize again)"]

    def test_scenario_joins_its_banks(self, pipeline_out):
        manifest = usable_records(read_manifest(pipeline_out))
        tables = _load_tables(pipeline_out, ["DWT+HLF_cityblock", "DWT"], manifest)
        assert list(tables) == ["DWT+HLF_cityblock", "DWT"]
        dwt = read_feature_csv(pipeline_out, "dwt")
        hlf = read_feature_csv(pipeline_out, "hlf_cityblock")
        joined = tables["DWT+HLF_cityblock"]
        assert joined.X.shape == (30, 120 + HLF_LENGTH)
        np.testing.assert_array_equal(joined.X, np.hstack([dwt.X, hlf.X]))
        assert joined.records == dwt.records
        np.testing.assert_array_equal(joined.y, dwt.y)


class TestDeterminism:
    def test_two_runs_byte_identical(self, fixture_dataset, tmp_path):
        data_dir, labels = fixture_dataset
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = run_cli(
                "all", "--data-dir", data_dir, "--labels", labels, "--out", out,
                "--seed", "42", "--folds", "4", "--workers", "2",
                "--scenarios", "DWT,HLF_cityblock",
            )
            assert code == 0
            outputs.append(out)
        for rel in ("manifest.csv", "dwt.csv", "hlf_cityblock.csv",
                    "llf.csv", "hlf_euclidean.csv", "report.json", "report.md"):
            a = (outputs[0] / rel).read_bytes()
            b = (outputs[1] / rel).read_bytes()
            assert a == b, f"{rel} differs between identical runs"


# The flags each subcommand reads; `all` reads every one.
FLAGS = {
    "ingest": ["--data-dir", "--labels", "--out", "--seed"],
    "featurize": ["--out", "--seed", "--workers"],
    "evaluate": ["--out", "--seed", "--folds", "--scenarios"],
}
ALL_FLAGS = ["--data-dir", "--labels", "--out", "--seed", "--folds", "--scenarios", "--workers"]


def _parser_flags() -> dict[str, list[str]]:
    """Each subcommand of `build_parser()` -> the long flags it takes, in order."""
    commands = build_parser()._subparsers._group_actions[0].choices
    return {name: [opt for action in p._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"]
            for name, p in commands.items()}


def _exits_2(capsys, *args):
    """Run the CLI on `args`, expect argparse to stop it, return its stderr."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*args)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestFlags:
    @pytest.mark.parametrize(
        "command, flag",
        [("evaluate", ("--config", "x")), ("evaluate", ("--cache", "reuse")),
         ("evaluate", ("--seed", "abc")), ("evaluate", ("--scenarios", ",")),
         ("evaluate", ("--scenarios", "DWT,HLF")), ("evaluate", ("--seed", "-1")),
         ("featurize", ("--workers", "0"))],
        ids=["config", "cache", "seed", "no_scenario", "unknown_scenario",
             "negative_seed", "zero_workers"],
    )
    def test_removed_or_malformed_flag_exits_2(self, command, flag, tmp_path, capsys):
        # Flags are the only configuration: a removed flag, a non-numeric
        # or out-of-range value and a scenario list naming no known scenario
        # all stop in argparse, before any command runs.
        assert flag[0] in _exits_2(capsys, command, "--out", tmp_path, *flag)

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, takes in FLAGS.items()
         for flag in ALL_FLAGS if flag not in takes],
    )
    def test_flag_the_command_does_not_read_exits_2(self, command, flag, tmp_path, capsys):
        # A flag that is accepted and then ignored would be a silent default.
        out = tmp_path / "out"
        required = (["--data-dir", tmp_path, "--labels", tmp_path / "labels.csv"]
                    if command == "ingest" else [])
        err = _exits_2(capsys, command, *required, "--out", out, flag, "3")
        assert f"unrecognized arguments: {flag}" in err
        assert not out.exists()

    def test_ingest_needs_labels(self, tmp_path, capsys):
        out = tmp_path / "out"
        err = _exits_2(capsys, "ingest", "--data-dir", tmp_path, "--out", out)
        assert "required: --labels" in err
        assert not out.exists()

    def test_all_with_one_fold_stops_before_ingest(self, fixture_dataset, tmp_path, capsys):
        data_dir, labels = fixture_dataset
        out = tmp_path / "out"
        err = _exits_2(capsys, "all", "--data-dir", data_dir, "--labels", labels,
                       "--out", out, "--folds", "1")
        assert "--folds" in err and "must be >= 2, got 1" in err
        assert not (out / "manifest.csv").exists()

    def test_readme_flag_table_matches_parser(self):
        # The parser takes the flags above, and the README's flag table
        # names, per flag, the subcommands that take it.
        assert _parser_flags() == {**FLAGS, "all": ALL_FLAGS}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        documented = {}
        for flag, commands in re.findall(r"^\| `(--[a-z-]+)` \| ([^|]+) \|", readme, re.M):
            for command in re.findall(r"`([a-z]+)`", commands):
                documented.setdefault(command, []).append(flag)
        assert documented == _parser_flags()
