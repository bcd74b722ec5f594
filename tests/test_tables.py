import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecgalarm.feature_synthesis import HLF_METRICS
from ecgalarm.record_io import FALSE_ALARM, TRUE_ALARM
from ecgalarm.tables import (
    FEATURE_BANKS,
    OUTPUTS,
    read_feature_csv,
    remove_outputs,
    write_feature_csv,
)

# Float edge cases a table must carry bit for bit: a signed zero, the
# smallest subnormal and the largest finite magnitudes.
EDGES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("bank", FEATURE_BANKS)
@given(data=st.data())
def test_round_trip_is_bit_exact(bank, data):
    # Drawn rows, then one row that holds every edge case.
    width = len(FEATURE_BANKS[bank])
    drawn = data.draw(arrays(np.float64, (data.draw(st.integers(0, 3)), width), elements=FINITE))
    matrix = np.vstack([drawn, np.resize(np.array(EDGES), (1, width))])
    labels = data.draw(st.lists(st.sampled_from([TRUE_ALARM, FALSE_ALARM]),
                                min_size=len(matrix), max_size=len(matrix)))
    records = [f"r{i}" for i in range(len(matrix))]
    with tempfile.TemporaryDirectory() as out:
        write_feature_csv(out, bank, records, labels, matrix)
        first = (Path(out) / f"{bank}.csv").read_text().splitlines()[0]
        table = read_feature_csv(out, bank)
    assert table.records == records
    assert table.y.tolist() == labels
    assert table.X.shape == (len(matrix), width)
    np.testing.assert_array_equal(table.X.view(np.uint64), matrix.view(np.uint64))
    if bank in HLF_METRICS:
        assert first == f"# layout=hlf-v1 metric={HLF_METRICS[bank]}"
    elif bank == "dwt":
        assert first.startswith("# layout=dwt-stats-v1 stats=mean,median,")
    else:
        assert first == "record,label," + ",".join(FEATURE_BANKS[bank])


# A file of each kind that each command writes, in pipeline order.
OUT_FILES = {
    "ingest": ["manifest.csv", "cache/a1.npy"],
    "featurize": [f"{bank}.csv" for bank in FEATURE_BANKS],
    "evaluate": ["report.json", "report.md", "roc/roc_DWT-HLF_cityblock_BoostedTrees.csv"],
}


@pytest.mark.parametrize("command", OUT_FILES)
def test_remove_outputs_follows_pipeline_order(command, tmp_path):
    # The files of `command` and of every later command go; files that no
    # command writes stay, with those of earlier commands.
    keep = ["notes.txt", "roc/other.csv", "cache/readme.txt"]
    commands = list(OUT_FILES)
    for name in keep + [n for files in OUT_FILES.values() for n in files]:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(name)
    remove_outputs(tmp_path, command)
    kept = keep + [n for c in commands[:commands.index(command)] for n in OUT_FILES[c]]
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                  if p.is_file()) == sorted(kept)


def test_remove_outputs_of_missing_out(tmp_path):
    remove_outputs(tmp_path / "absent", "ingest")
    assert not (tmp_path / "absent").exists()


def test_readme_output_block_matches_outputs():
    # The README's "Output artifacts" block lists, in order, exactly the
    # files that remove_outputs deletes, each under the command writing it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Output artifacts\n\n```\nout/\n(.*?)^```", readme, re.M | re.S)
    documented = {}
    for pattern, command in re.findall(r"^  (\S+) +([a-z]+):", block.group(1), re.M):
        documented.setdefault(command, []).append(pattern)
    assert list(documented.items()) == list(OUTPUTS.items())
