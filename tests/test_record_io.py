import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecgalarm.exceptions import (
    MissingLabel,
    ParseError,
    TruncatedSignal,
    UnsupportedFormat,
)
from ecgalarm.record_io import (
    FALSE_ALARM,
    INVALID_ADC,
    TRUE_ALARM,
    alarm_type_from_header,
    discover_records,
    encode_signal,
    load_any,
    load_labels,
    parse_header,
    read_signal,
)

HEADER_TEXT = (
    "r01 3 250 75000\n"
    "r01.mat 16+24 200 11 0 0 0 0 II\n"
    "r01.mat 16+24 200 11 0 0 0 0 V\n"
    "r01.mat 16+24 7247 11 0 0 0 0 PLETH\n"
    "#Asystole\n"
)


class TestParseHeader:
    def test_basic_fields(self):
        header = parse_header(HEADER_TEXT)
        assert header.record_name == "r01"
        assert header.n_signals == 3
        assert header.sampling_rate == 250
        assert header.n_samples == 75000
        assert header.signals[0].storage_format == 16
        assert header.signals[0].byte_offset == 24
        assert header.signals[0].adc_gain == 200
        assert header.signals[0].signal_name == "II"
        assert header.comments == ["#Asystole"]

    def test_gain_with_baseline_and_units(self):
        text = "x 1 250 100\nx.mat 16+24 1553(-2925)/NU 16 0 -2995 8337 0 II\n"
        header = parse_header(text)
        assert header.signals[0].adc_gain == 1553
        assert header.signals[0].baseline == -2925

    def test_baseline_defaults_to_adc_zero(self):
        text = "x 1 250 100\nx.mat 16 200 16 -7 0 0 0 II\n"
        assert parse_header(text).signals[0].baseline == -7

    def test_zero_gain_maps_to_default(self):
        text = "x 1 250 100\nx.mat 16 0 16 0 0 0 0 II\n"
        assert parse_header(text).signals[0].adc_gain == 200

    def test_byte_offset_defaults_to_zero(self):
        text = "x 1 250 100\nx.mat 16 200 16 0 0 0 0 II\n"
        assert parse_header(text).signals[0].byte_offset == 0

    def test_empty_text_raises(self):
        with pytest.raises(ParseError):
            parse_header("")

    def test_signal_count_mismatch_raises(self):
        text = (
            "x 2 250 100\n"
            "x.mat 16 200 16 0 0 0 0 II\n"
            "x.mat 16 200 16 0 0 0 0 V\n"
            "x.mat 16 200 16 0 0 0 0 PLETH\n"
        )
        with pytest.raises(ParseError):
            parse_header(text)

    def test_malformed_first_line_raises(self):
        with pytest.raises(ParseError):
            parse_header("r01 three 250\n")

    @pytest.mark.parametrize("signal_lines, match", [
        ("#Asystole\nx.mat 16 200 16 0 0 0 0 II\n", "header line 3: signal line after comment"),
        ("x.mat\n", "header line 2: signal line needs file name and format"),
    ], ids=["after_comment", "file_name_only"])
    def test_malformed_signal_line_raises(self, signal_lines, match):
        with pytest.raises(ParseError, match=match):
            parse_header("x 1 250 100\n" + signal_lines)

    def test_nul_in_file_name_raises(self):
        # Opening such a path raises ValueError, which ingest does not skip.
        with pytest.raises(ParseError, match="NUL byte"):
            parse_header("x 1 250 100\nx\0.mat 16 200 16 0 0 0 0 II\n")

    @pytest.mark.parametrize("file_name", ["../out/x.mat", "/tmp/x.mat", "sub/x.mat", ".", ".."],
                             ids=["parent", "absolute", "subdir", "dot", "dotdot"])
    def test_signal_file_name_with_directory_part_raises(self, file_name):
        # load_any reads the signal file beside the header: a directory part
        # could make ingest read any file on the machine.
        with pytest.raises(ParseError, match="directory part"):
            parse_header(f"x 1 250 100\n{file_name} 16 200 16 0 0 0 0 II\n")
        header = parse_header("x 1 250 100\n..x.mat 16 200 16 0 0 0 0 II\n")
        assert header.signals[0].file_name == "..x.mat"

    @pytest.mark.parametrize("name", ["../../escaped", "/tmp/x", "a.b", "a-1", "x\0", "é"],
                             ids=["parent", "absolute", "dot", "dash", "nul", "non_ascii"])
    def test_record_name_outside_wfdb_rule_raises(self, name):
        # The name becomes a file name under --out/cache: only letters,
        # digits and underscores, so it cannot name another directory.
        with pytest.raises(ParseError, match="record name"):
            parse_header(f"{name} 1 250 100\nx.mat 16 200 16 0 0 0 0 II\n")
        assert parse_header("a0_Z9 1 250 100\nx.mat 16 200 16 0 0 0 0 II\n").record_name == "a0_Z9"


def _parse_or_parse_error(text):
    """parse_header's whole contract: a header with a finite, positive rate,
    or ParseError."""
    try:
        header = parse_header(text)
    except ParseError:
        return
    assert np.isfinite(header.sampling_rate) and header.sampling_rate > 0


# The numeric fields of HEADER_TEXT as (line, token index), and tokens that
# are well-formed, out of range, or not numbers at all.
NUMERIC_FIELDS = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (1, 4)]
FIELD_TOKENS = st.sampled_from([
    "250", "0", "-1", "2.5", "nan", "inf", "-inf", "1e999", "e", "1e5e", "1.2.3",
    "16+24", "16+", "200(0)", "200(x)", "1e5(3)/mV", ".", "+",
    "9" * 5000, "1(" + "9" * 5000 + ")",  # beyond int()'s default digit limit
]) | st.text(max_size=6)


class TestParseHeaderProperty:
    @given(st.text())
    def test_arbitrary_text(self, text):
        _parse_or_parse_error(text)

    @settings(max_examples=300)
    @given(field=st.sampled_from(NUMERIC_FIELDS), token=FIELD_TOKENS)
    def test_perturbed_field(self, field, token):
        lines = [line.split(" ") for line in HEADER_TEXT.splitlines()]
        lines[field[0]][field[1]] = token
        _parse_or_parse_error("\n".join(" ".join(line) for line in lines))


class TestReadSignal:
    def _header(self, n_signals, n_samples, gain=200.0, baseline=0, offset=0, fmt=16):
        lines = [f"x {n_signals} 250 {n_samples}"]
        fmt_tok = f"{fmt}+{offset}" if offset else str(fmt)
        for i in range(n_signals):
            lines.append(f"x.dat {fmt_tok} {gain:g}({baseline}) 16 0 0 0 0 ch{i}")
        return parse_header("\n".join(lines))

    def test_physical_conversion(self):
        header = self._header(1, 1)
        raw = encode_signal([np.array([1023])])
        assert read_signal(header, raw, 0) == pytest.approx([5.115])

    def test_baseline_maps_to_zero(self):
        header = self._header(1, 1, baseline=37)
        raw = encode_signal([np.array([37])])
        assert read_signal(header, raw, 0) == pytest.approx([0.0])

    def test_multiplexed_channel_extraction(self):
        # 3 channels x 4 samples, hand-constructed interleaving.
        ch0 = np.array([1, 4, 7, 10])
        ch1 = np.array([2, 5, 8, 11])
        ch2 = np.array([3, 6, 9, 12])
        header = self._header(3, 4, gain=1.0)
        raw = encode_signal([ch0, ch1, ch2])
        np.testing.assert_allclose(read_signal(header, raw, 1), [2, 5, 8, 11])

    def test_byte_offset_skipped(self):
        header = self._header(1, 3, gain=1.0, offset=24)
        raw = encode_signal([np.array([7, -7, 0])], byte_offset=24)
        np.testing.assert_allclose(read_signal(header, raw, 0), [7, -7, 0])

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        channels = [rng.integers(-3000, 3000, 50).astype(np.int16) for _ in range(3)]
        raw = encode_signal(channels, byte_offset=24)
        header = self._header(3, 50, gain=1.0, offset=24)
        decoded = [read_signal(header, raw, i).astype(np.int16) for i in range(3)]
        assert encode_signal(decoded, byte_offset=24) == raw

    def test_invalid_samples_decode_to_zero(self):
        # -32768 marks an invalid sample in format 16 (sensor detachment);
        # it must not decode into a huge voltage spike.
        header = self._header(1, 3)
        raw = encode_signal([np.array([-32768, 200, -32768], dtype=np.int16)])
        np.testing.assert_allclose(read_signal(header, raw, 0), [0.0, 1.0, 0.0])

    def test_unsupported_format(self):
        header = self._header(1, 4, fmt=212)
        with pytest.raises(UnsupportedFormat):
            read_signal(header, b"\x00" * 100, 0)

    def test_truncated_raises(self):
        header = self._header(2, 100)
        with pytest.raises(TruncatedSignal):
            read_signal(header, b"\x00" * 50, 0)

    @given(
        adc=arrays(np.int16, st.tuples(st.integers(1, 40), st.integers(1, 4))),
        offset=st.integers(0, 64),
        gains=st.lists(st.floats(1e-3, 1e5), min_size=4, max_size=4),
        baselines=st.lists(st.integers(-32768, 32767), min_size=4, max_size=4),
    )
    def test_roundtrip_property(self, adc, offset, gains, baselines):
        n_samples, n_signals = adc.shape
        lines = [f"x {n_signals} 250 {n_samples}"] + [
            f"x.dat 16+{offset} {gains[i]!r}({baselines[i]}) 16 0 0 0 0 ch{i}"
            for i in range(n_signals)
        ]
        header = parse_header("\n".join(lines))
        raw = encode_signal(list(adc.T), byte_offset=offset)
        for i in range(n_signals):
            want = (adc[:, i].astype(np.float64) - baselines[i]) / gains[i]
            want[adc[:, i] == INVALID_ADC] = 0.0
            assert read_signal(header, raw, i).tobytes() == want.tobytes()


class TestLoadRecord:
    def _write(self, tmp_path, name, leads, comment="#Asystole"):
        n = 100
        lines = [f"{name} {len(leads)} 250 {n}"]
        for lead in leads:
            lines.append(f"{name}.mat 16+24 200(0) 16 0 0 0 0 {lead}")
        lines.append(comment)
        (tmp_path / f"{name}.hea").write_text("\n".join(lines) + "\n")
        channels = [np.arange(n, dtype=np.int16) + i for i in range(len(leads))]
        (tmp_path / f"{name}.mat").write_bytes(encode_signal(channels, byte_offset=24))

    def test_selects_lead_ii(self, tmp_path):
        self._write(tmp_path, "a100l", ["II", "V", "PLETH"])
        record = load_any(tmp_path / "a100l.hea", {"a100l": TRUE_ALARM})
        assert record is not None
        assert record.alarm_type == "ASY"
        assert record.label == TRUE_ALARM
        np.testing.assert_allclose(record.samples, np.arange(100) / 200.0)

    def test_skip_without_lead_ii(self, tmp_path):
        # No label needed: the record is skipped before the label is read.
        self._write(tmp_path, "a101l", ["V", "PLETH"])
        record = load_any(tmp_path / "a101l.hea", {})
        assert record.skipped_reason == "no_lead_II"
        assert record.samples is None
        assert (record.record_name, record.alarm_type, record.label, record.n_samples) == (
            "a101l", "ASY", None, 100)

    def test_other_rate_skipped_after_decoding(self, tmp_path):
        self._write(tmp_path, "a103l", ["II"])
        header = tmp_path / "a103l.hea"
        header.write_text(header.read_text().replace(" 250 ", " 500 "))
        record = load_any(header, {"a103l": TRUE_ALARM})
        assert (record.skipped_reason, record.samples, record.n_samples) == ("fs_500", None, 100)
        (tmp_path / "a103l.mat").unlink()
        with pytest.raises(FileNotFoundError):  # the rate is checked last
            load_any(header, {"a103l": TRUE_ALARM})

    def test_no_alarm_type_raises_parse_error(self, tmp_path):
        self._write(tmp_path, "x105l", ["II"], comment="#Unknown")
        with pytest.raises(ParseError, match="'x105l'"):
            load_any(tmp_path / "x105l.hea", {"x105l": TRUE_ALARM})

    def test_missing_label_raises(self, tmp_path):
        self._write(tmp_path, "a102l", ["II"])
        with pytest.raises(MissingLabel):
            load_any(tmp_path / "a102l.hea", {})

    def test_fixture_dataset_counts(self, fixture_dataset):
        data_dir, labels_path = fixture_dataset
        labels = load_labels(labels_path)
        paths = discover_records(data_dir)
        assert len(paths) == 31  # 30 usable + 1 without lead II
        loaded = [load_any(p, labels) for p in paths]
        skipped = [r for r in loaded if r.skipped_reason]
        assert [(r.skipped_reason, r.samples) for r in skipped] == [("no_lead_II", None)]
        assert sum(1 for r in loaded if r.samples is not None) == 30

    @pytest.mark.parametrize(
        "comment,alarm",
        [
            ("#Asystole", "ASY"),
            ("#Bradycardia", "EBR"),
            ("#Tachycardia", "ETC"),
            ("#Ventricular_Tachycardia", "VTA"),
            ("#Ventricular_Flutter_Fib", "VFB"),
        ],
    )
    def test_alarm_from_comment(self, tmp_path, comment, alarm):
        self._write(tmp_path, "x200l", ["II"], comment=comment)
        record = load_any(tmp_path / "x200l.hea", {"x200l": TRUE_ALARM})
        assert record.alarm_type == alarm

    @pytest.mark.parametrize(
        "name,alarm",
        [("a1", "ASY"), ("b1", "EBR"), ("t1", "ETC"), ("v1", "VTA"), ("f1", "VFB")],
    )
    def test_alarm_prefix_fallback(self, name, alarm):
        header = parse_header(f"{name} 1 250 10\nx.mat 16 200 16 0 0 0 0 II\n")
        assert alarm_type_from_header(header) == alarm


class TestLabels:
    def test_load_labels(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("record,label\nr1,true\nr2,FALSE\n")
        labels = load_labels(path)
        assert labels == {"r1": TRUE_ALARM, "r2": FALSE_ALARM}

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("record,label\nr1,maybe\n")
        with pytest.raises(ValueError):
            load_labels(path)
