"""CSV round trips, parameter echoes, and line-numbered parse errors."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arpsd
from arpsd import (
    BurstSpec,
    Recording,
    RunConfig,
    TimeSeries,
    detect_recording,
    simulate_recording,
)
from arpsd.detection import ChannelDecision, DetectionReport
from arpsd.io_csv import (
    echo_lines,
    read_annotations,
    read_burst_specs,
    read_prediction_csv,
    read_recording_csv,
    read_report_errors,
    write_annotations,
    write_detection_report_csv,
    write_psd_csv,
    write_recording_csv,
)
from arpsd.spectral import threshold_psd
from arpsd.estimation import ar_psd
from arpsd.core import ArModel

FIXTURES = Path(__file__).parent / "fixtures"


def _recording(rng, n=16, fs=128.0):
    return Recording(
        {
            "F8-T4": TimeSeries(rng.standard_normal(n), fs),
            "T4-T6": TimeSeries(rng.standard_normal(n) * 1e-15, fs),
            "Cz-Pz": TimeSeries(rng.standard_normal(n) * 1e12, fs),
        }
    )


def test_echo_lines_name_tool_version_and_parameters():
    lines = echo_lines("detect", {"k": 2.0, "rho": 0.5})
    assert lines[0] == f"# arpsd detect v{arpsd.__version__}"
    assert lines[1] == "# k=2.0 rho=0.5"
    assert echo_lines("psd") == [f"# arpsd psd v{arpsd.__version__}"]


def test_recording_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    recording = _recording(rng, fs=256.0)
    path = tmp_path / "rec.csv"
    write_recording_csv(path, recording)
    back = read_recording_csv(path)
    assert back.names == recording.names
    assert back.sample_rate_hz == 256.0
    for name in recording.names:
        assert np.array_equal(back[name].samples, recording[name].samples)


def test_recording_file_starts_with_comment_echo(tmp_path):
    path = tmp_path / "rec.csv"
    write_recording_csv(path, _recording(np.random.default_rng(0)), extra_comments=["seed=0"])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# arpsd recording v")
    assert "# seed=0" in lines
    assert any(line.startswith("# fs=") for line in lines)


def test_read_recording_uses_default_rate_when_file_has_none(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    assert read_recording_csv(path).sample_rate_hz == 128.0
    assert read_recording_csv(path, default_sample_rate_hz=500.0).sample_rate_hz == 500.0


def test_read_recording_fs_comment_wins_over_default(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("# fs=200\na\n1.0\n")
    assert read_recording_csv(path, default_sample_rate_hz=128.0).sample_rate_hz == 200.0


def test_read_recording_reports_offending_line_numbers(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("# comment\n\na,b\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(ValueError, match="line 5.*oops"):
        read_recording_csv(path)
    path.write_text("a,b\n1.0,2.0\n1.0\n")
    with pytest.raises(ValueError, match="line 3.*expected 2"):
        read_recording_csv(path)
    path.write_text("a,a\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 1.*duplicate"):
        read_recording_csv(path)
    path.write_text("a,,b\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="line 1.*empty derivation"):
        read_recording_csv(path)
    path.write_text("# fs=fast\na\n1.0\n")
    with pytest.raises(ValueError, match="line 1.*sample rate"):
        read_recording_csv(path)
    path.write_text("# fs=-5\na\n1.0\n")
    with pytest.raises(ValueError, match="line 1.*positive"):
        read_recording_csv(path)


def test_a_non_finite_cell_names_its_line_and_channel(tmp_path):
    # TimeSeries refused such a column with "samples contains non-finite
    # values", naming neither.
    path = tmp_path / "rec.csv"
    path.write_text("# fs=128\na,b,c\n1.0,2.0,3.0\n# note\n\n4.0,5.0, inf\n6.0,nan,7.0\n")
    with pytest.raises(ValueError, match="^line 6: non-finite cell 'inf' in channel c$"):
        read_recording_csv(path)
    path.write_text("a,b\n1.0,2.0\n-Infinity,NaN\n")
    with pytest.raises(ValueError, match="^line 3: non-finite cell '-Infinity' in channel a$"):
        read_recording_csv(path)
    path.write_text("# fs=inf\na\n1.0\n")
    with pytest.raises(ValueError, match="^line 1: sample rate must be positive and finite$"):
        read_recording_csv(path)


def test_read_recording_rejects_empty_inputs(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="no header"):
        read_recording_csv(path)
    path.write_text("a,b\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_recording_csv(path)


def test_annotations_round_trip(tmp_path):
    path = tmp_path / "truth.csv"
    labels = {"F8-T4": True, "T4-T6": False, "Cz-Pz": True}
    write_annotations(path, labels, {"seed": 7})
    assert path.read_text().startswith("# arpsd annotations v")
    assert read_annotations(path) == labels


def test_read_annotations_fixture_file():
    labels = read_annotations(FIXTURES / "patient1_truth.csv")
    assert len(labels) == 18
    assert sum(labels.values()) == 9
    assert labels["F8-T4"] is True
    assert labels["Fp2-F8"] is False


def test_read_annotations_header_only_gives_empty_map(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("derivation,label\n")
    assert read_annotations(path) == {}


def test_read_annotations_parse_errors(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("name,value\na,1\n")
    with pytest.raises(ValueError, match='line 1.*"derivation,label"'):
        read_annotations(path)
    path.write_text("derivation,label\na,2\n")
    with pytest.raises(ValueError, match="line 2.*0 or 1"):
        read_annotations(path)
    path.write_text("derivation,label\na,1\na,0\n")
    with pytest.raises(ValueError, match="line 3.*duplicate"):
        read_annotations(path)
    path.write_text("derivation,label\na,1,9\n")
    with pytest.raises(ValueError, match="line 2.*expected 2"):
        read_annotations(path)
    path.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no header"):
        read_annotations(path)


def test_detection_report_round_trip(tmp_path):
    recording, _ = simulate_recording(("a", "b", "c"), 400, 128.0, 1.0, seed=14)
    report = detect_recording(recording, RunConfig(order=4))
    path = tmp_path / "report.csv"
    write_detection_report_csv(path, report)
    text = path.read_text()
    assert text.startswith("# arpsd detect v")
    assert "method=burg" in text
    assert "derivation,flagged,dominant_band,low_band_fraction,survivor_fraction" in text
    flags = read_prediction_csv(path)
    assert flags == {d.derivation: d.flagged for d in report.per_channel}


def test_detection_report_records_channel_errors_as_comments(tmp_path):
    channels = {
        "good": TimeSeries(np.random.default_rng(1).standard_normal(400), 128.0),
        "flat": TimeSeries(np.full(400, 1.0), 128.0),
    }
    report = detect_recording(Recording(channels))
    path = tmp_path / "report.csv"
    write_detection_report_csv(path, report)
    text = path.read_text()
    assert "# error: flat: degenerate signal" in text
    assert read_prediction_csv(path) == {"good": report.per_channel[0].flagged}
    assert read_report_errors(path) == report.errors == {"flat": "degenerate signal"}
    path.write_text(text.replace("# error: flat: degenerate", "# error: flat-degenerate"))
    with pytest.raises(ValueError, match="line 3: error line names no channel"):
        read_report_errors(path)


def test_read_prediction_accepts_fixture_and_extra_columns(tmp_path):
    flags = read_prediction_csv(FIXTURES / "patient1_pred.csv")
    assert len(flags) == 18
    assert sum(flags.values()) == 6
    path = tmp_path / "pred.csv"
    path.write_text("extra,derivation,flagged\nx,a,1\ny,b,0\n")
    assert read_prediction_csv(path) == {"a": True, "b": False}


def test_read_prediction_parse_errors(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text("derivation,other\na,1\n")
    with pytest.raises(ValueError, match="line 1.*flagged"):
        read_prediction_csv(path)
    path.write_text("derivation,flagged\na,yes\n")
    with pytest.raises(ValueError, match="line 2.*0 or 1"):
        read_prediction_csv(path)
    path.write_text("derivation,flagged\na,1\na,1\n")
    with pytest.raises(ValueError, match="line 3.*duplicate"):
        read_prediction_csv(path)


def test_burst_specs_round_trip(tmp_path):
    path = tmp_path / "bursts.csv"
    path.write_text(
        "# planted rhythms\nchannel,center_hz,pole_radius,gain\nF8-T4,5.0,0.95,2.0\nT4-T6,6.5,0.9,1.0\n"
    )
    bursts = read_burst_specs(path)
    assert [b.channel for b in bursts] == ["F8-T4", "T4-T6"]
    assert bursts[0].gain == 2.0
    path.write_text("channel,center_hz,pole_radius\nF8-T4,5.0,0.95\n")
    assert read_burst_specs(path)[0].gain == 1.0
    path.write_text("channel,center_hz,pole_radius\n")
    assert read_burst_specs(path) == []


def test_burst_specs_parse_errors(tmp_path):
    path = tmp_path / "bursts.csv"
    path.write_text("channel,hz\na,5\n")
    with pytest.raises(ValueError, match="line 1.*expected header"):
        read_burst_specs(path)
    path.write_text("channel,center_hz,pole_radius\nF8-T4,fast,0.9\n")
    with pytest.raises(ValueError, match="line 2.*non-numeric"):
        read_burst_specs(path)
    path.write_text("channel,center_hz,pole_radius\nF8-T4,5.0,1.5\n")
    with pytest.raises(ValueError, match="line 2.*pole_radius"):
        read_burst_specs(path)


def test_psd_csv_format(tmp_path):
    masked = threshold_psd(ar_psd(ArModel(1, [-0.5], 1.0), 8, 128.0), 1.0)
    path = tmp_path / "psd.csv"
    write_psd_csv(path, masked, {"channel": "F8-T4"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# arpsd psd v")
    assert lines[1] == "# channel=F8-T4"
    assert lines[2] == "freq_hz,psd,psd_masked"
    assert len(lines) == 3 + 8
    freq, psd, kept = lines[3].split(",")
    assert float(freq) == 0.0
    assert float(psd) == masked.base.values[0]
    assert float(kept) in (0.0, float(psd))


PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
# Lone surrogates (category Cs) have no UTF-8 encoding, so no file holds them.
NAMES = st.lists(
    st.text(st.characters(blacklist_characters=",#\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
                          blacklist_categories=("Cs",)),
            min_size=1, max_size=6).map(str.strip).filter(bool),
    min_size=1, max_size=4, unique=True,
)
# Any finite float, with subnormals and values near +-1.7e308 drawn often.
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(1.6e308, 1.7976931348623157e308),
    st.floats(-1.7976931348623157e308, -1.6e308),
)


@PROPERTY
@given(names=NAMES, data=st.data(), fs=st.floats(1e-3, 1e6))
def test_write_then_read_recording_is_bit_exact(names, data, fs):
    n = data.draw(st.integers(1, 12))
    columns = {name: data.draw(st.lists(FLOATS, min_size=n, max_size=n)) for name in names}
    recording = Recording({name: TimeSeries(np.array(v), fs) for name, v in columns.items()})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        write_recording_csv(path, recording)
        back = read_recording_csv(path)
    assert back.names == recording.names
    assert back.sample_rate_hz == recording.sample_rate_hz
    for name in names:
        assert back[name].samples.tobytes() == recording[name].samples.tobytes()


CELLS = st.one_of(
    st.sampled_from(["1.0", "-2e-310", "1.7e308", "nan", "inf", "-Infinity", "x", "", " 3 ",
                     "1e999", "0x10", "1_0", "#", "# fs=64", "# fs=0", "# fs=inf", "# fs=nan",
                     "0", "1", "2", "0.95", "-5", "a", "# error: a: b", "# error: ", "# error: a"]),
    st.text(max_size=5),
)
LINES = st.one_of(
    st.lists(CELLS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "# comment", "# fs=256", "a,b", "a,a", "a,,b", "b,c,d",
                     "derivation,label", "derivation,flagged", "flagged,derivation,x",
                     "channel,center_hz,pole_radius", "channel,center_hz,pole_radius,gain"]),
)
READERS = (read_recording_csv, read_annotations, read_prediction_csv, read_report_errors,
           read_burst_specs)
HEADERS = ("", "a,b\n", "a,b,c\n", "derivation,label\n", "derivation,flagged\n",
           "channel,center_hz,pole_radius\n", "channel,center_hz,pole_radius,gain\n")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(lines=st.lists(LINES, max_size=8), header=st.sampled_from(HEADERS),
       reader=st.sampled_from(READERS))
def test_fuzzed_recording_files_raise_only_line_numbered_errors(lines, header, reader):
    # Every reader of the package's CSV formats, on fuzzed files.
    text = header + "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        path.write_text(text, encoding="utf-8")
        try:
            reader(path)
        except ValueError as exc:
            message = str(exc)
        else:
            return
    count = len(text.splitlines())
    found = re.match(r"line (\d+): ", message)
    if found:
        assert 1 <= int(found.group(1)) <= count
        return
    # The two errors about the whole file, when it has no line to blame.
    content = [raw.strip() for raw in text.splitlines() if raw.strip()]
    data = [line for line in content if not line.startswith("#")]
    assert (message, len(data)) in (("no header row found", 0), ("no data rows found", 1))


# One-line text: no character that str.splitlines() breaks at.
LINE_TEXT = st.text(st.characters(blacklist_characters="\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
                                  blacklist_categories=("Cs",)))


@PROPERTY
@given(names=NAMES, data=st.data())
def test_write_then_read_annotations(names, data):
    labels = {name: data.draw(st.booleans()) for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "truth.csv"
        write_annotations(path, labels, {"seed": 7})
        assert read_annotations(path) == labels


@PROPERTY
@given(names=NAMES, data=st.data())
def test_write_then_read_report_flags_and_errors(names, data):
    errored = data.draw(st.lists(st.sampled_from(names), unique=True))
    decisions = tuple(
        ChannelDecision(name, data.draw(st.booleans()),
                        data.draw(st.sampled_from(["delta", "theta", "alpha", "beta", "none"])),
                        data.draw(FLOATS), data.draw(FLOATS))
        for name in names if name not in errored
    )
    errors = {name: data.draw(LINE_TEXT) for name in errored}
    report = DetectionReport(decisions, RunConfig().summary(), errors)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.csv"
        write_detection_report_csv(path, report)
        assert read_prediction_csv(path) == {d.derivation: d.flagged for d in decisions}
        assert list(read_report_errors(path).items()) == list(errors.items())


POSITIVE = st.floats(min_value=0.0, exclude_min=True)


@PROPERTY
@given(names=NAMES, data=st.data(), with_gain=st.booleans())
def test_write_then_read_burst_specs(names, data, with_gain):
    bursts = [
        BurstSpec(name, data.draw(POSITIVE),
                  data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                  data.draw(POSITIVE) if with_gain else 1.0)
        for name in names
    ]
    header = "channel,center_hz,pole_radius" + (",gain" if with_gain else "")
    rows = [
        ",".join([b.channel, repr(b.center_hz), repr(b.pole_radius)]
                 + ([repr(b.gain)] if with_gain else []))
        for b in bursts
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bursts.csv"
        path.write_text("# planted rhythms\n" + "\n".join([header] + rows) + "\n", encoding="utf-8")
        assert read_burst_specs(path) == bursts
