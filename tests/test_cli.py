"""End-to-end command-line workflows driven through main()."""

import subprocess
import sys
from pathlib import Path

import pytest

import arpsd
from arpsd import RunConfig, fit_channel
from arpsd.cli import main
from arpsd.io_csv import read_prediction_csv, read_recording_csv

FIXTURES = Path(__file__).parent / "fixtures"


def _write_burst_spec(path: Path) -> None:
    path.write_text(
        "channel,center_hz,pole_radius\nF8-T4,5.0,0.95\nT4-T6,5.0,0.95\n"
    )


@pytest.fixture()
def burst_workspace(tmp_path):
    spec = tmp_path / "bursts.csv"
    _write_burst_spec(spec)
    rec = tmp_path / "rec.csv"
    truth = tmp_path / "truth.csv"
    code = main(
        [
            "simulate", "--spec", str(spec), "--seed", "0",
            "--out", str(rec), "--truth", str(truth),
        ]
    )
    assert code == 0
    return tmp_path, rec, truth


def test_simulate_writes_reproducible_artifacts(burst_workspace, capsys):
    tmp_path, rec, truth = burst_workspace
    capsys.readouterr()
    assert rec.exists() and truth.exists()
    text = rec.read_text()
    assert text.startswith("# arpsd recording v")
    assert "seed=0" in text
    recording = read_recording_csv(rec)
    assert len(recording) == 18
    assert recording.n_samples == 2560
    assert recording.sample_rate_hz == 128.0


def test_detect_and_eval_on_simulated_bursts(burst_workspace, capsys):
    tmp_path, rec, truth = burst_workspace
    report = tmp_path / "report.csv"
    assert main(["detect", str(rec), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "flagged 2/18 channels: F8-T4, T4-T6" in out
    flags = read_prediction_csv(report)
    assert sum(flags.values()) == 2

    assert main(["eval", "--pred", str(report), "--truth", str(truth)]) == 0
    out = capsys.readouterr().out
    assert "tp=2 fp=0 tn=16 fn=0" in out
    assert "sensitivity: 100.00%" in out
    assert "specificity: 100.00%" in out
    assert "accuracy: 100.00%" in out


def test_eval_scores_a_report_with_an_errored_channel(burst_workspace, capsys):
    tmp_path, rec, truth = burst_workspace
    lines = rec.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    # Fp2-F8 is the first column; a constant channel cannot be fitted.
    flat = [line if i <= header else "1.0," + line.split(",", 1)[1] for i, line in enumerate(lines)]
    rec.write_text("".join(flat))
    report = tmp_path / "report.csv"
    assert main(["detect", str(rec), "--out", str(report)]) == 0
    assert "# error: Fp2-F8: degenerate signal" in report.read_text()
    capsys.readouterr()
    assert main(["eval", "--pred", str(report), "--truth", str(truth)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tp=2 fp=0 tn=15 fn=0"
    assert out[1] == "not scored (error in report): Fp2-F8"
    assert "accuracy: 100.00%" in out


def test_eval_fixture_case(capsys):
    code = main(
        [
            "eval",
            "--pred", str(FIXTURES / "patient1_pred.csv"),
            "--truth", str(FIXTURES / "patient1_truth.csv"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tp=5 fp=1 tn=8 fn=4" in out
    assert "sensitivity: 55.56%" in out
    assert "specificity: 88.89%" in out
    assert "accuracy: 72.22%" in out


def test_eval_rejects_mismatched_channel_sets(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    pred.write_text("derivation,flagged\na,1\n")
    truth.write_text("derivation,label\na,1\nb,0\n")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "missing from predictions: b" in err
    # An error line accounts for its channel; a channel in neither place does not.
    pred.write_text("# error: b: degenerate signal\n# error: c: degenerate signal\nderivation,flagged\na,1\n")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 1
    assert "channel sets do not match; missing from truth: c" in capsys.readouterr().err


def test_fit_prints_three_method_table(burst_workspace, capsys):
    tmp_path, rec, _ = burst_workspace
    capsys.readouterr()
    code = main(["fit", str(rec), "--channel", "F8-T4", "--method", "all", "--order", "4"])
    assert code == 0
    out = capsys.readouterr().out
    header = next(line for line in out.splitlines() if line.startswith("parameter"))
    assert header.split() == ["parameter", "MLE", "Yule-Walker", "Burg"]
    assert "a(1)" in out and "a(4)" in out
    assert "k(1)" in out and "k(4)" in out
    assert "sigma2e" in out


def test_fit_all_methods_auto_prints_each_at_its_own_order(tmp_path, capsys):
    # T4-T6 with one burst on F8-T4 selects order 25 for MLE and 20 for
    # Yule-Walker and Burg; the table used to stop at the first method's
    # order, and failed with an IndexError when a later one was lower.
    spec = tmp_path / "bursts.csv"
    spec.write_text("channel,center_hz,pole_radius\nF8-T4,5.0,0.95\n")
    rec = tmp_path / "rec.csv"
    assert main(["simulate", "--spec", str(spec), "--seed", "0", "--out", str(rec)]) == 0
    capsys.readouterr()
    assert main(["fit", str(rec), "--channel", "T4-T6", "--method", "all", "--order", "auto"]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["parameter"] == ["MLE", "Yule-Walker", "Burg"]
    channel = read_recording_csv(rec)["T4-T6"]
    for column, method in enumerate(["mle", "yule_walker", "burg"]):
        fit = fit_channel(channel, RunConfig(method=method, order="auto")).fit
        p = fit.model.order_p
        assert int(rows["p"][column]) == p
        for i in range(1, max(int(order) for order in rows["p"]) + 1):
            for name, values in (("a", fit.model.coeffs), ("k", fit.reflection_coeffs)):
                cell = rows[f"{name}({i})"][column]
                assert cell == (f"{values[i - 1]:.3f}" if i <= p else "-")
    assert len(set(rows["p"])) > 1


def test_fit_single_method(burst_workspace, capsys):
    tmp_path, rec, _ = burst_workspace
    capsys.readouterr()
    assert main(["fit", str(rec), "--channel", "Cz-Pz", "--method", "yw", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "Yule-Walker" in out and "Burg" not in out
    assert "a(2)" in out and "a(3)" not in out


def test_fit_unknown_channel_fails_cleanly(burst_workspace, capsys):
    tmp_path, rec, _ = burst_workspace
    assert main(["fit", str(rec), "--channel", "nope"]) == 1
    assert "unknown channel: nope" in capsys.readouterr().err


def test_order_scan_prints_selection(burst_workspace, capsys):
    tmp_path, rec, _ = burst_workspace
    capsys.readouterr()
    code = main(["order-scan", str(rec), "--channel", "F8-T4", "--p-max", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "selected p =" in out
    assert "(bic)" in out
    assert out.count("\n") >= 10  # table row per candidate order


def test_psd_writes_one_file_per_channel(burst_workspace, capsys):
    tmp_path, rec, _ = burst_workspace
    out_dir = tmp_path / "psd"
    assert main(["psd", str(rec), "--all", "--out", str(out_dir)]) == 0
    files = sorted(out_dir.glob("*.csv"))
    assert len(files) == 18
    text = files[0].read_text()
    assert text.startswith("# arpsd psd v")
    assert "freq_hz,psd,psd_masked" in text


def test_psd_single_channel(burst_workspace, capsys):
    tmp_path, rec, _ = burst_workspace
    out_dir = tmp_path / "psd-one"
    assert main(["psd", str(rec), "--channel", "F8-T4", "--out", str(out_dir)]) == 0
    assert (out_dir / "F8-T4.csv").exists()


def test_psd_requires_exactly_one_target(burst_workspace, capsys):
    tmp_path, rec, _ = burst_workspace
    out_dir = tmp_path / "psd-bad"
    assert main(["psd", str(rec), "--out", str(out_dir)]) == 1
    assert "exactly one of" in capsys.readouterr().err
    assert main(["psd", str(rec), "--channel", "F8-T4", "--all", "--out", str(out_dir)]) == 1


def test_psd_refuses_channels_that_share_a_file_name(tmp_path, capsys):
    rec = tmp_path / "rec.csv"
    rows = "\n".join(f"{i % 7 - 3.0},{(i * 5) % 11 - 5.0},{(i * 3) % 13 - 6.0}" for i in range(200))
    rec.write_text("# fs=128\nC,A/B,A_B\n" + rows + "\n")
    out_dir = tmp_path / "psd"
    assert main(["psd", str(rec), "--all", "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "'A/B'" in err and "'A_B'" in err
    assert not out_dir.exists()


def test_psd_all_writes_nothing_when_a_channel_fails(tmp_path, capsys):
    rec = tmp_path / "rec.csv"
    rows = "\n".join(f"{i % 7 - 3.0},{(i * 5) % 11 - 5.0},2.5" for i in range(200))
    rec.write_text("# fs=128\nA,B,C\n" + rows + "\n")
    out_dir = tmp_path / "psd"
    assert main(["psd", str(rec), "--all", "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert "degenerate signal" in captured.err
    assert "wrote" not in captured.out
    assert list(out_dir.glob("*")) == []


def test_missing_input_file_is_a_clean_error(tmp_path, capsys):
    assert main(["detect", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "r.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_order_value_is_a_clean_error(burst_workspace, capsys):
    tmp_path, rec, _ = burst_workspace
    assert main(["fit", str(rec), "--channel", "F8-T4", "--order", "ten"]) == 1
    assert 'positive integer or "auto"' in capsys.readouterr().err


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    assert excinfo.value.code == 2


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "arpsd", "--version"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == f"arpsd {arpsd.__version__}"
