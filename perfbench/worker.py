"""The program process of the in-process workloads and of traced runs.

Usage: python3 perfbench/worker.py REQUEST.json RESPONSE.json

The harness (harness.py) starts one worker at a time and reads its peak
resident memory when it exits.  The worker generates the workload's
inputs with the program's simulator, runs as many whole rounds as fit in
the requested seconds (at least two), and writes timings, decisions and
spans to RESPONSE.json.  It judges nothing against references; the
harness does.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

import params
from reference import burg_flops
from spans import Tracer

from arpsd import (
    BurstSpec,
    RunConfig,
    ar_psd,
    band_powers,
    biased_autocov,
    burg_fit,
    classify_channel,
    default_montage,
    demean,
    detect_recording,
    difference,
    evaluate,
    mle_fit,
    order_scan,
    periodogram,
    simulate_recording,
    threshold_psd,
    yule_walker_fit,
)
from arpsd import cli
from arpsd.core import Recording
from arpsd.io_csv import (
    read_annotations,
    read_prediction_csv,
    read_recording_csv,
    write_detection_report_csv,
    write_psd_csv,
    write_recording_csv,
)

# Span name and fit call of each method, as detect_recording dispatches them.
FITTERS = {
    "burg": ("estimation.burg_fit", burg_fit),
    "yule_walker": ("estimation.yule_walker_fit", yule_walker_fit),
    "mle": ("estimation.mle_fit", lambda x, p: mle_fit(x, p, grid_size=params.GRID_SIZE)),
}


def simulate(montage, n, burst_channels, seed):
    bursts = [BurstSpec(name, params.BURST_HZ, params.POLE_RADIUS) for name in burst_channels]
    return simulate_recording(
        montage, n, params.FS, params.NOISE_SIGMA, bursts, params.SNR, seed
    )


def config_for(method="burg", order=params.ORDER):
    return RunConfig(method=method, order=order, criterion=params.CRITERION, p_max=params.P_MAX)


def decision_rows(report):
    """Report as plain data: per-channel tuples plus the error map."""
    return {
        "per_channel": [
            [d.derivation, d.flagged, d.dominant_band, d.low_band_fraction, d.survivor_fraction]
            for d in report.per_channel
        ],
        "errors": dict(report.errors),
    }


def report_bytes(report, path):
    write_detection_report_csv(path, report)
    return Path(path).read_bytes()


def replay(tr, recording, config, counts):
    """detect_recording's per-channel pipeline, one public call per span.

    Also times band_powers, and for Yule-Walker and MLE the autocovariance
    and periodogram the fit computes inside, as separate calls on the same
    prepared channel.  Returns the decisions and masked spectra by name.
    """
    decisions, masked_by_name = [], {}
    method = config.method
    fit_span, fitter = FITTERS[method]
    for name in recording.names:
        series = tr.call("preprocess.difference", difference, recording[name], config.diff_order)
        series = tr.call("preprocess.demean", demean, series)
        if config.order == "auto":
            scan = tr.call(
                f"order_selection.order_scan_{method}", order_scan, series,
                p_max=config.p_max, method=method, criterion=config.criterion,
                grid_size=config.grid_size,
            )
            p = scan.selected_p
            counts["orders_scored"] += len(scan.per_order)
        else:
            p = config.order
        fit = tr.call(fit_span, fitter, series, p)
        counts["fits"] += 1
        counts["burg_flops"] += burg_flops(len(series), p) if method == "burg" else 0
        spectrum = tr.call("estimation.ar_psd", ar_psd, fit.model, config.grid_size,
                           recording.sample_rate_hz)
        masked = tr.call("spectral.threshold_psd", threshold_psd, spectrum, config.k)
        decision = tr.call("detection.classify_channel", classify_channel, masked, config.bands,
                           config.rho, derivation=name)
        tr.call("spectral.band_powers", band_powers, masked, config.bands)
        if method != "burg":
            lags = config.p_max if config.order == "auto" else p
            tr.call("preprocess.biased_autocov", biased_autocov, series, lags)
        if method == "mle":
            tr.call("preprocess.periodogram", periodogram, series, config.grid_size)
        counts["survivor_bins"] += int(round(masked.survivor_fraction * config.grid_size))
        counts["channels"] += 1
        decisions.append(decision)
        masked_by_name[name] = masked
    return decisions, masked_by_name


def traced_detect(tr, recording, config, counts, overhead):
    """detect_recording, its traced replay, and the replay with spans off.

    The two replays swap order on every call, so that neither always runs
    on caches the other warmed.  The traced minus the untraced replay time
    is added to ``overhead["s"]``.
    """
    report = tr.call("detection.detect_recording", detect_recording, recording, config)
    seconds = {}
    overhead["calls"] += 1
    for traced in (True, False) if overhead["calls"] % 2 else (False, True):
        start = perf_counter()
        if traced:
            decisions, masked = replay(tr, recording, config, counts)
        else:
            replay(Tracer(enabled=False), recording, config, _counter())
        seconds[traced] = perf_counter() - start
    overhead["s"] += seconds[True] - seconds[False]
    replay_ok = tuple(decisions) == report.per_channel and not report.errors
    return report, masked, replay_ok


def _counter():
    return {"fits": 0, "burg_flops": 0, "orders_scored": 0, "survivor_bins": 0, "channels": 0}


def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def traced_cli_op(tr, part, seed, work, counts, overhead, files):
    """One CLI screening round: warm cli.main calls, plus direct calls to
    the functions they reach, so that each layer gets its own span."""
    n, with_psd = params.CLI_PARTS[part]["n"], params.CLI_PARTS[part]["psd"]
    rec, truth, report_path = work / "rec.csv", work / "truth.csv", work / "report.csv"
    ok = True
    with tr.span("cli.simulate_main"):
        ok &= quiet(["simulate", "--spec", str(work / "spec.csv"), "--seed", str(seed),
                     "--n", str(n), "--out", str(rec), "--truth", str(truth)]) == 0
    recording, labels = tr.call("simulate.recording", simulate, default_montage(), n,
                                params.STANDARD_BURSTS, seed)
    tr.call("io_csv.write_recording", write_recording_csv, work / "rec_copy.csv", recording)
    files[part] = (work / "rec_copy.csv").stat().st_size
    with tr.span("cli.detect_main"):
        ok &= quiet(["detect", str(rec), "--out", str(report_path)]) == 0
    recording = tr.call("io_csv.read_recording", read_recording_csv, rec)
    report, masked, replay_ok = traced_detect(tr, recording, config_for(), counts, overhead)
    tr.call("io_csv.write_report", write_detection_report_csv, work / "report_copy.csv", report)
    if with_psd:
        with tr.span("cli.psd_main"):
            ok &= quiet(["psd", str(rec), "--all", "--out", str(work / "psd")]) == 0
        parameters = config_for().summary()
        for name, spectrum in masked.items():
            tr.call("io_csv.write_psd", write_psd_csv, work / "psd_copy.csv", spectrum,
                    {"channel": name, **parameters})
    with tr.span("cli.eval_main"):
        ok &= quiet(["eval", "--pred", str(report_path), "--truth", str(truth)]) == 0
    tr.call("io_csv.read_prediction", read_prediction_csv, report_path)
    tr.call("io_csv.read_annotations", read_annotations, truth)
    tr.call("detection.evaluate", evaluate, report, labels)
    return ok and replay_ok


def library_jobs(seed):
    """(label, recording, labels, methods, order) of one library round: the
    wide montage at order 10, then each epochs-auto recording under auto."""
    wide, wide_labels = simulate(params.wide_montage(), params.LONG_N, params.wide_bursts(), seed)
    jobs = [("wide-montage", wide, wide_labels, ("burg",), params.ORDER)]
    for i in range(params.EPOCH_BATCH):
        recording, labels = simulate(default_montage(), params.STANDARD_N, params.STANDARD_BURSTS,
                                     params.epoch_seed(seed, i))
        jobs.append((f"epochs-auto/{i}", recording, labels, params.AUTO_METHODS, "auto"))
    return jobs


def resimulate(tr, label, seed):
    """Times the simulator on the job's own input size."""
    if label == "wide-montage":
        tr.call("simulate.recording", simulate, params.wide_montage(), params.LONG_N,
                params.wide_bursts(), seed)
    else:
        index = int(label.split("/")[1])
        tr.call("simulate.recording", simulate, default_montage(), params.STANDARD_N,
                params.STANDARD_BURSTS, params.epoch_seed(seed, index))


def whole_rounds_done(rounds, start, seconds):
    """Stop when another whole round would not fit; at least two run."""
    return rounds >= 2 and (perf_counter() - start) * (rounds + 1) / rounds > seconds


def run_traced(req):
    workload, seed, seconds = req["workload"], req["seed"], req["seconds"]
    work = Path(req["work_dir"])
    tr = Tracer()
    files = {}
    if workload == "cli":
        inputs = list(params.CLI_PARTS)
    else:
        jobs = library_jobs(seed)
        inputs = [job[0] for job in jobs]
    ops = []
    calls = {}  # detect_recording calls so far per input, for the replay order
    start = perf_counter()
    while True:
        for index, label in enumerate(inputs):
            tr.start_run(len(ops))
            counts, overhead = _counter(), {"s": 0.0, "calls": calls.get(label, 0)}
            with tr.span("op"):
                if workload == "cli":
                    ok = traced_cli_op(tr, label, seed, work / label, counts, overhead, files)
                else:
                    _, recording, labels, methods, order = jobs[index]
                    resimulate(tr, label, seed)
                    ok = True
                    for method in methods:
                        report, _, same = traced_detect(tr, recording, config_for(method, order),
                                                        counts, overhead)
                        tr.call("detection.evaluate", evaluate, report, labels)
                        ok &= same
            calls[label] = overhead["calls"]
            ops.append({"ok": bool(ok), "input": label, "counts": counts,
                        "trace_overhead_s": overhead["s"]})
        if whole_rounds_done(len(ops) // len(inputs), start, seconds):
            break
    return {"ops": ops, "spans": tr.spans, "recording_bytes": files}


def run_timed(req):
    """Untraced whole rounds of the library workload."""
    seed, seconds = req["seed"], req["seconds"]
    work = Path(req["work_dir"])
    jobs = library_jobs(seed)
    configs = {(method, order): config_for(method, order)
               for _, _, _, methods, order in jobs for method in methods}
    # Warm-up on one channel, so that lazy set-up is not timed.
    first = jobs[0][1]
    small = Recording({first.names[0]: first[first.names[0]]})
    for config in configs.values():
        detect_recording(small, config)
    times = {f"{label}:{m}": [] for label, _, _, methods, _ in jobs for m in methods}
    mismatch = []
    baseline, last = {}, {}
    start = perf_counter()
    rounds = 0
    while not whole_rounds_done(rounds, start, seconds):
        for label, recording, _, methods, order in jobs:
            same = True
            for method in methods:
                key = f"{label}:{method}"
                t0 = perf_counter()
                report = detect_recording(recording, configs[method, order])
                times[key].append(perf_counter() - t0)
                baseline.setdefault(key, report)
                same &= report.per_channel == baseline[key].per_channel and \
                    report.errors == baseline[key].errors
                last[key] = report
            mismatch.append([label, not same])
        rounds += 1
    # Determinism: the first and the last pass write byte-identical reports.
    csv_identical = all(
        report_bytes(baseline[key], work / "first.csv") == report_bytes(last[key], work / "last.csv")
        for key in baseline
    )
    return {
        "times": times,
        "mismatch": mismatch,
        "csv_identical": csv_identical,
        "reports": {key: decision_rows(report) for key, report in baseline.items()},
    }


def main(argv):
    request_path, response_path = argv[1], argv[2]
    req = json.loads(Path(request_path).read_text())
    result = run_traced(req) if req["trace"] else run_timed(req)
    Path(response_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
