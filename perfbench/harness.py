"""The benchmark harness: runs one workload and judges its outputs.

It starts at most one program process at a time (a ``python -m arpsd``
subcommand, a fresh interpreter timing an import, or worker.py) and
reaps each one before the next starts.  Entry point: run.py.
"""

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy

import checks
import params
import spans
import worker
from arpsd import default_montage

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"
PROGRAM_TIMEOUT_S = 150
IMPORT_SAMPLES = 2

# Spans that make up detect_recording's own per-channel work; the rest of
# its time is detection.overhead_s.
PIPELINE_SPANS = (
    "preprocess.difference",
    "preprocess.demean",
    "order_selection.order_scan_burg",
    "order_selection.order_scan_yule_walker",
    "order_selection.order_scan_mle",
    "estimation.burg_fit",
    "estimation.yule_walker_fit",
    "estimation.mle_fit",
    "estimation.ar_psd",
    "spectral.threshold_psd",
    "detection.classify_channel",
)
FIT_SPANS = ("estimation.burg_fit", "estimation.yule_walker_fit", "estimation.mle_fit")

# Per-layer metrics every workload reports (BENCHMARK.json "per_layer").
COMMON_LAYER_UNITS = {
    "import.numpy_s": "s",
    "import.arpsd_s": "s",
    "simulate.recording_s": "s",
    "preprocess.difference_demean_s": "s",
    "estimation.burg_fit_s": "s",
    "estimation.burg_gflops_per_s": "GFLOP/s",
    "estimation.ar_psd_s": "s",
    "estimation.fits": "count",
    "spectral.threshold_psd_s": "s",
    "spectral.band_powers_s": "s",
    "spectral.survivor_bins": "count",
    "detection.detect_recording_s": "s",
    "detection.classify_channel_s": "s",
    "detection.overhead_s": "s",
    "detection.channels": "count",
    "detection.evaluate_s": "s",
    "trace.overhead_s": "s",
}
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_s": "s"}


def program_env():
    env = dict(os.environ, **params.THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_program(argv, cwd, stdout_path=None):
    """Run one program process to its end: (wall seconds, peak RSS MB, exit code).

    The process is reaped with wait4 so that its own peak resident memory
    is read, not the high-water mark of all children.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=program_env(), stdout=out)
        timer = threading.Timer(PROGRAM_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def import_seconds(module, count):
    """Import time of ``module`` in ``count`` fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    path = WORK / "import.out"
    samples = []
    for _ in range(count):
        if run_program([sys.executable, "-c", code], WORK, path)[2] != 0:
            raise RuntimeError(f"import {module} failed")
        samples.append(float(path.read_text()))
    return samples


def within(start, seconds, rounds):
    """True while another whole round fits in the run; at least two run."""
    if len(rounds) < 2:
        return True
    elapsed = perf_counter() - start
    return elapsed * (len(rounds) + 1) / len(rounds) <= seconds


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# --- workloads, tracing off ---------------------------------------------


def write_spec(work):
    work.mkdir(parents=True, exist_ok=True)
    lines = ["channel,center_hz,pole_radius"]
    lines += [f"{name},{params.BURST_HZ},{params.POLE_RADIUS}" for name in params.STANDARD_BURSTS]
    (work / "spec.csv").write_text("\n".join(lines) + "\n")


def cli_round(work, seed, n, with_psd):
    """One screening of a simulated recording through the CLI, one
    subprocess per subcommand: {subcommand: (wall, rss, exit code)}."""
    arpsd = [sys.executable, "-m", "arpsd"]
    steps = [("simulate", ["simulate", "--spec", "spec.csv", "--seed", str(seed), "--n", str(n),
                           "--out", "rec.csv", "--truth", "truth.csv"]),
             ("detect", ["detect", "rec.csv", "--out", "report.csv"])]
    if with_psd:
        steps.append(("psd", ["psd", "rec.csv", "--all", "--out", "psd"]))
    steps.append(("eval", ["eval", "--pred", "report.csv", "--truth", "truth.csv"]))
    return {name: run_program(arpsd + args, work, work / f"{name}.out") for name, args in steps}


def output_digest(work):
    """Bytes of every file a CLI round leaves, for the determinism check."""
    names = ["rec.csv", "truth.csv", "report.csv", "eval.out"]
    blobs = [(work / name).read_bytes() for name in names]
    if (work / "psd").is_dir():
        blobs += [p.read_bytes() for p in sorted((work / "psd").iterdir())]
    return blobs


# Operation timings are taken at the fastest repetition in the run.  The
# CPU this runs on changes speed by up to 2x for seconds to minutes at a
# time (other tenants), and the fastest repetition is the figure least
# moved by that; README.md gives the measurements.


def cli_workload(seed, seconds, quality):
    """Whole rounds of both CLI parts; one operation is one part's round."""
    for part in params.CLI_PARTS:
        write_spec(WORK / "cli" / part)
    rounds, digests = [], []
    start = perf_counter()
    while within(start, seconds, rounds):
        rounds.append({part: cli_round(WORK / "cli" / part, seed, setting["n"], setting["psd"])
                       for part, setting in params.CLI_PARTS.items()})
        digests.append({part: output_digest(WORK / "cli" / part) for part in params.CLI_PARTS})
    # The last round's files are checked; every earlier round must have
    # left byte-identical files.
    failures = {
        part: checks.check_cli_files(WORK / "cli" / part, setting["n"], setting["psd"],
                                     (WORK / "cli" / part / "eval.out").read_text(), quality)
        for part, setting in params.CLI_PARTS.items()
    }
    failed_ops = []
    for index, steps_by_part in enumerate(rounds):
        for part, steps in steps_by_part.items():
            problems = [f"{part} {name} exited {code}"
                        for name, (_, _, code) in steps.items() if code]
            if digests[index][part] != digests[-1][part]:
                problems.append(f"{part}: outputs differ from the last round with the same seed")
            failed_ops.append(problems + failures[part])
    samples = {f"{part}.cli_{name}_s": [r[part][name][0] for r in rounds]
               for part, steps in rounds[0].items() for name in steps}
    figures = {name: min(values) for name, values in samples.items()}
    # A round with every subcommand at its fastest invocation.
    figures["op_s"] = sum(figures.values())
    figures["peak_rss_mb"] = max(rss for r in rounds for steps in r.values()
                                 for _, rss, _ in steps.values())
    return failed_ops, samples, figures


def worker_run(workload, seed, seconds, trace):
    work = WORK / workload
    request = work / "request.json"
    response = work / "response.json"
    request.write_text(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                   "trace": trace, "work_dir": str(work)}))
    for part in params.CLI_PARTS if workload == "cli" else ():
        write_spec(work / part)
    _, rss, code = run_program([sys.executable, str(BENCH_DIR / "worker.py"), str(request),
                                str(response)], work)
    if code != 0:
        raise RuntimeError(f"worker for {workload} exited {code}")
    return json.loads(response.read_text()), rss


def library_workload(seed, seconds, quality):
    """Whole rounds of detect_recording on the wide montage and on each
    epochs-auto recording; one operation is one recording's calls."""
    result, rss = worker_run("library", seed, seconds, 0)
    times, reports = result["times"], result["reports"]
    wide = worker.simulate(params.wide_montage(), params.LONG_N, params.wide_bursts(), seed)[0]
    failures = {"wide-montage": checks.check_wide(reports["wide-montage:burg"], wide, quality)}
    recordings = [worker.simulate(default_montage(), params.STANDARD_N, params.STANDARD_BURSTS,
                                  params.epoch_seed(seed, i))[0]
                  for i in range(params.EPOCH_BATCH)]
    failures.update(checks.check_epochs(reports, recordings, quality))
    failed_ops = []
    for label, differs in result["mismatch"]:
        problems = list(failures[label])
        if differs:
            problems.append(f"{label}: decisions differ from the first pass with the same seed")
        if not result["csv_identical"]:
            problems.append("report CSVs of two passes differ")
        failed_ops.append(problems)
    best = {key: min(values) for key, values in times.items()}
    wide_s = best["wide-montage:burg"]
    figures = {
        "op_s": sum(best.values()),
        "peak_rss_mb": rss,
        "wide-montage.detect_s": wide_s,
        "wide-montage.detect_msamples_per_s": params.WIDE_CHANNELS * params.LONG_N / 1e6 / wide_s,
    }
    channels = params.EPOCH_BATCH * len(default_montage())
    for method in params.AUTO_METHODS:
        batch_s = sum(best[f"epochs-auto/{i}:{method}"] for i in range(params.EPOCH_BATCH))
        figures[f"epochs-auto.auto_{method}_channels_per_s"] = channels / batch_s
    return failed_ops, times, figures


# --- traced run -----------------------------------------------------------


def per_op_layers(own):
    """Layer figures of one traced operation from its spans' self times."""
    row = dict(own)
    row.pop("op", None)
    stages = sum(own.get(name, 0.0) for name in PIPELINE_SPANS)
    row["detection.overhead"] = own.get("detection.detect_recording", 0.0) - stages
    row["preprocess.difference_demean"] = (own.get("preprocess.difference", 0.0)
                                          + own.get("preprocess.demean", 0.0))
    if any(name.startswith("order_selection.") for name in own):
        row["order_selection.refit"] = sum(own.get(name, 0.0) for name in FIT_SPANS)
    return {f"{name}_s": value for name, value in row.items()}


def traced_workload(workload, seed, seconds):
    """Per-layer figures of one round: each input's operation at its
    fastest repetition, summed over the inputs of the round.  Differences
    of two timings (the overheads) take each input's median instead."""
    result, _ = worker_run(workload, seed, seconds, 1)
    per_op = result["ops"]
    selfs = spans.self_times(result["spans"])
    by_input = {}
    for index, op in enumerate(per_op):
        row = per_op_layers(selfs.get(index, {}))
        row["trace.overhead_s"] = op["trace_overhead_s"]
        for name, value in row.items():
            by_input.setdefault(name, {}).setdefault(op["input"], []).append(value)
    metrics, parts = {}, {}
    for name, samples in by_input.items():
        pick = statistics.median if name.endswith("overhead_s") else min
        for label, values in samples.items():
            part = f"{label.split('/')[0]}.{name}"
            parts[part] = parts.get(part, 0.0) + pick(values)
        metrics[name] = sum(pick(values) for values in samples.values())
    counts = {}
    for op in per_op:
        counts[op["input"]] = op["counts"]
    for key, metric in (("fits", "estimation.fits"), ("survivor_bins", "spectral.survivor_bins"),
                        ("channels", "detection.channels"),
                        ("orders_scored", "order_selection.orders_scored")):
        total = sum(c[key] for c in counts.values())
        if total:
            metrics[metric] = total
    flops = sum(c["burg_flops"] for c in counts.values())
    metrics["estimation.burg_gflops_per_s"] = flops / 1e9 / metrics["estimation.burg_fit_s"]
    if result["recording_bytes"]:
        size = sum(result["recording_bytes"].values())
        metrics["io_csv.recording_bytes"] = size
        for op in ("read", "write"):
            metrics[f"io_csv.{op}_recording_mb_per_s"] = size / 1e6 / metrics[f"io_csv.{op}_recording_s"]
    metrics.update(parts)
    failed_ops = [[] if op["ok"] else ["replayed decisions differ from detect_recording"]
                  for op in per_op]
    spans.write_spans(RESULTS / f"spans-{workload}-seed{seed}.jsonl", result["spans"])
    return failed_ops, metrics


# --- runs -----------------------------------------------------------------


def machine_info():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    git = shutil.which("git")
    if git:
        top = subprocess.run([git, "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    return {"cpu": cpu, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "thread_caps": params.THREAD_CAPS}


def run_workload(workload, seed, seconds, trace):
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    quality = checks.new_quality()
    if trace:
        imports = {"import.numpy_s": import_seconds("numpy", 2 * IMPORT_SAMPLES),
                   "import.arpsd_s": import_seconds("arpsd", 2 * IMPORT_SAMPLES)}
        failed_ops, metrics = traced_workload(workload, seed, seconds)
        metrics.update({name: statistics.median(v) for name, v in imports.items()})
        reported = {name: metrics[name] for name in COMMON_LAYER_UNITS}
        units = dict(COMMON_LAYER_UNITS)
        extra = {name: value for name, value in metrics.items() if name not in reported}
        samples = {}
    else:
        # Half the import samples before the operations and half after, so
        # that they do not all fall in one slow spell of the machine.
        setup = import_seconds("arpsd", IMPORT_SAMPLES)
        run = cli_workload if workload == "cli" else library_workload
        failed_ops, samples, figures = run(seed, seconds, quality)
        setup += import_seconds("arpsd", IMPORT_SAMPLES)
        samples["setup_s"] = setup
        figures["setup_s"] = statistics.median(setup)
        reported = {name: figures[name] for name in E2E_UNITS}
        units = E2E_UNITS
        extra = {name: value for name, value in figures.items() if name not in reported}
    shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(failed_ops),
        "failed": sum(1 for f in failed_ops if f),
        "failures": sorted({msg for f in failed_ops for msg in f})[:20],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
        "extra": {name: {"value": value, "unit": unit_of(name)} for name, value in extra.items()},
        "quartiles": {name: quartiles(v) for name, v in samples.items()},
        "quality": quality,
    }


def unit_of(name):
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_channels_per_s"):
        return "channels/s"
    if name.endswith("msamples_per_s"):
        return "Msamples/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def print_summary(result):
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"attempted {result['attempted']} failed {result['failed']}")
    for section in ("metrics", "extra"):
        for name, metric in sorted(result[section].items()):
            print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    quality = result["quality"]
    if quality["burst_channels"]:
        print(f"  burst channels {quality['burst_channels']}: missed {quality['missed']}, "
              f"false alarms {quality['false_alarms']}, not theta {quality['burst_not_theta']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def run(workloads, seed, seconds, trace):
    """Run each workload, print its summary, and return the result line."""
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    info = machine_info()
    results = []
    for workload in workloads:
        result = run_workload(workload, seed, seconds, trace)
        result["machine"] = info
        name = f"{workload}-seed{seed}-trace{trace}.json"
        (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")
        print_summary(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    return {
        "correct": True,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
