"""Output checks, run by the harness outside every timed region.

Each check compares the program's output with a computation from
reference.py or with a property the method must have; none compares with
stored output of the program.  The in-process fits (``burg_fit``,
``order_scan``, ``mle_fit``) are called only to obtain the coefficients
whose consequences the references then recompute.

A check returns a list of failure messages.  Detection quality (whether
exactly the burst channels are flagged) is a hard check on the long
recordings only; on 20 s recordings order 10 misses a burst channel on
about 0.3 % of seeds (seed 79 misses Cz-Pz), so there it is tallied in
``quality`` instead of failing the operation.
"""

import numpy as np

import params
import reference as ref
from arpsd import TimeSeries, burg_fit, default_montage, mle_fit, order_scan
from worker import FITTERS

FRACTION_SLACK = 1e-12  # fractions are ratios of sums and may round past 1


def _data_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if line.strip() and not line.startswith("#")]
    return comments, rows


def read_matrix(path):
    """(header, float matrix) of a CSV with '#' comments."""
    _, rows = _data_lines(path)
    header = rows[0].split(",")
    matrix = np.loadtxt(rows[1:], delimiter=",", ndmin=2)
    return header, matrix


def read_report(path):
    comments, rows = _data_lines(path)
    header = rows[0].split(",")
    records = [dict(zip(header, row.split(","))) for row in rows[1:]]
    parsed = [
        [r["derivation"], r["flagged"] == "1", r["dominant_band"],
         float(r["low_band_fraction"]), float(r["survivor_fraction"])]
        for r in records
    ]
    errors = [c for c in comments if c.startswith("# error:")]
    return parsed, errors


def read_truth(path):
    _, rows = _data_lines(path)
    labels = {}
    for row in rows[1:]:
        name, label = row.split(",")
        labels[name] = label == "1"
    return labels


def prepared(samples):
    """Difference once, then demean, as the pipeline does."""
    x = np.diff(np.asarray(samples, dtype=np.float64), n=params.DIFF_ORDER)
    return x - x.mean()


def new_quality():
    return {"burst_channels": 0, "missed": 0, "false_alarms": 0, "burst_not_theta": 0,
            "first_miss": None}


def tally_quality(quality, rows, burst, label):
    flagged = {row[0] for row in rows if row[1]}
    for row in rows:
        if row[0] in burst:
            quality["burst_channels"] += 1
            if not row[1]:
                quality["missed"] += 1
                quality["first_miss"] = quality["first_miss"] or f"{label} {row[0]}"
            if row[2] != "theta":
                quality["burst_not_theta"] += 1
    quality["false_alarms"] += len(flagged - set(burst))


def check_decision_rows(rows, errors, montage, burst, strict, label):
    """Every channel once, no errors, fractions in [0, 1], and when
    ``strict`` exactly the burst channels flagged, each with theta dominant."""
    failures = []
    names = [row[0] for row in rows]
    if sorted(names) != sorted(montage) or len(set(names)) != len(names):
        failures.append(f"{label}: channels listed {len(names)}, expected each of {len(montage)} once")
    if errors:
        failures.append(f"{label}: errors {errors}")
    for name, _, _, low, survivors in rows:
        if not (-FRACTION_SLACK <= low <= 1.0 + FRACTION_SLACK
                and 0.0 <= survivors <= 1.0):
            failures.append(f"{label}: {name} fractions out of [0, 1]: {low}, {survivors}")
    if strict:
        flagged = {row[0] for row in rows if row[1]}
        if flagged != set(burst):
            failures.append(f"{label}: flagged {sorted(flagged)}, bursts {sorted(burst)}")
        for name, _, band, _, _ in rows:
            if name in burst and band != "theta":
                failures.append(f"{label}: burst channel {name} dominant {band}")
    return failures


def check_against_reference(row, psd, label):
    """The report row equals the decision the reference derives from ``psd``."""
    flagged, dominant, low, survivors, near = ref.masked_decision(psd, params.FS, params.K, params.RHO)
    if near:
        return []
    name, r_flagged, r_dominant, r_low, r_survivors = row
    if (r_flagged, r_dominant) != (flagged, dominant) or abs(r_low - low) > 1e-9 \
            or r_survivors != survivors:
        return [f"{label}: {name} reported {row[1:]}, reference "
                f"{[flagged, dominant, low, survivors]}"]
    return []


def burg_reference_psd(x):
    """PSD on the grid from an in-process Burg fit, by the reference sum."""
    fit = burg_fit(TimeSeries(x, params.FS), params.ORDER)
    return fit, ref.ar_psd(fit.model.coeffs, fit.model.sigma2, ref.psd_grid(params.GRID_SIZE))


def check_cli_files(work, n, with_psd, eval_stdout, quality):
    montage, burst = default_montage(), params.STANDARD_BURSTS
    strict = n >= params.LONG_N
    failures = []
    header, data = read_matrix(work / "rec.csv")
    if header != list(montage):
        failures.append(f"recording header {header}")
    if data.shape != (n, len(montage)):
        failures.append(f"recording shape {data.shape}, expected {(n, len(montage))}")
        return failures
    truth = read_truth(work / "truth.csv")
    if sorted(truth) != sorted(montage) or {k for k, v in truth.items() if v} != set(burst):
        failures.append(f"truth labels {truth}")
    columns = dict(zip(header, data.T))
    for name in burst:
        centroid = ref.periodogram_centroid_hz(columns[name], params.FS)
        if abs(centroid - params.BURST_HZ) > 1.0:
            failures.append(f"{name}: periodogram centred at {centroid} Hz")
    rows, errors = read_report(work / "report.csv")
    failures += check_decision_rows(rows, errors, montage, burst, strict, "report")
    tally_quality(quality, rows, burst, "report")
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for name, flagged, *_ in rows:
        label = truth.get(name, False)
        counts[("t" if flagged == label else "f") + ("p" if flagged else "n")] += 1
    expected = f"tp={counts['tp']} fp={counts['fp']} tn={counts['tn']} fn={counts['fn']}"
    if expected not in eval_stdout.splitlines():
        failures.append(f"eval printed {eval_stdout.splitlines()[:1]}, expected {expected}")
    grid_hz = np.linspace(0.0, params.FS / 2.0, params.GRID_SIZE)
    for row in rows:
        name = row[0]
        fit, psd = burg_reference_psd(prepared(columns[name]))
        failures += check_against_reference(row, psd, "report")
        if not with_psd:
            continue
        _, table = read_matrix(work / "psd" / (name.replace("/", "_") + ".csv"))
        freq, value, kept = table.T
        if ref.rel_err(freq, grid_hz) > 1e-12:
            failures.append(f"{name}: psd grid is not linspace(0, fs/2, {params.GRID_SIZE})")
        level = params.K * value.mean()
        clear = np.abs(value - level) > 1e-9 * level
        if np.any((kept != 0.0) & (kept != value)):
            failures.append(f"{name}: psd_masked is neither 0 nor psd")
        if np.any(((kept != 0.0) != (value >= level)) & clear):
            failures.append(f"{name}: psd_masked non-zero set differs from psd >= k mean")
        if ref.rel_err(value, psd) > 1e-9:
            failures.append(f"{name}: psd differs from the direct sum by {ref.rel_err(value, psd):.3g}")
    return failures


def check_wide(report, recording, quality):
    montage, burst = params.wide_montage(), params.wide_bursts()
    rows = report["per_channel"]
    failures = check_decision_rows(rows, report["errors"], montage, burst, True, "wide")
    tally_quality(quality, rows, burst, "wide")
    by_name = {row[0]: row for row in rows}
    subset = (burst[0], burst[1], montage[1], montage[-1])
    for name in subset:
        x = prepared(recording[name].samples)
        fit, psd = burg_reference_psd(x)
        ks = fit.reflection_coeffs
        if np.any(np.abs(ks) > 1.0):
            failures.append(f"{name}: |k| > 1")
        centered = x - x.mean()
        if ref.rel_err(fit.prediction_error_by_order, ref.error_profile(centered, ks)) > 1e-10:
            failures.append(f"{name}: error profile breaks E_m = E_m-1 (1 - k_m^2)")
        if np.max(np.abs(fit.model.coeffs - ref.step_up(ks))) > 1e-12:
            failures.append(f"{name}: coefficients differ from the step-up of k")
        if abs(ks[0] - ref.burg_k1(centered)) > 1e-12:
            failures.append(f"{name}: k1 {ks[0]} != {ref.burg_k1(centered)}")
        if name in by_name:
            failures += check_against_reference(by_name[name], psd, "wide")
    return failures


def check_epochs(reports, recordings, quality):
    """Returns {"epochs-auto/<index>": failure messages}."""
    montage, burst = default_montage(), params.STANDARD_BURSTS
    failures = {}
    for index, recording in enumerate(recordings):
        found = failures.setdefault(f"epochs-auto/{index}", [])
        for method in params.AUTO_METHODS:
            label = f"epochs-auto/{index} {method}"
            report = reports[f"epochs-auto/{index}:{method}"]
            rows = report["per_channel"]
            found += check_decision_rows(rows, report["errors"], montage, burst, False, label)
            tally_quality(quality, rows, burst, label)
            for row in rows:
                x = prepared(recording[row[0]].samples)
                scan = order_scan(TimeSeries(x, params.FS), p_max=params.P_MAX, method=method,
                                  criterion=params.CRITERION, grid_size=params.GRID_SIZE)
                fit = FITTERS[method][1](TimeSeries(x, params.FS), scan.selected_p)
                psd = ref.ar_psd(fit.model.coeffs, fit.model.sigma2, ref.psd_grid(params.GRID_SIZE))
                found += check_against_reference(row, psd, label)
    recording = recordings[0]
    for name in (burst[0], montage[0]):
        x = prepared(recording[name].samples)
        series = TimeSeries(x, params.FS)
        r = ref.biased_autocov(x, params.P_MAX)
        for method in params.AUTO_METHODS:
            scan = order_scan(series, p_max=params.P_MAX, method=method,
                              criterion=params.CRITERION, grid_size=params.GRID_SIZE)
            sigma2 = [score.sigma2 for score in scan.per_order]
            if scan.selected_p != ref.select_order(sigma2, x.size, params.CRITERION):
                failures["epochs-auto/0"].append(f"{name} {method}: selected p {scan.selected_p}")
            if method == "yule_walker":
                dense = [ref.yule_walker_sigma2(r, p)[0] for p in range(1, params.P_MAX + 1)]
                if ref.rel_err(sigma2, dense) > 1e-9:
                    failures["epochs-auto/0"].append(f"{name}: Yule-Walker sigma2 differs from the dense solve")
            if method == "mle":
                p = scan.selected_p
                fit = mle_fit(series, p, grid_size=params.GRID_SIZE)
                direct = ref.mle_sigma2(fit.model.coeffs, x - x.mean(), params.GRID_SIZE)
                if ref.rel_err([fit.model.sigma2, sigma2[p - 1]], [direct, direct]) > 1e-9:
                    failures["epochs-auto/0"].append(f"{name}: MLE sigma2 differs from 2 trapz(|A|^2 I)")
    return failures
