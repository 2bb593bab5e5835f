#!/usr/bin/env python3
"""Compare detect_recording with a reference pipeline built on the slow kernels.

    PYTHONPATH=src python3 scripts/compare_kernels.py [--seeds 150]

The reference fits Burg with the lattice (``_burg_lattice``), which
updates the forward and backward error vectors stage by stage, and
Yule-Walker and MLE with a Levinson recursion of its own, one ``np.dot``
per order and channel; it takes the MLE variance of each order as a
trapezoid sum over the grid; evaluates |A(f)|^2 by a direct sum over the
phase matrix exp(-2j pi f i); and, under ``order="auto"``, scores every
order from that sweep and then refits at the selected order.  The masking
and flagging stages are the package's own.

Recordings are the standard 18-channel montage, 2560 and ``SHORT_N``
samples at 128 Hz, with bursts on F8-T4, T3-T5 and Cz-Pz at SNR 2.  Each
seed runs four burst shapes, (centre Hz, pole radius) = (5, 0.95), (7.5,
0.99), (2, 0.9) and (10, 0.95), through all three methods at order 10
and ``auto``.  Each recording-config is run as the package runs it, where
Burg takes the lag-product stages at both lengths.  A difference in any
channel's flag, dominant band or error counts against the
recording-config.

A second pass is exact: it composes the public stages, ``difference`` ->
``demean`` -> ``fit_sweep(...).fit`` or ``order_scan(...).fit`` -> ``ar_psd``
-> ``undifference_psd`` (under ``undifference_correction=True``) ->
``threshold_psd`` -> ``classify_channel``, one channel at a time, and
compares the decisions with ``detect_recording``'s ``per_channel`` (and the
channels that raised with its ``errors``, in order) by ``==``.  Every
recording-config runs with the correction off and on.  Besides the
2560-sample recordings above it runs ``LONG_SEEDS`` 10-minute recordings
(76,800 samples) per burst shape, which take the lag-product Burg, each at
every differencing order in ``LONG_DIFF_ORDERS`` (``detect_recording``
prepares a channel this long alone, into one row that it reuses, through
``prepare_rows``: at d = 0 no differencing pass runs, and from d = 2 on
each pass writes over its own input).  Each has two more channels, a sine
and a constant, so that the rows of one lag-product Burg call hold a
lattice fallback and an error.  It also runs ``WIDE_SEEDS`` recordings of
``WIDE_CHANNELS`` channels per burst shape, which ``detect_recording``
screens in more than two blocks.

Prints one line per pass with the counts, and for the reference
comparison the largest relative differences in sigma2 and in the PSD of
each method; exits 1 if any recording-config differs.
"""

import argparse
import itertools
import sys

import numpy as np

from arpsd import (
    ArModel,
    BurstSpec,
    Recording,
    RunConfig,
    SpectrumEstimate,
    TimeSeries,
    ar_psd,
    biased_autocov,
    classify_channel,
    default_montage,
    demean,
    detect_recording,
    difference,
    fit_sweep,
    order_scan,
    periodogram,
    simulate_recording,
    threshold_psd,
    undifference_psd,
)
from arpsd.estimation import _burg_lattice
from arpsd.order_selection import OrderScore, aic, aicc, bic, select_order

BURSTS = ((5.0, 0.95), (7.5, 0.99), (2.0, 0.9), (10.0, 0.95))
BURST_CHANNELS = ("F8-T4", "T3-T5", "Cz-Pz")
METHODS = ("burg", "yule_walker", "mle")
ORDERS = (10, "auto")
N, LONG_N, FS, SNR = 2560, 76800, 128.0, 2.0
SHORT_N = 255
LONG_SEEDS = 2
LONG_DIFF_ORDERS = (0, 1, 2)
WIDE_SEEDS = 2
WIDE_CHANNELS = 70  # more than two of detect_recording's blocks of 32


_PHASES = {}


def direct_mag2(coeffs, freqs):
    """|1 + sum_i a(i) exp(-2j pi f i)|^2 through the phase matrix.

    The matrix exp(-2j pi f i), i = 1..p, is built once per grid for the
    largest order seen; its first p columns serve every order p.
    """
    p = coeffs.size
    phases = _PHASES.get(freqs.size)
    if phases is None or phases.shape[1] < p:
        phases = np.exp(-2j * np.pi * np.outer(freqs, np.arange(1, max(p, 30) + 1)))
        _PHASES[freqs.size] = phases
    amp = 1.0 + phases[:, :p] @ coeffs
    return amp.real**2 + amp.imag**2


def levinson(r, p):
    """(coeffs_by_order, errs) of the Levinson recursion, one channel and
    one np.dot per order."""
    if r[0] <= 0.0:
        raise ValueError("degenerate autocovariance")
    coeffs_by_order, errs = [], np.empty(p + 1)
    errs[0] = r[0]
    a = np.empty(0)
    for m in range(1, p + 1):
        k = -(r[m] + np.dot(a, r[m - 1 : 0 : -1])) / errs[m - 1]
        if abs(k) >= 1.0:
            raise ValueError("non-positive-definite autocovariance")
        a = np.concatenate((a + k * a[::-1], [k]))
        errs[m] = errs[m - 1] * (1.0 - k * k)
        coeffs_by_order.append(a)
    return coeffs_by_order, errs


def reference_sweep(series, method, p_max, grid_size):
    """(coeffs_by_order, sigma2_by_order) of orders 1..p_max."""
    centered = series.samples - series.samples.mean()
    if method == "burg":
        coeffs, errs = _burg_lattice(centered, p_max)
        return [coeffs[m, : m + 1] for m in range(p_max)], errs[1:]
    r = biased_autocov(series, p_max)
    coeffs_by_order, errs = levinson(r.values, p_max)
    if method == "yule_walker":
        return coeffs_by_order, errs[1:]
    pgram = periodogram(type(series)(centered, series.sample_rate_hz), grid_size)
    freqs = pgram.freqs_normalized
    sigma2 = [2.0 * np.trapezoid(direct_mag2(a, freqs) * pgram.values, freqs) for a in coeffs_by_order]
    return coeffs_by_order, np.array(sigma2)


def reference_decision(series, name, config):
    """Fit, PSD, mask and flag of one prepared channel with the slow kernels."""
    if config.order == "auto":
        _, sigma2 = reference_sweep(series, config.method, config.p_max, config.grid_size)
        n = len(series)
        scores = [OrderScore(p, s, aic(s, n, p), aicc(s, n, p), bic(s, n, p))
                  for p, s in enumerate(map(float, sigma2), start=1)]
        p = select_order(scores, config.criterion)
    else:
        p = config.order
    coeffs_by_order, sigma2 = reference_sweep(series, config.method, p, config.grid_size)
    model = ArModel(p, coeffs_by_order[-1], sigma2[-1])
    freqs = np.linspace(0.0, 0.5, config.grid_size)
    psd = SpectrumEstimate(freqs, model.sigma2 / direct_mag2(model.coeffs, freqs), series.sample_rate_hz)
    decision = classify_channel(threshold_psd(psd, config.k), config.bands, config.rho, derivation=name)
    return decision, model.sigma2, psd.values


def package_psd(series, config):
    """sigma2 and PSD of the package's own fit, for the difference report."""
    if config.order == "auto":
        fit = order_scan(series, p_max=config.p_max, method=config.method,
                         criterion=config.criterion, grid_size=config.grid_size).fit
    else:
        fit = fit_sweep(series, config.order, config.method, config.grid_size).fit(config.order)
    return fit.model.sigma2, ar_psd(fit.model, config.grid_size, series.sample_rate_hz).values


def recordings(seeds, n, montage=default_montage(), burst_channels=BURST_CHANNELS):
    """(label, recording) for every seed and burst shape."""
    for seed in range(seeds):
        for hz, radius in BURSTS:
            bursts = [BurstSpec(name, hz, radius) for name in burst_channels]
            recording, _ = simulate_recording(montage, n, FS, 1.0, bursts, SNR, seed)
            yield f"{len(montage)} x {n} seed {seed} burst {hz} Hz/{radius}", recording


def compare_pass(seeds, label, lengths=(N,)):
    configs = differ = 0
    worst = {method: [0.0, 0.0] for method in METHODS}  # sigma2, PSD
    first = None
    inputs = itertools.chain.from_iterable(recordings(seeds, n) for n in lengths)
    for name_of_input, recording in inputs:
        prepared = {name: demean(difference(recording[name], 1)) for name in recording.names}
        for method in METHODS:
            for order in ORDERS:
                config = RunConfig(method=method, order=order)
                report = detect_recording(recording, config)
                ours = {d.derivation: (d.flagged, d.dominant_band) for d in report.per_channel}
                ours.update({name: ("error", message) for name, message in report.errors.items()})
                theirs = {}
                for name, series in prepared.items():
                    try:
                        decision, sigma2, psd = reference_decision(series, name, config)
                    except (ValueError, ArithmeticError) as exc:
                        theirs[name] = ("error", str(exc))
                        continue
                    theirs[name] = (decision.flagged, decision.dominant_band)
                    if name in report.errors:
                        continue
                    our_sigma2, our_psd = package_psd(series, config)
                    sums = worst[method]
                    sums[0] = max(sums[0], abs(our_sigma2 - sigma2) / sigma2)
                    sums[1] = max(sums[1], float(np.max(np.abs(our_psd - psd) / psd)))
                configs += 1
                if ours != theirs:
                    differ += 1
                    first = first or f"{name_of_input} {method} order {order}"
    maxima = ", ".join(f"{method} {sigma2:.2e}/{psd:.2e}" for method, (sigma2, psd) in worst.items())
    print(f"{label}: {configs} recording-configs, {differ} with a different flag set, "
          f"dominant band or error; max relative difference sigma2/PSD {maxima}"
          + (f"; first: {first}" if first else ""))
    return differ


def stages_decision(x, name, config):
    """One raw channel through the public stages, composed by hand."""
    series = demean(difference(x, config.diff_order))
    if config.order == "auto":
        fit = order_scan(series, p_max=config.p_max, method=config.method,
                         criterion=config.criterion, grid_size=config.grid_size).fit
    else:
        fit = fit_sweep(series, config.order, config.method, config.grid_size).fit(config.order)
    spectrum = ar_psd(fit.model, config.grid_size, x.sample_rate_hz)
    if config.undifference_correction and config.diff_order > 0:
        spectrum = undifference_psd(spectrum, config.diff_order)
    masked = threshold_psd(spectrum, config.k)
    return classify_channel(masked, config.bands, config.rho, derivation=name)


def with_hard_channels(recording):
    """The recording with two more channels: a sine, whose lag-product Burg
    stops at a stage and takes the lattice, and a constant, which ends in
    an error."""
    t = np.arange(recording.n_samples) / recording.sample_rate_hz
    rate = recording.sample_rate_hz
    return Recording({
        **recording.channels,
        "sine": TimeSeries(np.sin(2.0 * np.pi * 6.0 * t), rate),
        "flat": TimeSeries(np.full(t.size, 2.5), rate),
    })


def exact_pass(seeds):
    configs = differ = 0
    first = None
    wide = tuple(f"ch{i:02d}" for i in range(WIDE_CHANNELS))
    inputs = itertools.chain(
        ((*pair, (1,)) for pair in recordings(seeds, N)),
        ((label, with_hard_channels(recording), LONG_DIFF_ORDERS)
         for label, recording in recordings(LONG_SEEDS, LONG_N)),
        ((*pair, (1,)) for pair in recordings(WIDE_SEEDS, N, wide, wide[::10])),
    )
    for name_of_input, recording, diff_orders in inputs:
        grid = itertools.product(METHODS, ORDERS, (False, True), diff_orders)
        for method, order, correction, d in grid:
            config = RunConfig(method=method, order=order, undifference_correction=correction,
                               diff_order=d)
            report = detect_recording(recording, config)
            decisions, errors = [], {}
            for name in recording.names:
                try:
                    decisions.append(stages_decision(recording[name], name, config))
                except (ValueError, ArithmeticError) as exc:
                    errors[name] = str(exc)
            configs += 1
            if report.per_channel != tuple(decisions) or list(report.errors.items()) != list(errors.items()):
                differ += 1
                first = first or (f"{name_of_input} {method} order {order} "
                                  f"correction {correction} d {d}")
    print(f"public stages composed, exact: {configs} recording-configs, {differ} whose "
          f"decisions or errors are not == detect_recording's" + (f"; first: {first}" if first else ""))
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=150)
    args = parser.parse_args(argv)
    differ = exact_pass(args.seeds)
    differ += compare_pass(args.seeds, "package as shipped", (N, SHORT_N))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
