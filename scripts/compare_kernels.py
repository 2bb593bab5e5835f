#!/usr/bin/env python3
"""Compare detect_recording with a reference pipeline built on the slow kernels.

    PYTHONPATH=src python3 scripts/compare_kernels.py [--seeds 150]

The reference fits Burg with the lattice (``_burg_lattice``), which
updates the forward and backward error vectors stage by stage; evaluates
|A(f)|^2 by a direct sum over the phase matrix exp(-2j pi f i); and, under
``order="auto"``, scores every order from that sweep and then refits at the
selected order.  The masking and flagging stages are the package's own.

Recordings are the standard 18-channel montage, 2560 samples at 128 Hz,
with bursts on F8-T4, T3-T5 and Cz-Pz at SNR 2.  Each seed runs four burst
shapes, (centre Hz, pole radius) = (5, 0.95), (7.5, 0.99), (2, 0.9) and
(10, 0.95), through all three methods at order 10 and ``auto``.  Each
recording-config is run twice: as the package runs it, and with the
lag-product Burg forced on every length, since 2560 samples fall below the
length from which the package uses it.  A difference in any channel's flag,
dominant band or error counts against the recording-config.

Prints one line per pass with the counts and the largest relative
differences in sigma2 and in the PSD; exits 1 if any flag set or dominant
band differs.
"""

import argparse
import sys

import numpy as np

from arpsd import (
    ArModel,
    BurstSpec,
    RunConfig,
    SpectrumEstimate,
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
)
from arpsd import estimation
from arpsd.estimation import _burg_lattice, _levinson_recursion
from arpsd.order_selection import OrderScore, aic, aicc, bic, select_order

BURSTS = ((5.0, 0.95), (7.5, 0.99), (2.0, 0.9), (10.0, 0.95))
BURST_CHANNELS = ("F8-T4", "T3-T5", "Cz-Pz")
METHODS = ("burg", "yule_walker", "mle")
ORDERS = (10, "auto")
N, FS, SNR = 2560, 128.0, 2.0


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


def reference_sweep(series, method, p_max, grid_size):
    """(coeffs_by_order, sigma2_by_order) of orders 1..p_max."""
    centered = series.samples - series.samples.mean()
    if method == "burg":
        coeffs_by_order, _, errs = _burg_lattice(centered, p_max)
        return coeffs_by_order, errs[1:]
    r = biased_autocov(series, p_max)
    coeffs_by_order, _, errs = _levinson_recursion(r.values, p_max)
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


def compare_pass(seeds, label):
    configs = differ = 0
    worst_sigma2 = worst_psd = 0.0
    first = None
    for seed in range(seeds):
        for hz, radius in BURSTS:
            bursts = [BurstSpec(name, hz, radius) for name in BURST_CHANNELS]
            recording, _ = simulate_recording(default_montage(), N, FS, 1.0, bursts, SNR, seed)
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
                        worst_sigma2 = max(worst_sigma2, abs(our_sigma2 - sigma2) / sigma2)
                        worst_psd = max(worst_psd, float(np.max(np.abs(our_psd - psd) / psd)))
                    configs += 1
                    if ours != theirs:
                        differ += 1
                        first = first or f"seed {seed} burst {hz} Hz/{radius} {method} order {order}"
    print(f"{label}: {configs} recording-configs, {differ} with a different flag set, "
          f"dominant band or error; max relative difference sigma2 {worst_sigma2:.2e}, "
          f"PSD {worst_psd:.2e}" + (f"; first: {first}" if first else ""))
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=150)
    args = parser.parse_args(argv)
    differ = compare_pass(args.seeds, "package as shipped")
    estimation._LAG_MIN_SAMPLES = 0
    differ += compare_pass(args.seeds, "lag-product Burg on every length")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
