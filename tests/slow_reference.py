"""The slow references that the kernel and pipeline tests compare against.

Three per-channel kernels that the fast ones replaced: a Levinson recursion
with one ``np.dot`` per order (``_dot_levinson``), the MLE variance of
every order as 2 trapz(|A|^2 I) (``_trapezoid_sweep``), and |A(f)|^2 as a
direct cosine and sine sum (``_direct_mag2``).  On them rests a reference
fit (``reference_decision``), which fits Burg with the lattice
(``_burg_lattice``) and Yule-Walker and MLE with ``_dot_levinson``; under
``order="auto"`` it scores every order of that sweep and then refits at
the selected order.

The public stages composed by hand, one channel at a time:
``difference`` -> ``demean`` -> ``fit_sweep(...).fit`` or
``order_scan(...).fit`` (``stages_fit``), then ``ar_psd`` ->
``undifference_psd`` (under the correction, at d > 0) -> ``threshold_psd``
-> ``classify_channel`` (``stages_screen``).  ``stages_outcomes`` runs a
whole recording through them, as ``detect_recording`` reports it.
"""

import math

import numpy as np

from arpsd import (
    ArModel,
    SpectrumEstimate,
    TimeSeries,
    ar_psd,
    biased_autocov,
    classify_channel,
    demean,
    difference,
    fit_sweep,
    order_scan,
    periodogram,
    threshold_psd,
    undifference_psd,
)
from arpsd.estimation import _burg_lattice, _transfer_mag2
from arpsd.order_selection import OrderScore, aic, aicc, bic, select_order


def _dot_levinson(r, p):
    """The per-channel Levinson recursion, one np.dot per order:
    ``(coeffs_by_order, ks, errs)``.  Raises the package's ValueError on a
    degenerate or non-positive-definite autocovariance."""
    if r[0] <= 0.0:
        raise ValueError("degenerate autocovariance")
    coeffs_by_order, ks, errs = [], np.empty(p), np.empty(p + 1)
    errs[0] = r[0]
    a = np.empty(0)
    for m in range(1, p + 1):
        k = -(r[m] + np.dot(a, r[m - 1 : 0 : -1])) / errs[m - 1]
        if abs(k) >= 1.0:
            raise ValueError("non-positive-definite autocovariance")
        new = np.empty(m)
        new[: m - 1] = a + k * a[::-1]
        new[m - 1] = k
        a = new
        ks[m - 1] = k
        errs[m] = errs[m - 1] * (1.0 - k * k)
        coeffs_by_order.append(a)
    return coeffs_by_order, ks, errs


def _trapezoid_sweep(coeffs_by_order, x, grid_size):
    """The MLE variance of every order as 2 trapz(|A|^2 I), one rfft row
    per order."""
    p = len(coeffs_by_order)
    rows = np.zeros((p, p))
    for order, coeffs in enumerate(coeffs_by_order, start=1):
        rows[order - 1, :order] = coeffs
    pgram = periodogram(TimeSeries(x.samples - x.samples.mean(), x.sample_rate_hz), grid_size)
    return 2.0 * np.trapezoid(_transfer_mag2(rows, grid_size) * pgram.values,
                              pgram.freqs_normalized, axis=-1)


def _direct_mag2(coeffs, grid_size):
    """|1 + sum_i a(i) exp(-2j pi f i)|^2 on the grid of ``ar_psd``, one
    cosine and one sine term per coefficient."""
    freqs = np.arange(grid_size) / (2.0 * (grid_size - 1))
    re = np.ones(grid_size)
    im = np.zeros(grid_size)
    for i, a in enumerate(coeffs, start=1):
        re += a * np.cos(2.0 * math.pi * i * freqs)
        im -= a * np.sin(2.0 * math.pi * i * freqs)
    return re * re + im * im


def _reference_sweep(series, method, p, grid_size):
    """``(coeffs_by_order, sigma2_by_order)`` of orders 1..p of one
    prepared channel, from the slow kernels."""
    if method == "burg":
        coeffs, errs = _burg_lattice(series.samples - series.samples.mean(), p)
        return [coeffs[m, : m + 1] for m in range(p)], errs[1:]
    coeffs_by_order, _, errs = _dot_levinson(biased_autocov(series, p).values, p)
    if method == "yule_walker":
        return coeffs_by_order, errs[1:]
    return coeffs_by_order, _trapezoid_sweep(coeffs_by_order, series, grid_size)


def reference_decision(series, name, config):
    """``(decision, sigma2, psd)`` of one prepared channel: the slow fit
    and |A(f)|^2, then the package's own masking and flagging."""
    if config.order == "auto":
        _, sigma2 = _reference_sweep(series, config.method, config.p_max, config.grid_size)
        n = len(series)
        scores = [OrderScore(p, s, aic(s, n, p), aicc(s, n, p), bic(s, n, p))
                  for p, s in enumerate(map(float, sigma2), start=1)]
        p = select_order(scores, config.criterion)
    else:
        p = config.order
    coeffs_by_order, sigma2 = _reference_sweep(series, config.method, p, config.grid_size)
    model = ArModel(p, coeffs_by_order[-1], sigma2[-1])
    psd = SpectrumEstimate(np.linspace(0.0, 0.5, config.grid_size),
                           model.sigma2 / _direct_mag2(model.coeffs, config.grid_size),
                           series.sample_rate_hz)
    masked = threshold_psd(psd, config.k)
    decision = classify_channel(masked, config.bands, config.rho, derivation=name)
    return decision, model.sigma2, psd.values


def stages_fit(x, config):
    """The fit of one raw channel from the public stages."""
    series = demean(difference(x, config.diff_order))
    if config.order == "auto":
        return order_scan(series, config.p_max, config.method, config.criterion,
                          config.grid_size).fit
    return fit_sweep(series, config.order, config.method, config.grid_size).fit(config.order)


def stages_screen(model, name, config, sample_rate_hz):
    """``(masked, decision)`` of one fitted model from the public stages."""
    spectrum = ar_psd(model, config.grid_size, sample_rate_hz)
    if config.undifference_correction and config.diff_order > 0:
        spectrum = undifference_psd(spectrum, config.diff_order)
    masked = threshold_psd(spectrum, config.k)
    return masked, classify_channel(masked, config.bands, config.rho, derivation=name)


def stages_outcomes(recording, config):
    """``(decisions, errors)`` of a recording, one channel at a time
    through the public stages, in the shape of ``detect_recording``'s
    ``per_channel`` and ``errors``."""
    decisions, errors = [], {}
    for name in recording.names:
        x = recording[name]
        try:
            decisions.append(stages_screen(stages_fit(x, config).model, name, config,
                                           x.sample_rate_hz)[1])
        except (ValueError, ArithmeticError) as exc:
            errors[name] = str(exc)
    return tuple(decisions), errors
