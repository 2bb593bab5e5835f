"""AR(p) parameter estimation.

Three fitting routes share one coefficient convention (see
:class:`arpsd.core.ArModel`):

* ``yule_walker_fit`` solves the autocovariance normal equations with the
  Levinson-Durbin recursion.
* ``burg_fit`` runs the Burg recursion on the raw samples, minimizing the
  summed forward plus backward prediction error at each stage, evaluated
  from the lag products in O(m) work per stage; a stage that fails its
  conditioning test, and every stage after it, comes from the lattice
  instead.
* ``mle_fit`` reuses the Yule-Walker coefficients (the likelihood is
  maximized by the same normal equations) and estimates the innovation
  variance by integrating |A(f)|^2 I(f) against the periodogram, in
  closed form from the periodogram's circular autocovariance, with the
  trapezoid sum as the fallback where the closed form cancels.

All three return a :class:`FitResult` carrying the model, the reflection
coefficients, and the prediction-error power at every order up to p.
``fit_sweep`` fits every order up to p_max at once, and each fitter is
its order-p fit.  ``fit_sweeps`` sweeps many channels of one length with
one method, and ``fit_sweep`` is its one-channel case.  One loop and one
order check serve every method, ``BLOCK_CHANNELS`` channels at a time.
The loop reads a block's channels, when they have at most
``_ROW_SAMPLES`` samples, as rows of one matrix, and otherwise each
alone, through the same row forms of the preparation,
the centring, the lag products and the periodogram
(:mod:`arpsd.preprocess`), each one call over the rows.  The rows then
run as the lag-product stages of Burg channels or as the Levinson
recursion and MLE variance of Yule-Walker and MLE channels.  A row
kernel raises the faults of its rows (:func:`arpsd.core.raise_row_faults`),
and both the read and the fit run under :func:`arpsd.core.in_rows`,
which settles each fault on its channel.  Each channel gets the bits it
gets alone.  A sweep's
coefficients are one p x p array per recursion, whose row m - 1 holds
a(1..m) and whose diagonal holds k(1..p).
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import (
    BLOCK_CHANNELS,
    ArModel,
    ArrayFields,
    AutocovarianceSeq,
    SpectrumEstimate,
    TimeSeries,
    as_count,
    as_order,
    in_rows,
    raise_row_faults,
)
from .preprocess import autocov_rows, demean_rows, lag_products, periodogram_rows, prepare_rows

__all__ = [
    "METHODS",
    "FitResult",
    "FitSweep",
    "fit_sweep",
    "levinson_durbin",
    "yule_walker_fit",
    "burg_fit",
    "fit_sweeps",
    "mle_fit",
    "ar_psd",
    "ar_psd_rows",
    "reflection_coefficients",
    "coefficients_from_reflection",
    "is_stable",
]

METHOD_YULE_WALKER = "yule_walker"
METHOD_BURG = "burg"
METHOD_MLE = "mle"
METHODS = (METHOD_YULE_WALKER, METHOD_BURG, METHOD_MLE)

# A lag-product stage m bounds the magnitudes that its forms add by
# ||q||^2 (c(0) + 2 sum_{l=1..m} |c(l)|) (see _burg_lag_rows).  Where
# that bound exceeds this multiple of its forward-plus-backward energy
# times 1 - k^2, the recursion has lost too much to cancellation, and the
# lattice takes over from that stage.  Over 90,000 stages (3,000 signals
# of 40 to 9,000 samples at p = 30: AR(2) resonances up to pole radius
# 0.999, white noise, sines and simulated burst channels, each
# differenced 0-2 times) the stages that passed this test agreed with the
# lattice within 2.2e-13 (k absolute, errors and coefficients relative);
# at a limit of 1e3 the worst was 2.0e-12.  Simulated EEG channels of
# 2,560 samples differenced once reach at most 50 over all 30 stages.
_LAG_CANCELLATION_LIMIT = 100.0
# An MLE variance whose closed form q' C q (see _mle_sigma2) has a scale
# sum_st |q(s) q(t) c(|s - t|)| above this multiple of its value takes the
# trapezoid instead.  Over 25,560 orders (p <= 30, 2,560 samples, G = 512)
# of simulated montages differenced 0-2 times, sines in noise and AR(2)
# resonances up to pole radius 0.999, the closed form was within 4.8e-16
# times its scale ratio of the trapezoid; the orders that passed this limit
# agreed within 1.7e-13 relative, and at 1e4 the worst was 1.5e-12.  Noise
# and burst channels differenced once stay below a ratio of 70.
_MLE_CANCELLATION_LIMIT = 500.0


@dataclass(frozen=True, eq=False)
class FitResult(ArrayFields):
    """Outcome of one AR fit.

    Equal by value (see :class:`arpsd.core.ArrayFields`); not hashable.

    Attributes
    ----------
    model : ArModel
    method : str
        One of ``METHODS``.
    reflection_coeffs : np.ndarray
        Lattice reflection coefficients k(1..p); every entry has
        magnitude at most 1.
    prediction_error_by_order : np.ndarray
        Prediction-error power at orders 0..p.  Entry 0 is the sample
        variance; the sequence is non-increasing and nonnegative.
    """

    model: ArModel
    method: str
    reflection_coeffs: np.ndarray
    prediction_error_by_order: np.ndarray

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method!r}")
        ks = np.array(self.reflection_coeffs, dtype=np.float64, copy=True)
        errs = np.array(self.prediction_error_by_order, dtype=np.float64, copy=True)
        if ks.size != self.model.order_p or errs.size != self.model.order_p + 1:
            raise ValueError("reflection/error arrays do not match model order")
        ks.setflags(write=False)
        errs.setflags(write=False)
        object.__setattr__(self, "reflection_coeffs", ks)
        object.__setattr__(self, "prediction_error_by_order", errs)


def _levinson_rows(r: np.ndarray, p: int):
    """The Levinson-Durbin recursion to order p over rows of autocovariances.

    Row i of ``r`` holds r(0..p) of one channel.  Returns ``(coeffs,
    errs)``: a(1..m) of order m of row i is ``coeffs[i, m - 1, :m]``
    (zeros follow it), k(m) is ``coeffs[i, m - 1, m - 1]``, and ``errs[i]``
    holds the prediction-error powers E(0..p).  A row whose recursion
    fails is raised as its fault (:func:`arpsd.core.raise_row_faults`):
    "degenerate autocovariance" when r(0) <= 0, before any order, and
    "non-positive-definite autocovariance" at the first order where some
    row reaches |k| >= 1.

    Order m takes k = -(r(m) + sum_i a(i) r(m - i)) / E(m - 1).  The sum of
    every row comes from one matmul of (1 x m-1) by (m-1 x 1) matrices,
    which NumPy runs through the dot loop of ``np.dot``, so each row gets
    the bits of ``np.dot`` over that row.  No step mixes rows, so a row's
    arithmetic is the same however many rows share the call.
    """
    count = r.shape[0]
    raise_row_faults([None if r0 > 0.0 else "degenerate autocovariance" for r0 in r[:, 0].tolist()])
    coeffs = np.zeros((count, p, p))
    errs = np.zeros((count, p + 1))
    errs[:, 0] = r[:, 0]
    # r(p), ..., r(0), so that r(m - 1), ..., r(1) is a slice of positive
    # stride, which the dot loop hands to BLAS.
    lags = np.ascontiguousarray(r[:, p::-1])
    a = np.empty((count, 0))
    err = errs[:, 0]
    for m in range(1, p + 1):
        dots = np.matmul(a[:, np.newaxis, :], lags[:, p - m + 1 : p, np.newaxis])[:, 0, 0]
        k = -(r[:, m] + dots) / err
        raise_row_faults([
            "non-positive-definite autocovariance" if stop else None
            for stop in (np.abs(k) >= 1.0).tolist()
        ])
        new = coeffs[:, m - 1, :m]
        new[:, : m - 1] = a + k[:, np.newaxis] * a[:, ::-1]
        new[:, m - 1] = k
        a = new
        err = errs[:, m] = err * (1.0 - k * k)
    return coeffs, errs


def levinson_durbin(r: AutocovarianceSeq, p: int) -> FitResult:
    """Fit AR(p) coefficients from an autocovariance sequence.

    Solves sum_i a(i) r(l-i) = -r(l) for l = 1..p by the Levinson-Durbin
    recursion in O(p^2) operations.  The innovation variance is the
    final prediction-error power, which equals r(0) + sum_i a(i) r(i).
    This is the one-row case of the recursion :func:`fit_sweeps` runs.

    Parameters
    ----------
    r : AutocovarianceSeq
        Values r(0..max_lag) with ``max_lag >= p`` and r(0) > 0.
    p : int
        Model order, at least 1.

    Returns
    -------
    FitResult

    Raises
    ------
    ValueError
        If r(0) <= 0 ("degenerate autocovariance") or a reflection
        coefficient reaches magnitude 1 ("non-positive-definite
        autocovariance"); if p is not an integer of at least 1 (see
        :func:`arpsd.core.as_order`).
    """
    p = as_order(p)
    if r.values.size < p + 1:
        raise ValueError("need autocovariances up to lag p")
    coeffs, errs = _levinson_rows(r.values[np.newaxis, : p + 1], p)
    return _sweep(METHOD_YULE_WALKER, [(1, coeffs[0], errs[0])]).fit(p)


def yule_walker_fit(x: TimeSeries, p: int) -> FitResult:
    """Yule-Walker AR(p) fit of a signal.

    Demeans, computes the biased autocovariance to lag p, and solves the
    normal equations via :func:`levinson_durbin`.

    Raises
    ------
    ValueError
        "zero-variance signal" when the demeaned signal is identically
        zero (constant input).
    """
    return fit_sweep(x, p, METHOD_YULE_WALKER).fit(p)


def _burg_lattice(samples: np.ndarray, p: int):
    """Burg lattice sweep to order p, returning ``(coeffs, errs)``.

    Row m - 1 of the p x p array ``coeffs`` holds a(1..m) of order m
    (zeros follow it), so its diagonal holds k(1..p); ``errs`` holds the
    prediction-error powers E(0..p).  At stage m the reflection
    coefficient minimizes the summed forward and backward prediction-error
    energy,

        k_m = -2 sum f(n) b(n-1) / sum [f(n)^2 + b(n-1)^2],

    which is bounded by 1 in magnitude (Cauchy-Schwarz).  Prediction
    error follows the lattice update E_m = E_{m-1} (1 - k_m^2) from
    E_0 = mean(x^2), so the sequence is non-increasing by construction.
    """
    n = samples.size
    f = samples.astype(np.float64, copy=True)
    b = samples.astype(np.float64, copy=True)
    coeffs = np.zeros((p, p))
    errs = np.empty(p + 1)
    errs[0] = np.dot(samples, samples) / n
    a = np.empty(0)
    for m in range(1, p + 1):
        fv = f[m:]
        bv = b[m - 1 : n - 1]
        den = np.dot(fv, fv) + np.dot(bv, bv)
        if den == 0.0:
            raise ValueError("degenerate signal")
        if not math.isfinite(den):
            raise ValueError("non-finite prediction-error energy")
        k = -2.0 * np.dot(fv, bv) / den
        # Cauchy-Schwarz bounds |k| by 1 exactly; clamp 1-ulp spill.
        k = min(1.0, max(-1.0, k))
        coeffs[m - 1, : m - 1] = a + k * a[::-1]
        coeffs[m - 1, m - 1] = k
        a = coeffs[m - 1, :m]
        # fv and bv alias f and b; materialize both updates before writing.
        new_f = fv + k * bv
        new_b = bv + k * fv
        f[m:] = new_f
        b[m:] = new_b
        errs[m] = errs[m - 1] * (1.0 - k * k)
    return coeffs, errs


def _lag_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """All that the lag-product stages to order p read of each row x of N
    samples: ``[c(0..p), x(0..p-1), x(N-1), x(N-2), ..., x(N-p)]``, the
    lag products followed by the first p samples and the last p in
    reverse."""
    count, n = rows.shape
    out = np.empty((count, 3 * p + 1))
    out[:, : p + 1] = lag_products(rows, p)
    out[:, p + 1 : 2 * p + 1] = rows[:, :p]
    out[:, 2 * p + 1 :] = rows[:, : n - p - 1 : -1]
    return out


def _burg_lag_rows(rows: np.ndarray, n: int, p: int):
    """Burg stages evaluated from lag rows, one sweep per row.

    ``rows`` is the :func:`_lag_rows` of channels of n samples each.  With
    the polynomial
    q = [1, a(1..m)], stage m + 1 sums the forward errors
    f(t) = sum_i q(i) x(t - i) and the backward errors
    b(t - 1) = sum_i q(i) x(t - 1 - m + i) over t = m+1..N-1.  The forward
    energy is q' F q, with F(i, j) = sum_t x(t - i) x(t - j): the Toeplitz
    matrix of the lag products c(|i - j|) less the products of the first
    and last samples that the window leaves out.  The backward energy is
    the same form on the reversed samples, and the cross product sum f b is
    q against the backward side's C q shifted by one.

    Each side keeps the first row of its matrix and the vector C q.  From
    one stage to the next the window loses x(m) (on the backward side, its
    reversed x(N-1-m)), so the first row loses x(m) x(m-1-j), C q loses
    the order-m prediction error at x(m) times x(m-j), and C q gains entry
    m + 1 from the other side's first row: O(m) products per stage.  The
    energies and the cross product are then dot products with q, and as
    the lattice steps q up to q + k reverse(q), each side's C q steps up to
    C q + k reverse(C q of the other side) (Vos, "A fast implementation
    of Burg's method", 2013; the silk codec's ``burg_modified``).  No
    length-N vector is touched after the p + 1 dot products.

    No step mixes rows, so a row's arithmetic is the same however many
    rows share the call, and it depends on the stage only, so a sweep to
    p is a prefix of a sweep to any larger order.

    C q carries the rounding of every earlier stage, and the forms cancel
    where q predicts well.  The magnitudes that a stage's forms add are at
    most ||q||^2 times the largest row sum c(0) + 2 sum_{l=1..m} |c(l)| of
    the Toeplitz matrix of |c|, and the error power takes an error in k
    2 |k| / (1 - k^2) times over.  A row stops at the first stage whose
    energy is not positive or not finite, or where that bound exceeds
    ``_LAG_CANCELLATION_LIMIT`` times its energy times 1 - k^2 (which also
    stops |k| >= 1 and a k that is not a number); the other rows go on
    without it.
    Returns ``(coeffs, errs, passed)``: ``coeffs[r]`` and ``errs[r]`` are
    the lattice's pair of row r (see :func:`_burg_lattice`) up to stage
    ``passed[r]``, the last that passed; above it they hold no fit.
    """
    count = rows.shape[0]
    lags = rows[:, : p + 1]
    # edges[r]: the samples x(0..p-1) and the reversed x(N-1..N-p), which
    # leave the windows one per stage, then the first rows of the backward
    # and forward correlation matrices (the backward side is the forward
    # one on the reversed samples) without their diagonals.
    edges = np.empty((count, 4, p))
    edges[:, :2] = rows[:, p + 1 :].reshape(count, 2, p)
    edges[:, 2:] = lags[:, np.newaxis, 1:]
    # forms[r]: C q of the forward side, q = [1, a(1..m)], and C q of the
    # backward side.  Reversing both axes turns each side's vector into the
    # other's and q into reverse(q), so one step-up serves all three.
    forms = np.zeros((count, 3, p + 2))
    forms[:, ::2, 0] = lags[:, :1]
    forms[:, 1, 0] = 1.0
    coeffs = np.zeros((count, p, p))
    done = np.full(count, p)
    alive = np.arange(count)
    live = slice(None)  # the rows still running: all of them, or alive
    # A row whose sums overflow or cancel to nothing fails the checks
    # below, and the lattice, under the caller's error state, takes over.
    with np.errstate(all="ignore"):
        # c(0) + 2 sum_{l=1..m} |c(l)| at stage m, over the limit.
        bound = np.cumsum(np.abs(lags[:, :p]) * np.r_[1.0, np.full(p - 1, 2.0)], axis=1)
        bound /= _LAG_CANCELLATION_LIMIT
        for m in range(p):
            poly = forms[:, np.newaxis, 1, : m + 1]
            if m:
                # x(m) x(m-1-j) leaves entry j of each side's first row.
                edges[:, 2:, :m] -= edges[:, 1::-1, m : m + 1] * edges[:, 1::-1, m - 1 :: -1]
            # Each side's prediction error at the sample that leaves, and
            # the entry m + 1 of C q, from the other side's first row.
            ends = (edges[:, :, m::-1] * poly).sum(axis=-1)
            forms[:, ::2, : m + 1] -= ends[:, :2, np.newaxis] * edges[:, :2, m::-1]
            forms[:, ::2, m + 1] = ends[:, 2:]
            # Forward energy, |q|^2 and backward energy; the cross product.
            energy, norm, energy_b = (forms[:, :, : m + 1] * poly).sum(axis=-1).T
            cross = (forms[:, 2, m + 1 : 0 : -1] * poly[:, 0]).sum(axis=-1)
            den = energy + energy_b
            k = -2.0 * cross / den
            keep = (den > 0.0) & (den < np.inf) & (norm * bound[:, m] <= (1.0 - k * k) * den)
            if not keep.all():
                done[alive[~keep]] = m
                alive, edges, forms, bound, k = (
                    values[keep] for values in (alive, edges, forms, bound, k)
                )
                live = alive
                if not alive.size:
                    break
            forms[:, :, : m + 2] += k[:, np.newaxis, np.newaxis] * forms[:, ::-1, m + 1 :: -1]
            coeffs[live, m, : m + 1] = forms[:, 1, 1 : m + 2]
    ks = np.diagonal(coeffs, axis1=1, axis2=2)
    # E(m + 1) = E(m) (1 - k^2) from E(0) = c(0) / N, one product at a time.
    errs = np.cumprod(np.concatenate((rows[:, :1] / n, 1.0 - ks * ks), axis=1), axis=1)
    return coeffs, errs, done


def _lag_block(block, p: int, n: int, samples: Callable[[int], np.ndarray]) -> list:
    """The outcome of each channel in ``block``, ``(index, lag row)``
    each of a channel of n samples, from one :func:`_burg_lag_rows` call.
    A row that stops short of p has its centred samples ``samples(index)``
    read again, and the lattice, run from the start, serves the orders
    from the stage that failed.  Each sweep holds arrays of its own, so
    that none keeps the block's arrays alive."""
    indices, rows = zip(*block)
    coeffs, errs, passed = _burg_lag_rows(np.array(rows), n, p)
    outcomes = []
    for row, (index, done) in enumerate(zip(indices, passed.tolist())):
        # Each sweep serves the orders from its first on; the lattice
        # takes the orders from a failed check on.
        stages = []
        if done:
            stages.append((1, coeffs[row, :done, :done].copy(), errs[row, : done + 1].copy()))
        try:
            if done < p:
                stages.append((done + 1, *_burg_lattice(samples(index), p)))
            outcomes.append(_sweep(METHOD_BURG, stages))
        except (ValueError, ArithmeticError) as exc:
            outcomes.append(exc)
    return outcomes


def burg_fit(x: TimeSeries, p: int, demean: bool = True) -> FitResult:
    """Burg AR(p) fit of a signal.

    Parameters
    ----------
    x : TimeSeries
        At least p + 2 samples.
    p : int
        Model order, at least 1.
    demean : bool
        Subtract the sample mean first (the default, matching the
        zero-mean process model).  Pass False to fit the raw samples,
        e.g. when checking the recursion arithmetic on tiny hand-built
        inputs whose mean carries the signal.

    Raises
    ------
    ValueError
        "degenerate signal" when a lattice denominator vanishes
        (identically zero residuals), "non-finite prediction-error
        energy" when it overflows.
    """
    if demean:
        return fit_sweep(x, p, METHOD_BURG).fit(p)
    n = x.samples.size
    _check_order(n, p)
    (row,) = _lag_rows(x.samples[np.newaxis], p)
    (outcome,) = _lag_block([(0, row)], p, n, lambda _: x.samples)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome.fit(p)


def _mle_sigma2(coeffs: np.ndarray, autocovs: np.ndarray, pgrams: np.ndarray) -> np.ndarray:
    """Innovation variance by spectral matching, for every order of every row.

    sigma^2 = integral over [-1/2, 1/2] of |A(f)|^2 I(f) df, taken as twice
    the trapezoidal integral of |A(f_j)|^2 I(f_j) over the G grid points
    f_j = j / M of [0, 1/2], M = 2 (G - 1).  Unfolded to the whole circle,
    that is the mean of |A|^2 I over the M Fourier frequencies, so with the
    circular autocovariance c = irfft(I, M) of the periodogram it is the
    quadratic form

        sigma^2(p) = q' C q,  q = [1, a(1..p)],  C(s, t) = c(|s - t|),

    which this takes for each order from the rows' own coefficients.
    ``coeffs`` is the coefficient array of :func:`_levinson_rows`; row i
    of ``autocovs`` holds c(0..p), and ``pgrams[i]`` the periodogram
    values I(f_0..f_{G-1}).  No step mixes rows, and the sums of order p run over
    its p + 1 taps only, so an order's variance is the same whatever order
    its sweep runs to and however many rows share the call.

    The trapezoid's terms are all nonnegative, but the form's are not, and
    on a spectrum as sharp as a sine's they cancel.  An order whose scale
    sum_st |q(s) q(t) c(|s - t|)| exceeds ``_MLE_CANCELLATION_LIMIT``
    times its form (or whose form is not positive) takes the trapezoid
    sum 2 trapz(|A(f_j)|^2 I(f_j)) itself, with |A|^2 from one rfft of its
    polynomial (:func:`_transfer_mag2`).
    """
    count, p = coeffs.shape[:2]
    taps = np.arange(p + 1)
    lags = np.abs(taps[:, np.newaxis] - taps)
    polys = np.ones((count, p + 1))
    sigma2, scale = np.empty((2, count, p))
    for m in range(1, p + 1):
        polys[:, 1 : m + 1] = coeffs[:, m - 1, :m]
        q = polys[:, : m + 1]
        # C(s, t) q(t), whose magnitudes are the scale's |C(s, t) q(t)|.
        products = autocovs.take(lags[: m + 1, : m + 1], axis=1)
        products *= q[:, np.newaxis, :]
        sigma2[:, m - 1] = (q * products.sum(axis=-1)).sum(axis=-1)
        scale[:, m - 1] = (np.abs(q) * np.abs(products, out=products).sum(axis=-1)).sum(axis=-1)
    rows, orders = np.nonzero(~(scale <= _MLE_CANCELLATION_LIMIT * sigma2))
    if rows.size:
        # One rfft and one trapezoid call over the rows of (row, order)
        # pairs give each pair the bits of its own one-dimensional calls.
        values = np.array([pgrams[row] for row in rows.tolist()])
        amp2 = _transfer_mag2(coeffs[rows, orders], values.shape[1])
        freqs = np.linspace(0.0, 0.5, values.shape[1])
        sigma2[rows, orders] = 2.0 * np.trapezoid(amp2 * values, freqs, axis=-1)
    return sigma2


def mle_fit(x: TimeSeries, p: int, grid_size: int = 512) -> FitResult:
    """Approximate maximum-likelihood AR(p) fit.

    For a Gaussian AR process the likelihood equations for the
    coefficients reduce to the Yule-Walker normal equations, so the
    coefficient vector equals the :func:`yule_walker_fit` result exactly.
    The innovation variance is re-estimated by integrating the squared
    transfer function against the periodogram of the demeaned signal on
    a ``grid_size``-point frequency grid, as the trapezoid rule does.  It
    is evaluated in closed form, as q' C q with q = [1, a(1..p)] and C the
    Toeplitz matrix of the periodogram's circular autocovariance; where
    that form cancels (a spectrum as sharp as a sine's), the trapezoid sum
    itself is taken (see :func:`_mle_sigma2`).  The error profile
    documents the coefficient recursion; the spectral variance estimate
    lives only in ``model.sigma2``.

    Raises
    ------
    ValueError
        "grid too coarse for order" when ``grid_size < 2 p``.
    """
    return fit_sweep(x, p, METHOD_MLE, grid_size).fit(p)


@dataclass(frozen=True, eq=False)
class FitSweep(ArrayFields):
    """AR fits of every order 1..p_max from one order-recursive sweep.

    Levinson and Burg compute order p on the way to any higher order, so
    ``fit(p)`` is bit for bit the fit that ``yule_walker_fit``,
    ``burg_fit`` or ``mle_fit`` returns at order p on the same input.
    Equal by value (see :class:`arpsd.core.ArrayFields`); not hashable.
    Its arrays are its own and read-only.

    Attributes
    ----------
    method : str
        One of ``METHODS``.
    sigma2_by_order : np.ndarray
        Innovation variance of the fits of order 1..p_max.
    stages : tuple
        ``(first_order, coeffs, errs)`` recursions, each serving the
        orders from its first order on.  Row m - 1 of the square array
        ``coeffs`` holds a(1..m) of order m, so its diagonal holds the
        reflection coefficients, and ``errs`` holds the prediction-error
        powers from order 0 to the recursion's last order.  A Burg sweep
        has a second recursion when a lag-product stage fails its
        conditioning test and the lattice takes over.
    """

    method: str
    sigma2_by_order: np.ndarray
    stages: tuple

    @property
    def p_max(self) -> int:
        return self.sigma2_by_order.size

    def fit(self, p: int) -> FitResult:
        """The order-p fit of the sweep, an integer 1 <= p <= p_max."""
        if as_count(p, 1) is None or p > self.p_max:
            raise ValueError(f"order {p} outside the sweep's 1..{self.p_max}")
        _, coeffs, errs = next(s for s in reversed(self.stages) if s[0] <= p)
        model = ArModel(p, coeffs[p - 1, :p], self.sigma2_by_order[p - 1])
        return FitResult(model, self.method, np.diagonal(coeffs)[:p], errs[: p + 1])


def _sweep(method: str, stages, sigma2_by_order=None) -> FitSweep:
    """The sweep of ``stages``.  It owns their arrays and
    ``sigma2_by_order``, which are marked read-only here."""
    if sigma2_by_order is None:
        # Prediction-error power; a later stage overrides from its first order on.
        sigma2_by_order = np.empty(stages[-1][2].size - 1)
        for first, _, errs in stages:
            sigma2_by_order[first - 1 : errs.size - 1] = errs[first:]
    for values in (sigma2_by_order, *(array for _, *arrays in stages for array in arrays)):
        values.setflags(write=False)
    return FitSweep(method, sigma2_by_order, tuple(stages))


def fit_sweep(
    x: TimeSeries, p_max: int, method: str = METHOD_BURG, grid_size: int = 512
) -> FitSweep:
    """Fit every order 1..p_max of one method in a single sweep.

    This is the one-channel case of :func:`fit_sweeps`.

    Parameters
    ----------
    x : TimeSeries
        At least p_max + 1 samples.
    p_max : int
        Highest order, at least 1.
    method : str
        "yule_walker", "burg", or "mle".
    grid_size : int
        Periodogram grid for the MLE variance (>= 2 p_max).

    Raises
    ------
    ValueError
        As the method's fitter does at order p_max.
    """
    [[(_, outcome)]] = fit_sweeps([x], p_max, method, grid_size)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fit_sweeps(
    channels: Sequence[TimeSeries], p: int, method: str = METHOD_BURG, grid_size: int = 512,
    diff_order: int | None = None, check: Callable[[int], None] | None = None,
):
    """Sweeps to order p of each of ``channels``, which must all have the
    same sample count.

    Yields one list per block of ``BLOCK_CHANNELS`` channels, in channel
    order: ``(index, outcome)`` of each, the sweep that
    ``fit_sweep(channels[index], p, method, grid_size)`` returns, bit for
    bit, or the ValueError or ArithmeticError that it raises.  No sweep
    holds a view of a channel's samples.  An unknown ``method``, and
    channels of more than one length ("all channels must have the same
    sample count", as :class:`arpsd.core.Recording` words it), raise
    ValueError when the first block is asked for.

    With ``diff_order`` set, each channel is first prepared as
    ``demean(difference(channels[index], diff_order))``
    (:func:`arpsd.preprocess.prepare_rows`), and a channel whose
    preparation raises ends in that error.  ``check(n)``, when given, is
    called with the prepared length before the channels are fitted, then
    the method's own order check (:func:`_check_order`), and the channels
    for which either raises ValueError end in that error.

    Channels of at most ``_ROW_SAMPLES`` samples are read a block at a
    time as rows of one matrix, and each stage is one call over the rows:
    the preparation, the fitters' centring, the lag products
    (:func:`arpsd.preprocess.lag_products`) and, for MLE, the periodogram
    and its circular autocovariance.  A longer channel is read alone,
    through the same stages with one row.  The rows are read into two
    arrays made once per call.  Of a Burg channel only its lag row is
    kept (:func:`_lag_rows`), and of a Yule-Walker or MLE channel its
    autocovariances and, for MLE, its periodogram (:func:`_read_levinson`).
    These rows run a block at a time, by :func:`_lag_block` or
    :func:`_levinson_block`; a Burg channel whose lag stages stop short is
    prepared again for the lattice.  No stage mixes rows, and the read and
    the fit of a block each run under :func:`arpsd.core.in_rows`: a stage
    that raises the faults of some rows settles those channels, and the
    others run that part again without them; any other fault of a stage
    (under ``np.seterr(..., "raise")`` a floating-point one) runs the part
    again a channel at a time.  So each channel gets the outcome it gets
    alone.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    lengths = {len(x) for x in channels}
    if len(lengths) > 1:
        raise ValueError("all channels must have the same sample count")
    if not lengths:
        return
    (n,) = lengths
    burg = method == METHOD_BURG
    checks = [] if check is None else [check]
    checks.append(partial(_check_order, p=p, grid_size=grid_size if method == METHOD_MLE else None))
    blocks = [list(range(start, min(start + BLOCK_CHANNELS, len(channels))))
              for start in range(0, len(channels), BLOCK_CHANNELS)]
    # A block's short channels are copied into the rows of ``raw`` and
    # prepared and centred into those of ``out``; a long channel is
    # prepared from its own samples into ``out``'s one row.
    raw = np.empty((len(blocks[0]), n)) if n <= _ROW_SAMPLES else None
    out = np.empty((1, n) if raw is None else raw.shape)

    def centred(indices: list) -> np.ndarray:
        # The centred rows of the channels, valid until ``out`` is written.
        if raw is None:
            (index,) = indices
            rows = channels[index].samples[np.newaxis]
        else:
            rows = np.stack([channels[i].samples for i in indices], out=raw[: len(indices)])
        return _centred(rows, out[: len(indices)], diff_order, checks)

    def read(indices: list):
        rows = centred(indices)
        return _lag_rows(rows, p) if burg else _read_levinson(rows, p, method, grid_size)

    def fit(block: list) -> list:
        if burg:
            # Burg's lattice reads a channel whose lag stages stopped again.
            return _lag_block(block, p, n - (diff_order or 0), lambda index: centred([index])[0])
        return _levinson_block(block, p, method)

    for indices in blocks:
        groups = [indices] if raw is not None else [[index] for index in indices]
        rows = [row for group in groups for row in in_rows(group, read)]
        items = [row if isinstance(row, Exception) else (index, row)
                 for index, row in zip(indices, rows)]
        yield list(zip(indices, in_rows(items, fit)))


# Channels of at most this many samples are read as rows of one matrix per
# block (32 x 10,000 float64 is 2.6 MB, and the rows they are prepared into
# as much again).  Up to here the stacked lag products were faster than one
# np.dot per row and lag, and at 20,000 samples slower (32 rows at p = 30:
# 3.6 against 4.5 ms at 10,000, 8.8 against 6.8 ms at 20,000; see README).
# OpenBLAS also splits a dot product across threads only above 10,000
# elements.
_ROW_SAMPLES = 10_000


def _centred(rows: np.ndarray, out: np.ndarray, diff_order, checks) -> np.ndarray:
    """The centred samples of the equal-length ``rows``, one channel each,
    in ``out``, which has as many rows and does not overlap them:
    prepared first when ``diff_order`` is set
    (:func:`arpsd.preprocess.prepare_rows`, which raises the faults of its
    rows), and checked by each of ``checks``, which is called with the
    prepared length; a ValueError it raises is the fault of every row.
    The rows are valid until ``out`` is written again."""
    if diff_order is not None:
        rows = out = prepare_rows(rows, diff_order, out)
    try:
        for check in checks:
            check(rows.shape[1])
    except ValueError as exc:
        raise_row_faults([exc] * rows.shape[0])
    return demean_rows(rows, out)


def _check_order(n: int, p: int, grid_size: int | None = None) -> None:
    """Refuse an order that is not an integer of at least 1 (see
    :func:`arpsd.core.as_order`), n <= p samples and, when ``grid_size``
    is given, an MLE grid of fewer than 2 p points."""
    if grid_size is not None and grid_size < 2 * p:
        raise ValueError("grid too coarse for order")
    as_order(p)
    # n = p + 1 leaves exactly one term in Burg's stage-p sums, which the
    # tiny hand-check cases rely on; anything shorter has none.
    if n < p + 1:
        raise ValueError("need more samples than the model order")


def _read_levinson(centred: np.ndarray, p: int, method: str, grid_size: int) -> list:
    """``(r(0..p), spectrum)`` of each row of ``centred``, which
    :func:`_levinson_block` checks.

    ``r`` is the row's :func:`arpsd.preprocess.biased_autocov`.  For MLE
    ``spectrum`` is ``(c(0..p), I)``: the periodogram of the same centred
    row and its circular autocovariance c = irfft(I, M), M = 2 (grid_size
    - 1), both from one row function under :func:`arpsd.core.in_rows`.
    If that raises, or the periodogram is not finite, ``spectrum`` is the
    error.  For Yule-Walker it is None.
    """
    r = autocov_rows(centred, p)
    if method == METHOD_YULE_WALKER:
        return [(row, None) for row in r]

    def spectra(items):
        pgrams = periodogram_rows(centred if len(items) == len(r) else centred[items], grid_size)
        circular = np.fft.irfft(pgrams, 2 * (grid_size - 1), axis=-1)
        return list(zip(circular[:, : p + 1], pgrams))

    return list(zip(r, in_rows(list(range(len(r))), spectra)))


def _levinson_block(block, p: int, method: str) -> list:
    """The sweep of each channel in ``block``, ``(index, (r, spectrum))``
    each (see :func:`_read_levinson`), from one :func:`_levinson_rows`
    call and, for MLE, one :func:`_mle_sigma2` call.  Each sweep holds
    arrays of its own, so that none keeps the block's arrays alive.

    A channel ends in the first fault of three, each raised for its rows
    (:func:`arpsd.core.raise_row_faults`) before the next is looked for:
    an ``r`` that fails :class:`arpsd.core.AutocovarianceSeq`'s checks or
    is zero ("zero-variance signal"), checked before any work; its
    recursion; and, for MLE, a spectrum that is an error.
    """
    _, items = zip(*block)
    rows, spectra = zip(*items)
    r = np.array(rows)
    raise_row_faults([
        fault or ("zero-variance signal" if r0 == 0.0 else None)
        for fault, r0 in zip(AutocovarianceSeq.row_faults(r), r[:, 0].tolist())
    ])
    coeffs, errs = _levinson_rows(r, p)
    variances = [None] * len(block)
    if method == METHOD_MLE:
        raise_row_faults([spectrum if isinstance(spectrum, Exception) else None
                          for spectrum in spectra])
        autocovs, pgrams = zip(*spectra)
        variances = [values.copy() for values in _mle_sigma2(coeffs, np.array(autocovs), pgrams)]
    return [_sweep(method, [(1, coeffs[row].copy(), errs[row].copy())], sigma2)
            for row, sigma2 in enumerate(variances)]


def _step_down(coeff_rows: np.ndarray):
    """The step-down recursion over rows of AR coefficients.

    Returns ``(ks, unstable)``: row r of ``ks`` holds k(1..p) of row r, and
    ``unstable[r]`` is True when some |k| >= 1.  A row whose every |k| is
    below 1 takes exactly the arithmetic of a row on its own.  Once a
    stage of a row reaches |k| >= 1, the row is unstable whatever its
    lower stages hold; they divide by 1 - k^2 <= 0, which the errstate
    keeps quiet.  Zero-padding a row to a higher order adds stages with
    k = 0, which leave the lower coefficients as they are.
    """
    a = coeff_rows.T  # one coefficient per row of a, one model per column
    ks = np.empty(a.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for m in range(a.shape[0], 0, -1):
            k = ks[m - 1] = a[m - 1]
            if m > 1:
                head = a[: m - 1]
                a = (head - k * head[::-1]) / (1.0 - k * k)
    return ks.T, (np.abs(ks) >= 1.0).any(axis=0)


def reflection_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Reflection coefficients k(1..p) implied by AR coefficients.

    Runs the Levinson recursion backwards (step-down).  Raises
    ValueError("unstable AR polynomial") when any |k| >= 1, since the
    step-down division is then invalid and the model has a root on or
    outside the unit circle.
    """
    ks, unstable = _step_down(np.asarray(coeffs, dtype=np.float64).reshape(1, -1))
    if unstable[0]:
        raise ValueError("unstable AR polynomial")
    return ks[0]


def coefficients_from_reflection(ks) -> np.ndarray:
    """AR coefficients from reflection coefficients (step-up recursion)."""
    a = np.empty(0)
    for k in np.asarray(ks, dtype=np.float64):
        new = np.empty(a.size + 1)
        new[:-1] = a + k * a[::-1]
        new[-1] = k
        a = new
    return a


def is_stable(model: ArModel) -> bool:
    """True when every implied reflection coefficient has magnitude < 1."""
    if model.order_p == 0:
        return True
    try:
        reflection_coefficients(model.coeffs)
    except ValueError:
        return False
    return True


def _transfer_mag2(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """|A(f)|^2 on the grid f_j = j / (2 (G - 1)), j = 0..G-1, G = grid_size.

    A(f) = 1 + sum_i a(i) exp(-2j pi f i).  The grid is the rfft grid of
    period M = 2 (G - 1), where exp(-2j pi f_j i) has period M in i, so
    A(f_j) is the real FFT of [1, a(1..p)] folded modulo M.  A 2-D
    ``coeffs`` holds one a(1..p) per row, and the result one row of
    |A(f)|^2 per row of ``coeffs``, from one rfft over the last axis.
    """
    period = 2 * (grid_size - 1)
    lead, p = coeffs.shape[:-1], coeffs.shape[-1]
    poly = np.zeros(lead + (-(-(p + 1) // period) * period,))
    poly[..., 0] = 1.0
    poly[..., 1 : p + 1] = coeffs
    if poly.shape[-1] > period:
        poly = poly.reshape(lead + (-1, period)).sum(axis=-2)
    amp = np.fft.rfft(poly, axis=-1)
    return amp.real**2 + amp.imag**2


def ar_psd_rows(models: Sequence[ArModel], grid_size: int = 512):
    """Model spectra of several AR models on one grid, one row per model.

    Row r of the result is the spectrum :func:`ar_psd` gives
    ``models[r]``, bit for bit.  A model on which ``ar_psd`` raises,
    "unstable AR polynomial" or the check of
    :meth:`SpectrumEstimate.row_faults`, is raised as its fault (see
    :func:`arpsd.core.raise_row_faults`).

    The coefficients are zero-padded to the highest order: the padding
    adds k = 0 stages to the step-down and zero terms to the rfft, so
    neither changes.  One rfft serves every row.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    coeffs = np.zeros((len(models), max(model.order_p for model in models)))
    for row, model in zip(coeffs, models):
        row[: model.order_p] = model.coeffs
    sigma2 = np.array([model.sigma2 for model in models])[:, np.newaxis]
    unstable = _step_down(coeffs)[1]
    mag2 = _transfer_mag2(coeffs, grid_size)
    # A model with sigma2 == 0 has an all-zero spectrum, even where
    # |A(f)|^2 is 0; an unstable one has none.
    values = np.zeros_like(mag2)
    np.divide(sigma2, mag2, out=values, where=(sigma2 != 0.0) & ~unstable[:, np.newaxis])
    raise_row_faults([
        "unstable AR polynomial" if bad else fault
        for bad, fault in zip(unstable.tolist(), SpectrumEstimate.row_faults(values))
    ])
    return values


def ar_psd(model: ArModel, grid_size: int = 512, sample_rate_hz: float = 1.0) -> SpectrumEstimate:
    """Parametric power spectral density of an AR model.

        P(f) = sigma^2 / |A(f)|^2,  A(f) = 1 + sum_i a(i) exp(-2j pi f i)

    evaluated on ``grid_size`` equispaced normalized frequencies in
    [0, 0.5].  This is the one-model case of :func:`ar_psd_rows`.

    Raises
    ------
    ValueError
        "unstable AR polynomial" when the model has a reflection
        coefficient of magnitude >= 1.  A model with sigma2 == 0 yields
        an all-zero spectrum.
    """
    (values,) = ar_psd_rows([model], grid_size)
    return SpectrumEstimate(np.linspace(0.0, 0.5, grid_size), values, sample_rate_hz)
