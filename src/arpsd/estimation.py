"""AR(p) parameter estimation.

Three fitting routes share one coefficient convention (see
:class:`arpsd.core.ArModel`):

* ``yule_walker_fit`` solves the autocovariance normal equations with the
  Levinson-Durbin recursion.
* ``burg_fit`` runs the Burg recursion on the raw samples, minimizing the
  summed forward plus backward prediction error at each stage.  Long
  inputs are evaluated from lag products, with the lattice as the
  fallback on ill-conditioned input.  ``burg_sweeps`` fits many channels
  at once and runs the lag-product stages of the long ones as rows, bit
  for bit as ``fit_sweep``; ``burg_fit`` and ``fit_sweep`` are its
  one-channel case.
* ``mle_fit`` reuses the Yule-Walker coefficients (the likelihood is
  maximized by the same normal equations) and estimates the innovation
  variance by integrating |A(f)|^2 I(f) against the periodogram.

All three return a :class:`FitResult` carrying the model, the reflection
coefficients, and the prediction-error power at every order up to p.
``fit_sweep`` fits every order up to p_max at once, bit for bit as the
fitters would.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .core import ArModel, ArrayFields, AutocovarianceSeq, SpectrumEstimate, TimeSeries
from .preprocess import biased_autocov, periodogram

__all__ = [
    "METHODS",
    "FitResult",
    "FitSweep",
    "fit_sweep",
    "levinson_durbin",
    "yule_walker_fit",
    "BLOCK_CHANNELS",
    "burg_fit",
    "burg_sweeps",
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

# Burg from lag products pays some tens of microseconds of small-array
# work per stage (once per call, whatever the number of rows) and saves
# the lattice's O(n) vector updates; below this length the lattice is
# faster.  The choice depends on n only, so that an order-p fit is the
# same whatever order a sweep runs to.
_LAG_MIN_SAMPLES = 8192
# A lag-product stage whose scale sum_ij |q(i) q(j) c(|i + j - m|)| (see
# _burg_lag_rows) exceeds this multiple of its forward-plus-backward
# energy loses too much of that energy to cancellation; the lattice takes
# over from there.  Over 20,000 stages of
# AR(2) resonances (pole radius <= 0.995, p <= 30) the stages that passed
# this test agreed with the lattice within 2.5e-13 relative on the error
# profile; at a limit of 1e3 the worst was 1.4e-12.
_LAG_CANCELLATION_LIMIT = 20.0
# The lag-product stages gather O(m^2) values per row at stage m, and the
# gather indices of each stage are kept for reuse; above this order the
# lattice takes over, as from a failed stage.
_LAG_MAX_ORDER = 48
# burg_sweeps runs the lag-product stages of this many channels at once,
# and detect_recording screens fitted models in blocks of the same size.
# The largest array of a Burg stage holds rows x (5m + 5) x (m + 1)
# values: 128 kB at 32 rows and order 10, 1.2 MB at order 30.
BLOCK_CHANNELS = 32


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


def _levinson_recursion(r: np.ndarray, p: int):
    """Order-recursive solve of the Toeplitz normal equations.

    Returns the coefficient vectors for every order 1..p, the reflection
    coefficients, and the prediction-error powers E(0..p).
    """
    if p < 1:
        raise ValueError("order must be at least 1")
    if r.size < p + 1:
        raise ValueError("need autocovariances up to lag p")
    if r[0] <= 0.0:
        raise ValueError("degenerate autocovariance")
    coeffs_by_order: list[np.ndarray] = []
    ks = np.empty(p)
    errs = np.empty(p + 1)
    errs[0] = r[0]
    a = np.empty(0)
    for m in range(1, p + 1):
        acc = r[m] + np.dot(a, r[m - 1 : 0 : -1])
        k = -acc / errs[m - 1]
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


def levinson_durbin(r: AutocovarianceSeq, p: int) -> FitResult:
    """Fit AR(p) coefficients from an autocovariance sequence.

    Solves sum_i a(i) r(l-i) = -r(l) for l = 1..p by the Levinson-Durbin
    recursion in O(p^2) operations.  The innovation variance is the
    final prediction-error power, which equals r(0) + sum_i a(i) r(i).

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
        autocovariance").
    """
    coeffs_by_order, ks, errs = _levinson_recursion(r.values, p)
    model = ArModel(p, coeffs_by_order[-1], errs[p])
    return FitResult(model, METHOD_YULE_WALKER, ks, errs)


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
    return _levinson_sweep(x, p).fit(p)


def _burg_lattice(samples: np.ndarray, p: int):
    """Burg lattice sweep returning per-order coefficients, k's and errors.

    At stage m the reflection coefficient minimizes the summed forward
    and backward prediction-error energy,

        k_m = -2 sum f(n) b(n-1) / sum [f(n)^2 + b(n-1)^2],

    which is bounded by 1 in magnitude (Cauchy-Schwarz).  Prediction
    error follows the lattice update E_m = E_{m-1} (1 - k_m^2) from
    E_0 = mean(x^2), so the sequence is non-increasing by construction.
    """
    n = samples.size
    f = samples.astype(np.float64, copy=True)
    b = samples.astype(np.float64, copy=True)
    coeffs_by_order: list[np.ndarray] = []
    ks = np.empty(p)
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
        new = np.empty(m)
        new[: m - 1] = a + k * a[::-1]
        new[m - 1] = k
        a = new
        # fv and bv alias f and b; materialize both updates before writing.
        new_f = fv + k * bv
        new_b = bv + k * fv
        f[m:] = new_f
        b[m:] = new_b
        ks[m - 1] = k
        errs[m] = errs[m - 1] * (1.0 - k * k)
        coeffs_by_order.append(a)
    return coeffs_by_order, ks, errs


def _lag_row(samples: np.ndarray, p: int) -> np.ndarray:
    """All that the lag-product stages to order p read of the samples.

    With P = min(p, ``_LAG_MAX_ORDER``), the row holds the lag products
    c(0..P), a zero, the first P samples and the last P samples:
    ``[c(0..P), 0, x(0..P-1), x(N-P..N-1)]``.
    """
    n = samples.size
    p = min(p, _LAG_MAX_ORDER)
    row = np.empty(3 * p + 2)
    for lag in range(p + 1):
        row[lag] = np.dot(samples[: n - lag], samples[lag:])
    row[p + 1] = 0.0
    row[p + 2 : 2 * p + 2] = samples[:p]
    row[2 * p + 2 :] = samples[n - p :]
    return row


def _interleaved(rows: np.ndarray, p: int) -> np.ndarray:
    """Lag rows for order p, laid out for :func:`_stage_windows`: a zero,
    then for k = 0, 1, ...: -c(k), x(k), x(N-1-k) and |c(k)|.  Where a
    value sits depends on k alone, not on p."""
    lags = rows[:, : p + 1]
    out = np.zeros((rows.shape[0], 4 * p + 5))
    out[:, 1::4] = -lags
    out[:, 2 : 4 * p : 4] = rows[:, p + 2 : 2 * p + 2]
    out[:, 3 : 4 * p : 4] = rows[:, 3 * p + 1 : 2 * p + 1 : -1]
    out[:, 4::4] = np.abs(lags)
    return out


@lru_cache(maxsize=None)
def _stage_windows(m: int):
    """Gather indices of lag-product stage m, with the polynomial q(0..m).

    They index rows of :func:`_interleaved`.  Returns ``(windows, spread,
    left, right)``.  Column w of ``windows`` picks the m + 1 values whose
    products with q(0..m) add up to V(w):

    * V(0..m+1) is -T q with T(i, j) = c(|i - j|).  q'Tq is the energy of
      f = x * q and of g = x * reverse(q); their lag-one cross product is
      sum_ij q(i) q(j) c(|m + 1 - i - j|) = sum_i q(i) (Tq)(m + 1 - i);
    * the next 4m + 2 are the terms that the zero padding adds to those
      forms: f(0..m), g(N-1-m..N-1), g(0..m-1) and f(N..N+m-1);
    * the last is a zero.

    Column i of ``spread`` picks |c(|i + j - m|)|, j = 0..m, whose
    products with |q(j)| add up to S(i).  Both are laid out tap by tap, so
    that the m + 1 products of each sum are added one tap at a time.
    ``left`` and ``right`` index [V, q, |q|, S], and the products of each
    of their rows add up to one quantity of the stage: row 0 to minus the
    denominator, 2 q'Tq less the energy of the padding terms; row 1 to
    minus the cross term, less the padding's share; row 2 to the scale
    sum_ij |q(i) q(j) c(|i + j - m|)|.  Rows 1 and 2 are padded with the
    zero.
    """
    def lag(k):
        return 1 + 4 * k

    def head(k):  # x(k)
        return 2 + 4 * k

    def tail(k):  # x(N - 1 - k)
        return 3 + 4 * k

    tap = np.arange(m + 1)
    t = tap[:, np.newaxis]
    u = t[:m]
    windows = np.concatenate((
        lag(np.abs(np.arange(m + 2)[:, np.newaxis] - tap)),
        np.where(tap <= t, head(t - tap), 0),
        np.where(t + tap <= m, tail(m - t - tap), 0),
        np.where(tap >= m - u, head(u + tap - m), 0),
        np.where(tap > u, tail(tap - u - 1), 0),
        np.zeros((1, m + 1), dtype=int),
    ))
    terms = np.arange(m + 2, 5 * m + 4)
    f_head, g_tail, g_head, f_tail = np.split(terms, [m + 1, 2 * m + 2, 3 * m + 2])
    q_at, mag_at, s_at = (5 * m + 5 + block * (m + 1) + tap for block in range(3))
    pairs = (
        ((q_at, q_at, terms), (tap, tap, terms)),
        ((q_at, f_head[1:], f_tail), (m + 1 - tap, g_head, g_tail[:m])),
        ((mag_at,), (s_at,)),
    )
    width = 6 * m + 4
    pad = np.full(width, 5 * m + 4)
    left, right = (
        np.stack([np.concatenate(pair[side] + (pad,))[:width] for pair in pairs]) for side in (0, 1)
    )
    spread = 4 + 4 * np.abs(t + tap - m)
    indices = (np.ascontiguousarray(windows.T), np.ascontiguousarray(spread.T), left, right)
    for array in indices:  # shared by every caller
        array.setflags(write=False)
    return indices


def _burg_lag_rows(rows: np.ndarray, n, p: int):
    """Burg stages evaluated from lag rows, one sweep per row.

    ``rows`` stacks :func:`_lag_row` of channels of n samples each, n a
    number or a column of one length per row.  With the polynomial
    q = [1, a(1..m)], the zero-padded forward and backward error
    sequences are the full convolutions f = x * q and g = x * reverse(q).  Their energies are Toeplitz quadratic forms
    q' T q with T(i, j) = c(|i - j|), and their lag-one cross product is
    the Hankel form sum_ij q(i) q(j) c(|m + 1 - i - j|).  The lattice sums
    run over n = m+1..N-1 only, so the O(m) head and tail terms that the
    padding adds are subtracted from each form.  No length-N vector is
    touched after the p + 1 dot products (Vos, "A fast implementation of
    Burg's method", 2013).

    Each stage gathers its windows from the rows (:func:`_stage_windows`),
    multiplies them by the rows' polynomials and adds the products of
    each window one tap at a time, then adds the pair products along
    contiguous rows.  No step mixes rows, so a row's arithmetic is the
    same however many rows share the call.  It depends on the stage m
    only, so a sweep to p is a prefix of a sweep to any larger order.

    The subtractions cancel when the scale sum_ij |q(i) q(j) c(|i + j - m|)|
    is large against the stage's forward-plus-backward energy, so a row
    stops at the first stage whose scale exceeds
    ``_LAG_CANCELLATION_LIMIT`` times that energy, whose energy is not
    positive, whose sums are not finite, or whose |k| exceeds 1; the
    other rows go on without it.
    No row runs past order ``_LAG_MAX_ORDER``.  Returns the lattice's
    triple ``(coeffs_by_order, ks, errs)`` of each row for the stages that
    passed; fewer than p coefficient vectors means stage
    ``len(coeffs_by_order) + 1`` failed or lies above that order, and
    ``ks`` and ``errs`` hold no stage above it.
    """
    count = rows.shape[0]
    stages = min(p, _LAG_MAX_ORDER)
    ext = _interleaved(rows, stages)
    # q(0..m) of order m of row r is polys[r, m, :m+1]; k(m) is polys[r, m, m].
    polys = np.zeros((count, stages + 1, stages + 1))
    polys[:, :, 0] = 1.0
    done = np.full(count, stages)
    alive = np.arange(count)
    live = slice(None)  # the rows still running: all of them, or alive
    poly = polys[:, 0, :1]
    for m in range(stages):
        windows, spread, left, right = _stage_windows(m)
        mag = np.abs(poly)
        terms = np.concatenate((
            (ext.take(windows, axis=1) * poly[:, :, np.newaxis]).sum(axis=1),
            poly,
            mag,
            (ext.take(spread, axis=1) * mag[:, :, np.newaxis]).sum(axis=1),
        ), axis=1)
        # -den, -cross and the scale; den > 0 is neg_den < 0, and the
        # limit L den is -L neg_den.  An overflowed energy passes both
        # tests as -inf, so non-finite sums stop the row too.
        sums = (terms.take(left, axis=1) * terms.take(right, axis=1)).sum(axis=-1).T
        neg_den, neg_cross, scale = sums
        keep = (
            np.isfinite(sums).all(axis=0)
            & (neg_den < 0.0)
            & (scale <= neg_den * -_LAG_CANCELLATION_LIMIT)
        )
        if not keep.all():
            done[alive[~keep]] = m
            alive, ext, poly, neg_cross, neg_den = (
                a[keep] for a in (alive, ext, poly, neg_cross, neg_den)
            )
            live = alive
        k = -2.0 * neg_cross / neg_den
        keep = np.abs(k) <= 1.0
        if not keep.all():
            done[alive[~keep]] = m
            alive, ext, poly, k = (a[keep] for a in (alive, ext, poly, k))
            live = alive
        if not alive.size:
            break
        k = k[:, np.newaxis]
        polys[live, m + 1, 1 : m + 1] = poly[:, 1:] + k * poly[:, m:0:-1]
        polys[live, m + 1, m + 1 : m + 2] = k
        poly = polys[live, m + 1, : m + 2]
    ks = np.diagonal(polys[:, 1:, 1:], axis1=1, axis2=2).copy()
    # E(m + 1) = E(m) (1 - k^2) from E(0) = c(0) / N, one product at a time.
    errs = np.cumprod(np.concatenate((rows[:, :1] / n, 1.0 - ks * ks), axis=1), axis=1)
    return [
        ([polys[row, m, 1 : m + 1] for m in range(1, passed + 1)], ks[row], errs[row])
        for row, passed in enumerate(done.tolist())
    ]


def _check_burg(n: int, p: int) -> None:
    if p < 1:
        raise ValueError("order must be at least 1")
    # n = p + 1 leaves exactly one term in the stage-p sums, which the
    # tiny hand-check cases rely on; anything shorter has none.
    if n < p + 1:
        raise ValueError("need more samples than the model order")


def _centred(x: TimeSeries) -> np.ndarray:
    return x.samples - x.samples.mean()


def burg_sweeps(channel: Callable[[int], TimeSeries], count: int, p: int):
    """Burg sweeps to order p of ``channel(0)``, ..., ``channel(count - 1)``.

    Yields ``(index, outcome)`` once for each index, as soon as the
    outcome is known: the sweep that ``fit_sweep(channel(index), p,
    "burg")`` returns, bit for bit, or the ValueError or ArithmeticError
    that it, or ``channel(index)`` itself, raises.  ``channel(index)``
    may return a view that the next call overwrites; no sweep holds a
    view of it.

    A channel of fewer than ``_LAG_MIN_SAMPLES`` samples is fitted by the
    lattice as soon as it is read.  Of a longer one only the lag row is
    kept (:func:`_lag_row`), and once every channel is read the
    lag-product stages run over ``BLOCK_CHANNELS`` rows at a time
    (:func:`_burg_lag_rows`), which gives each row the bits it gets
    alone.  A row that stops short of p has its channel read again, and
    the lattice fits it from the start.
    """
    return _burg_sweeps(lambda index: _centred(channel(index)), count, p)


def _burg_sweeps(samples: Callable[[int], np.ndarray], count: int, p: int):
    """:func:`burg_sweeps` of the arrays ``samples(index)``, as they are."""
    waiting = []  # (index, n, lag row) of the long channels
    for index in range(count):
        try:
            outcome = _read_burg(samples(index), p)
        except (ValueError, ArithmeticError) as exc:
            outcome = exc
        if isinstance(outcome, tuple):
            waiting.append((index, *outcome))
        else:
            yield index, outcome
    for start in range(0, len(waiting), BLOCK_CHANNELS):
        yield from _lag_block(waiting[start : start + BLOCK_CHANNELS], p, samples)


def _read_burg(x: np.ndarray, p: int):
    """The lattice's sweep of a short array, or ``(n, lag row)`` of a long
    one.  Nothing holds ``x`` afterwards, so each array is freed before
    the next channel is read."""
    _check_burg(x.size, p)
    if x.size >= _LAG_MIN_SAMPLES:
        return x.size, _lag_row(x, p)
    return _sweep(METHOD_BURG, [(1, *_burg_lattice(x, p))])


def _lag_block(block, p: int, samples: Callable[[int], np.ndarray]):
    """Yield ``(index, outcome)`` of the long channels in ``block``,
    ``(index, n, lag row)`` each, from one :func:`_burg_lag_rows` call."""
    indices, sizes, rows = zip(*block)
    try:
        lags = _burg_lag_rows(np.array(rows), np.array(sizes)[:, np.newaxis], p)
    except ArithmeticError as exc:
        if len(block) == 1:
            yield indices[0], exc
            return
        # Under np.seterr(..., "raise") one row's fault stops them all;
        # run each row alone instead.
        for item in block:
            yield from _lag_block([item], p, samples)
        return
    for index, (coeffs_by_order, ks, errs) in zip(indices, lags):
        # Each sweep serves the orders from its first on; the lattice
        # takes the orders from a failed check, or the order cap, on.
        done = len(coeffs_by_order)
        stages = [(1, coeffs_by_order, ks[:done], errs[: done + 1])] if done else []
        try:
            if done < p:
                stages.append((done + 1, *_burg_lattice(samples(index), p)))
            outcome = _sweep(METHOD_BURG, stages)
        except (ValueError, ArithmeticError) as exc:
            outcome = exc
        yield index, outcome


def _burg_sweep(samples: np.ndarray, p: int) -> "FitSweep":
    """The Burg sweep of one array: the one-channel case of :func:`_burg_sweeps`."""
    ((_, outcome),) = _burg_sweeps(lambda _: samples, 1, p)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
        zero-mean process model).  Pass False to run the lattice on the
        raw samples, e.g. when checking the recursion arithmetic on tiny
        hand-built inputs whose mean carries the signal.

    Raises
    ------
    ValueError
        "degenerate signal" when a lattice denominator vanishes
        (identically zero residuals), "non-finite prediction-error
        energy" when it overflows.
    """
    return _burg_sweep(_centred(x) if demean else x.samples, p).fit(p)


def _mle_sigma2(coeff_rows: np.ndarray, pgram) -> np.ndarray:
    """Innovation variance by spectral matching, one per coefficient row.

    sigma^2 = integral over [-1/2, 1/2] of |A(f)|^2 I(f) df, evaluated as
    twice the trapezoidal integral over [0, 1/2] (the integrand is even).
    Every trapezoid term is nonnegative, so nothing cancels.  Each row of
    ``coeff_rows`` holds a(1..p) followed by zeros; all rows share one
    rfft and one trapezoid call, which give every row the bits of its own
    one-dimensional calls.
    """
    amp2 = _transfer_mag2(coeff_rows, pgram.values.size)
    return 2.0 * np.trapezoid(amp2 * pgram.values, pgram.freqs_normalized, axis=-1)


def _centered_periodogram(x: TimeSeries, grid_size: int):
    centered = TimeSeries(x.samples - x.samples.mean(), x.sample_rate_hz)
    return periodogram(centered, grid_size)


def mle_fit(x: TimeSeries, p: int, grid_size: int = 512) -> FitResult:
    """Approximate maximum-likelihood AR(p) fit.

    For a Gaussian AR process the likelihood equations for the
    coefficients reduce to the Yule-Walker normal equations, so the
    coefficient vector equals the :func:`yule_walker_fit` result exactly.
    The innovation variance is re-estimated by integrating the squared
    transfer function against the periodogram of the demeaned signal on
    a ``grid_size``-point frequency grid.

    Raises
    ------
    ValueError
        "grid too coarse for order" when ``grid_size < 2 p``.
    """
    if p < 1:
        raise ValueError("order must be at least 1")
    if grid_size < 2 * p:
        raise ValueError("grid too coarse for order")
    base = yule_walker_fit(x, p)
    sigma2 = _mle_sigma2(base.model.coeffs[np.newaxis], _centered_periodogram(x, grid_size))[0]
    model = ArModel(p, base.model.coeffs, sigma2)
    # The error profile documents the coefficient recursion; the spectral
    # variance estimate lives only in model.sigma2.
    return FitResult(model, METHOD_MLE, base.reflection_coeffs, base.prediction_error_by_order)


@dataclass(frozen=True, eq=False)
class FitSweep(ArrayFields):
    """AR fits of every order 1..p_max from one order-recursive sweep.

    Levinson and Burg compute order p on the way to any higher order, so
    ``fit(p)`` is bit for bit the fit that ``yule_walker_fit``,
    ``burg_fit`` or ``mle_fit`` returns at order p on the same input.
    Equal by value (see :class:`arpsd.core.ArrayFields`); not hashable.

    Attributes
    ----------
    method : str
        One of ``METHODS``.
    sigma2_by_order : np.ndarray
        Innovation variance of the fits of order 1..p_max.
    stages : tuple
        ``(first_order, coeffs_by_order, ks, errs)`` recursions, each
        serving the orders from its first order on.  A Burg sweep has a
        second one when a lag-product stage fails its conditioning test
        and the lattice takes over.
    """

    method: str
    sigma2_by_order: np.ndarray
    stages: tuple

    @property
    def p_max(self) -> int:
        return self.sigma2_by_order.size

    def fit(self, p: int) -> FitResult:
        """The order-p fit of the sweep, 1 <= p <= p_max."""
        if not 1 <= p <= self.p_max:
            raise ValueError(f"order {p} outside the sweep's 1..{self.p_max}")
        _, coeffs_by_order, ks, errs = next(s for s in reversed(self.stages) if s[0] <= p)
        model = ArModel(p, coeffs_by_order[p - 1], self.sigma2_by_order[p - 1])
        return FitResult(model, self.method, ks[:p], errs[: p + 1])


def _sweep(method: str, stages, sigma2_by_order=None) -> FitSweep:
    if sigma2_by_order is None:
        # Prediction-error power; a later stage overrides from its first order on.
        sigma2_by_order = np.empty(stages[-1][2].size)
        for first, _, _, errs in stages:
            sigma2_by_order[first - 1 : errs.size - 1] = errs[first:]
    return FitSweep(method, sigma2_by_order, tuple(stages))


def _levinson_sweep(x: TimeSeries, p_max: int):
    if p_max < 1:
        raise ValueError("order must be at least 1")
    if len(x) < p_max + 1:
        raise ValueError("need more samples than the model order")
    r = biased_autocov(x, p_max)
    if r[0] == 0.0:
        raise ValueError("zero-variance signal")
    return _sweep(METHOD_YULE_WALKER, [(1, *_levinson_recursion(r.values, p_max))])


def fit_sweep(
    x: TimeSeries, p_max: int, method: str = METHOD_BURG, grid_size: int = 512
) -> FitSweep:
    """Fit every order 1..p_max of one method in a single sweep.

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
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    if method == METHOD_BURG:
        return _burg_sweep(_centred(x), p_max)
    if method == METHOD_MLE and grid_size < 2 * p_max:
        raise ValueError("grid too coarse for order")
    sweep = _levinson_sweep(x, p_max)
    if method == METHOD_YULE_WALKER:
        return sweep
    coeff_rows = np.zeros((p_max, p_max))
    for p, coeffs in enumerate(sweep.stages[0][1], start=1):
        coeff_rows[p - 1, :p] = coeffs
    sigma2 = _mle_sigma2(coeff_rows, _centered_periodogram(x, grid_size))
    return _sweep(METHOD_MLE, sweep.stages, sigma2)


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

    Returns ``(values, faults)``.  Where ``faults[r]`` is None, row r of
    ``values`` is the spectrum :func:`ar_psd` gives ``models[r]``, bit for
    bit.  Otherwise it is the message ``ar_psd`` raises on that model,
    "unstable AR polynomial" or the check of
    :meth:`SpectrumEstimate.row_faults`, and the row holds no spectrum.

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
    faults = SpectrumEstimate.row_faults(values)
    return values, [
        "unstable AR polynomial" if bad else fault for bad, fault in zip(unstable.tolist(), faults)
    ]


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
    values, faults = ar_psd_rows([model], grid_size)
    if faults[0] is not None:
        raise ValueError(faults[0])
    return SpectrumEstimate(np.linspace(0.0, 0.5, grid_size), values[0], sample_rate_hz)
