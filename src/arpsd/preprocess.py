"""Per-channel conditioning: differencing, demeaning, autocovariance,
the raw periodogram, and a residual-normality screen.

Each step but the screen has a row form over a matrix of equally long
channels, one per row (:func:`prepare_rows`, :func:`demean_rows`,
:func:`lag_products`, :func:`autocov_rows`, :func:`periodogram_rows`),
which runs in one NumPy call per step and gives every row the bits of
its one-row call; the per-channel functions are that one-row case, so
each formula is written once.  A row form whose rows can fail a check
raises the faults of those rows (:func:`arpsd.core.raise_row_faults`),
and a call of one row raises that row's ValueError itself.  The fitters
read short channels through these forms a block at a time
(:func:`arpsd.estimation.fit_sweeps`).
"""

import numpy as np

from .core import AutocovarianceSeq, SpectrumEstimate, TimeSeries, raise_row_faults

__all__ = [
    "difference",
    "demean",
    "prepare_rows",
    "demean_rows",
    "lag_products",
    "autocov_rows",
    "biased_autocov",
    "periodogram",
    "periodogram_rows",
    "normality_check",
]

# 0.95 quantile of chi-squared with 2 degrees of freedom: the acceptance
# bound for the normality statistic at the 5 percent level.
JB_CRITICAL_5PCT = 5.99


def difference(x: TimeSeries, d: int = 1) -> TimeSeries:
    """Apply the first-difference filter y(n) = x(n) - x(n-1) ``d`` times.

    Differencing removes slow nonstationary trends before model fitting.
    The sample rate is unchanged; the output is ``d`` samples shorter.
    This is the fresh-array, one-row case of :func:`prepare_rows`'s first
    step.

    Parameters
    ----------
    x : TimeSeries
        Input signal with more than ``d`` samples.
    d : int
        Number of differencing passes, ``d >= 0``.  ``d=0`` returns the
        input unchanged.

    Returns
    -------
    TimeSeries
    """
    samples = _difference_rows(x.samples[np.newaxis], d, None)
    return x if d == 0 else TimeSeries.adopt(samples[0], x.sample_rate_hz)


def demean(x: TimeSeries) -> TimeSeries:
    """Subtract the sample mean.

    This is the fresh-array, one-row case of :func:`demean_rows`.
    """
    return TimeSeries.adopt(demean_rows(x.samples[np.newaxis])[0], x.sample_rate_hz)


def prepare_rows(rows: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """``demean(difference(x, d))`` of each row x of ``rows``, into ``out``.

    ``rows`` holds one channel of n samples per row, and the n - d
    prepared samples of row r are written to ``out[r, :n - d]``, which
    must not overlap ``rows``.  Returns the prepared rows, that view of
    ``out``.  A row on which :func:`difference` or :func:`demean` raises
    ValueError alone is raised as its fault
    (:func:`arpsd.core.raise_row_faults`), and ``out`` then holds no
    prepared rows.  A fault of every row (``d < 0``, n <= d) is raised as
    ValueError.  Each step is one call over the rows, and no step mixes
    rows, so every row gets the bits of its one-row call.

    The rows are first prepared without the finiteness checks, with
    every floating-point fault raised that the error state would report,
    and overflow and invalid operations raised always.  If nothing is
    raised, and each row's first prepared sample is finite, every
    prepared sample is finite: a sample that is not makes its row's mean,
    and so every sample of the row less that mean, not finite, and finite
    operands give a non-finite result only by overflow or an invalid
    operation.  Otherwise the rows are prepared again from ``rows`` step
    by step, each step checked, under the caller's error state.
    """
    prepared = out[: rows.shape[0], : rows.shape[1] - d]
    try:
        with _raising("over", "invalid"):
            demean_rows(_difference_rows(rows, d, out), prepared)
        if np.isfinite(prepared[:, 0]).all():
            return prepared
    except FloatingPointError:
        pass
    differenced = _difference_rows(rows, d, out)
    raise_row_faults(TimeSeries.row_faults(differenced))
    raise_row_faults(TimeSeries.row_faults(demean_rows(differenced, prepared)))
    return prepared


def _raising(*kinds: str):
    """An ``np.errstate`` that raises every floating-point fault that the
    current error state would report, and those of ``kinds`` as well."""
    return np.errstate(**{
        kind: "raise" if kind in kinds or mode != "ignore" else "ignore"
        for kind, mode in np.geterr().items()
    })


def _difference_rows(rows: np.ndarray, d: int, out: np.ndarray | None) -> np.ndarray:
    if d < 0:
        raise ValueError("differencing order must be nonnegative")
    if rows.shape[1] <= d:
        raise ValueError("insufficient samples for differencing order")
    # np.diff's passes, each into a fresh array or into the start of out
    # (where a pass may overlap its input; ufuncs then act as on a copy).
    for _ in range(d):
        target = None if out is None else out[: rows.shape[0], : rows.shape[1] - 1]
        rows = np.subtract(rows[:, 1:], rows[:, :-1], out=target)
    return rows


def demean_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row of ``rows`` less its mean, into ``out`` (which may be
    ``rows`` itself) or a fresh array.

    The row means come from one ``mean(axis=1)`` call, which sums each
    row as the 1-D ``mean`` does, so every row gets the bits of its
    one-row call.  This is the centring of :func:`demean`, of
    :func:`biased_autocov` and of every fitter.
    """
    return np.subtract(rows, rows.mean(axis=1, keepdims=True), out=out)


def lag_products(rows: np.ndarray, max_lag: int) -> np.ndarray:
    """c(l) = sum_{n=0}^{N-1-l} x(n) x(n+l), l = 0..max_lag, of each row x.

    One stacked ``np.matmul`` per lag serves every row: a 1 x (N - l) by
    (N - l) x 1 product runs through the dot loop of ``np.dot``, so each
    row gets the bits of ``np.dot(x[:N - l], x[l:])``.  A single row, and
    rows whose products the error state would report a floating-point
    fault of, take ``np.dot`` itself row by row: the call costs less for
    one row, and a warning or error is then ``np.dot``'s own, as it is for
    a row alone.  A row whose ``np.dot`` raises ArithmeticError (under
    ``np.seterr(..., "raise")``) is raised as its fault
    (:func:`arpsd.core.raise_row_faults`), and the other rows are still
    read.
    """
    count, n = rows.shape
    products = np.empty((count, max_lag + 1))
    if count > 1:
        try:
            with _raising():
                for lag in range(max_lag + 1):
                    products[:, lag] = np.matmul(
                        rows[:, np.newaxis, : n - lag], rows[:, lag:, np.newaxis]
                    )[:, 0, 0]
            return products
        except FloatingPointError:
            pass
    faults = []
    for row, values in zip(rows, products):
        try:
            for lag in range(max_lag + 1):
                values[lag] = np.dot(row[: n - lag], row[lag:])
            faults.append(None)
        except ArithmeticError as exc:
            faults.append(exc)
    raise_row_faults(faults)
    return products


def autocov_rows(centred: np.ndarray, max_lag: int) -> np.ndarray:
    """r(0..max_lag) of :func:`biased_autocov` for each row of ``centred``,
    rows that are already demeaned; the row form of its formula."""
    return lag_products(centred, max_lag) / centred.shape[1]


def biased_autocov(x: TimeSeries, max_lag: int) -> AutocovarianceSeq:
    """Biased sample autocovariance of the demeaned signal.

        r(l) = (1/N) sum_{n=0}^{N-1-l} x(n) x(n+l),   l = 0..max_lag

    The 1/N normalization (rather than 1/(N-l)) keeps the implied
    autocovariance matrix positive semidefinite, which in turn keeps the
    Levinson-Durbin recursion well posed.  This is the one-row case of
    :func:`demean_rows` followed by :func:`autocov_rows`.

    Parameters
    ----------
    x : TimeSeries
    max_lag : int
        Highest lag to evaluate; must satisfy ``max_lag <= len(x) - 1``.

    Returns
    -------
    AutocovarianceSeq
        Values r(0..max_lag).
    """
    n = len(x)
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if max_lag > n - 1:
        raise ValueError("max_lag must not exceed len(x) - 1")
    return AutocovarianceSeq(autocov_rows(demean_rows(x.samples[np.newaxis]), max_lag)[0])


def periodogram(x: TimeSeries, grid_size: int = 512) -> SpectrumEstimate:
    """Periodogram I(f) = (1/N) |sum_n x(n) exp(-2j pi f n)|^2.

    Evaluated on ``grid_size`` equispaced normalized frequencies covering
    [0, 0.5].  The grid points are f_j = j / (2 (G-1)), which are Fourier
    frequencies of period M = 2 (G-1); the transform is computed exactly
    for any signal length by time-aliasing the signal modulo M and taking
    one FFT, since exp(-2j pi f_j n) has period M in n.  This is the
    one-row case of :func:`periodogram_rows`.

    No demeaning is applied: I(0) carries the squared sample sum.

    Parameters
    ----------
    x : TimeSeries
    grid_size : int
        Number of grid frequencies, ``>= 1``.

    Returns
    -------
    SpectrumEstimate
        At the sample rate of ``x``.

    Raises
    ------
    ValueError
        "periodogram values must be finite and nonnegative" when a value
        overflows.
    """
    (values,) = periodogram_rows(x.samples[np.newaxis], grid_size)
    return SpectrumEstimate(np.linspace(0.0, 0.5, grid_size), values, x.sample_rate_hz)


def periodogram_rows(rows: np.ndarray, grid_size: int = 512):
    """:func:`periodogram` values of each row of ``rows``.

    Row r of the result holds I(f_0..f_{G-1}) of row r.  A row whose
    values are not finite is raised as its fault,
    :func:`periodogram`'s ValueError (see
    :func:`arpsd.core.raise_row_faults`).  The fold is one sum over a
    (rows, wraps, M) array and the transform one ``rfft`` over the rows,
    each of which gives every row the bits of its one-row call.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    count, n = rows.shape
    if grid_size == 1:
        values = np.abs(rows.sum(axis=1, keepdims=True)) ** 2 / n
    else:
        m = 2 * (grid_size - 1)
        wraps = -(-n // m)  # ceil(n / m)
        padded = np.zeros((count, wraps * m))
        padded[:, :n] = rows
        folded = padded.reshape(count, wraps, m).sum(axis=1)
        spectrum = np.fft.rfft(folded, axis=-1)
        values = (spectrum.real**2 + spectrum.imag**2) / n
    raise_row_faults([
        None if ok else "periodogram values must be finite and nonnegative"
        for ok in np.isfinite(values).all(axis=1).tolist()
    ])
    return values


def normality_check(x: TimeSeries) -> tuple[float, bool]:
    """Jarque-Bera screen for marginal normality.

    Computes JB = (N/6) (S^2 + (K-3)^2 / 4) from the sample skewness S
    and kurtosis K of the demeaned signal and compares it against the 5
    percent chi-squared(2) critical value.

    Returns
    -------
    (statistic, is_normal) : tuple[float, bool]
        ``is_normal`` is True when the statistic is below 5.99.
    """
    n = len(x)
    if n < 8:
        raise ValueError("too few samples")
    centered = demean_rows(x.samples[np.newaxis])[0]
    m2 = np.mean(centered**2)
    if m2 == 0.0:
        raise ValueError("zero-variance signal")
    skew = np.mean(centered**3) / m2**1.5
    kurt = np.mean(centered**4) / m2**2
    statistic = n / 6.0 * (skew**2 + 0.25 * (kurt - 3.0) ** 2)
    return float(statistic), bool(statistic < JB_CRITICAL_5PCT)
