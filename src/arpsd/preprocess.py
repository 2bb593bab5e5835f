"""Per-channel conditioning: differencing, demeaning, autocovariance,
the raw periodogram, and a residual-normality screen."""

import numpy as np

from .core import AutocovarianceSeq, SpectrumEstimate, TimeSeries

__all__ = [
    "difference",
    "demean",
    "prepare_into",
    "biased_autocov",
    "periodogram",
    "normality_check",
]

# 0.95 quantile of chi-squared with 2 degrees of freedom: the acceptance
# bound for the normality statistic at the 5 percent level.
JB_CRITICAL_5PCT = 5.99


def difference(x: TimeSeries, d: int = 1) -> TimeSeries:
    """Apply the first-difference filter y(n) = x(n) - x(n-1) ``d`` times.

    Differencing removes slow nonstationary trends before model fitting.
    The sample rate is unchanged; the output is ``d`` samples shorter.
    This is the fresh-array case of :func:`prepare_into`'s first step.

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
    return _difference(x, d, None)


def demean(x: TimeSeries) -> TimeSeries:
    """Subtract the sample mean.

    This is the fresh-array case of :func:`prepare_into`'s second step.
    """
    return _demean(x, None)


def prepare_into(x: TimeSeries, d: int, out: np.ndarray) -> TimeSeries:
    """``demean(difference(x, d))``, written into ``out`` bit for bit.

    The ``len(x) - d`` prepared samples are written to the start of
    ``out``, a writable contiguous float64 array of at least ``len(x)``
    entries, and the result wraps that view of ``out``.  The checks and
    messages are :func:`difference`'s and :func:`demean`'s.  No float
    array is allocated for ``d <= 1``, so one buffer can serve every
    channel of a recording in turn.  The result is valid only until
    ``out`` is written again: whatever outlives that must hold its own
    copy.
    """
    return _demean(_difference(x, d, out), out)


def _difference(x: TimeSeries, d: int, out: np.ndarray | None) -> TimeSeries:
    if d < 0:
        raise ValueError("differencing order must be nonnegative")
    if len(x) <= d:
        raise ValueError("insufficient samples for differencing order")
    if d == 0:
        return x
    # np.diff's passes, each into a fresh array or into the start of out
    # (where a pass may overlap its input; ufuncs then act as on a copy).
    samples = x.samples
    for _ in range(d):
        target = None if out is None else out[: samples.size - 1]
        samples = np.subtract(samples[1:], samples[:-1], out=target)
    return TimeSeries.adopt(samples, x.sample_rate_hz)


def _demean(x: TimeSeries, out: np.ndarray | None) -> TimeSeries:
    samples = x.samples
    target = None if out is None else out[: samples.size]
    return TimeSeries.adopt(np.subtract(samples, samples.mean(), out=target), x.sample_rate_hz)


def biased_autocov(x: TimeSeries, max_lag: int) -> AutocovarianceSeq:
    """Biased sample autocovariance of the demeaned signal.

        r(l) = (1/N) sum_{n=0}^{N-1-l} x(n) x(n+l),   l = 0..max_lag

    The 1/N normalization (rather than 1/(N-l)) keeps the implied
    autocovariance matrix positive semidefinite, which in turn keeps the
    Levinson-Durbin recursion well posed.

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
    centered = x.samples - x.samples.mean()
    r = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        r[lag] = np.dot(centered[: n - lag], centered[lag:]) / n
    return AutocovarianceSeq(r)


def periodogram(x: TimeSeries, grid_size: int = 512) -> SpectrumEstimate:
    """Periodogram I(f) = (1/N) |sum_n x(n) exp(-2j pi f n)|^2.

    Evaluated on ``grid_size`` equispaced normalized frequencies covering
    [0, 0.5].  The grid points are f_j = j / (2 (G-1)), which are Fourier
    frequencies of period M = 2 (G-1); the transform is computed exactly
    for any signal length by time-aliasing the signal modulo M and taking
    one FFT, since exp(-2j pi f_j n) has period M in n.

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
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    n = len(x)
    samples = x.samples
    if grid_size == 1:
        values = np.array([abs(samples.sum()) ** 2 / n])
    else:
        m = 2 * (grid_size - 1)
        wraps = -(-n // m)  # ceil(n / m)
        padded = np.zeros(wraps * m)
        padded[:n] = samples
        folded = padded.reshape(wraps, m).sum(axis=0)
        spectrum = np.fft.rfft(folded)
        values = (spectrum.real**2 + spectrum.imag**2) / n
    if not np.isfinite(values).all():
        raise ValueError("periodogram values must be finite and nonnegative")
    return SpectrumEstimate(np.linspace(0.0, 0.5, grid_size), values, x.sample_rate_hz)


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
    centered = x.samples - x.samples.mean()
    m2 = np.mean(centered**2)
    if m2 == 0.0:
        raise ValueError("zero-variance signal")
    skew = np.mean(centered**3) / m2**1.5
    kurt = np.mean(centered**4) / m2**2
    statistic = n / 6.0 * (skew**2 + 0.25 * (kurt - 3.0) ** 2)
    return float(statistic), bool(statistic < JB_CRITICAL_5PCT)
