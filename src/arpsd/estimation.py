"""AR(p) parameter estimation.

Three fitting routes share one coefficient convention (see
:class:`arpsd.core.ArModel`):

* ``yule_walker_fit`` solves the autocovariance normal equations with the
  Levinson-Durbin recursion.
* ``burg_fit`` runs the Burg recursion on the raw samples, minimizing the
  summed forward plus backward prediction error at each stage.  Long
  inputs are evaluated from lag products, with the lattice as the
  fallback on ill-conditioned input.
* ``mle_fit`` reuses the Yule-Walker coefficients (the likelihood is
  maximized by the same normal equations) and estimates the innovation
  variance by integrating |A(f)|^2 I(f) against the periodogram.

All three return a :class:`FitResult` carrying the model, the reflection
coefficients, and the prediction-error power at every order up to p.
``fit_sweep`` fits every order up to p_max at once, bit for bit as the
fitters would.
"""

from dataclasses import dataclass

import numpy as np

from .core import ArModel, AutocovarianceSeq, SpectrumEstimate, TimeSeries
from .preprocess import biased_autocov, periodogram

__all__ = [
    "METHODS",
    "FitResult",
    "FitSweep",
    "fit_sweep",
    "levinson_durbin",
    "yule_walker_fit",
    "burg_fit",
    "mle_fit",
    "ar_psd",
    "reflection_coefficients",
    "coefficients_from_reflection",
    "is_stable",
]

METHOD_YULE_WALKER = "yule_walker"
METHOD_BURG = "burg"
METHOD_MLE = "mle"
METHODS = (METHOD_YULE_WALKER, METHOD_BURG, METHOD_MLE)

# Burg from lag products pays about 15 us of small-array work per stage
# and saves the lattice's O(n) vector updates; below this length the
# lattice is faster.  The choice depends on n only, so that an order-p
# fit is the same whatever order a sweep runs to.
_LAG_MIN_SAMPLES = 8192
# A lag-product stage whose |q|'|T||q| exceeds this multiple of its
# forward-plus-backward energy loses too much of that energy to
# cancellation; the lattice takes over from there.  Over 20,000 stages of
# AR(2) resonances (pole radius <= 0.995, p <= 30) the stages that passed
# this test agreed with the lattice within 2.5e-13 relative on the error
# profile; at a limit of 1e3 the worst was 1.4e-12.
_LAG_CANCELLATION_LIMIT = 20.0


@dataclass(frozen=True)
class FitResult:
    """Outcome of one AR fit.

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


def _burg_lag_products(samples: np.ndarray, p: int):
    """Burg stages evaluated from the lag products c(0..p) of the samples.

    With the polynomial q = [1, a(1..m)], the zero-padded forward and
    backward error sequences are the full convolutions f = x * q and
    g = x * reverse(q).  Their energies are Toeplitz quadratic forms
    q' T q with T(i, j) = c(|i - j|), and their lag-one cross product is
    the Hankel form sum_ij q(i) q(j) c(|m + 1 - i - j|).  The lattice sums
    run over n = m+1..N-1 only, so the O(m) head and tail terms that the
    padding adds are subtracted from each form.  No length-N vector is
    touched after the p + 1 dot products (Vos, "A fast implementation of
    Burg's method", 2013).

    The subtractions cancel when |q|'|T||q| is large against the stage's
    forward-plus-backward energy, so the sweep stops at the first stage
    whose ratio exceeds ``_LAG_CANCELLATION_LIMIT`` (or whose energy is not
    positive, or whose |k| exceeds 1).  Returns the lattice's triple for
    the stages that passed; fewer than p coefficient vectors means stage
    ``len(coeffs_by_order) + 1`` failed.  Every stage depends only on the
    stages before it, so a sweep to p is a prefix of a sweep to any
    larger order.
    """
    x = samples
    n = x.size
    c = np.empty(p + 1)
    for lag in range(p + 1):
        c[lag] = np.dot(x[: n - lag], x[lag:])
    # lags[p + j] = c(|j|) for j = -p..p.
    lags = np.concatenate((c[:0:-1], c))
    abs_lags = np.abs(lags)
    coeffs_by_order: list[np.ndarray] = []
    ks = np.empty(p)
    errs = np.empty(p + 1)
    errs[0] = c[0] / n
    poly = np.ones(1)
    for m in range(p):
        rev = poly[::-1]
        energy = np.dot(np.convolve(poly, rev), lags[p - m : p + m + 1])
        cross = np.dot(np.convolve(poly, poly), lags[p - m - 1 : p + m])
        head_f = np.convolve(x[: m + 1], poly)[: m + 1]
        tail_b = np.convolve(x[n - 1 - m :], rev)[m:]
        den = 2.0 * energy - np.dot(head_f, head_f) - np.dot(tail_b, tail_b)
        if m:
            head_b = np.convolve(x[:m], rev)[:m]
            tail_f = np.convolve(x[n - m :], poly)[m:]
            den -= np.dot(head_b, head_b) + np.dot(tail_f, tail_f)
            cross -= np.dot(head_f[1:], head_b) + np.dot(tail_f, tail_b[:m])
        if not den > 0.0:
            break
        # |q|'|T||q| <= c(0) (sum |q|)^2; form it only when the bound fails.
        bound = np.abs(poly).sum()
        if c[0] * bound * bound > _LAG_CANCELLATION_LIMIT * den:
            mag = np.abs(poly)
            scale = np.dot(np.convolve(mag, mag), abs_lags[p - m : p + m + 1])
            if scale > _LAG_CANCELLATION_LIMIT * den:
                break
        k = -2.0 * cross / den
        if abs(k) > 1.0:
            break
        new = np.empty(m + 2)
        new[0] = 1.0
        new[1 : m + 1] = poly[1:] + k * rev[:-1]
        new[m + 1] = k
        poly = new
        ks[m] = k
        errs[m + 1] = errs[m] * (1.0 - k * k)
        coeffs_by_order.append(poly[1:])
    return coeffs_by_order, ks, errs


def _burg_stages(samples: np.ndarray, p: int):
    """Burg sweeps to order p, each serving the orders from its first on.

    Returns ``[(first_order, coeffs_by_order, ks, errs), ...]``.  Long
    inputs go through :func:`_burg_lag_products`; if one of its stages
    fails the conditioning test, the orders from that stage on come from
    the lattice, rerun from the start.  An order-p fit thus takes the
    lag-product bits exactly when all of its p stages pass, which is the
    same for a sweep to p as for a sweep to any higher order.
    """
    n = samples.size
    if p < 1:
        raise ValueError("order must be at least 1")
    # n = p + 1 leaves exactly one term in the stage-p sums, which the
    # tiny hand-check cases rely on; anything shorter has none.
    if n < p + 1:
        raise ValueError("need more samples than the model order")
    stages = []
    done = 0
    if n >= _LAG_MIN_SAMPLES:
        coeffs_by_order, ks, errs = _burg_lag_products(samples, p)
        done = len(coeffs_by_order)
        if done == p:
            return [(1, coeffs_by_order, ks, errs)]
        if done:
            stages.append((1, coeffs_by_order, ks[:done], errs[: done + 1]))
    return stages + [(done + 1, *_burg_lattice(samples, p))]


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
        (identically zero residuals).
    """
    samples = x.samples - x.samples.mean() if demean else x.samples
    return _sweep(METHOD_BURG, _burg_stages(samples, p)).fit(p)


def _mle_sigma2(coeffs: np.ndarray, pgram) -> float:
    """Innovation variance by spectral matching.

    sigma^2 = integral over [-1/2, 1/2] of |A(f)|^2 I(f) df, evaluated as
    twice the trapezoidal integral over [0, 1/2] (the integrand is even).
    Every trapezoid term is nonnegative, so nothing cancels.
    """
    amp2 = _transfer_mag2(coeffs, pgram.values.size)
    return float(2.0 * np.trapezoid(amp2 * pgram.values, pgram.freqs_normalized))


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
    sigma2 = _mle_sigma2(base.model.coeffs, _centered_periodogram(x, grid_size))
    model = ArModel(p, base.model.coeffs, sigma2)
    # The error profile documents the coefficient recursion; the spectral
    # variance estimate lives only in model.sigma2.
    return FitResult(model, METHOD_MLE, base.reflection_coeffs, base.prediction_error_by_order)


@dataclass(frozen=True)
class FitSweep:
    """AR fits of every order 1..p_max from one order-recursive sweep.

    Levinson and Burg compute order p on the way to any higher order, so
    ``fit(p)`` is bit for bit the fit that ``yule_walker_fit``,
    ``burg_fit`` or ``mle_fit`` returns at order p on the same input.

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
        return _sweep(METHOD_BURG, _burg_stages(x.samples - x.samples.mean(), p_max))
    if method == METHOD_MLE and grid_size < 2 * p_max:
        raise ValueError("grid too coarse for order")
    sweep = _levinson_sweep(x, p_max)
    if method == METHOD_YULE_WALKER:
        return sweep
    pgram = _centered_periodogram(x, grid_size)
    coeffs_by_order = sweep.stages[0][1]
    sigma2 = np.array([_mle_sigma2(coeffs, pgram) for coeffs in coeffs_by_order])
    return _sweep(METHOD_MLE, sweep.stages, sigma2)


def reflection_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Reflection coefficients k(1..p) implied by AR coefficients.

    Runs the Levinson recursion backwards (step-down).  Raises
    ValueError("unstable AR polynomial") when any |k| >= 1, since the
    step-down division is then invalid and the model has a root on or
    outside the unit circle.
    """
    a = np.array(coeffs, dtype=np.float64, copy=True)
    p = a.size
    ks = np.empty(p)
    for m in range(p, 0, -1):
        k = a[m - 1]
        ks[m - 1] = k
        if abs(k) >= 1.0:
            raise ValueError("unstable AR polynomial")
        if m > 1:
            head = a[: m - 1]
            a = (head - k * head[::-1]) / (1.0 - k * k)
    return ks


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
    A(f_j) is the real FFT of [1, a(1..p)] folded modulo M.
    """
    period = 2 * (grid_size - 1)
    poly = np.zeros(-(-(coeffs.size + 1) // period) * period)
    poly[0] = 1.0
    poly[1 : coeffs.size + 1] = coeffs
    if poly.size > period:
        poly = poly.reshape(-1, period).sum(axis=0)
    amp = np.fft.rfft(poly)
    return amp.real**2 + amp.imag**2


def ar_psd(model: ArModel, grid_size: int = 512, sample_rate_hz: float = 1.0) -> SpectrumEstimate:
    """Parametric power spectral density of an AR model.

        P(f) = sigma^2 / |A(f)|^2,  A(f) = 1 + sum_i a(i) exp(-2j pi f i)

    evaluated on ``grid_size`` equispaced normalized frequencies in
    [0, 0.5].

    Raises
    ------
    ValueError
        "unstable AR polynomial" when the model has a reflection
        coefficient of magnitude >= 1.  A model with sigma2 == 0 yields
        an all-zero spectrum.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if model.order_p > 0:
        reflection_coefficients(model.coeffs)  # raises when unstable
    freqs = np.linspace(0.0, 0.5, grid_size)
    if model.sigma2 == 0.0:
        values = np.zeros(grid_size)
    else:
        values = model.sigma2 / _transfer_mag2(model.coeffs, grid_size)
    return SpectrumEstimate(freqs, values, sample_rate_hz)
