"""Information-criterion model order selection.

All three criteria are per-sample scores built from the estimated
innovation variance (natural logarithms throughout):

    AIC(p)  = log(sigma2) + (n + 2 p) / n
    AICc(p) = log(sigma2) + (n + p) / (n - p - 2)
    BIC(p)  = log(sigma2) + p log(n) / n

``order_scan`` evaluates them for every order 1..p_max from a single
order-recursive sweep (:func:`arpsd.estimation.fit_sweep`) and returns
the selected order's fit from that sweep, so no refitting takes place.
"""

from dataclasses import dataclass
from math import log
from typing import Sequence

import numpy as np

from .core import TimeSeries, as_order, raise_row_faults
from .estimation import METHOD_BURG, METHODS, FitResult, FitSweep, fit_sweep

__all__ = [
    "aic",
    "aicc",
    "bic",
    "OrderScore",
    "OrderScanResult",
    "check_scan",
    "order_scan",
    "scan_sweep",
    "select_order",
    "sweep_orders",
]

CRITERIA = ("aic", "aicc", "bic")


def _check_sigma2(sigma2: float) -> float:
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    return sigma2


def _logs(values: np.ndarray) -> np.ndarray:
    """math.log of every entry.  NumPy's vector log rounds some inputs
    differently in the last bit, and the criteria keep math.log's bits."""
    return np.array(list(map(log, values.ravel().tolist()))).reshape(values.shape)


def _penalties(criterion: str, n, orders: np.ndarray) -> np.ndarray:
    """The term a criterion adds to log(sigma2) at each of ``orders``, for
    n samples (a number, or a column of one count per row); AICc needs
    n > p + 2.  Each entry has the bits of the scalar formula."""
    if criterion == "aic":
        return (n + 2 * orders) / n
    if criterion == "aicc":
        return (n + orders) / (n - orders - 2)
    return orders * _logs(np.asarray(n, dtype=np.float64)) / n


def aic(sigma2: float, n: int, p: int) -> float:
    """Akaike information criterion, log(sigma2) + (n + 2p) / n."""
    return log(_check_sigma2(sigma2)) + float(_penalties("aic", n, np.array([p]))[0])


def aicc(sigma2: float, n: int, p: int) -> float:
    """Small-sample corrected AIC, log(sigma2) + (n + p) / (n - p - 2).

    Raises
    ------
    ValueError
        "AICc undefined for this n,p" when n <= p + 2.
    """
    if n <= p + 2:
        raise ValueError("AICc undefined for this n,p")
    return log(_check_sigma2(sigma2)) + float(_penalties("aicc", n, np.array([p]))[0])


def bic(sigma2: float, n: int, p: int) -> float:
    """Bayesian information criterion, log(sigma2) + p log(n) / n."""
    return log(_check_sigma2(sigma2)) + float(_penalties("bic", n, np.array([p]))[0])


@dataclass(frozen=True)
class OrderScore:
    """Criterion values for one candidate order."""

    p: int
    sigma2: float
    aic: float
    aicc: float
    bic: float


@dataclass(frozen=True)
class OrderScanResult:
    """Scores of every candidate order, and the selected order's fit.

    ``fit`` is bit for bit what the method's fitter returns at
    ``selected_p``.
    """

    per_order: tuple[OrderScore, ...]
    selected_p: int
    criterion_used: str
    fit: FitResult


def select_order(scores: Sequence[OrderScore], criterion: str) -> int:
    """Order with the minimal criterion value; ties go to the smaller p."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion: {criterion!r}")
    best_p = -1
    best_value = np.inf
    for score in sorted(scores, key=lambda s: s.p):
        value = getattr(score, criterion)
        if value < best_value:
            best_value = value
            best_p = score.p
    if best_p < 0:
        raise ValueError("no candidate orders to select from")
    return best_p


def order_scan(
    x: TimeSeries,
    p_max: int = 30,
    method: str = METHOD_BURG,
    criterion: str = "bic",
    grid_size: int = 512,
) -> OrderScanResult:
    """Score every order 1..p_max and select the criterion minimizer.

    A single Levinson or Burg sweep to ``p_max`` supplies the
    prediction-error power at every intermediate order, so each order's
    sigma2 equals what an independent fit at that order would produce.
    For ``method="mle"`` the coefficients come from the same Levinson
    sweep and each order's variance is re-estimated against one shared
    periodogram (``grid_size`` points, which must be >= 2 p_max).

    Parameters
    ----------
    x : TimeSeries
        Signal with more than ``p_max + 2`` samples.
    p_max : int
        Highest candidate order, at least 1.
    method : str
        "yule_walker", "burg", or "mle".
    criterion : str
        "aic", "aicc", or "bic".
    grid_size : int
        Periodogram grid for the MLE variance integral.

    Returns
    -------
    OrderScanResult
    """
    check_scan(len(x), p_max, method, criterion)
    return scan_sweep(fit_sweep(x, p_max, method, grid_size), len(x), criterion)


def check_scan(n: int, p_max: int, method: str = METHOD_BURG, criterion: str = "bic") -> None:
    """Raise the ValueError :func:`order_scan` raises, before any fit, on a
    signal of n samples with these arguments; return None if there is none."""
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion: {criterion!r}")
    p_max = as_order(p_max, "p_max")
    if n <= p_max + 2:
        raise ValueError("need more than p_max + 2 samples")


def _criterion_rows(sigma2_rows: np.ndarray, sizes: Sequence[int], criteria: Sequence[str]):
    """log(sigma2) plus each criterion's penalty, at every order of every row.

    Row i of ``sigma2_rows`` holds sigma2 at orders 1..p of a signal of
    ``sizes[i]`` samples.  Returns one (rows, p) array per criterion, each
    criterion's penalties computed once for all rows.  A row with a sigma2
    that is not positive is raised as its fault, "sigma2 must be
    positive" (see :func:`arpsd.core.raise_row_faults`).  Each value has
    the bits of :func:`aic`, :func:`aicc` or :func:`bic`.
    """
    raise_row_faults([None if ok else "sigma2 must be positive"
                      for ok in (sigma2_rows > 0.0).all(axis=1).tolist()])
    log_sigma2 = _logs(sigma2_rows)
    orders = np.arange(1, sigma2_rows.shape[1] + 1)
    n = np.array(sizes)[:, np.newaxis]
    return [log_sigma2 + _penalties(name, n, orders) for name in criteria]


def _minimizers(values: np.ndarray) -> list:
    """Per row, the order (from 1) of the smallest value, ties going to
    the smaller order as in :func:`select_order`.  A row with no value
    below infinity is raised as its fault, :func:`select_order`'s "no
    candidate orders to select from"."""
    best = values.argmin(axis=1)
    raise_row_faults([None if ok else "no candidate orders to select from"
                      for ok in (values[np.arange(best.size), best] < np.inf).tolist()])
    return [p + 1 for p in best.tolist()]


def scan_sweep(sweep: FitSweep, n: int, criterion: str = "bic") -> OrderScanResult:
    """Score every order of a sweep over a signal of n samples.

    This is :func:`order_scan` after its fit: ``order_scan(x, ...)`` is
    ``scan_sweep(fit_sweep(x, ...), len(x), criterion)`` once
    :func:`check_scan` passes, which it must.  The order is selected by
    the expression :func:`sweep_orders` evaluates, so both select the same
    order from the same sweep.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion: {criterion!r}")
    values = _criterion_rows(sweep.sigma2_by_order[np.newaxis], [n], CRITERIA)
    (selected,) = _minimizers(values[CRITERIA.index(criterion)])
    scores = tuple(
        OrderScore(p, sigma2, aic_value, aicc_value, bic_value)
        for p, sigma2, aic_value, aicc_value, bic_value in zip(
            range(1, sweep.p_max + 1), sweep.sigma2_by_order.tolist(),
            *(rows[0].tolist() for rows in values),
        )
    )
    return OrderScanResult(scores, selected, criterion, sweep.fit(selected))


def sweep_orders(sweeps: Sequence[FitSweep], sizes: Sequence[int], criterion: str = "bic") -> list:
    """The order :func:`scan_sweep` selects from each sweep, without its scores.

    ``sweeps`` share one p_max, and ``sizes[i]`` is the number of samples
    ``sweeps[i]`` was fitted to.  Entry i is ``scan_sweep(sweeps[i],
    sizes[i], criterion).selected_p``; a sweep on which that raises
    ValueError is raised as its fault (see
    :func:`arpsd.core.raise_row_faults`).  One array expression scores
    every sweep: the criterion's penalties once, and the arg-min of
    log(sigma2) plus penalty per row.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion: {criterion!r}")
    (values,) = _criterion_rows(
        np.array([sweep.sigma2_by_order for sweep in sweeps]), sizes, [criterion]
    )
    return _minimizers(values)
