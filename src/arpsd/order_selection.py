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

from .core import TimeSeries
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
]

CRITERIA = ("aic", "aicc", "bic")


def _check_sigma2(sigma2: float) -> float:
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    return sigma2


def _penalties(criterion: str, n: int, orders) -> list[float]:
    """The term a criterion adds to log(sigma2), at each of ``orders``;
    AICc needs n > p + 2."""
    if criterion == "aic":
        return [(n + 2 * p) / n for p in orders]
    if criterion == "aicc":
        return [(n + p) / (n - p - 2) for p in orders]
    log_n = log(n)
    return [p * log_n / n for p in orders]


def aic(sigma2: float, n: int, p: int) -> float:
    """Akaike information criterion, log(sigma2) + (n + 2p) / n."""
    return log(_check_sigma2(sigma2)) + _penalties("aic", n, [p])[0]


def aicc(sigma2: float, n: int, p: int) -> float:
    """Small-sample corrected AIC, log(sigma2) + (n + p) / (n - p - 2).

    Raises
    ------
    ValueError
        "AICc undefined for this n,p" when n <= p + 2.
    """
    if n <= p + 2:
        raise ValueError("AICc undefined for this n,p")
    return log(_check_sigma2(sigma2)) + _penalties("aicc", n, [p])[0]


def bic(sigma2: float, n: int, p: int) -> float:
    """Bayesian information criterion, log(sigma2) + p log(n) / n."""
    return log(_check_sigma2(sigma2)) + _penalties("bic", n, [p])[0]


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
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    if n <= p_max + 2:
        raise ValueError("need more than p_max + 2 samples")


def scan_sweep(sweep: FitSweep, n: int, criterion: str = "bic") -> OrderScanResult:
    """Score every order of a sweep over a signal of n samples.

    This is :func:`order_scan` after its fit: ``order_scan(x, ...)`` is
    ``scan_sweep(fit_sweep(x, ...), len(x), criterion)`` once
    :func:`check_scan` passes, which it must.
    """
    # Each criterion's penalties once per scan, log(sigma2) once per order;
    # n > p_max + 2 keeps AICc defined.
    orders = range(1, sweep.p_max + 1)
    penalties = [_penalties(name, n, orders) for name in CRITERIA]
    scores = []
    for p, sigma2, aic_pen, aicc_pen, bic_pen in zip(
        orders, sweep.sigma2_by_order.tolist(), *penalties
    ):
        log_sigma2 = log(_check_sigma2(sigma2))
        scores.append(OrderScore(p, sigma2, log_sigma2 + aic_pen, log_sigma2 + aicc_pen,
                                 log_sigma2 + bic_pen))
    selected = select_order(scores, criterion)
    return OrderScanResult(tuple(scores), selected, criterion, sweep.fit(selected))
