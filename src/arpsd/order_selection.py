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
from .estimation import METHOD_BURG, METHODS, FitResult, fit_sweep

__all__ = ["aic", "aicc", "bic", "OrderScore", "OrderScanResult", "order_scan", "select_order"]

CRITERIA = ("aic", "aicc", "bic")


def _check_sigma2(sigma2: float) -> float:
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    return sigma2


def aic(sigma2: float, n: int, p: int) -> float:
    """Akaike information criterion, log(sigma2) + (n + 2p) / n."""
    return log(_check_sigma2(sigma2)) + (n + 2 * p) / n


def aicc(sigma2: float, n: int, p: int) -> float:
    """Small-sample corrected AIC, log(sigma2) + (n + p) / (n - p - 2).

    Raises
    ------
    ValueError
        "AICc undefined for this n,p" when n <= p + 2.
    """
    if n <= p + 2:
        raise ValueError("AICc undefined for this n,p")
    return log(_check_sigma2(sigma2)) + (n + p) / (n - p - 2)


def bic(sigma2: float, n: int, p: int) -> float:
    """Bayesian information criterion, log(sigma2) + p log(n) / n."""
    return log(_check_sigma2(sigma2)) + p * log(n) / n


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
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion: {criterion!r}")
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    n = len(x)
    if n <= p_max + 2:
        raise ValueError("need more than p_max + 2 samples")
    sweep = fit_sweep(x, p_max, method, grid_size)
    scores = []
    for p in range(1, p_max + 1):
        sigma2 = float(sweep.sigma2_by_order[p - 1])
        scores.append(
            OrderScore(
                p=p,
                sigma2=sigma2,
                aic=aic(sigma2, n, p),
                aicc=aicc(sigma2, n, p),
                bic=bic(sigma2, n, p),
            )
        )
    selected = select_order(scores, criterion)
    return OrderScanResult(tuple(scores), selected, criterion, sweep.fit(selected))
