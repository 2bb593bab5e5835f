"""Information criteria and the single-sweep order scan."""

import math
from dataclasses import replace

import numpy as np
import pytest

from arpsd import (
    ArModel,
    OrderScore,
    TimeSeries,
    aic,
    aicc,
    bic,
    burg_fit,
    coefficients_from_reflection,
    mle_fit,
    order_scan,
    simulate_ar,
    yule_walker_fit,
)
from arpsd.core import in_rows
from arpsd.estimation import fit_sweep
from arpsd.order_selection import _minimizers, scan_sweep, select_order, sweep_orders


def test_aic_exact_values():
    assert aic(1.0, 100, 0) == 1.0
    assert abs(aic(1.0, 100, 10) - 1.2) < 1e-15
    assert abs(aic(math.e**2, 100, 0) - 3.0) < 1e-12


def test_aicc_exact_values():
    assert abs(aicc(1.0, 100, 0) - 100.0 / 98.0) < 1e-15
    assert aicc(1.0, 100, 10) == 1.25


def test_bic_exact_values():
    assert bic(1.0, 100, 0) == 0.0
    assert abs(bic(1.0, math.e, 1) - 1.0 / math.e) < 1e-15


def test_aicc_undefined_for_tiny_samples():
    with pytest.raises(ValueError, match="AICc undefined"):
        aicc(1.0, 12, 10)
    with pytest.raises(ValueError, match="AICc undefined"):
        aicc(1.0, 11, 10)
    assert math.isfinite(aicc(1.0, 13, 10))


def test_criteria_reject_nonpositive_variance():
    for criterion in (aic, aicc, bic):
        with pytest.raises(ValueError, match="positive"):
            criterion(0.0, 100, 1)
        with pytest.raises(ValueError, match="positive"):
            criterion(-1.0, 100, 1)


def test_penalties_increase_with_order_at_fixed_variance():
    for n in (50, 200, 5000):
        aics = [aic(1.0, n, p) for p in range(0, 20)]
        bics = [bic(1.0, n, p) for p in range(0, 20)]
        assert all(b > a for a, b in zip(aics, aics[1:]))
        assert all(b > a for a, b in zip(bics, bics[1:]))


def test_aicc_dominates_aic():
    for n in (10, 30, 100, 1000, 10**4, 10**6):
        for p in range(0, min(n - 3, 40)):
            assert aicc(1.0, n, p) >= aic(1.0, n, p)


def test_select_order_breaks_ties_toward_smaller_p():
    scores = [
        OrderScore(p=4, sigma2=1.0, aic=2.0, aicc=2.0, bic=5.0),
        OrderScore(p=2, sigma2=1.0, aic=2.0, aicc=9.0, bic=5.0),
        OrderScore(p=3, sigma2=1.0, aic=7.0, aicc=1.0, bic=5.0),
    ]
    assert select_order(scores, "bic") == 2
    assert select_order(scores, "aic") == 2
    assert select_order(scores, "aicc") == 3
    with pytest.raises(ValueError, match="unknown criterion"):
        select_order(scores, "hqc")
    with pytest.raises(ValueError, match="no candidate"):
        select_order([], "bic")


def test_block_selection_breaks_ties_toward_smaller_p():
    values = np.array([[2.0, 1.0, 1.0], [0.5, 0.5, 0.5], [np.inf, np.inf, np.inf]])
    selected = in_rows(list(values), lambda rows: _minimizers(np.array(rows)))
    assert [str(p) if isinstance(p, ValueError) else p for p in selected] == [
        2, 1, "no candidate orders to select from"
    ]


def test_sweep_orders_select_what_scan_sweep_selects_whatever_the_neighbours():
    # Each sweep's order, or error, is scan_sweep's, in any company and
    # order; a sweep whose sigma2 is not positive, or is infinite at every
    # order, fails alone.
    rng = np.random.default_rng(5)
    sweeps, sizes = [], []
    for seed, method in zip(range(12), ["burg", "yule_walker", "mle"] * 4):
        n = int(rng.integers(200, 3000))
        x = simulate_ar(ArModel(2, [-1.2, 0.8], 1.0), n, seed=seed)
        sweeps.append(fit_sweep(x, 12, method, grid_size=64))
        sizes.append(n)
    zero, infinite = sweeps[0].sigma2_by_order.copy(), np.full(12, np.inf)
    zero[5] = 0.0
    sweeps += [replace(sweeps[0], sigma2_by_order=zero), replace(sweeps[1], sigma2_by_order=infinite)]
    sizes += sizes[:2]
    for criterion in ("aic", "aicc", "bic"):
        expected = []
        for sweep, n in zip(sweeps, sizes):
            try:
                expected.append(scan_sweep(sweep, n, criterion).selected_p)
            except ValueError as exc:
                expected.append(str(exc))
        assert expected[-2:] == ["sigma2 must be positive", "no candidate orders to select from"]
        for order in (list(range(len(sweeps))), list(range(len(sweeps)))[::-1], [3], [12, 4]):
            selected = in_rows(order, lambda rows: sweep_orders(
                [sweeps[i] for i in rows], [sizes[i] for i in rows], criterion))
            assert [str(p) if isinstance(p, ValueError) else p for p in selected] == [
                expected[i] for i in order
            ]


def test_order_scan_result_structure():
    x = simulate_ar(ArModel(1, [-0.7], 1.0), 1200, seed=3)
    result = order_scan(x, p_max=12, method="burg", criterion="aic")
    assert result.criterion_used == "aic"
    assert [s.p for s in result.per_order] == list(range(1, 13))
    best = min(result.per_order, key=lambda s: (s.aic, s.p))
    assert result.selected_p == best.p
    assert all(s.sigma2 > 0.0 for s in result.per_order)


def test_order_scan_matches_independent_fits():
    # The single sweep must reproduce the sigma2 an order-p fit returns,
    # for every order and every method, and score it with the bits of
    # aic, aicc and bic.
    x = simulate_ar(ArModel(2, [-1.2, 0.8], 1.0), 1500, seed=12)
    p_max = 8
    fitters = {
        "burg": lambda ts, p: burg_fit(ts, p),
        "yule_walker": lambda ts, p: yule_walker_fit(ts, p),
        "mle": lambda ts, p: mle_fit(ts, p, grid_size=512),
    }
    for method, fitter in fitters.items():
        result = order_scan(x, p_max=p_max, method=method, grid_size=512)
        for score in result.per_order:
            independent = fitter(x, score.p).model.sigma2
            assert abs(score.sigma2 - independent) <= 1e-10 * independent
            assert score.aic == aic(score.sigma2, len(x), score.p)
            assert score.aicc == aicc(score.sigma2, len(x), score.p)
            assert score.bic == bic(score.sigma2, len(x), score.p)


def test_order_scan_recovers_ar3_order():
    model = ArModel(3, coefficients_from_reflection([-0.6, 0.5, -0.4]), 1.0)
    hits = 0
    for seed in range(100):
        x = simulate_ar(model, 2560, seed=seed)
        hits += order_scan(x, p_max=20, method="burg", criterion="bic").selected_p == 3
    assert hits >= 80


def test_order_scan_bic_consistency_improves_with_length():
    model = ArModel(3, coefficients_from_reflection([-0.6, 0.5, -0.4]), 1.0)
    hits = {}
    for n in (512, 2560, 10_000):
        hits[n] = sum(
            order_scan(simulate_ar(model, n, seed=seed), p_max=20).selected_p == 3
            for seed in range(100)
        )
    assert hits[10_000] >= hits[512]
    assert hits[10_000] >= 95


def test_order_scan_prefers_order_one_on_white_noise():
    hits = 0
    for seed in range(100):
        x = simulate_ar(ArModel(0, [], 1.0), 10_000, seed=seed)
        hits += order_scan(x, p_max=20, method="burg", criterion="bic").selected_p == 1
    assert hits >= 90


def test_order_scan_input_guards():
    x = simulate_ar(ArModel(1, [-0.5], 1.0), 400, seed=0)
    with pytest.raises(ValueError, match="unknown method"):
        order_scan(x, method="welch")
    with pytest.raises(ValueError, match="unknown criterion"):
        order_scan(x, criterion="hqc")
    # The criterion is checked before the sweep is scored: Burg of
    # [1, -1, 1, -1] reaches k = 1 and sigma2 0, which scoring refuses.
    alternating = fit_sweep(TimeSeries(np.array([1.0, -1.0, 1.0, -1.0]), 1.0), 1)
    assert alternating.sigma2_by_order[0] == 0.0
    for select in (lambda: scan_sweep(alternating, 4, "nope"),
                   lambda: sweep_orders([alternating], [4], "nope")):
        with pytest.raises(ValueError, match="^unknown criterion: 'nope'$"):
            select()
    with pytest.raises(ValueError, match="p_max"):
        order_scan(x, p_max=0)
    with pytest.raises(ValueError, match="more than p_max"):
        order_scan(TimeSeries(np.ones(12) + np.arange(12), 1.0), p_max=10)
    with pytest.raises(ValueError, match="zero-variance"):
        order_scan(TimeSeries(np.full(100, 3.0), 1.0), p_max=5, method="yule_walker")
    with pytest.raises(ValueError, match="grid too coarse"):
        order_scan(x, p_max=20, method="mle", grid_size=39)
