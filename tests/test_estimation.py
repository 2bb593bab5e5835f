"""AR fitting routes, the order recursion, lattice arithmetic, and the model PSD."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from arpsd import (
    ArModel,
    AutocovarianceSeq,
    FitResult,
    TimeSeries,
    ar_psd,
    biased_autocov,
    burg_fit,
    coefficients_from_reflection,
    levinson_durbin,
    fit_sweep,
    mle_fit,
    order_scan,
    simulate_ar,
    yule_walker_fit,
)
from arpsd.estimation import fit_sweeps, is_stable, reflection_coefficients


def _random_stable_model(rng, p, sigma2=1.0) -> ArModel:
    ks = rng.uniform(-0.8, 0.8, size=p)
    return ArModel(p, coefficients_from_reflection(ks), sigma2)


def _dense_solve(r: np.ndarray, p: int) -> np.ndarray:
    """Direct Toeplitz solve of the normal equations, as an oracle."""
    matrix = toeplitz(r[:p])
    return np.linalg.solve(matrix, -r[1 : p + 1])


def test_levinson_closed_form_order_one():
    fit = levinson_durbin(AutocovarianceSeq([1.0, 0.5]), 1)
    assert abs(fit.model.coeffs[0] + 0.5) < 1e-15
    assert abs(fit.model.sigma2 - 0.75) < 1e-15
    assert abs(fit.reflection_coeffs[0] + 0.5) < 1e-15
    assert np.allclose(fit.prediction_error_by_order, [1.0, 0.75])


def test_levinson_white_autocovariance_gives_zero_coefficients():
    fit = levinson_durbin(AutocovarianceSeq([2.0, 0.0, 0.0, 0.0]), 3)
    assert np.allclose(fit.model.coeffs, 0.0)
    assert abs(fit.model.sigma2 - 2.0) < 1e-15


def test_levinson_matches_dense_toeplitz_solve():
    rng = np.random.default_rng(314)
    for _ in range(60):
        p = int(rng.integers(1, 21))
        model = _random_stable_model(rng, p)
        x = simulate_ar(model, 4000, seed=rng.integers(1 << 31))
        r = biased_autocov(x, p)
        fit = levinson_durbin(r, p)
        direct = _dense_solve(r.values, p)
        assert np.max(np.abs(fit.model.coeffs - direct)) < 1e-10


def test_levinson_solution_satisfies_normal_equations():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        p = int(rng.integers(1, 15))
        x = simulate_ar(_random_stable_model(rng, p), 3000, seed=rng.integers(1 << 31))
        r = biased_autocov(x, p)
        fit = levinson_durbin(r, p)
        a = fit.model.coeffs
        for lag in range(1, p + 1):
            residual = r[lag] + sum(
                a[i - 1] * r[abs(lag - i)] for i in range(1, p + 1)
            )
            assert abs(residual) < 1e-9 * r[0]


def test_levinson_final_error_equals_residual_power_identity():
    # sigma2 = r(0) + sum_i a(i) r(i)
    rng = np.random.default_rng(55)
    for _ in range(20):
        p = int(rng.integers(1, 10))
        x = simulate_ar(_random_stable_model(rng, p), 2000, seed=rng.integers(1 << 31))
        r = biased_autocov(x, p)
        fit = levinson_durbin(r, p)
        identity = r[0] + float(np.dot(fit.model.coeffs, r.values[1:]))
        assert abs(fit.model.sigma2 - identity) < 1e-12 * r[0]


def test_levinson_rejects_degenerate_and_invalid_inputs():
    with pytest.raises(ValueError, match="degenerate autocovariance"):
        levinson_durbin(AutocovarianceSeq([0.0, 0.0]), 1)
    with pytest.raises(ValueError, match="non-positive-definite"):
        levinson_durbin(AutocovarianceSeq([1.0, 1.0]), 1)
    with pytest.raises(ValueError, match="lag p"):
        levinson_durbin(AutocovarianceSeq([1.0, 0.5]), 2)
    with pytest.raises(ValueError, match="at least 1"):
        levinson_durbin(AutocovarianceSeq([1.0, 0.5]), 0)


def test_yule_walker_recovers_ar2_coefficients():
    model = ArModel(2, [-1.2, 0.8], 1.0)
    for seed in range(10):
        fit = yule_walker_fit(simulate_ar(model, 2560, seed=seed), 2)
        assert abs(fit.model.coeffs[0] + 1.2) < 0.05
        assert abs(fit.model.coeffs[1] - 0.8) < 0.05
        assert fit.method == "yule_walker"


def test_yule_walker_input_guards():
    with pytest.raises(ValueError, match="zero-variance"):
        yule_walker_fit(TimeSeries([5.0] * 100, 1.0), 2)
    with pytest.raises(ValueError, match="more samples"):
        yule_walker_fit(TimeSeries([1.0, 2.0], 1.0), 2)
    with pytest.raises(ValueError, match="at least 1"):
        yule_walker_fit(TimeSeries([1.0, 2.0, 3.0], 1.0), 0)


def test_burg_hand_case_constant_pair():
    # Two equal samples: k1 = -2(1*1)/(1+1) = -1, run on the raw values.
    fit = burg_fit(TimeSeries([1.0, 1.0], 1.0), 1, demean=False)
    assert fit.reflection_coeffs[0] == -1.0
    assert fit.model.coeffs[0] == -1.0
    assert fit.model.sigma2 == 0.0
    assert fit.method == "burg"


def test_burg_hand_case_alternating_pair():
    fit = burg_fit(TimeSeries([1.0, -1.0], 1.0), 1, demean=False)
    assert fit.reflection_coeffs[0] == 1.0
    assert fit.model.sigma2 == 0.0


def test_burg_recovers_ar2_coefficients():
    model = ArModel(2, [-1.2, 0.8], 1.0)
    for seed in range(10):
        fit = burg_fit(simulate_ar(model, 2560, seed=seed), 2)
        assert abs(fit.model.coeffs[0] + 1.2) < 0.05
        assert abs(fit.model.coeffs[1] - 0.8) < 0.05


def test_burg_and_yule_walker_agree_on_long_signals():
    rng = np.random.default_rng(808)
    for _ in range(15):
        p = int(rng.integers(1, 8))
        x = simulate_ar(_random_stable_model(rng, p), 4096, seed=rng.integers(1 << 31))
        a_burg = burg_fit(x, p).model.coeffs
        a_yw = yule_walker_fit(x, p).model.coeffs
        assert np.max(np.abs(a_burg - a_yw)) < 0.02


def test_burg_length_bounds():
    # Exactly p + 1 samples leaves one lattice term and is accepted.
    burg_fit(TimeSeries([1.0, -0.5, 0.25], 1.0), 2, demean=False)
    with pytest.raises(ValueError, match="more samples"):
        burg_fit(TimeSeries([1.0, -0.5], 1.0), 2, demean=False)
    with pytest.raises(ValueError, match="at least 1"):
        burg_fit(TimeSeries([1.0, -0.5], 1.0), 0)


def test_burg_degenerate_signal_raises():
    with pytest.raises(ValueError, match="degenerate signal"):
        burg_fit(TimeSeries([0.0, 0.0, 0.0], 1.0), 1, demean=False)
    # A constant signal demeans to zero, hitting the same guard.
    with pytest.raises(ValueError, match="degenerate signal"):
        burg_fit(TimeSeries([7.0] * 50, 1.0), 3)


def test_fit_invariants_across_methods():
    # Reflection magnitudes bounded by 1, error profile nonnegative and
    # non-increasing, and every fitted model is stable.
    rng = np.random.default_rng(424242)
    for _ in range(40):
        p = int(rng.integers(1, 12))
        n = int(rng.integers(p + 8, 600))
        x = TimeSeries(rng.standard_normal(n), 1.0)
        for fitter in (yule_walker_fit, burg_fit, mle_fit):
            fit = fitter(x, p)
            assert np.all(np.abs(fit.reflection_coeffs) <= 1.0)
            errs = fit.prediction_error_by_order
            assert errs.size == p + 1
            assert np.all(errs >= 0.0)
            assert np.all(np.diff(errs) <= 1e-12 * errs[0])
            assert is_stable(fit.model)


def test_error_profile_starts_at_sample_variance():
    rng = np.random.default_rng(31337)
    x = rng.standard_normal(500)
    ts = TimeSeries(x, 1.0)
    centered = x - x.mean()
    variance = float(np.mean(centered**2))
    for fitter in (yule_walker_fit, burg_fit):
        fit = fitter(ts, 4)
        assert abs(fit.prediction_error_by_order[0] - variance) < 1e-12


def test_mle_coefficients_equal_yule_walker_exactly():
    rng = np.random.default_rng(606)
    for _ in range(10):
        x = TimeSeries(rng.standard_normal(800), 1.0)
        p = int(rng.integers(1, 9))
        assert np.array_equal(
            mle_fit(x, p).model.coeffs, yule_walker_fit(x, p).model.coeffs
        )


def test_mle_variance_close_on_white_noise():
    x = simulate_ar(ArModel(0, [], 1.0), 4096, seed=1)
    fit = mle_fit(x, 2)
    assert abs(fit.model.sigma2 - 1.0) < 0.03
    assert fit.method == "mle"


def test_mle_variance_close_on_ar2():
    x = simulate_ar(ArModel(2, [-1.2, 0.8], 1.0), 2560, seed=1)
    fit = mle_fit(x, 2)
    assert abs(fit.model.sigma2 - 1.0) < 0.10


def test_mle_grid_guard():
    x = TimeSeries(np.random.default_rng(4).standard_normal(300), 1.0)
    with pytest.raises(ValueError, match="grid too coarse"):
        mle_fit(x, 10, grid_size=19)
    mle_fit(x, 10, grid_size=20)


def test_reflection_round_trip():
    rng = np.random.default_rng(909)
    for _ in range(50):
        p = int(rng.integers(1, 16))
        ks = rng.uniform(-0.95, 0.95, size=p)
        coeffs = coefficients_from_reflection(ks)
        back = reflection_coefficients(coeffs)
        assert np.max(np.abs(back - ks)) < 1e-10


def test_reflection_coefficients_reject_unstable_polynomial():
    with pytest.raises(ValueError, match="unstable AR polynomial"):
        reflection_coefficients(np.array([-2.0, 1.0]))
    with pytest.raises(ValueError, match="unstable AR polynomial"):
        reflection_coefficients(np.array([0.0, 1.2]))


def test_is_stable_classifies_known_models():
    assert is_stable(ArModel(2, [-1.2, 0.8], 1.0))
    assert is_stable(ArModel(0, [], 1.0))
    assert not is_stable(ArModel(1, [-1.0], 1.0))
    assert not is_stable(ArModel(2, [-2.0, 1.0], 1.0))


def test_ar_psd_closed_form_order_one():
    # P(f) = 0.75 / |1 - 0.5 exp(-2j pi f)|^2: P(0) = 3, P(1/2) = 1/3.
    spec = ar_psd(ArModel(1, [-0.5], 0.75), grid_size=5)
    assert abs(spec.values[0] - 3.0) < 1e-12
    assert abs(spec.values[-1] - 1.0 / 3.0) < 1e-12
    assert np.allclose(spec.freqs_normalized, [0.0, 0.125, 0.25, 0.375, 0.5])


def test_ar_psd_white_noise_is_flat():
    spec = ar_psd(ArModel(0, [], 2.0), grid_size=16)
    assert np.allclose(spec.values, 2.0)


def test_ar_psd_matches_direct_polynomial_evaluation():
    rng = np.random.default_rng(717)
    for _ in range(20):
        p = int(rng.integers(1, 10))
        model = _random_stable_model(rng, p, sigma2=float(rng.uniform(0.5, 4.0)))
        spec = ar_psd(model, grid_size=33)
        for f, got in zip(spec.freqs_normalized, spec.values):
            amp = 1.0 + sum(
                model.coeffs[i - 1] * np.exp(-2j * np.pi * f * i)
                for i in range(1, p + 1)
            )
            assert abs(got - model.sigma2 / abs(amp) ** 2) < 1e-10 * got


def test_ar_psd_integral_recovers_process_variance():
    # Integrating P over [-1/2, 1/2] returns r(0) of the model, which the
    # reflection coefficients give in closed form.
    rng = np.random.default_rng(121)
    for _ in range(15):
        p = int(rng.integers(1, 7))
        ks = rng.uniform(-0.6, 0.6, size=p)
        model = ArModel(p, coefficients_from_reflection(ks), 1.0)
        r0 = model.sigma2 / np.prod(1.0 - ks**2)
        spec = ar_psd(model, grid_size=2048)
        integral = 2.0 * np.trapezoid(spec.values, spec.freqs_normalized)
        assert abs(integral - r0) < 0.05 * r0


def test_ar_psd_guards():
    with pytest.raises(ValueError, match="unstable AR polynomial"):
        ar_psd(ArModel(1, [-1.5], 1.0))
    with pytest.raises(ValueError, match="at least 2"):
        ar_psd(ArModel(1, [-0.5], 1.0), grid_size=1)
    spec = ar_psd(ArModel(1, [-0.5], 0.0), grid_size=8)
    assert np.all(spec.values == 0.0)


def test_ar_psd_sample_rate_scaling():
    spec = ar_psd(ArModel(0, [], 1.0), grid_size=3, sample_rate_hz=128.0)
    assert np.allclose(spec.freqs_hz, [0.0, 32.0, 64.0])


def test_fit_result_validates_shapes():
    model = ArModel(2, [-1.2, 0.8], 1.0)
    with pytest.raises(ValueError, match="match model order"):
        FitResult(model, "burg", np.array([0.5]), np.array([1.0, 0.5, 0.25]))
    with pytest.raises(ValueError, match="unknown method"):
        FitResult(model, "lattice", np.array([0.5, 0.1]), np.array([1.0, 0.5, 0.25]))


@pytest.mark.parametrize("order", [2.0, 2.5, True])
def test_orders_that_are_not_integers_are_refused(order):
    x = simulate_ar(ArModel(2, [-1.2, 0.8], 1.0), 200, seed=0)
    refusals = [
        (lambda: burg_fit(x, order), "order"),
        (lambda: burg_fit(x, order, demean=False), "order"),
        (lambda: yule_walker_fit(x, order), "order"),
        (lambda: mle_fit(x, order), "order"),
        (lambda: fit_sweep(x, order, "yule_walker"), "order"),
        (lambda: levinson_durbin(biased_autocov(x, 4), order), "order"),
        (lambda: order_scan(x, p_max=order), "p_max"),
    ]
    for refuse, name in refusals:
        with pytest.raises(ValueError, match=f"^{name} must be an integer$") as raised:
            refuse()
        assert type(raised.value) is ValueError
    [[(_, outcome)]] = fit_sweeps(x.samples[np.newaxis], order, "mle")
    assert type(outcome) is ValueError and str(outcome) == "order must be an integer"
    sweep = fit_sweep(x, 4)
    with pytest.raises(ValueError, match="outside the sweep's 1..4"):
        sweep.fit(order)
    # Integers of any integral type but bool are orders.
    assert sweep.fit(np.int64(2)) == sweep.fit(2) == burg_fit(x, np.int64(2))
    for p in (0, -1):
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            burg_fit(x, p)
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            levinson_durbin(biased_autocov(x, 4), p)
        with pytest.raises(ValueError, match="^p_max must be at least 1$"):
            order_scan(x, p_max=p)
