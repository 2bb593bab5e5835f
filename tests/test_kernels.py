"""Properties of the fast AR kernels, checked against their slow references.

The references are the Burg lattice (``_burg_lattice``), which updates the
forward and backward error vectors stage by stage, and a direct cosine and
sine sum for |A(f)|^2.  Examples are drawn by hypothesis with a fixed
derivation, so every run checks the same inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from arpsd import (
    AutocovarianceSeq,
    Recording,
    RunConfig,
    TimeSeries,
    burg_fit,
    detect_recording,
    fit_sweep,
    levinson_durbin,
    mle_fit,
    order_scan,
    yule_walker_fit,
)
from arpsd.estimation import (
    _LAG_MIN_SAMPLES,
    _burg_lag_rows,
    _burg_lattice,
    _lag_row,
    _transfer_mag2,
    burg_sweeps,
)

FS = 128.0
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def _resonance(seed, n, radius, center, noise=1.0):
    """Zero-mean two-pole resonance (poles radius * exp(+-2j pi center))
    driven by unit white noise, plus white noise of std ``noise``."""
    rng = np.random.default_rng(seed)
    a1 = -2.0 * radius * math.cos(2.0 * math.pi * center)
    a2 = radius * radius
    drive = rng.standard_normal(n + 200)
    y = np.zeros(n + 200)
    for i in range(n + 200):
        y[i] = drive[i] - a1 * y[i - 1] - a2 * y[i - 2] if i >= 2 else drive[i]
    x = y[200:] + noise * rng.standard_normal(n)
    return x - x.mean()


def _sine(n, hz=5.0, noise=0.0, seed=0):
    t = np.arange(n) / FS
    x = np.sin(2.0 * math.pi * hz * t)
    if noise:
        x = x + noise * np.random.default_rng(seed).standard_normal(n)
    return x


def _lag_stages(x, p):
    """The lag-product Burg stages of one signal to order p: the one-row
    case of ``_burg_lag_rows``."""
    return _burg_lag_rows(_lag_row(x, p)[np.newaxis], x.size, p)[0]


signals = st.builds(
    _resonance,
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(40, 6000), st.integers(_LAG_MIN_SAMPLES, _LAG_MIN_SAMPLES + 4000)),
    radius=st.floats(0.0, 0.995),
    center=st.floats(0.01, 0.49),
    noise=st.sampled_from([0.0, 0.1, 1.0]),
)


@PROPERTY
@given(x=signals, p=st.integers(1, 30))
def test_burg_reflections_bounded_and_error_non_increasing(x, p):
    p = min(p, x.size - 1)
    fit = burg_fit(TimeSeries(x, FS), p)
    lag_coeffs, lag_ks, lag_errs = _lag_stages(x, p)
    done = len(lag_coeffs)
    for ks, errs in (
        (fit.reflection_coeffs, fit.prediction_error_by_order),
        (lag_ks[:done], lag_errs[: done + 1]),
        _burg_lattice(x, p)[1:],
    ):
        assert np.all(np.abs(ks) <= 1.0)
        assert np.all(np.diff(errs) <= 0.0)
        assert np.all(errs >= 0.0)


@PROPERTY
@given(x=signals, p=st.integers(1, 30))
def test_lag_product_stages_match_the_lattice(x, p):
    p = min(p, x.size - 2)
    lag_coeffs, lag_ks, lag_errs = _lag_stages(x, p)
    ref_coeffs, ref_ks, ref_errs = _burg_lattice(x, p)
    done = len(lag_coeffs)
    # Every stage that passed the conditioning test agrees with the lattice.
    assert np.all(np.abs(lag_ks[:done] - ref_ks[:done]) <= 1e-12)
    assert np.all(np.abs(lag_errs[: done + 1] - ref_errs[: done + 1]) <= 1e-12 * ref_errs[: done + 1])
    for ours, ref in zip(lag_coeffs, ref_coeffs):
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_lag_products_serve_long_well_conditioned_inputs():
    # The pipeline's input: a differenced 5 Hz resonance in noise.
    x = np.diff(_resonance(3, 20_000, 0.95, 5.0 / FS))
    coeffs_by_order = _lag_stages(x - x.mean(), 30)[0]
    assert len(coeffs_by_order) == 30
    ((_, sweep),) = burg_sweeps(lambda _: TimeSeries(x, FS), 1, 30)
    assert len(sweep.stages) == 1
    assert sweep.fit(30).model.coeffs.tobytes() == coeffs_by_order[-1].tobytes()


@pytest.mark.parametrize("noise", [0.0, 1e-9])
def test_fallback_reproduces_the_lattice_bits_on_a_sine(noise):
    n = _LAG_MIN_SAMPLES + 100
    x = _sine(n, noise=noise)
    x = x - x.mean()
    # A sine is AR(2): a later stage cancels, so the lattice runs instead.
    assert len(_lag_stages(x, 10)[0]) < 10
    fit = burg_fit(TimeSeries(x, FS), 10, demean=False)
    coeffs_by_order, ks, errs = _burg_lattice(x, 10)
    assert np.array_equal(fit.model.coeffs, coeffs_by_order[-1])
    assert np.array_equal(fit.reflection_coeffs, ks)
    assert np.array_equal(fit.prediction_error_by_order, errs)


def test_fallback_keeps_a_noisy_sine_screened_as_theta():
    # Without the fallback, the cancelled lag-product stages give an
    # unstable model here, and the channel lands in errors.
    n = _LAG_MIN_SAMPLES + 100
    recording = Recording({"sine": TimeSeries(_sine(n, noise=1e-9), FS)})
    report = detect_recording(recording, RunConfig())
    assert report.errors == {}
    (decision,) = report.per_channel
    assert decision.dominant_band == "theta"


def _row_signal(kind, seed, n):
    """A signal whose lag-product stages end in a known way: a noise-free
    resonance at pole radius 0.995 and a sine stop after one or two, a
    constant stops at the first, and "overflow" has lag products of inf.
    A noisy resonance may pass every stage."""
    rng = np.random.default_rng(seed)
    if kind == "resonance":
        x = _resonance(seed, n, rng.uniform(0.0, 0.99), rng.uniform(0.01, 0.49), 1.0)
    elif kind == "sharp":
        x = _resonance(seed, n, 0.995, rng.uniform(0.01, 0.49), noise=0.0)
    elif kind == "sine":
        x = _sine(n, hz=rng.uniform(1.0, 60.0))
    elif kind == "constant":
        x = np.zeros(n)
    else:
        x = 1e160 * rng.standard_normal(n)
    return x - x.mean()


def _assert_same_stages(ours, ref, stages):
    (coeffs, ks, errs), (ref_coeffs, ref_ks, ref_errs) = ours, ref
    assert len(coeffs) >= stages and len(ref_coeffs) >= stages
    for a, b in zip(coeffs[:stages], ref_coeffs[:stages]):
        assert a.tobytes() == b.tobytes()
    assert ks[:stages].tobytes() == ref_ks[:stages].tobytes()
    assert errs[: stages + 1].tobytes() == ref_errs[: stages + 1].tobytes()


def _same_outcome(ours, ref):
    if isinstance(ref, Exception):
        return type(ours) is type(ref) and str(ours) == str(ref)
    return ours == ref


@PROPERTY
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["resonance", "sharp", "sine", "constant", "overflow"]),
                  st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=6,
    ),
    n=st.integers(_LAG_MIN_SAMPLES, _LAG_MIN_SAMPLES + 500),
    p=st.integers(1, 30),
    shorter=st.integers(1, 30),
)
def test_lag_rows_give_every_row_the_bits_of_its_one_row_call(rows, n, p, shorter):
    shorter = min(shorter, p)
    series = [TimeSeries(_row_signal(kind, seed, n), FS) for kind, seed in rows]
    centred = [x.samples - x.samples.mean() for x in series]
    # The products of an overflowing row add up to inf or inf - inf.
    with np.errstate(over="ignore", invalid="ignore"):
        lag_rows = np.stack([_lag_row(x, p) for x in centred])
        short_rows = np.stack([_lag_row(x, shorter) for x in centred])
    if all(kind != "overflow" for kind, _ in rows):
        together = _burg_lag_rows(lag_rows, n, p)
        prefixes = _burg_lag_rows(short_rows, n, shorter)
        for row, (kind, _) in enumerate(rows):
            alone = _burg_lag_rows(lag_rows[row : row + 1], n, p)[0]
            done = len(alone[0])
            assert len(together[row][0]) == done
            _assert_same_stages(together[row], alone, done)
            # The sweep to the lower order is a prefix of this one.
            assert len(prefixes[row][0]) == min(done, shorter)
            _assert_same_stages(prefixes[row], alone, min(done, shorter))
            assert done <= {"resonance": p, "sharp": 2, "sine": 2, "constant": 0}[kind]
    # The public form, with the lattice taking over from a failed stage;
    # an overflowing row raises for the whole block, which then runs each
    # row alone.  Every channel is read into one buffer, which the next
    # read overwrites, so a row that stops short must be read again.
    work = np.empty(n)

    def channel(index):
        work[:] = series[index].samples
        return TimeSeries.adopt(work[:], FS)

    with np.errstate(all="raise"):
        outcomes = list(burg_sweeps(channel, len(series), p))
        assert sorted(index for index, _ in outcomes) == list(range(len(series)))
        for row, outcome in outcomes:
            kind, x = rows[row][0], series[row]
            ((_, alone),) = burg_sweeps(lambda _, x=x: x, 1, p)
            assert _same_outcome(outcome, alone)
            if kind == "overflow":
                assert isinstance(alone, FloatingPointError)
                continue
            try:
                expected = fit_sweep(x, p, "burg")
            except ValueError as exc:
                expected = exc
            assert _same_outcome(alone, expected)
            assert not isinstance(alone, Exception) or kind == "constant"
            if not isinstance(outcome, Exception):
                for _, coeffs_by_order, ks, errs in outcome.stages:
                    for values in (*coeffs_by_order, ks, errs):
                        assert not np.shares_memory(values, work)


def test_burg_sweeps_length_rule_and_lattice_rereads():
    short = _resonance(0, _LAG_MIN_SAMPLES - 1, 0.9, 0.1)
    long = _resonance(1, _LAG_MIN_SAMPLES, 0.9, 0.1)
    sine = _sine(_LAG_MIN_SAMPLES + 100)
    signals = [short, long, sine]
    reads = []

    def channel(index):
        reads.append(index)
        return TimeSeries(signals[index], FS)

    outcomes = dict(burg_sweeps(channel, len(signals), 10))
    # The sine's stages stop short, so the lattice reads it again.
    assert sorted(reads) == [0, 1, 2, 2]
    centred = [x - x.mean() for x in signals]
    lattice_coeffs, lattice_ks, _ = _burg_lattice(centred[0], 10)
    assert len(outcomes[0].stages) == 1
    assert outcomes[0].fit(10).model.coeffs.tobytes() == lattice_coeffs[-1].tobytes()
    assert outcomes[0].fit(10).reflection_coeffs.tobytes() == lattice_ks.tobytes()
    lag_coeffs = _lag_stages(centred[1], 10)[0]
    assert len(lag_coeffs) == 10 and len(outcomes[1].stages) == 1
    assert outcomes[1].fit(10).model.coeffs.tobytes() == lag_coeffs[-1].tobytes()
    assert len(outcomes[2].stages) == 2
    assert _lag_row(centred[1], 10).shape == (32,)


def test_burg_sweeps_yield_each_channels_error():
    def channel(index):
        if index == 1:
            raise ValueError("unreadable channel")
        return TimeSeries(np.arange(5.0), FS)

    outcomes = dict(burg_sweeps(channel, 3, 2))
    assert str(outcomes[1]) == "unreadable channel"
    assert not isinstance(outcomes[0], Exception) and outcomes[0] == outcomes[2]
    for p, message in ((0, "order must be at least 1"), (5, "need more samples than the model order")):
        ((_, outcome),) = burg_sweeps(lambda _: TimeSeries(np.arange(5.0), FS), 1, p)
        assert isinstance(outcome, ValueError) and str(outcome) == message


def _direct_mag2(coeffs, grid_size):
    freqs = np.arange(grid_size) / (2.0 * (grid_size - 1))
    re = np.ones(grid_size)
    im = np.zeros(grid_size)
    for i, a in enumerate(coeffs, start=1):
        re += a * np.cos(2.0 * math.pi * i * freqs)
        im -= a * np.sin(2.0 * math.pi * i * freqs)
    return re * re + im * im


@PROPERTY
@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=40),
    grid_size=st.one_of(st.just(2), st.just(3), st.integers(2, 600)),
)
def test_fft_transfer_matches_the_direct_sum(coeffs, grid_size):
    coeffs = np.array(coeffs, dtype=np.float64)
    fast = _transfer_mag2(coeffs, grid_size)
    direct = _direct_mag2(coeffs, grid_size)
    assert fast.shape == (grid_size,)
    # Both sums round each term; the error scales with (1 + sum |a|)^2.
    scale = (1.0 + np.abs(coeffs).sum()) ** 2
    assert np.max(np.abs(fast - direct)) <= 1e-13 * scale


def test_fft_transfer_folds_orders_beyond_the_period():
    # grid_size 2 has period 2: A(0) = 1 + sum a, A(1/2) = 1 + sum (-1)^i a(i).
    coeffs = np.array([0.5, -0.25, 0.125, 2.0, -1.0])
    assert np.allclose(_transfer_mag2(coeffs, 2), [2.375**2, (1 - 0.5 - 0.25 - 0.125 + 2.0 + 1.0) ** 2],
                       rtol=1e-15, atol=0.0)
    assert np.allclose(_transfer_mag2(coeffs, 3), _direct_mag2(coeffs, 3), rtol=1e-14, atol=1e-14)


FITTERS = {
    "burg": burg_fit,
    "yule_walker": yule_walker_fit,
    "mle": lambda x, p: mle_fit(x, p, grid_size=128),
}


def _assert_same_fit(ours, ref):
    assert ours.method == ref.method
    assert ours.model.order_p == ref.model.order_p
    assert np.array_equal(ours.model.coeffs, ref.model.coeffs)
    assert ours.model.sigma2 == ref.model.sigma2
    assert np.array_equal(ours.reflection_coeffs, ref.reflection_coeffs)
    assert np.array_equal(ours.prediction_error_by_order, ref.prediction_error_by_order)


@PROPERTY
@given(
    x=signals,
    method=st.sampled_from(sorted(FITTERS)),
    p_max=st.integers(1, 30),
    data=st.data(),
)
def test_sweep_fit_equals_a_refit_bit_for_bit(x, method, p_max, data):
    p_max = min(p_max, 64, x.size - 3)
    series = TimeSeries(x, FS)
    sweep = fit_sweep(series, p_max, method, grid_size=128)
    p = data.draw(st.integers(1, p_max))
    _assert_same_fit(sweep.fit(p), FITTERS[method](series, p))
    assert sweep.sigma2_by_order[p - 1] == FITTERS[method](series, p).model.sigma2


def test_sweep_switching_to_the_lattice_midway_equals_refits():
    # Two sines are AR(4), so a lag-product stage up to the fifth cancels;
    # orders from there on come from the lattice, lower ones keep lag products.
    n = _LAG_MIN_SAMPLES + 100
    x = _sine(n, 5.0, noise=1e-9) + 0.5 * _sine(n, 11.0)
    series = TimeSeries(x, FS)
    sweep = fit_sweep(series, 12, "burg")
    assert len(sweep.stages) == 2 and 1 < sweep.stages[1][0] <= 5
    for p in range(1, 13):
        _assert_same_fit(sweep.fit(p), burg_fit(series, p))
    scan = order_scan(series, p_max=12)
    _assert_same_fit(scan.fit, burg_fit(series, scan.selected_p))


def test_sweep_rejects_orders_outside_its_range():
    sweep = fit_sweep(TimeSeries(_resonance(0, 200, 0.9, 0.1), FS), 5)
    for p in (0, 6):
        with pytest.raises(ValueError, match="outside"):
            sweep.fit(p)
    with pytest.raises(ValueError, match="unknown method"):
        fit_sweep(TimeSeries(_resonance(0, 200, 0.9, 0.1), FS), 5, "welch")


@PROPERTY
@given(spectrum=st.lists(st.floats(0.05, 20.0), min_size=17, max_size=64), p=st.integers(1, 30))
def test_levinson_matches_the_dense_toeplitz_solve(spectrum, p):
    # The autocovariance of a spectrum within [0.05, 20] gives Toeplitz
    # matrices whose eigenvalues lie in that range: condition number <= 400.
    r = np.fft.irfft(spectrum)
    fit = levinson_durbin(AutocovarianceSeq(r[: p + 1]), p)
    for order in range(1, p + 1):
        direct = np.linalg.solve(toeplitz(r[:order]), -r[1 : order + 1])
        error = r[0] + direct @ r[1 : order + 1]
        assert abs(fit.prediction_error_by_order[order] - error) <= 1e-12 * error
    assert np.max(np.abs(fit.model.coeffs - direct)) <= 1e-11 * max(1.0, np.max(np.abs(direct)))
    assert abs(fit.model.sigma2 - error) <= 1e-12 * error
