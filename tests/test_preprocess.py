"""Differencing, demeaning, autocovariance, periodogram, and the normality screen."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arpsd import (
    Recording,
    SpectrumEstimate,
    TimeSeries,
    biased_autocov,
    demean,
    detect_recording,
    difference,
    normality_check,
    periodogram,
)
from arpsd.preprocess import prepare_into

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# Ordinary channels, and channels of values near the float64 limit whose
# differences or sums overflow.
channels = st.one_of(
    st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=400),
    st.lists(st.floats(-1.7e308, 1.7e308), min_size=4, max_size=40),
)


def test_difference_hand_values():
    ts = TimeSeries([1.0, 4.0, 9.0, 16.0], 1.0)
    out = difference(ts)
    assert np.array_equal(out.samples, [3.0, 5.0, 7.0])
    assert out.sample_rate_hz == 1.0
    out2 = difference(ts, 2)
    assert np.array_equal(out2.samples, [2.0, 2.0])


def test_difference_order_zero_is_identity():
    ts = TimeSeries([1.0, 2.0], 5.0)
    assert difference(ts, 0) is ts


def test_difference_rejects_bad_orders():
    ts = TimeSeries([1.0, 2.0], 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        difference(ts, -1)
    with pytest.raises(ValueError, match="insufficient samples"):
        difference(ts, 2)
    with pytest.raises(ValueError, match="insufficient samples"):
        difference(TimeSeries([1.0], 1.0), 1)


def test_difference_then_cumsum_reconstructs_signal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        x = rng.standard_normal(n) * 10.0 + rng.normal() * 5.0
        ts = TimeSeries(x, 1.0)
        d = difference(ts)
        rebuilt = np.concatenate(([x[0]], x[0] + np.cumsum(d.samples)))
        assert np.allclose(rebuilt, x, atol=1e-12)


def test_demean_removes_mean_and_keeps_rate():
    ts = TimeSeries([1.0, 2.0, 3.0], 42.0)
    out = demean(ts)
    assert np.array_equal(out.samples, [-1.0, 0.0, 1.0])
    assert out.sample_rate_hz == 42.0
    assert abs(out.samples.mean()) < 1e-15


@PROPERTY
@given(values=channels, d=st.integers(0, 3))
def test_difference_and_demean_never_write_or_alias_their_input(values, d):
    x = TimeSeries(values, 128.0)
    before = x.samples.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = demean(difference(x, d))
        except ValueError as exc:
            assert str(exc) == "samples contains non-finite values"
        else:
            assert not out.samples.flags.writeable
            assert not np.shares_memory(out.samples, x.samples)
            assert np.all(np.isfinite(out.samples))
    assert x.samples.tobytes() == before
    assert not x.samples.flags.writeable


@PROPERTY
@given(
    values=channels,
    d=st.integers(0, 3),
    spare=st.integers(0, 3),
    stale=st.sampled_from([0.0, 1e300, -7.5, np.nan, np.inf]),
)
def test_prepare_into_equals_demean_of_difference_bit_for_bit(values, d, spare, stale):
    # The buffer holds what an earlier, maybe longer, channel left in it.
    x = TimeSeries(values, 128.0)
    work = np.full(len(x) + spare, stale)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expected = demean(difference(x, d))
        except ValueError as exc:
            assert str(exc) == "samples contains non-finite values"
            with pytest.raises(ValueError, match="^samples contains non-finite values$"):
                prepare_into(x, d, work)
            return
        out = prepare_into(x, d, work)
    assert out.samples.tobytes() == expected.samples.tobytes()
    assert out.sample_rate_hz == expected.sample_rate_hz
    assert np.shares_memory(out.samples, work)
    assert not out.samples.flags.writeable
    assert work.flags.writeable


def test_prepare_into_refuses_what_difference_refuses():
    x = TimeSeries([1.0, 2.0], 1.0)
    work = np.empty(2)
    with pytest.raises(ValueError, match="nonnegative"):
        prepare_into(x, -1, work)
    with pytest.raises(ValueError, match="insufficient samples"):
        prepare_into(x, 2, work)
    # First differences of alternating +-1.7e308 exceed the float64 range.
    huge = TimeSeries([1.7e308, -1.7e308, 1.7e308], 1.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        prepare_into(huge, 1, np.empty(3))


@PROPERTY
@given(
    magnitudes=st.lists(st.floats(0.9e308, 1.7e308), min_size=20, max_size=80),
    position=st.integers(0, 2),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_channel_whose_difference_overflows_lands_in_errors(magnitudes, position):
    # Alternating signs make every first difference exceed the float64 range.
    huge = [m if i % 2 else -m for i, m in enumerate(magnitudes)]
    rng = np.random.default_rng(position)
    names = ["a", "b", "c"]
    channels = {name: TimeSeries(rng.standard_normal(len(huge)), 128.0) for name in names}
    channels[names[position]] = TimeSeries(huge, 128.0)
    report = detect_recording(Recording(channels))
    assert report.errors == {names[position]: "samples contains non-finite values"}
    assert [d.derivation for d in report.per_channel] == [n for n in names if n != names[position]]


def test_biased_autocov_hand_values():
    # x = [1,-1,1,-1], demeaned mean is 0:
    # r(0) = 4/4 = 1, r(1) = (-1-1-1)/4 = -0.75, r(2) = (1+1)/4 = 0.5
    ts = TimeSeries([1.0, -1.0, 1.0, -1.0], 1.0)
    r = biased_autocov(ts, 3)
    assert np.allclose(r.values, [1.0, -0.75, 0.5, -0.25])


def test_biased_autocov_demeans_internally():
    ts = TimeSeries([101.0, 99.0, 101.0, 99.0], 1.0)
    r = biased_autocov(ts, 1)
    assert np.allclose(r.values, [1.0, -0.75])


def test_biased_autocov_lag_bounds():
    ts = TimeSeries([1.0, 2.0, 3.0], 1.0)
    assert biased_autocov(ts, 2).max_lag == 2
    with pytest.raises(ValueError, match="max_lag"):
        biased_autocov(ts, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        biased_autocov(ts, -1)


def test_biased_autocov_never_exceeds_lag_zero():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(4, 300))
        x = rng.standard_normal(n) * float(rng.uniform(0.1, 100.0))
        r = biased_autocov(TimeSeries(x, 1.0), n - 1)
        assert np.all(np.abs(r.values[1:]) <= r[0] + 1e-12)


def test_periodogram_zero_frequency_carries_sample_sum():
    # I(0) = |sum x|^2 / N, without demeaning.
    x = np.array([1.0, 2.0, 3.0, 4.0])
    pg = periodogram(TimeSeries(x, 1.0), 129)
    assert pg.freqs_normalized[0] == 0.0
    assert pg.freqs_normalized[-1] == 0.5
    assert abs(pg.values[0] - 100.0 / 4.0) < 1e-10


def test_periodogram_matches_direct_transform():
    # Oracle: the definition evaluated term by term at each grid point.
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        grid = int(rng.integers(2, 40))
        x = rng.standard_normal(n)
        pg = periodogram(TimeSeries(x, 1.0), grid)
        times = np.arange(n)
        for f, got in zip(pg.freqs_normalized, pg.values):
            direct = abs(np.sum(x * np.exp(-2j * np.pi * f * times))) ** 2 / n
            assert abs(got - direct) < 1e-8 * max(1.0, direct)


def test_periodogram_of_impulse_is_flat():
    x = np.zeros(16)
    x[0] = 1.0
    pg = periodogram(TimeSeries(x, 1.0), 64)
    assert np.allclose(pg.values, 1.0 / 16.0)


def test_periodogram_single_point_grid():
    pg = periodogram(TimeSeries([1.0, 2.0], 1.0), 1)
    assert pg.freqs_normalized.shape == (1,)
    assert abs(pg.values[0] - 4.5) < 1e-12


def test_periodogram_is_a_spectrum_at_the_signal_sample_rate():
    pg = periodogram(TimeSeries(np.arange(8.0), 256.0), 5)
    assert isinstance(pg, SpectrumEstimate)
    assert pg.sample_rate_hz == 256.0
    assert pg.freqs_hz[-1] == 128.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_periodogram_refuses_an_overflowing_value():
    # A sine of amplitude 2.8e151 over 2,559 samples has a finite energy,
    # but its peak |X(f)|^2 overflows.  MLE fits report this message.
    x = 2.8e151 * np.sin(2.0 * np.pi * 0.05 * np.arange(2559))
    with pytest.raises(ValueError, match="periodogram values must be finite and nonnegative"):
        periodogram(TimeSeries(x, 128.0), 512)


def test_periodogram_values_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 100))
        x = rng.standard_normal(n)
        pg = periodogram(TimeSeries(x, 1.0), 65)
        assert np.all(pg.values >= 0.0)


def test_periodogram_rejects_empty_grid():
    with pytest.raises(ValueError, match="at least 1"):
        periodogram(TimeSeries([1.0, 2.0], 1.0), 0)


def test_periodogram_parseval_for_grid_aligned_length():
    # When the grid period 2(G-1) is at least the signal length, the
    # rectangle-rule integral of I(f) over [-1/2, 1/2] equals the sample
    # power exactly (discrete Parseval identity).
    rng = np.random.default_rng(11)
    for _ in range(20):
        grid = int(rng.integers(8, 80))
        n = int(rng.integers(2, 2 * (grid - 1) + 1))
        x = rng.standard_normal(n)
        pg = periodogram(TimeSeries(x, 1.0), grid)
        spacing = 0.5 / (grid - 1)
        interior = pg.values[1:-1].sum()
        integral = 2.0 * spacing * (interior + 0.5 * (pg.values[0] + pg.values[-1]))
        power = np.dot(x, x) / n
        assert abs(integral - power) < 1e-10 * max(1.0, power)


def test_normality_check_accepts_gaussian_draws():
    rng = np.random.default_rng(2026)
    accepted = 0
    for _ in range(50):
        x = rng.standard_normal(1024)
        _, is_normal = normality_check(TimeSeries(x, 1.0))
        accepted += is_normal
    # 5 percent test level: expect roughly 47-48 of 50 to pass.
    assert accepted >= 44


def test_normality_check_rejects_heavy_skew():
    rng = np.random.default_rng(77)
    rejected = 0
    for _ in range(20):
        x = np.exp(rng.standard_normal(1024))
        _, is_normal = normality_check(TimeSeries(x, 1.0))
        rejected += not is_normal
    assert rejected == 20


def test_normality_statistic_hand_value():
    # Alternating +/-1 over 8 samples: skewness 0, kurtosis 1,
    # statistic = (8/6) * (0 + (1-3)^2/4) = 4/3.
    x = np.array([1.0, -1.0] * 4)
    statistic, is_normal = normality_check(TimeSeries(x, 1.0))
    assert abs(statistic - 4.0 / 3.0) < 1e-12
    assert is_normal


def test_normality_check_input_guards():
    with pytest.raises(ValueError, match="too few samples"):
        normality_check(TimeSeries([1.0] * 7, 1.0))
    with pytest.raises(ValueError, match="zero-variance"):
        normality_check(TimeSeries([3.0] * 10, 1.0))
