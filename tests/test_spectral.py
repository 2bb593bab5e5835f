"""Mean-threshold masking, band power accounting, and the differencing correction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arpsd import (
    ArModel,
    FrequencyBand,
    SpectrumEstimate,
    ar_psd,
    band_powers,
    coefficients_from_reflection,
    default_bands,
    threshold_psd,
    undifference_psd,
)


def _spectrum(values, fs=128.0):
    values = np.asarray(values, dtype=float)
    freqs = np.linspace(0.0, 0.5, values.size)
    return SpectrumEstimate(freqs, values, fs)


def _random_spectrum(rng):
    size = int(rng.integers(4, 200))
    return _spectrum(rng.uniform(0.0, 10.0, size=size))


def test_threshold_hand_arithmetic():
    # mean of [1,2,3,4] is 2.5; with k=1 only 3 and 4 survive.
    masked = threshold_psd(_spectrum([1.0, 2.0, 3.0, 4.0]), 1.0)
    assert masked.mean_power == 2.5
    assert np.array_equal(masked.values, [0.0, 0.0, 3.0, 4.0])
    assert masked.survivor_fraction == 0.5
    assert masked.k == 1.0


def test_threshold_at_zero_is_identity():
    rng = np.random.default_rng(42)
    for _ in range(25):
        spec = _random_spectrum(rng)
        masked = threshold_psd(spec, 0.0)
        assert np.array_equal(masked.values, spec.values)
        assert masked.survivor_fraction == 1.0


def test_threshold_negative_k_is_identity():
    spec = _spectrum([5.0, 0.0, 1.0])
    masked = threshold_psd(spec, -3.0)
    assert np.array_equal(masked.values, spec.values)
    assert masked.survivor_fraction == 1.0


def test_threshold_comparison_is_inclusive():
    # A flat spectrum sits exactly at its own mean, so k=1 keeps all of it.
    masked = threshold_psd(_spectrum([2.0, 2.0, 2.0, 2.0]), 1.0)
    assert np.array_equal(masked.values, [2.0, 2.0, 2.0, 2.0])
    assert masked.survivor_fraction == 1.0


def test_threshold_above_peak_ratio_zeroes_everything():
    rng = np.random.default_rng(43)
    for _ in range(25):
        spec = _random_spectrum(rng)
        k = spec.values.max() / spec.values.mean() * 1.0001
        masked = threshold_psd(spec, k)
        assert np.all(masked.values == 0.0)
        assert masked.survivor_fraction == 0.0


def test_threshold_survivor_sets_shrink_as_k_grows():
    rng = np.random.default_rng(44)
    for _ in range(25):
        spec = _random_spectrum(rng)
        previous = None
        for k in (0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0):
            survivors = set(np.flatnonzero(threshold_psd(spec, k).values))
            if previous is not None:
                assert survivors <= previous
            previous = survivors


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    values=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=300),
    ks=st.lists(st.floats(-1.0, 50.0), min_size=2, max_size=6),
)
def test_threshold_mask_is_monotone_in_k(values, ks):
    spectrum = _spectrum(values)
    previous = None
    for k in sorted(ks):
        masked = threshold_psd(spectrum, k)
        support = masked.values > 0.0
        if previous is not None:
            assert not np.any(support & ~previous[0])
            assert masked.survivor_fraction <= previous[1]
        previous = support, masked.survivor_fraction


def test_threshold_mask_is_scale_invariant():
    rng = np.random.default_rng(45)
    for _ in range(25):
        spec = _random_spectrum(rng)
        k = float(rng.uniform(0.2, 3.0))
        base_idx = np.flatnonzero(threshold_psd(spec, k).values > 0.0)
        for c in (1e-6, 0.5, 3.0, 1e7):
            scaled = SpectrumEstimate(
                spec.freqs_normalized, c * spec.values, spec.sample_rate_hz
            )
            idx = np.flatnonzero(threshold_psd(scaled, k).values > 0.0)
            assert np.array_equal(idx, base_idx)


def test_threshold_preserves_surviving_values_exactly():
    rng = np.random.default_rng(46)
    for _ in range(25):
        spec = _random_spectrum(rng)
        masked = threshold_psd(spec, float(rng.uniform(0.0, 3.0)))
        zeroed = masked.values == 0.0
        assert np.array_equal(masked.values[~zeroed], spec.values[~zeroed])


def test_threshold_all_zero_spectrum_keeps_everything():
    # threshold is 0 and the comparison is inclusive, so the (empty-power)
    # grid survives in full; downstream banding sees zero total power.
    masked = threshold_psd(_spectrum([0.0, 0.0, 0.0]), 2.0)
    assert masked.survivor_fraction == 1.0
    assert np.all(masked.values == 0.0)


def test_masked_spectrum_delegates_grid_properties():
    spec = _spectrum([1.0, 2.0, 3.0], fs=64.0)
    masked = threshold_psd(spec, 1.0)
    assert np.array_equal(masked.freqs_normalized, spec.freqs_normalized)
    assert np.array_equal(masked.freqs_hz, spec.freqs_hz)
    assert masked.sample_rate_hz == 64.0
    assert masked.base is spec


def _unit_hz_spectrum(spikes: dict[int, float]) -> SpectrumEstimate:
    """A 0..64 Hz grid with 1 Hz spacing and the given spikes."""
    values = np.zeros(65)
    for hz, height in spikes.items():
        values[hz] = height
    return SpectrumEstimate(np.linspace(0.0, 0.5, 65), values, 128.0)


def test_band_powers_single_spike_lands_in_its_band():
    report = band_powers(_unit_hz_spectrum({5: 6.0}), default_bands())
    # Trapezoids on the 1 Hz grid: the spike holds area 6 both inside
    # theta ([4,8) covers points 4..7) and over the whole grid.
    assert abs(report.total_power - 6.0) < 1e-12
    assert abs(report.per_band["theta"].power - 6.0) < 1e-12
    assert abs(report.per_band["theta"].fraction - 1.0) < 1e-12
    assert report.per_band["delta"].power == 0.0
    assert report.dominant_band == "theta"
    assert report.fraction("theta") == report.per_band["theta"].fraction


def test_band_powers_tie_goes_to_the_lower_band():
    report = band_powers(_unit_hz_spectrum({2: 4.0, 5: 4.0}), default_bands())
    assert abs(report.per_band["delta"].fraction - 0.5) < 1e-12
    assert abs(report.per_band["theta"].fraction - 0.5) < 1e-12
    assert report.dominant_band == "delta"


def test_band_powers_edges_are_half_open():
    # 8 Hz belongs to alpha, not theta.
    report = band_powers(_unit_hz_spectrum({8: 2.0}), default_bands())
    assert report.per_band["theta"].power == 0.0
    assert report.per_band["alpha"].power > 0.0
    assert report.dominant_band == "alpha"


def test_band_powers_zero_spectrum_has_no_dominant_band():
    report = band_powers(_unit_hz_spectrum({}), default_bands())
    assert report.total_power == 0.0
    assert report.dominant_band == "none"
    assert all(bp.power == 0.0 and bp.fraction == 0.0 for bp in report.per_band.values())


def test_band_powers_mass_outside_all_bands():
    report = band_powers(_unit_hz_spectrum({45: 3.0}), default_bands())
    assert report.total_power > 0.0
    assert all(bp.fraction == 0.0 for bp in report.per_band.values())
    assert report.dominant_band == "none"


def test_band_powers_fraction_sum_never_exceeds_one():
    rng = np.random.default_rng(47)
    for _ in range(25):
        spec = _spectrum(rng.uniform(0.0, 5.0, size=int(rng.integers(16, 200))))
        report = band_powers(spec, default_bands())
        assert sum(bp.fraction for bp in report.per_band.values()) <= 1.0 + 1e-12


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    values=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=2, max_size=300),
    fs=st.sampled_from([64.0, 100.0, 128.0, 256.0]),
)
def test_band_power_shares_never_exceed_one(values, fs):
    report = band_powers(_spectrum(values, fs), default_bands())
    names = list(report.per_band)
    for size in range(1, len(names) + 1):
        for subset in itertools.combinations(names, size):
            assert 0.0 <= report.combined_fraction(subset) <= 1.0
    assert all(0.0 <= bp.fraction <= 1.0 for bp in report.per_band.values())


def test_combined_fraction_adds_powers_not_fractions():
    report = band_powers(_unit_hz_spectrum({2: 1.0, 5: 3.0, 20: 1.0}), default_bands())
    low = report.per_band["delta"].power + report.per_band["theta"].power
    assert report.combined_fraction(("delta", "theta")) == low / report.total_power
    assert report.combined_fraction(("gamma",)) == 0.0


def test_band_powers_fractions_are_scale_invariant():
    rng = np.random.default_rng(48)
    for _ in range(25):
        values = rng.uniform(0.0, 5.0, size=64)
        base = band_powers(_spectrum(values), default_bands())
        scaled = band_powers(_spectrum(values * 37.5), default_bands())
        for name in base.per_band:
            assert abs(base.per_band[name].fraction - scaled.per_band[name].fraction) < 1e-12
        assert base.dominant_band == scaled.dominant_band


def test_band_powers_band_with_fewer_than_two_grid_points_gets_zero():
    spec = SpectrumEstimate([0.0, 0.05, 0.5], [0.0, 5.0, 0.0], 200.0)
    report = band_powers(spec, default_bands())  # only 10 Hz falls in alpha
    assert report.per_band["alpha"].power == 0.0
    assert report.dominant_band == "none"


def test_band_powers_rejects_bad_band_sets():
    spec = _unit_hz_spectrum({5: 1.0})
    with pytest.raises(ValueError, match="at least one band"):
        band_powers(spec, [])
    with pytest.raises(ValueError, match="overlapping"):
        band_powers(
            spec,
            [FrequencyBand("low", 1.0, 6.0), FrequencyBand("mid", 4.0, 10.0)],
        )


def test_band_powers_refuses_duplicate_band_names():
    # Keyed by name, the second band x replaced the first, whose power then
    # counted neither in per_band nor in total_power (62 of 64).
    spec = _unit_hz_spectrum({hz: 1.0 for hz in range(65)})
    bands = [FrequencyBand("x", 0.5, 4.0), FrequencyBand("z", 4.0, 8.0), FrequencyBand("y", 8.0, 64.0)]
    assert band_powers(spec, bands).total_power == 64.0
    bands[1] = FrequencyBand("x", 4.0, 8.0)
    with pytest.raises(ValueError, match="duplicate band name: x"):
        band_powers(spec, bands)


def test_band_powers_reports_bands_in_caller_order():
    bands = (FrequencyBand("beta", 14.0, 30.0), FrequencyBand("delta", 0.5, 4.0))
    report = band_powers(_unit_hz_spectrum({2: 1.0}), bands)
    assert list(report.per_band) == ["beta", "delta"]


def test_undifference_exactly_inverts_the_filter_response():
    # A spectrum equal to the differencer response times a constant must
    # correct back to that constant.
    freqs = np.linspace(0.0, 0.5, 129)
    response = (2.0 * np.sin(np.pi * freqs)) ** 2
    for c in (1.0, 3.75):
        for d in (1, 2):
            spec = SpectrumEstimate(freqs, c * response**d, 64.0)
            corrected = undifference_psd(spec, d)
            assert corrected.freqs_normalized[0] > 0.0
            assert corrected.freqs_normalized.size == 128
            assert np.allclose(corrected.values, c, rtol=1e-10)
            assert corrected.sample_rate_hz == 64.0


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    ks=st.lists(st.floats(-0.95, 0.95), max_size=10),
    d=st.integers(1, 3),
    grid=st.integers(2, 600),
    fs=st.sampled_from([64.0, 128.0, 256.0]),
)
def test_undifference_inverts_the_differencing_response(ks, d, grid, fs):
    # Differencing d times multiplies a PSD by |1 - exp(-2j pi f)|^(2d); the
    # correction gives the undifferenced PSD back everywhere but f = 0.
    psd = ar_psd(ArModel(len(ks), coefficients_from_reflection(ks), 1.0), grid, fs)
    freqs = psd.freqs_normalized
    gain = np.abs(1.0 - np.exp(-2j * np.pi * freqs)) ** (2 * d)
    corrected = undifference_psd(SpectrumEstimate(freqs, psd.values * gain, fs), d)
    assert np.array_equal(corrected.freqs_normalized, freqs[1:])
    assert corrected.sample_rate_hz == fs
    assert np.allclose(corrected.values, psd.values[1:], rtol=1e-12, atol=0.0)


def test_undifference_drops_only_the_zero_frequency_bin():
    spec = _spectrum([1.0, 2.0, 3.0, 4.0, 5.0])
    corrected = undifference_psd(spec)
    assert np.array_equal(corrected.freqs_normalized, spec.freqs_normalized[1:])


def test_undifference_guards():
    spec = _spectrum([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="at least 1"):
        undifference_psd(spec, 0)
    with pytest.raises(ValueError, match="no nonzero-frequency"):
        undifference_psd(SpectrumEstimate([0.0], [1.0], 1.0), 1)
