"""Domain type construction, validation, and the default band/montage tables."""

import numpy as np
import pytest

from arpsd import (
    ArModel,
    AutocovarianceSeq,
    ConfusionCounts,
    FrequencyBand,
    Recording,
    SpectrumEstimate,
    TimeSeries,
    band_containing,
    burg_fit,
    default_bands,
    default_montage,
    fit_sweep,
    threshold_psd,
)


def test_time_series_basic_properties():
    ts = TimeSeries([1.0, 2.0, 3.0, 4.0], 2.0)
    assert len(ts) == 4
    assert ts.duration_s == 2.0
    assert ts.samples.dtype == np.float64


def test_time_series_copies_and_freezes_input():
    raw = np.array([1.0, 2.0, 3.0])
    ts = TimeSeries(raw, 1.0)
    raw[0] = 99.0
    assert ts.samples[0] == 1.0
    with pytest.raises(ValueError):
        ts.samples[0] = 5.0


def test_time_series_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 1"):
        TimeSeries([], 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        TimeSeries([1.0, np.nan], 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        TimeSeries([1.0, np.inf], 1.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        TimeSeries([[1.0, 2.0]], 1.0)
    with pytest.raises(ValueError, match="positive"):
        TimeSeries([1.0], 0.0)
    with pytest.raises(ValueError, match="positive"):
        TimeSeries([1.0], -128.0)


def test_recording_preserves_channel_order():
    names = ("zz", "aa", "mm")
    rec = Recording({name: TimeSeries([0.0, 1.0], 10.0) for name in names})
    assert rec.names == names
    assert rec.n_samples == 2
    assert rec.sample_rate_hz == 10.0
    assert len(rec) == 3
    assert rec["aa"].samples[1] == 1.0


def test_recording_rejects_ragged_lengths():
    with pytest.raises(ValueError, match="same sample count"):
        Recording(
            {
                "a": TimeSeries([1.0, 2.0], 1.0),
                "b": TimeSeries([1.0, 2.0, 3.0], 1.0),
            }
        )


def test_recording_rejects_mixed_rates():
    with pytest.raises(ValueError, match="one sample rate"):
        Recording(
            {
                "a": TimeSeries([1.0, 2.0], 1.0),
                "b": TimeSeries([1.0, 2.0], 2.0),
            }
        )


def test_recording_rejects_empty():
    with pytest.raises(ValueError, match="at least one channel"):
        Recording({})


def test_ar_model_validation():
    model = ArModel(2, [-1.2, 0.8], 1.0)
    assert model.order_p == 2
    assert model.sigma2 == 1.0
    with pytest.raises(ValueError, match="exactly order_p"):
        ArModel(2, [0.5], 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        ArModel(1, [0.5], -1.0)
    with pytest.raises(ValueError, match="non-finite"):
        ArModel(1, [np.nan], 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        ArModel(-1, [], 1.0)


def test_ar_model_order_zero_is_representable():
    model = ArModel(0, [], 2.5)
    assert model.order_p == 0
    assert model.coeffs.size == 0


def test_autocovariance_seq_validation():
    r = AutocovarianceSeq([2.0, 1.0, -0.5])
    assert r.max_lag == 2
    assert r[1] == 1.0
    with pytest.raises(ValueError, match="nonnegative"):
        AutocovarianceSeq([-1.0, 0.0])
    with pytest.raises(ValueError, match="exceed"):
        AutocovarianceSeq([1.0, 1.5])
    # Round-off slop just above r(0) is tolerated.
    AutocovarianceSeq([1.0, 1.0 + 1e-12])


def test_spectrum_estimate_validation_and_hz_grid():
    spec = SpectrumEstimate([0.0, 0.25, 0.5], [1.0, 2.0, 3.0], 128.0)
    assert np.allclose(spec.freqs_hz, [0.0, 32.0, 64.0])
    with pytest.raises(ValueError, match="nonnegative"):
        SpectrumEstimate([0.0, 0.5], [1.0, -1.0], 1.0)
    with pytest.raises(ValueError, match=r"\[0, 0.5\]"):
        SpectrumEstimate([0.0, 0.7], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        SpectrumEstimate([0.0, 0.3, 0.2], [1.0, 1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="align"):
        SpectrumEstimate([0.0, 0.1, 0.2], [1.0, 1.0, 1.0, 1.0], 1.0)


def test_frequency_band_half_open_membership():
    band = FrequencyBand("theta", 4.0, 8.0)
    assert band.contains(4.0)
    assert band.contains(7.999)
    assert not band.contains(8.0)
    assert not band.contains(3.999)
    with pytest.raises(ValueError, match="lo_hz < hi_hz"):
        FrequencyBand("bad", 8.0, 4.0)
    with pytest.raises(ValueError, match="lo_hz < hi_hz"):
        FrequencyBand("bad", 4.0, 4.0)
    with pytest.raises(ValueError, match="non-empty"):
        FrequencyBand("", 1.0, 2.0)


def test_confusion_counts_total_and_validation():
    counts = ConfusionCounts(tp=3, fp=1, tn=9, fn=2)
    assert counts.total == 15
    assert ConfusionCounts().total == 0
    with pytest.raises(ValueError, match="nonnegative"):
        ConfusionCounts(tp=-1)
    with pytest.raises(ValueError, match="nonnegative integer"):
        ConfusionCounts(tp=1.5)


def test_default_bands_cover_clinical_range_in_order():
    bands = default_bands()
    names = [b.name for b in bands]
    assert names == ["delta", "theta", "alpha", "beta"]
    assert bands[0].lo_hz == 0.5
    assert bands[-1].hi_hz == 30.0
    # Contiguous, non-overlapping coverage.
    for lower, upper in zip(bands, bands[1:]):
        assert lower.hi_hz == upper.lo_hz


def test_band_containing_maps_each_frequency_to_one_band():
    bands = default_bands()
    assert band_containing(bands, 1.0) == "delta"
    assert band_containing(bands, 4.0) == "theta"
    assert band_containing(bands, 10.0) == "alpha"
    assert band_containing(bands, 20.0) == "beta"
    assert band_containing(bands, 0.2) is None
    assert band_containing(bands, 30.0) is None
    # Edges belong to exactly the upper band.
    for edge in (0.5, 4.0, 8.0, 14.0):
        hits = [b.name for b in bands if b.contains(edge)]
        assert len(hits) == 1


def test_default_montage_is_the_standard_18_derivations():
    montage = default_montage()
    assert len(montage) == 18
    assert len(set(montage)) == 18
    assert montage[0] == "Fp2-F8"
    assert montage[-1] == "P3-O1"
    assert "Fz-Cz" in montage and "Cz-Pz" in montage


def test_array_valued_types_compare_by_value_and_are_unhashable():
    # The generated dataclass __eq__ compared the fields as tuples, which
    # raised "truth value of an array ... is ambiguous" for these types.
    x = np.random.default_rng(3).standard_normal(64)
    series = TimeSeries(x, 128.0)
    spectrum = SpectrumEstimate([0.0, 0.25, 0.5], [1.0, 2.0, 3.0], 8.0)
    cases = [
        (lambda: ArModel(2, [0.1, 0.2], 1.0), ArModel(2, [0.1, 0.3], 1.0)),
        (lambda: TimeSeries(x, 128.0), TimeSeries(x, 64.0)),
        (lambda: SpectrumEstimate([0.0, 0.25, 0.5], [1.0, 2.0, 3.0], 8.0),
         SpectrumEstimate([0.0, 0.25, 0.5], [1.0, 2.0, 4.0], 8.0)),
        (lambda: AutocovarianceSeq([2.0, 1.0, 0.5]), AutocovarianceSeq([2.0, 1.0, 0.25])),
        (lambda: burg_fit(series, 3), burg_fit(series, 2)),
        (lambda: threshold_psd(spectrum, 1.0), threshold_psd(spectrum, 1.1)),
        (lambda: fit_sweep(series, 4), fit_sweep(series, 4, "yule_walker")),
    ]
    for make, other in cases:
        first, second = make(), make()
        assert (first == second) is True
        assert (first != second) is False
        assert (first == other) is False
        assert (first != other) is True
        assert first != "not a value of the type"
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
