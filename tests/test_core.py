"""Domain type construction, validation, and the default band/montage tables."""

import numpy as np
import pytest

from arpsd import (
    ArModel,
    AutocovarianceSeq,
    BurstSpec,
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
    levinson_durbin,
    order_scan,
    simulate_recording,
    threshold_psd,
)
from arpsd.core import RowFaults, in_rows, raise_row_faults
from arpsd.estimation import ar_psd, ar_psd_rows
from arpsd.io_csv import read_recording_csv, write_recording_csv
from arpsd.order_selection import sweep_orders
from arpsd.preprocess import periodogram, prepare_rows


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


def _assert_rows_of_one_matrix(recording, names, rows):
    """``recording`` holds ``rows`` once, as a read-only C-contiguous
    matrix whose rows its channels view, in the order of ``names``."""
    samples = recording.samples
    assert samples.dtype == np.float64 and samples.shape == (len(names), rows.shape[1])
    assert samples.flags.c_contiguous and not samples.flags.writeable
    assert np.array_equal(samples, rows)
    assert recording.names == tuple(names)
    for row, (name, series) in enumerate(recording.channels.items()):
        assert series is recording[name]
        assert series.samples.base is samples and np.shares_memory(series.samples, samples[row])
        assert np.array_equal(series.samples, rows[row])


def test_a_recording_holds_its_channels_as_the_rows_of_one_matrix(tmp_path):
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((3, 50))
    names = ["zz", "aa", "mm"]
    copied = Recording({name: TimeSeries(row, 64.0) for name, row in zip(names, rows)})
    _assert_rows_of_one_matrix(copied, names, rows)
    fresh = rows.copy()
    adopted = Recording.adopt(names, fresh, 64.0)
    assert adopted.samples is fresh
    _assert_rows_of_one_matrix(adopted, names, rows)
    assert adopted == copied
    simulated, _ = simulate_recording(names, 50, 64.0, 1.0, [BurstSpec("aa", 5.0, 0.9)], seed=8)
    _assert_rows_of_one_matrix(simulated, names, np.array([x.samples for x in
                                                           simulated.channels.values()]))
    path = tmp_path / "rec.csv"
    write_recording_csv(path, simulated)
    _assert_rows_of_one_matrix(read_recording_csv(path), names, simulated.samples)


def test_recording_adopt_checks_what_the_constructor_checks():
    rows = np.ones((2, 4))
    rows[1, 2] = np.nan
    with pytest.raises(ValueError, match="^samples contains non-finite values$"):
        Recording.adopt(["a", "b"], rows, 1.0)
    for names in (["a"], ["a", "b", "c"], ["a", "a"]):
        with pytest.raises(ValueError, match="^need one distinct channel name per row of samples$"):
            Recording.adopt(names, np.ones((2, 4)), 1.0)
    with pytest.raises(ValueError, match="^need one distinct channel name per row of samples$"):
        Recording.adopt(["a"], np.ones(4), 1.0)
    with pytest.raises(ValueError, match="^recording must contain at least one channel$"):
        Recording.adopt([], np.ones((0, 4)), 1.0)
    with pytest.raises(ValueError, match="^samples must contain at least 1 value"):
        Recording.adopt(["a"], np.ones((1, 0)), 1.0)
    with pytest.raises(ValueError, match="^sample_rate_hz must be positive and finite$"):
        Recording.adopt(["a"], np.ones((1, 4)), 0.0)


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


@pytest.mark.parametrize("order_p", [2.5, 2.0, True, "2", None])
def test_ar_model_refuses_an_order_that_is_not_a_count(order_p):
    # 2.5 used to be truncated to order 2, and True taken as order 1.
    with pytest.raises(ValueError, match="^order_p must be a nonnegative integer$"):
        ArModel(order_p, [0.1, 0.2], 1.0)


def test_ar_model_takes_any_integral_order_and_stores_an_int():
    model = ArModel(np.int64(2), [0.1, 0.2], 1.0)
    assert model.order_p == 2 and type(model.order_p) is int


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
    for rate in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="^sample_rate_hz must be positive and finite$"):
            SpectrumEstimate([0.0, 0.25, 0.5], [1.0, 2.0, 3.0], rate)


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
    with pytest.raises(ValueError, match="nonnegative integer"):
        ConfusionCounts(tp=True)
    with pytest.raises(ValueError, match="nonnegative integer"):
        ConfusionCounts(fp=2.0)
    counts = ConfusionCounts(tp=np.int64(3))
    assert counts.tp == 3 and type(counts.tp) is int


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


def _recorded(run):
    """``run``, recording the items of each call."""
    calls = []

    def recorded(items):
        calls.append(list(items))
        return run(items)

    return recorded, calls


def test_raise_row_faults_raises_a_lone_rows_fault_itself():
    raise_row_faults([None, None])
    with pytest.raises(ValueError, match="^flat$") as raised:
        raise_row_faults(["flat"])
    assert type(raised.value) is ValueError
    fault = ZeroDivisionError("b")
    with pytest.raises(ZeroDivisionError) as raised:
        raise_row_faults([fault])
    assert raised.value is fault
    with pytest.raises(RowFaults) as raised:
        raise_row_faults([None, "flat", fault])
    assert isinstance(raised.value, ValueError)
    assert sorted(raised.value.faults) == [1, 2]
    assert type(raised.value.faults[1]) is ValueError and str(raised.value.faults[1]) == "flat"
    assert raised.value.faults[2] is fault


def test_in_rows_passes_exception_items_through():
    fault = ValueError("read failed")
    run, calls = _recorded(lambda items: [item * 2 for item in items])
    assert in_rows([1, fault, 3], run) == [2, fault, 6]
    assert calls == [[1, 3]]
    assert in_rows([fault, fault], run) == [fault, fault]
    assert calls == [[1, 3]]


def test_in_rows_settles_row_faults_and_runs_the_rest_once_more():
    def run(items):
        raise_row_faults(["negative" if item < 0 else None for item in items])
        return [item * 2 for item in items]

    run, calls = _recorded(run)
    outcomes = in_rows([1, -2, 3, -4, 5], run)
    assert calls == [[1, -2, 3, -4, 5], [1, 3, 5]]
    assert [outcomes[row] for row in (0, 2, 4)] == [2, 6, 10]
    for row in (1, 3):
        assert type(outcomes[row]) is ValueError and str(outcomes[row]) == "negative"
    # A fault that a later stage of the call raises settles in the rerun.
    def staged(items):
        raise_row_faults(["negative" if item < 0 else None for item in items])
        raise_row_faults(["large" if item > 4 else None for item in items])
        return items

    staged, calls = _recorded(staged)
    outcomes = in_rows([-1, 5, 2], staged)
    assert calls == [[-1, 5, 2], [5, 2], [2]]
    assert [str(outcome) for outcome in outcomes[:2]] == ["negative", "large"]
    assert outcomes[2] == 2


def test_in_rows_runs_each_item_alone_after_any_other_fault():
    def run(items):
        return [np.float64(1.0) / np.float64(item) for item in items]

    run, calls = _recorded(run)
    with np.errstate(all="raise"):
        outcomes = in_rows([2.0, 0.0, 4.0], run)
    assert calls == [[2.0, 0.0, 4.0], [2.0], [0.0], [4.0]]
    assert outcomes[0] == 0.5 and outcomes[2] == 0.25
    assert type(outcomes[1]) is FloatingPointError
    # A ValueError that is not RowFaults, for every row, is each row's own.
    def refuse(items):
        raise ValueError("order must be at least 1")

    refuse, calls = _recorded(refuse)
    outcomes = in_rows(["a", "b"], refuse)
    assert calls == [["a", "b"], ["a"], ["b"]]
    assert [str(outcome) for outcome in outcomes] == ["order must be at least 1"] * 2
    # Other exceptions are not a row's outcome.
    with pytest.raises(TypeError):
        in_rows([1, 2], lambda items: [item + "x" for item in items])


def test_no_row_faults_escape_the_public_functions():
    flat = TimeSeries(np.full(64, 2.5), 128.0)
    calls = [
        (lambda: ar_psd(ArModel(1, [1.5], 1.0)), "unstable AR polynomial"),
        (lambda: order_scan(flat, p_max=4), "degenerate signal"),
        (lambda: levinson_durbin(AutocovarianceSeq([0.0, 0.0, 0.0]), 2),
         "degenerate autocovariance"),
        (lambda: prepare_rows(np.array([[1.0, np.inf, 2.0]]), 0, np.empty((1, 3))),
         "samples contains non-finite values"),
        (lambda: periodogram(TimeSeries(np.full(8, 1e300), 1.0), 8),
         "periodogram values must be finite and nonnegative"),
        (lambda: sweep_orders([fit_sweep(TimeSeries([1.0, -1.0, 1.0, -1.0], 1.0), 1)], 4),
         "sigma2 must be positive"),
        (lambda: ar_psd_rows([ArModel(1, [1.5], 1.0)]), "unstable AR polynomial"),
    ]
    for call, message in calls:
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as raised:
                call()
        assert type(raised.value) is ValueError and str(raised.value) == message
