"""Channel classification, the whole-recording pipeline, and metric scoring."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arpsd import (
    ArModel,
    BurstSpec,
    ConfusionCounts,
    FitResult,
    Recording,
    RunConfig,
    SpectrumEstimate,
    TimeSeries,
    ar_psd,
    biased_autocov,
    burg_fit,
    channel_psd,
    classify_channel,
    coefficients_from_reflection,
    confusion_from_flags,
    default_montage,
    demean,
    detect_recording,
    difference,
    evaluate,
    fit_channel,
    fit_sweep,
    metrics_from_counts,
    order_scan,
    resonator_model,
    simulate_recording,
    threshold_psd,
)
from arpsd import detection, estimation, order_selection
from arpsd.core import BLOCK_CHANNELS
from arpsd.detection import ChannelDecision, DetectionReport
from slow_reference import stages_fit, stages_outcomes, stages_screen


def _masked_resonance(center_hz: float):
    model = resonator_model(center_hz, 0.98, 128.0)
    return threshold_psd(ar_psd(model, 512, 128.0), 2.0)


def _spike_masked(hz: int, height: float = 6.0):
    values = np.zeros(65)
    values[hz] = height
    spectrum = SpectrumEstimate(np.linspace(0.0, 0.5, 65), values, 128.0)
    return threshold_psd(spectrum, 2.0)


def test_classify_flags_low_frequency_resonance():
    decision = classify_channel(_masked_resonance(5.0), derivation="F8-T4")
    assert decision.flagged
    assert decision.dominant_band == "theta"
    assert decision.low_band_fraction > 0.9
    assert decision.derivation == "F8-T4"
    assert 0.0 < decision.survivor_fraction < 1.0


def test_classify_passes_beta_resonance():
    decision = classify_channel(_masked_resonance(20.0))
    assert not decision.flagged
    assert decision.dominant_band == "beta"
    assert decision.low_band_fraction < 0.5


def test_classify_spike_cases():
    assert classify_channel(_spike_masked(2)).flagged      # delta
    assert classify_channel(_spike_masked(5)).flagged      # theta
    assert not classify_channel(_spike_masked(10)).flagged  # alpha
    assert not classify_channel(_spike_masked(20)).flagged  # beta


def test_classify_empty_mask_never_flags():
    spectrum = SpectrumEstimate(np.linspace(0.0, 0.5, 65), np.zeros(65), 128.0)
    decision = classify_channel(threshold_psd(spectrum, 2.0))
    assert not decision.flagged
    assert decision.dominant_band == "none"
    assert decision.low_band_fraction == 0.0


def test_classify_rho_extremes():
    masked = _masked_resonance(5.0)
    assert classify_channel(masked, rho=0.0).flagged
    assert not classify_channel(masked, rho=1.0).flagged
    beta = _masked_resonance(20.0)
    # rho = 0 flags any channel with surviving power at all.
    assert classify_channel(beta, rho=0.0).flagged


def test_classify_rejects_invalid_rho():
    masked = _masked_resonance(5.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        classify_channel(masked, rho=1.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        classify_channel(masked, rho=-0.1)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    values=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=2, max_size=300),
    k=st.floats(0.0, 20.0),
    rho=st.floats(0.0, 1.0),
    fs=st.sampled_from([64.0, 128.0, 256.0]),
)
def test_decision_fractions_lie_in_the_unit_interval(values, k, rho, fs):
    spectrum = SpectrumEstimate(np.linspace(0.0, 0.5, len(values)), values, fs)
    decision = classify_channel(threshold_psd(spectrum, k), rho=rho)
    assert 0.0 <= decision.low_band_fraction <= 1.0
    assert 0.0 <= decision.survivor_fraction <= 1.0


def _burst_recording(seed=0):
    bursts = [BurstSpec("F8-T4", 5.0, 0.95), BurstSpec("T4-T6", 5.0, 0.95)]
    return simulate_recording(
        default_montage(), 2560, 128.0, 1.0, bursts=bursts, snr=10.0, seed=seed
    )


def test_detect_recording_flags_exactly_the_burst_channels():
    recording, truth = _burst_recording(seed=0)
    report = detect_recording(recording)
    assert set(report.flagged_names()) == {"F8-T4", "T4-T6"}
    assert not report.errors
    assert len(report.per_channel) == 18
    assert [d.derivation for d in report.per_channel] == list(recording.names)
    assert truth["F8-T4"] and not truth["Fp2-F8"]


def test_detect_recording_white_noise_flags_almost_nothing():
    for seed in (11, 12):
        recording, _ = simulate_recording(default_montage(), 2560, 128.0, 1.0, seed=seed)
        report = detect_recording(recording)
        assert len(report.flagged_names()) <= 2


def test_detect_recording_is_deterministic():
    recording, _ = _burst_recording(seed=5)
    first = detect_recording(recording)
    second = detect_recording(recording)
    assert first == second


def test_detect_recording_echoes_parameters():
    recording, _ = _burst_recording(seed=1)
    config = RunConfig(method="yule_walker", k=3.0)
    report = detect_recording(recording, config)
    assert report.parameters == {**config.summary(), "fs": recording.sample_rate_hz}
    assert report.parameters["method"] == "yule_walker"
    assert report.parameters["k"] == 3.0


def test_detect_recording_flagged_set_shrinks_as_rho_grows():
    recording, _ = _burst_recording(seed=2)
    previous = None
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        flagged = set(detect_recording(recording, RunConfig(rho=rho)).flagged_names())
        if previous is not None:
            assert flagged <= previous
        previous = flagged


def test_detect_recording_captures_per_channel_failures():
    rng = np.random.default_rng(9)
    channels = {
        "good-1": TimeSeries(rng.standard_normal(400), 128.0),
        "flat": TimeSeries(np.full(400, 2.5), 128.0),
        "good-2": TimeSeries(rng.standard_normal(400), 128.0),
    }
    report = detect_recording(Recording(channels))
    assert set(report.errors) == {"flat"}
    assert "degenerate signal" in report.errors["flat"]
    assert [d.derivation for d in report.per_channel] == ["good-1", "good-2"]


def _assert_fault_lands_on_channel_b(monkeypatch, kernel, fault, config=None, hits_b=None,
                                     signal=None):
    """Make the estimation kernel ``kernel`` raise ``fault`` on the calls
    that fit channel b of three, each ``signal(rng)`` (by default 400
    samples of white noise), and check that only b errs, and that a and c
    get the decisions they get alone.  ``hits_b(args, b)`` tells such a
    call by its arguments and channel b; by default it is the kernel's
    second call."""
    rng = np.random.default_rng(10)
    signal = signal or (lambda rng: rng.standard_normal(400))
    channels = {name: TimeSeries(signal(rng), 128.0) for name in ("a", "b", "c")}
    real_kernel = getattr(estimation, kernel)
    calls = []

    def faulty_kernel(*args):
        calls.append(args)
        if hits_b(args, channels["b"]) if hits_b else len(calls) == 2:
            raise fault("numerical fault in channel b")
        return real_kernel(*args)

    alone = {name: detect_recording(Recording({name: channels[name]}), config).per_channel
             for name in ("a", "c")}
    monkeypatch.setattr(estimation, kernel, faulty_kernel)
    report = detect_recording(Recording(channels), config)
    assert report.errors == {"b": "numerical fault in channel b"}
    assert report.per_channel == alone["a"] + alone["c"]


@pytest.mark.parametrize("fault", [FloatingPointError, ZeroDivisionError, OverflowError])
def test_detect_recording_isolates_arithmetic_faults(monkeypatch, fault):
    # A sine stops the lag-product stages short, so each channel takes the
    # lattice, one call each, in channel order.
    def sine(rng):
        t = np.arange(255) / 128.0
        return np.sin(2.0 * np.pi * rng.uniform(4.0, 7.0) * t) + 1e-9 * rng.standard_normal(255)

    _assert_fault_lands_on_channel_b(monkeypatch, "_burg_lattice", fault, signal=sine)


@pytest.mark.parametrize("fault", [FloatingPointError, ZeroDivisionError, OverflowError])
def test_detect_recording_isolates_lag_row_faults(monkeypatch, fault):
    # The lag-product stages run a, b and c together, so the fault stops
    # the whole block, which then runs each row alone.
    config = RunConfig()

    def hits_b(args, b):
        x = demean(difference(b, config.diff_order)).samples
        b_row = estimation._lag_rows((x - x.mean())[np.newaxis], config.order)[0]
        return any(np.array_equal(row, b_row) for row in args[0])

    _assert_fault_lands_on_channel_b(monkeypatch, "_burg_lag_rows", fault, config, hits_b)


@pytest.mark.parametrize("fault", [FloatingPointError, ZeroDivisionError, OverflowError])
@pytest.mark.parametrize("order", [10, "auto"])
@pytest.mark.parametrize("method", ["yule_walker", "mle"])
def test_detect_recording_isolates_levinson_faults(monkeypatch, method, order, fault):
    # The row kernel runs a, b and c together, so the fault stops the
    # whole block, which then runs each row alone.
    config = RunConfig(method=method, order=order)
    p = config.p_max if order == "auto" else order

    def hits_b(args, b):
        b_row = biased_autocov(demean(difference(b, config.diff_order)), p).values
        return any(np.array_equal(row, b_row) for row in args[0])

    _assert_fault_lands_on_channel_b(monkeypatch, "_levinson_rows", fault, config, hits_b)


@pytest.mark.parametrize("order", [10, "auto"])
@pytest.mark.parametrize("method", ["burg", "yule_walker", "mle"])
def test_a_flat_channel_costs_a_block_at_most_one_more_call_of_each_kernel(
    monkeypatch, method, order
):
    # The flat channel ends in its own error.  Where a row kernel that
    # runs the whole block finds it, the other 17 channels run that part
    # once more, not one at a time.
    recording, _ = simulate_recording(default_montage(), 2560, 128.0, 1.0,
                                      [BurstSpec("F8-T4", 5.0, 0.95)], 10.0, seed=3)
    channels = dict(recording.channels)
    channels["Cz-Pz"] = TimeSeries(np.full(2560, 2.5), 128.0)
    recording = Recording(channels)
    config = RunConfig(method=method, order=order)
    expected = {name: detect_recording(Recording({name: recording[name]}), config)
                for name in recording.names}
    calls = {}
    for module, kernel in ((estimation, "prepare_rows"), (estimation, "_burg_lag_rows"),
                           (estimation, "_levinson_rows"), (detection, "ar_psd_rows")):
        monkeypatch.setattr(module, kernel, mock.Mock(wraps=getattr(module, kernel)))
        calls[kernel] = getattr(module, kernel)
    report = detect_recording(recording, config)
    flat = "degenerate signal" if method == "burg" else "zero-variance signal"
    assert report.errors == {"Cz-Pz": flat}
    assert report.per_channel == tuple(decision for name in recording.names
                                       for decision in expected[name].per_channel)
    fitter = "_burg_lag_rows" if method == "burg" else "_levinson_rows"
    for kernel in ("prepare_rows", fitter, "ar_psd_rows"):
        assert 1 <= calls[kernel].call_count <= 2
    assert calls["_burg_lag_rows" if method != "burg" else "_levinson_rows"].call_count == 0


@pytest.mark.parametrize("method", ["burg", "yule_walker", "mle"])
def test_an_order_check_refuses_a_block_in_one_read(monkeypatch, method):
    # Too few samples for the order scan: every channel ends in the
    # check's error, and the block is not read again channel by channel.
    rng = np.random.default_rng(4)
    recording = Recording({f"c{i}": TimeSeries(rng.standard_normal(20), 128.0) for i in range(18)})
    preparations = mock.Mock(wraps=estimation.prepare_rows)
    monkeypatch.setattr(estimation, "prepare_rows", preparations)
    report = detect_recording(recording, RunConfig(method=method, order="auto"))
    assert report.errors == dict.fromkeys(recording.names, "need more than p_max + 2 samples")
    assert preparations.call_count == 1


def test_low_band_fraction_never_exceeds_one_on_simulated_bursts():
    # F8-T4 of seed 0 read 1.0000000000000002 when the total and the band
    # sums were trapezoids over different grid ranges.
    bursts = [BurstSpec(name, 5.0, 0.95) for name in ("F8-T4", "T3-T5", "Cz-Pz")]
    recording, _ = simulate_recording(default_montage(), 2560, 128.0, 1.0, bursts, 10.0, 0)
    report = detect_recording(recording)
    assert report.errors == {}
    for decision in report.per_channel:
        assert 0.0 <= decision.low_band_fraction <= 1.0
    assert report.decisions_by_name()["F8-T4"].low_band_fraction == 1.0


def _assert_detect_equals_the_public_stages(method, order, correction):
    recording, _ = _burst_recording(seed=4)
    config = RunConfig(method=method, order=order, undifference_correction=correction)
    expected = []
    for name in recording.names:
        fit = stages_fit(recording[name], config)
        masked, decision = stages_screen(fit.model, name, config, recording.sample_rate_hz)
        expected.append(decision)
        assert np.array_equal(channel_psd(recording[name], config).values, masked.values)
        model = fit_channel(recording[name], config).model
        assert model.coeffs.tobytes() == fit.model.coeffs.tobytes()
        assert model.sigma2 == fit.model.sigma2
    assert detect_recording(recording, config).per_channel == tuple(expected)


@pytest.mark.parametrize("method", ["burg", "yule_walker", "mle"])
@pytest.mark.parametrize("n", [2559, 8292])
@pytest.mark.parametrize("order", [10, "auto"])
def test_long_channels_get_the_bits_of_the_public_stages_composed(order, n, method):
    # The channels are fitted as rows over more than one block: Burg's
    # channels from lag products, and every Yule-Walker and MLE channel.
    # Among them a sine stops a lag-product stage and takes the lattice,
    # a constant on each side of the block edge ends in the method's
    # flat-signal error, and one channel's sums overflow, which under
    # np.seterr(all="raise") stops its whole block.
    montage = tuple(f"ch{i:02d}" for i in range(BLOCK_CHANNELS + 4))
    bursts = [BurstSpec(name, 5.0, 0.95) for name in montage[::8]]
    recording, _ = simulate_recording(montage, n, 128.0, 1.0, bursts, 10.0, seed=7)
    t = np.arange(n) / 128.0
    rng = np.random.default_rng(7)
    channels = dict(recording.channels)
    channels["ch03"] = TimeSeries(np.sin(2.0 * np.pi * 6.0 * t) + 1e-9 * rng.standard_normal(n), 128.0)
    channels["ch05"] = TimeSeries(np.full(n, 2.5), 128.0)
    channels["ch34"] = TimeSeries(np.full(n, -1.0), 128.0)
    # Differenced, this channel's c(0) is about 1.2e308: finite, but twice
    # it is not.
    channels["ch09"] = TimeSeries(np.sqrt(1.2e308 / (2 * n)) * rng.standard_normal(n), 128.0)
    recording = Recording(channels)
    config = RunConfig(method=method, order=order)
    if method == "burg":
        # The sine's sweep holds the lattice's stages from the one that stopped.
        assert len(fit_sweep(demean(difference(channels["ch03"], 1)), 10).stages) == 2
    with np.errstate(all="raise"):
        report = detect_recording(recording, config)
        decisions, errors = stages_outcomes(recording, config)
        alone = {name: detect_recording(Recording({name: recording[name]}), config).errors
                 for name in errors}
    assert report.per_channel == decisions
    assert list(report.errors.items()) == list(errors.items())
    flat = "degenerate signal" if method == "burg" else "zero-variance signal"
    # Yule-Walker's sums for the huge channel stay finite, and it is fitted.
    huge = {"ch09"} if method != "yule_walker" else set()
    assert set(errors) == {"ch05", "ch34"} | huge
    assert errors["ch05"] == errors["ch34"] == flat
    assert all(alone[name] == {name: errors[name]} for name in errors)


@pytest.mark.parametrize("n", [255, 2559, 8292])
@pytest.mark.parametrize("order", [10, "auto"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_channel_whose_energy_overflows_lands_in_errors(order, n):
    # Differenced, the first channel's c(0) is about 1.2e308: finite, but
    # its forward-plus-backward energy 2 c(0) is not.  Both Burg kernels
    # once took that energy for a valid one and fitted white noise.
    rng = np.random.default_rng(7)
    steps = np.sqrt(1.2e308 / n) * rng.standard_normal(n)
    channels = {"big": TimeSeries(np.cumsum(steps), 128.0),
                "ok": TimeSeries(rng.standard_normal(n), 128.0)}
    report = detect_recording(Recording(channels), RunConfig(order=order))
    assert report.errors == {"big": "non-finite prediction-error energy"}
    assert [decision.derivation for decision in report.per_channel] == ["ok"]
    with pytest.raises(ValueError, match="non-finite prediction-error energy"):
        burg_fit(demean(difference(channels["big"], 1)), 10)


@pytest.mark.parametrize("method", ["burg", "yule_walker", "mle"])
@pytest.mark.parametrize("order", [10, "auto"])
def test_detect_recording_equals_the_public_stages_composed(method, order):
    _assert_detect_equals_the_public_stages(method, order, correction=False)


@pytest.mark.parametrize("method", ["burg", "yule_walker", "mle"])
@pytest.mark.parametrize("order", [10, "auto"])
def test_detect_recording_with_correction_equals_the_public_stages_composed(method, order):
    # Corrected rows come from a boolean index of axis 1; their row sums
    # must add as a sum over one row does.
    _assert_detect_equals_the_public_stages(method, order, correction=True)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    scales=st.lists(st.sampled_from([1e-3, 1.0, 1e6, 1e150]), min_size=2, max_size=7),
    overflow_at=st.integers(0, 6),
    n=st.integers(40, 300),
    diff_order=st.integers(0, 2),
    method=st.sampled_from(["burg", "yule_walker", "mle"]),
    order=st.sampled_from([3, "auto"]),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_shared_buffer_carries_nothing_from_one_channel_to_the_next(
    scales, overflow_at, n, diff_order, method, order
):
    # Each channel's outcome is the one the public stages give it alone, in
    # either channel order.
    rng = np.random.default_rng(n)
    channels = {f"c{i}": TimeSeries(scale * rng.standard_normal(n), 128.0)
                for i, scale in enumerate(scales)}
    if overflow_at < len(scales):
        # Alternating +-1.7e308: every first difference overflows.
        channels[f"c{overflow_at}"] = TimeSeries(1.7e308 * (-1.0) ** np.arange(n), 128.0)
    config = RunConfig(method=method, order=order, p_max=8, diff_order=diff_order)
    models = []
    for series in channels.values():
        try:
            models.append(fit_channel(series, config).model)
        except ValueError as exc:
            models.append(str(exc))
    decisions, errors = _one_by_one(list(channels), models, config)
    alone = {**{decision.derivation: decision for decision in decisions}, **errors}
    for names in (list(channels), list(channels)[::-1]):
        report = detect_recording(Recording({name: channels[name] for name in names}), config)
        outcomes = {**report.decisions_by_name(), **report.errors}
        assert outcomes == alone
    if overflow_at < len(scales) and diff_order > 0:
        assert alone[f"c{overflow_at}"] == "samples contains non-finite values"


@pytest.mark.parametrize("method", ["burg", "yule_walker", "mle"])
@pytest.mark.parametrize("order", [10, "auto"])
def test_a_channel_fit_holds_no_view_of_the_work_buffer(monkeypatch, method, order):
    # Burg channels are fitted from lag rows; the sine's stages stop short,
    # so it is prepared again for the lattice after the others.  Channels
    # up to _ROW_SAMPLES are copied into the rows of one reused matrix and
    # prepared into those of a second, a longer one straight into one
    # reused row.  Every array that the preparation reads or writes is
    # recorded whole.
    buffers = {}
    real_prepare_rows = estimation.prepare_rows

    def recorded(rows, d, out):
        for values in (rows, out):
            whole = values if values.base is None else values.base
            buffers[id(whole)] = whole
        return real_prepare_rows(rows, d, out)

    monkeypatch.setattr(estimation, "prepare_rows", recorded)
    config = RunConfig(method=method, order=order)
    for n in (255, 2560, 8292, estimation._ROW_SAMPLES + 2):
        bursts = [BurstSpec("F8-T4", 5.0, 0.95)]
        recording, _ = simulate_recording(("F8-T4", "Fp2-F8"), n, 128.0, 1.0, bursts, 10.0, seed=2)
        noise = 1e-9 * np.random.default_rng(2).standard_normal(n)
        sine = TimeSeries(np.sin(2.0 * np.pi * 6.0 * np.arange(n) / 128.0) + noise, 128.0)
        channels = [recording["F8-T4"], sine, recording["Fp2-F8"]]
        buffers.clear()
        outcomes = dict(pair for block in detection._fit_channels(channels, config)
                        for pair in block)
        assert buffers
        for index, x in enumerate(channels):
            fitted = outcomes[index]
            for values in (fitted.model.coeffs, fitted.reflection_coeffs,
                           fitted.prediction_error_by_order):
                assert not any(np.shares_memory(values, work) for work in buffers.values())
            assert fitted == fit_channel(x, config)


@pytest.mark.parametrize("diff_order", [0, 1, 2])
@pytest.mark.parametrize("order", [10, "auto"])
def test_fit_channel_fits_the_prepared_channel_at_every_order(order, diff_order):
    # The fit of demean(difference(x, d)), 300 - d samples: at a fixed
    # order the sweep's top fit, under auto the fit order_scan selects.
    x = TimeSeries(np.random.default_rng(4).standard_normal(300), 128.0)
    prepared = demean(difference(x, diff_order))
    assert len(prepared) == 300 - diff_order
    if order == "auto":
        expected = order_scan(prepared).fit
    else:
        expected = fit_sweep(prepared, order).fit(order)
    assert fit_channel(x, RunConfig(order=order, diff_order=diff_order)) == expected


def test_order_scores_are_built_only_where_a_scan_is_read(monkeypatch):
    # detect_recording and fit_channel select every order from the
    # block's sweeps and score none; order_scan on the prepared channel
    # scores them, and selects fit_channel's fit.
    recording, _ = _burst_recording(seed=1)
    config = RunConfig(method="mle", order="auto")
    expected = detect_recording(recording, config)
    scans = []
    real_scan_sweep = order_selection.scan_sweep

    def counted(*args):
        scans.append(args)
        return real_scan_sweep(*args)

    monkeypatch.setattr(order_selection, "scan_sweep", counted)
    assert detect_recording(recording, config) == expected
    assert scans == []
    fitted = fit_channel(recording["F8-T4"], config)
    assert scans == []
    scan = order_scan(demean(difference(recording["F8-T4"], 1)), method="mle")
    assert scan.fit == fitted
    assert scan.selected_p == fitted.model.order_p
    assert len(scans) == 1


def _detect_models(models, config, fs=128.0):
    """detect_recording over channels whose fits are ``models``; a string
    entry is the message that channel's fit raises."""
    names = [f"c{i:02d}" for i in range(len(models))]
    recording = Recording({name: TimeSeries(np.arange(4.0), fs) for name in names})
    by_series = {id(recording[name]): model for name, model in zip(names, models)}

    def fit(channels, config):
        outcomes = []
        for index, x in enumerate(channels):
            model = by_series[id(x)]
            if isinstance(model, str):
                outcomes.append((index, ValueError(model)))
            else:
                p = model.order_p
                outcomes.append((index, FitResult(model, "burg", np.zeros(p), np.ones(p + 1))))
        for start in range(0, len(outcomes), BLOCK_CHANNELS):
            yield outcomes[start : start + BLOCK_CHANNELS]

    with mock.patch.object(detection, "_fit_channels", fit):
        return names, detect_recording(recording, config)


def _one_by_one(names, models, config, fs=128.0):
    """The public one-channel stages composed, channel by channel."""
    decisions, errors = [], {}
    for name, model in zip(names, models):
        if isinstance(model, str):
            errors[name] = model
            continue
        try:
            decisions.append(stages_screen(model, name, config, fs)[1])
        except (ValueError, ArithmeticError) as exc:
            errors[name] = str(exc)
    return tuple(decisions), errors


_STABLE_KS = st.lists(st.floats(-0.9, 0.9), max_size=14)
_SIGMA2 = st.sampled_from(["positive"] * 6 + [0.0, 1.7e308]).flatmap(
    lambda s2: st.floats(1e-300, 1e300) if s2 == "positive" else st.just(s2)
)
_STABLE = st.builds(
    lambda ks, s2: ArModel(len(ks), coefficients_from_reflection(ks), s2), _STABLE_KS, _SIGMA2
)
# A last reflection coefficient of magnitude >= 1 is the last coefficient.
_UNSTABLE = st.builds(
    lambda ks, k, s2: ArModel(len(ks) + 1, coefficients_from_reflection(ks + [k]), s2),
    _STABLE_KS, st.sampled_from([1.0, -1.0, 1.25, -3.0]), _SIGMA2,
)
_MODELS = st.sampled_from([_STABLE] * 6 + [_UNSTABLE, st.just("fit failed")]).flatmap(lambda s: s)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    models=st.integers(1, 2 * BLOCK_CHANNELS + 6).flatmap(
        lambda n: st.lists(_MODELS, min_size=n, max_size=n)
    ),
    grid_size=st.sampled_from([2, 3, 17, 64, 512]),
    fs=st.sampled_from([64.0, 128.0, 256.0]),
    k=st.floats(0.0, 5.0),
    rho=st.floats(0.0, 1.0),
    diff_order=st.integers(0, 2),
    correction=st.booleans(),
    overflow=st.sampled_from(["ignore", "raise"]),
)
def test_blocked_back_end_equals_the_one_channel_stages(
    models, grid_size, fs, k, rho, diff_order, correction, overflow
):
    config = RunConfig(grid_size=grid_size, k=k, rho=rho, diff_order=diff_order,
                       undifference_correction=correction)
    # k = 0 times an overflowed mean is nan on both paths.
    with np.errstate(over=overflow, invalid="ignore"):
        names, report = _detect_models(models, config, fs)
        decisions, errors = _one_by_one(names, models, config, fs)
    assert report.per_channel == decisions
    assert list(report.errors.items()) == list(errors.items())


def test_overflow_raised_in_one_channel_leaves_its_block_screened():
    # Under np.errstate(over="raise") the PSD division of the one model
    # whose spectrum overflows raises for the whole block.
    models = [ArModel(1, [0.5 - 0.01 * i], 1.0) for i in range(40)]
    models[7] = ArModel(1, [0.9], 1.7e308)
    config = RunConfig()
    with np.errstate(over="raise"):
        names, report = _detect_models(models, config)
        decisions, errors = _one_by_one(names, models, config)
    assert report.errors == errors == {"c07": "overflow encountered in divide"}
    assert len(report.per_channel) == 39
    assert report.per_channel == decisions
    with np.errstate(over="ignore"):
        _, report = _detect_models(models, config)
    assert report.errors == {"c07": "values contains non-finite values"}


@pytest.mark.parametrize("order", [10, "auto"])
@pytest.mark.parametrize("errstate, error", [
    ("ignore", "periodogram values must be finite and nonnegative"),
    ("raise", "overflow encountered in square"),
])
def test_an_mle_channel_whose_periodogram_overflows_leaves_its_block_decided(order, errstate,
                                                                           error):
    # Differenced, the loud sine's lag products stay finite; only the
    # square in its periodogram, whose bin 40 it sits on, overflows.  Under
    # "raise" that stops the block's periodogram rows, which then run
    # one at a time.
    rng = np.random.default_rng(3)
    n = 2560
    loud = 4e152 * np.sin(2.0 * np.pi * 40.0 * np.arange(n) / 1022.0)
    channels = {"a": TimeSeries(rng.standard_normal(n), 128.0), "loud": TimeSeries(loud, 128.0),
                "b": TimeSeries(rng.standard_normal(n), 128.0)}
    config = RunConfig(method="mle", order=order)
    with np.errstate(all=errstate):
        report = detect_recording(Recording(channels), config)
        alone = [detect_recording(Recording({name: channels[name]}), config).per_channel
                 for name in ("a", "b")]
    assert report.errors == {"loud": error}
    assert report.per_channel == alone[0] + alone[1]
    assert [decision.derivation for decision in report.per_channel] == ["a", "b"]


def test_detect_recording_too_short_for_order_reports_every_channel():
    channels = {
        name: TimeSeries(np.arange(5, dtype=float) + i, 128.0)
        for i, name in enumerate(("a", "b"))
    }
    report = detect_recording(Recording(channels))
    assert set(report.errors) == {"a", "b"}
    assert report.per_channel == ()


def test_detect_recording_with_automatic_order():
    recording, _ = _burst_recording(seed=3)
    config = RunConfig(order="auto", p_max=12)
    report = detect_recording(recording, config)
    assert not report.errors
    assert set(report.flagged_names()) == {"F8-T4", "T4-T6"}


def test_detect_recording_with_undifference_correction():
    # The opt-in correction reweights the spectrum heavily toward DC
    # (dividing by the differencer response), so it changes decisions
    # rather than reproducing the uncorrected ones; the pipeline must
    # still run cleanly over every channel and echo the switch.
    recording, _ = _burst_recording(seed=4)
    report = detect_recording(recording, RunConfig(undifference_correction=True))
    assert not report.errors
    assert len(report.per_channel) == 18
    assert report.parameters["correction"] == "on"


def test_confusion_from_flags_hand_tally():
    truth = {"a": True, "b": True, "c": False, "d": False}
    predicted = {"a": True, "b": False, "c": True, "d": False}
    counts = confusion_from_flags(predicted, truth)
    assert counts == ConfusionCounts(tp=1, fn=1, fp=1, tn=1)


def test_metrics_hand_values():
    metrics = metrics_from_counts(ConfusionCounts(tp=3, fn=1, fp=1, tn=1))
    assert abs(metrics.sensitivity - 0.75) < 1e-15
    assert abs(metrics.specificity - 0.5) < 1e-15
    assert abs(metrics.accuracy - 4.0 / 6.0) < 1e-15
    assert metrics.notes == ()


def test_metrics_undefined_rates_become_none_with_note():
    no_positives = metrics_from_counts(ConfusionCounts(tp=0, fn=0, fp=2, tn=8))
    assert no_positives.sensitivity is None
    assert no_positives.specificity == 0.8
    assert any("no positive cases" in note for note in no_positives.notes)
    no_negatives = metrics_from_counts(ConfusionCounts(tp=5, fn=1, fp=0, tn=0))
    assert no_negatives.specificity is None
    assert any("no negative cases" in note for note in no_negatives.notes)
    with pytest.raises(ValueError, match="no cases"):
        metrics_from_counts(ConfusionCounts())


def test_accuracy_is_prevalence_weighted_combination():
    rng = np.random.default_rng(1001)
    for _ in range(50):
        names = [f"ch{i}" for i in range(int(rng.integers(2, 40)))]
        truth = {n: bool(rng.integers(2)) for n in names}
        predicted = {n: bool(rng.integers(2)) for n in names}
        metrics = metrics_from_counts(confusion_from_flags(predicted, truth))
        counts = metrics.counts
        pos = counts.tp + counts.fn
        neg = counts.tn + counts.fp
        expected = (
            pos * (metrics.sensitivity or 0.0) + neg * (metrics.specificity or 0.0)
        ) / (pos + neg)
        assert abs(metrics.accuracy - expected) < 1e-12


def _report_from_flags(flags: dict[str, bool]) -> DetectionReport:
    decisions = tuple(
        ChannelDecision(name, value, "delta" if value else "beta", 0.9 if value else 0.1, 0.2)
        for name, value in flags.items()
    )
    return DetectionReport(decisions, {"method": "burg"})


def test_evaluate_perfect_prediction():
    flags = {name: name in ("F8-T4", "T4-T6") for name in default_montage()}
    metrics = evaluate(_report_from_flags(flags), flags)
    assert metrics.sensitivity == 1.0
    assert metrics.specificity == 1.0
    assert metrics.accuracy == 1.0
    assert metrics.counts == ConfusionCounts(tp=2, fp=0, tn=16, fn=0)


def test_evaluate_is_invariant_to_annotation_order():
    flags = {"a": True, "b": False, "c": True, "d": False}
    truth = {"a": True, "b": True, "c": False, "d": False}
    report = _report_from_flags(flags)
    forward = evaluate(report, truth)
    backward = evaluate(report, dict(reversed(list(truth.items()))))
    assert forward == backward


def test_evaluate_rejects_mismatched_channel_sets():
    report = _report_from_flags({"a": True, "b": False})
    with pytest.raises(ValueError, match="missing from report: c"):
        evaluate(report, {"a": True, "b": False, "c": True})
    with pytest.raises(ValueError, match="missing from annotations: b"):
        evaluate(report, {"a": True})


def test_evaluate_on_detection_output_end_to_end():
    recording, truth = _burst_recording(seed=6)
    metrics = evaluate(detect_recording(recording), truth)
    assert metrics.counts.total == 18
    assert metrics.accuracy == 1.0


def test_evaluate_scores_a_report_with_errors_as_eval_does():
    # A constant channel cannot be fitted; it is named, not scored.
    recording, truth = _burst_recording(seed=6)
    channels = dict(recording.channels)
    channels["Fp2-F8"] = TimeSeries(np.ones(recording.n_samples), recording.sample_rate_hz)
    report = detect_recording(Recording(channels))
    assert list(report.errors) == ["Fp2-F8"]
    metrics = evaluate(report, truth)
    assert metrics.counts.total == 17
    assert metrics.accuracy == 1.0
    assert metrics.notes == ("not scored (error in report): Fp2-F8",)
    truth.pop("Fp2-F8")
    message = "^annotation keys do not match report; missing from annotations: Fp2-F8$"
    with pytest.raises(ValueError, match=message):
        evaluate(report, truth)
