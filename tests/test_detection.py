"""Channel classification, the whole-recording pipeline, and metric scoring."""

import numpy as np
import pytest

from arpsd import (
    BurstSpec,
    ConfusionCounts,
    Recording,
    RunConfig,
    SpectrumEstimate,
    TimeSeries,
    ar_psd,
    classify_channel,
    confusion_from_flags,
    default_montage,
    detect_recording,
    evaluate,
    metrics_from_counts,
    resonator_model,
    simulate_recording,
    threshold_psd,
)
from arpsd import detection
from arpsd.detection import ChannelDecision, DetectionReport


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
    assert report.parameters == config.summary()
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


@pytest.mark.parametrize("fault", [FloatingPointError, ZeroDivisionError, OverflowError])
def test_detect_recording_isolates_arithmetic_faults(monkeypatch, fault):
    rng = np.random.default_rng(10)
    channels = {name: TimeSeries(rng.standard_normal(400), 128.0) for name in ("a", "b", "c")}
    real_fit = detection.burg_fit
    calls = []

    def faulty_fit(series, p):
        calls.append(p)
        if len(calls) == 2:
            raise fault("numerical fault in channel b")
        return real_fit(series, p)

    monkeypatch.setattr(detection, "burg_fit", faulty_fit)
    report = detect_recording(Recording(channels))
    assert report.errors == {"b": "numerical fault in channel b"}
    assert [d.derivation for d in report.per_channel] == ["a", "c"]


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
