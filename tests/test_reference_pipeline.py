"""detect_recording against the slow reference pipeline and against the
public stages composed by hand, on the simulated 18-channel montage with
bursts on F8-T4, T3-T5 and Cz-Pz at SNR 2."""

import functools
import itertools

import numpy as np
import pytest

from arpsd import (
    BurstSpec,
    Recording,
    RunConfig,
    TimeSeries,
    ar_psd,
    default_montage,
    demean,
    detect_recording,
    difference,
    fit_channel,
    fit_sweep,
    simulate_recording,
)
from arpsd.estimation import _ROW_SAMPLES
from slow_reference import reference_decision, stages_outcomes

FS = 128.0
# (centre Hz, pole radius): theta, near the theta/alpha edge, delta, alpha.
BURSTS = ((5.0, 0.95), (7.5, 0.99), (2.0, 0.9), (10.0, 0.95))
METHODS = ("burg", "yule_walker", "mle")


@functools.cache
def _recording(seed, burst, n):
    hz, radius = burst
    bursts = [BurstSpec(name, hz, radius) for name in ("F8-T4", "T3-T5", "Cz-Pz")]
    return simulate_recording(default_montage(), n, FS, 1.0, bursts, 2.0, seed)[0]


@pytest.mark.parametrize("order", [10, "auto"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [2560, 255])
def test_detect_recording_reaches_the_decisions_of_the_slow_reference(n, method, order):
    # Every channel gets the reference's flag and dominant band, or its
    # error; sigma2 and the PSD of each fitted channel lie within 1e-12
    # relative of the reference's (aim 3's bound).
    config = RunConfig(method=method, order=order)
    for seed, burst in itertools.product((0, 1), BURSTS):
        recording = _recording(seed, burst, n)
        report = detect_recording(recording, config)
        ours = {d.derivation: (d.flagged, d.dominant_band) for d in report.per_channel}
        ours.update({name: ("error", message) for name, message in report.errors.items()})
        theirs = {}
        for name in recording.names:
            x = recording[name]
            try:
                decision, sigma2, psd = reference_decision(
                    demean(difference(x, config.diff_order)), name, config
                )
            except (ValueError, ArithmeticError) as exc:
                theirs[name] = ("error", str(exc))
                continue
            theirs[name] = (decision.flagged, decision.dominant_band)
            if name not in report.errors:
                model = fit_channel(x, config).model
                assert abs(model.sigma2 - sigma2) <= 1e-12 * sigma2
                assert np.max(np.abs(ar_psd(model, config.grid_size).values - psd) / psd) <= 1e-12
        assert ours == theirs


def _with_hard_channels(recording):
    """The recording with a sine, whose lag-product Burg stops at a stage
    and takes the lattice, and a constant, which ends in an error; so the
    rows of one lag-product Burg call hold a lattice fallback and an
    error."""
    t = np.arange(recording.n_samples) / FS
    return Recording({
        **recording.channels,
        "sine": TimeSeries(np.sin(2.0 * np.pi * 6.0 * t), FS),
        "flat": TimeSeries(np.full(t.size, 2.5), FS),
    })


@pytest.mark.parametrize("correction", [False, True])
@pytest.mark.parametrize("diff_order", [0, 1, 2])
@pytest.mark.parametrize("order", [10, "auto"])
@pytest.mark.parametrize("method", METHODS)
def test_channels_longer_than_a_row_get_the_bits_of_the_public_stages_composed(
    method, order, diff_order, correction
):
    # detect_recording prepares a channel longer than _ROW_SAMPLES alone,
    # into one row that it reuses: at d = 0 no differencing pass runs, and
    # from d = 2 on each pass writes over its own input.
    config = RunConfig(method=method, order=order, diff_order=diff_order,
                       undifference_correction=correction)
    # Under Burg the sine's lattice stages leave several |k| within 1e-6
    # of 1, and the step-down in ar_psd reads its model as unstable.
    expected = ([("sine", "unstable AR polynomial"), ("flat", "degenerate signal")]
                if method == "burg" else [("flat", "zero-variance signal")])
    for burst in BURSTS[:2]:
        recording = _with_hard_channels(_recording(0, burst, _ROW_SAMPLES + 1))
        report = detect_recording(recording, config)
        decisions, errors = stages_outcomes(recording, config)
        assert report.per_channel == decisions
        assert list(report.errors.items()) == list(errors.items()) == expected
    if method == "burg":
        sine = demean(difference(recording["sine"], diff_order))
        assert len(fit_sweep(sine, config.p_max).stages) == 2
