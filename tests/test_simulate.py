"""Synthetic AR processes and multichannel recordings with planted rhythms."""

import numpy as np
import pytest

from arpsd import (
    ArModel,
    BurstSpec,
    ar_psd,
    burg_fit,
    default_montage,
    periodogram,
    resonator_model,
    simulate_ar,
    simulate_recording,
    yule_walker_fit,
)


def test_burst_spec_validation():
    BurstSpec("F8-T4", 5.0, 0.95)
    with pytest.raises(ValueError, match="non-empty"):
        BurstSpec("", 5.0, 0.95)
    with pytest.raises(ValueError, match="center_hz"):
        BurstSpec("F8-T4", 0.0, 0.95)
    with pytest.raises(ValueError, match="pole_radius"):
        BurstSpec("F8-T4", 5.0, 1.0)
    with pytest.raises(ValueError, match="pole_radius"):
        BurstSpec("F8-T4", 5.0, 0.0)
    with pytest.raises(ValueError, match="gain"):
        BurstSpec("F8-T4", 5.0, 0.95, gain=0.0)


def test_resonator_model_coefficients():
    # At a quarter of the sampling rate the cosine term vanishes.
    model = resonator_model(32.0, 0.9, 128.0)
    assert abs(model.coeffs[0]) < 1e-12
    assert abs(model.coeffs[1] - 0.81) < 1e-12
    assert model.order_p == 2
    assert model.sigma2 == 1.0


def test_resonator_spectrum_peaks_at_center_frequency():
    for center in (5.0, 20.0, 45.0):
        model = resonator_model(center, 0.95, 128.0)
        spec = ar_psd(model, 1025, 128.0)
        peak_hz = spec.freqs_hz[np.argmax(spec.values)]
        assert abs(peak_hz - center) < 1.0


def test_resonator_center_frequency_bounds():
    with pytest.raises(ValueError, match="inside"):
        resonator_model(64.0, 0.9, 128.0)
    with pytest.raises(ValueError, match="inside"):
        resonator_model(-1.0, 0.9, 128.0)


def test_simulate_ar_is_deterministic_per_seed():
    model = ArModel(2, [-1.2, 0.8], 1.0)
    a = simulate_ar(model, 500, seed=42)
    b = simulate_ar(model, 500, seed=42)
    c = simulate_ar(model, 500, seed=43)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_simulate_ar_zero_variance_gives_zeros():
    x = simulate_ar(ArModel(1, [-0.5], 0.0), 100, seed=0)
    assert np.all(x.samples == 0.0)


def test_simulate_ar_stamps_sample_rate_and_length():
    x = simulate_ar(ArModel(0, [], 1.0), 256, seed=0, sample_rate_hz=128.0)
    assert len(x) == 256
    assert x.sample_rate_hz == 128.0


def test_simulate_ar_guards():
    with pytest.raises(ValueError, match="unstable AR model"):
        simulate_ar(ArModel(1, [-1.1], 1.0), 100)
    with pytest.raises(ValueError, match="at least 1"):
        simulate_ar(ArModel(0, [], 1.0), 0)
    with pytest.raises(ValueError, match="burn_in"):
        simulate_ar(ArModel(0, [], 1.0), 10, burn_in=-1)


def test_simulate_ar1_matches_theoretical_autocorrelation():
    # x(n) = 0.9 x(n-1) + e(n) has lag-1 autocorrelation 0.9.
    x = simulate_ar(ArModel(1, [-0.9], 1.0), 20_000, seed=8)
    s = x.samples - x.samples.mean()
    rho1 = np.dot(s[:-1], s[1:]) / np.dot(s, s)
    assert abs(rho1 - 0.9) < 0.02


def test_fit_round_trip_recovers_model():
    # Coefficients within 0.05 and innovation variance within 15 percent,
    # for both fitting routes, in at least 95 of 100 seeds.
    model = ArModel(2, [-1.2, 0.8], 1.0)
    for fitter in (burg_fit, yule_walker_fit):
        good = 0
        for seed in range(100):
            fit = fitter(simulate_ar(model, 2560, seed=seed), 2)
            coeffs_ok = np.max(np.abs(fit.model.coeffs - model.coeffs)) < 0.05
            sigma_ok = abs(fit.model.sigma2 - 1.0) < 0.15
            good += coeffs_ok and sigma_ok
        assert good >= 95


def test_simulate_recording_shapes_and_annotations():
    bursts = [BurstSpec("F8-T4", 5.0, 0.95)]
    recording, truth = simulate_recording(
        default_montage(), 512, 128.0, 1.0, bursts=bursts, seed=0
    )
    assert recording.names == default_montage()
    assert recording.n_samples == 512
    assert recording.sample_rate_hz == 128.0
    assert truth == {name: name == "F8-T4" for name in default_montage()}


def test_simulate_recording_without_bursts_annotates_nothing():
    recording, truth = simulate_recording(("a", "b", "c"), 64, 128.0, 2.0, seed=1)
    assert not any(truth.values())
    assert len(recording) == 3


def test_simulate_recording_is_deterministic_per_seed():
    for bursts in ([], [BurstSpec("b", 5.0, 0.9)]):
        first, _ = simulate_recording(("a", "b"), 256, 128.0, 1.0, bursts=bursts, seed=9)
        second, _ = simulate_recording(("a", "b"), 256, 128.0, 1.0, bursts=bursts, seed=9)
        other, _ = simulate_recording(("a", "b"), 256, 128.0, 1.0, bursts=bursts, seed=10)
        for name in ("a", "b"):
            assert np.array_equal(first[name].samples, second[name].samples)
            assert not np.array_equal(first[name].samples, other[name].samples)


def test_simulate_recording_channel_streams_follow_their_index():
    # Truncating the montage does not change the channels that remain,
    # so per-channel generation is order independent.
    full, _ = simulate_recording(default_montage(), 128, 128.0, 1.0, seed=4)
    prefix, _ = simulate_recording(default_montage()[:3], 128, 128.0, 1.0, seed=4)
    for name in prefix.names:
        assert np.array_equal(full[name].samples, prefix[name].samples)


def test_simulate_recording_burst_scaling_matches_snr():
    # Adding a burst leaves the noise stream untouched, so the injected
    # component is the channel difference; its sample variance encodes
    # snr * gain exactly.
    montage = ("a", "b")
    quiet, _ = simulate_recording(montage, 4096, 128.0, 0.5, seed=3)
    for snr, gain in ((10.0, 1.0), (4.0, 2.5)):
        burst = BurstSpec("b", 5.0, 0.9, gain=gain)
        loud, _ = simulate_recording(montage, 4096, 128.0, 0.5, bursts=[burst], snr=snr, seed=3)
        assert np.array_equal(loud["a"].samples, quiet["a"].samples)
        injected = loud["b"].samples - quiet["b"].samples
        assert abs(injected.std() - np.sqrt(snr * gain) * 0.5) < 1e-9


def test_simulate_recording_burst_channel_peaks_at_burst_frequency():
    bursts = [BurstSpec("F8-T4", 5.0, 0.95)]
    recording, _ = simulate_recording(
        default_montage(), 2560, 128.0, 1.0, bursts=bursts, snr=10.0, seed=2
    )
    pg = periodogram(recording["F8-T4"], 1025)
    peak_hz = pg.freqs_normalized[np.argmax(pg.values)] * 128.0
    assert abs(peak_hz - 5.0) < 1.0


def test_simulate_recording_input_guards():
    with pytest.raises(ValueError, match="unknown burst channel"):
        simulate_recording(("a",), 64, 128.0, 1.0, bursts=[BurstSpec("x", 5.0, 0.9)])
    with pytest.raises(ValueError, match="duplicate burst channel"):
        simulate_recording(
            ("a",), 64, 128.0, 1.0,
            bursts=[BurstSpec("a", 5.0, 0.9), BurstSpec("a", 6.0, 0.9)],
        )
    with pytest.raises(ValueError, match="non-empty"):
        simulate_recording((), 64, 128.0, 1.0)
    with pytest.raises(ValueError, match="unique"):
        simulate_recording(("a", "a"), 64, 128.0, 1.0)
    with pytest.raises(ValueError, match="noise_sigma"):
        simulate_recording(("a",), 64, 128.0, 0.0)
    with pytest.raises(ValueError, match="snr"):
        simulate_recording(("a",), 64, 128.0, 1.0, snr=0.0)


@pytest.mark.parametrize("n", [0, -5, 2.5, True, "64"])
def test_simulators_refuse_a_sample_count_that_is_not_a_count(n):
    message = "^n must be an integer of at least 1$"
    with pytest.raises(ValueError, match=message):
        simulate_recording(("a",), n, 128.0, 1.0)
    with pytest.raises(ValueError, match=message):
        simulate_ar(ArModel(0, [], 1.0), n)


def test_simulators_take_any_integral_sample_count():
    first, _ = simulate_recording(("a",), np.int64(64), 128.0, 1.0, seed=5)
    second, _ = simulate_recording(("a",), 64, 128.0, 1.0, seed=5)
    assert first == second
    assert simulate_ar(ArModel(0, [], 1.0), np.int32(64), seed=5).samples.size == 64


@pytest.mark.parametrize("burn_in", [-1, 2.5, True, "10"])
def test_simulate_ar_refuses_a_burn_in_that_is_not_a_count(burn_in):
    with pytest.raises(ValueError, match="^burn_in must be a nonnegative integer$"):
        simulate_ar(ArModel(1, [-0.5], 1.0), 10, burn_in=burn_in)


def test_simulate_ar_takes_any_integral_burn_in():
    model = ArModel(1, [-0.5], 1.0)
    first = simulate_ar(model, 10, seed=3, burn_in=np.int64(7))
    assert first == simulate_ar(model, 10, seed=3, burn_in=7)


def test_simulate_recording_names_the_channel_whose_scaled_samples_overflow():
    # Every parameter is finite, but the burst's scaled samples are not;
    # this used to end in "samples contains non-finite values".
    bursts = [BurstSpec("b", 5.0, 0.9, gain=1e300)]
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="^scaled samples overflow in channel b$"):
            simulate_recording(("a", "b"), 10, 128.0, 1e300, bursts, snr=1e300)


def test_simulate_recording_refuses_a_burst_on_one_sample():
    # The burst is scaled by its standard deviation, which is 0 for one
    # sample; this used to warn and end in "scaled samples overflow".
    bursts = [BurstSpec("b", 5.0, 0.9)]
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="^burst channel b needs at least 2 samples$"):
            simulate_recording(("a", "b"), 1, 128.0, 1.0, bursts)
    recording, truth = simulate_recording(("a", "b"), 1, 128.0, 1.0)
    assert recording.n_samples == 1 and truth == {"a": False, "b": False}
    assert simulate_recording(("a", "b"), 2, 128.0, 1.0, bursts)[0].n_samples == 2


@pytest.mark.parametrize("noise_sigma", [0.0, -1.0, np.inf, np.nan])
def test_simulate_recording_refuses_a_noise_sigma_that_is_not_positive_and_finite(noise_sigma):
    with pytest.raises(ValueError, match="^noise_sigma must be positive and finite$"):
        simulate_recording(("a",), 64, 128.0, noise_sigma)


@pytest.mark.parametrize("snr", [0.0, -1.0, np.inf, np.nan])
def test_simulate_recording_refuses_an_snr_that_is_not_positive_and_finite(snr):
    bursts = [BurstSpec("a", 5.0, 0.9)]
    with pytest.raises(ValueError, match="^snr must be positive and finite$"):
        simulate_recording(("a",), 64, 128.0, 1.0, bursts=bursts, snr=snr)


@pytest.mark.parametrize("gain", [0.0, -1.0, np.inf, np.nan])
def test_burst_spec_refuses_a_gain_that_is_not_positive_and_finite(gain):
    with pytest.raises(ValueError, match="^gain must be positive and finite$"):
        BurstSpec("a", 5.0, 0.9, gain=gain)
