"""Synthetic AR signals and multichannel test recordings.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a
given seed reproduces the same recording bit for bit on any platform.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import lfilter

from .core import ArModel, Recording, TimeSeries, as_count
from .estimation import is_stable

__all__ = ["BurstSpec", "resonator_model", "simulate_ar", "simulate_recording"]


@dataclass(frozen=True)
class BurstSpec:
    """A narrowband rhythm to inject into one channel.

    The rhythm is an AR(2) resonator with poles at radius
    ``pole_radius`` and angle matching ``center_hz``.  ``gain``
    multiplies the channel's target rhythm-to-noise power ratio.
    """

    channel: str
    center_hz: float
    pole_radius: float
    gain: float = 1.0

    def __post_init__(self):
        if not self.channel:
            raise ValueError("burst channel name must be non-empty")
        if not self.center_hz > 0.0:
            raise ValueError("center_hz must be positive")
        if not 0.0 < self.pole_radius < 1.0:
            raise ValueError("pole_radius must lie in (0, 1)")
        if not 0.0 < self.gain < np.inf:
            raise ValueError("gain must be positive and finite")


def _check_samples(n) -> int:
    """``n`` as an ``int``: an integer of at least 1, of any integral type
    but bool."""
    count = as_count(n, 1)
    if count is None:
        raise ValueError("n must be an integer of at least 1")
    return count


def resonator_model(
    center_hz: float, pole_radius: float, sample_rate_hz: float, sigma2: float = 1.0
) -> ArModel:
    """AR(2) model with a conjugate pole pair at the given frequency.

    Poles sit at pole_radius * exp(+/- 2j pi center_hz / sample_rate_hz),
    giving the stored coefficients a(1) = -2 r cos(theta), a(2) = r^2.
    """
    if not 0.0 < center_hz < sample_rate_hz / 2.0:
        raise ValueError("center_hz must lie strictly inside (0, fs/2)")
    theta = 2.0 * np.pi * center_hz / sample_rate_hz
    coeffs = np.array([-2.0 * pole_radius * np.cos(theta), pole_radius**2])
    return ArModel(2, coeffs, sigma2)


def simulate_ar(
    model: ArModel,
    n: int,
    seed=0,
    burn_in: int | None = None,
    sample_rate_hz: float = 1.0,
) -> TimeSeries:
    """Draw ``n`` samples of the AR process defined by ``model``.

    Runs x(m) = -sum_i a(i) x(m - i) + e(m) with independent Gaussian
    innovations of variance ``model.sigma2`` from a zero initial state,
    discarding ``burn_in`` warm-up samples (default 10 p + 100) so the
    retained stretch is effectively stationary.  ``sigma2 == 0`` yields
    an all-zero series.

    Parameters
    ----------
    model : ArModel
        Must be stable (all reflection coefficient magnitudes < 1).
    n : int
        Number of retained samples, an integer of at least 1.
    seed
        Anything ``numpy.random.default_rng`` accepts.
    burn_in : int, optional
        A nonnegative integer, of any integral type but bool.
    sample_rate_hz : float
        Rate stamped onto the output series.

    Raises
    ------
    ValueError
        "unstable AR model" when the polynomial has a root on or outside
        the unit circle; "burn_in must be a nonnegative integer".
    """
    n = _check_samples(n)
    if not is_stable(model):
        raise ValueError("unstable AR model")
    if burn_in is None:
        burn_in = 10 * model.order_p + 100
    burn_in = as_count(burn_in, 0)
    if burn_in is None:
        raise ValueError("burn_in must be a nonnegative integer")
    if model.sigma2 == 0.0:
        return TimeSeries(np.zeros(n), sample_rate_hz)
    rng = np.random.default_rng(seed)
    innovations = rng.standard_normal(n + burn_in) * np.sqrt(model.sigma2)
    denom = np.concatenate(([1.0], model.coeffs))
    samples = lfilter([1.0], denom, innovations)[burn_in:]
    return TimeSeries(samples, sample_rate_hz)


def simulate_recording(
    montage: Sequence[str],
    n: int,
    sample_rate_hz: float,
    noise_sigma: float,
    bursts: Sequence[BurstSpec] = (),
    snr: float = 10.0,
    seed=0,
) -> tuple[Recording, dict[str, bool]]:
    """Generate a white-noise recording with rhythm bursts on chosen channels.

    Every channel receives independent Gaussian noise of standard
    deviation ``noise_sigma``.  Each burst adds a resonator signal scaled
    so its sample variance is ``snr * gain`` times the noise variance.
    Channel streams derive from ``seed`` and the channel index, so adding
    or reordering later channels never perturbs earlier ones.

    Returns
    -------
    (Recording, dict[str, bool])
        The recording and the ground-truth annotation map (True on burst
        channels).

    Raises
    ------
    ValueError
        "unknown burst channel" when a burst names a channel outside the
        montage; "n must be an integer of at least 1"; "burst channel
        <name> needs at least 2 samples" for a burst when n is 1;
        "noise_sigma must be positive and finite"; "snr must be positive
        and finite"; "scaled samples overflow in channel <name>" when the
        noise or burst scaling takes a sample past the float64 range.
    """
    names = list(montage)
    if not names:
        raise ValueError("montage must be non-empty")
    if len(set(names)) != len(names):
        raise ValueError("montage names must be unique")
    n = _check_samples(n)
    if not 0.0 < noise_sigma < np.inf:
        raise ValueError("noise_sigma must be positive and finite")
    if not 0.0 < snr < np.inf:
        raise ValueError("snr must be positive and finite")
    burst_by_channel: dict[str, BurstSpec] = {}
    for burst in bursts:
        if burst.channel not in names:
            raise ValueError(f"unknown burst channel: {burst.channel}")
        if burst.channel in burst_by_channel:
            raise ValueError(f"duplicate burst channel: {burst.channel}")
        # A burst is scaled by its sample standard deviation, 0 for one sample.
        if n < 2:
            raise ValueError(f"burst channel {burst.channel} needs at least 2 samples")
        burst_by_channel[burst.channel] = burst
    root = np.random.SeedSequence(seed)
    channel_seeds = root.spawn(len(names))
    channels: dict[str, TimeSeries] = {}
    annotations: dict[str, bool] = {}
    for index, name in enumerate(names):
        noise_seed, burst_seed = channel_seeds[index].spawn(2)
        rng = np.random.default_rng(noise_seed)
        burst = burst_by_channel.get(name)
        # Finite parameters may still scale a sample past float64 (checked below).
        with np.errstate(over="ignore", invalid="ignore"):
            samples = noise_sigma * rng.standard_normal(n)
            if burst is not None:
                model = resonator_model(burst.center_hz, burst.pole_radius, sample_rate_hz)
                rhythm = simulate_ar(model, n, seed=burst_seed, sample_rate_hz=sample_rate_hz)
                scale = np.sqrt(snr * burst.gain) * noise_sigma / rhythm.samples.std()
                samples = samples + scale * rhythm.samples
        if not np.isfinite(samples).all():
            raise ValueError(f"scaled samples overflow in channel {name}")
        channels[name] = TimeSeries(samples, sample_rate_hz)
        annotations[name] = burst is not None
    return Recording(channels), annotations
