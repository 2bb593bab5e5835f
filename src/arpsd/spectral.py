"""Mean-threshold masking of a PSD and rhythm-band power accounting."""

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import FrequencyBand, SpectrumEstimate

__all__ = [
    "MaskedSpectrum",
    "BandPower",
    "BandPowerReport",
    "threshold_psd",
    "band_powers",
    "undifference_psd",
]


@dataclass(frozen=True)
class MaskedSpectrum:
    """A PSD with sub-threshold values zeroed.

    ``values[i]`` is either 0 or exactly ``base.values[i]``; a grid point
    survives when its power is at least ``k`` times the grid-mean power
    of the base spectrum.
    """

    base: SpectrumEstimate
    k: float
    mean_power: float
    values: np.ndarray
    survivor_fraction: float

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def freqs_normalized(self) -> np.ndarray:
        return self.base.freqs_normalized

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.base.freqs_hz

    @property
    def sample_rate_hz(self) -> float:
        return self.base.sample_rate_hz


def threshold_psd(spectrum: SpectrumEstimate, k: float) -> MaskedSpectrum:
    """Zero every grid point below ``k`` times the mean spectral power.

        P_M(f) = P(f)  if P(f) >= k * mean(P),  else 0

    The mean is the arithmetic mean over the full frequency grid and the
    comparison is inclusive, so ``k = 0`` keeps the spectrum unchanged
    and the surviving index set shrinks monotonically as ``k`` grows.

    Parameters
    ----------
    spectrum : SpectrumEstimate
    k : float
        Threshold multiplier.  Any ``k <= 0`` reduces to the identity
        mask because spectral values are nonnegative.

    Returns
    -------
    MaskedSpectrum
    """
    power = spectrum.values
    mean_power = float(power.mean())
    keep = power >= k * mean_power
    values = np.where(keep, power, 0.0)
    return MaskedSpectrum(
        base=spectrum,
        k=float(k),
        mean_power=mean_power,
        values=values,
        survivor_fraction=float(keep.sum() / keep.size),
    )


@dataclass(frozen=True)
class BandPower:
    power: float
    fraction: float


@dataclass(frozen=True)
class BandPowerReport:
    """Absolute and relative spectral power per named band.

    ``fraction`` entries are normalized by ``total_power``, the integral
    over the whole grid, so spectral mass outside every band makes the
    fractions sum to less than 1.  ``dominant_band`` is "none" when no
    band holds any power.
    """

    per_band: Mapping[str, BandPower]
    total_power: float
    dominant_band: str

    def __post_init__(self):
        object.__setattr__(self, "per_band", dict(self.per_band))

    def fraction(self, name: str) -> float:
        return self.per_band[name].fraction

    def combined_fraction(self, names: Sequence[str]) -> float:
        """Share of the total held by the named bands together.

        Names absent from the report contribute nothing.  The powers are
        added before dividing, in the order :func:`band_powers` added them
        into the total, so the share never exceeds 1; adding the rounded
        fractions could.
        """
        power = 0.0
        for name, band in self.per_band.items():
            if name in names:
                power += band.power
        return power / self.total_power if self.total_power > 0.0 else 0.0


def _check_disjoint(bands: Sequence[FrequencyBand]) -> list[FrequencyBand]:
    ordered = sorted(bands, key=lambda b: b.lo_hz)
    for lower, upper in zip(ordered, ordered[1:]):
        if upper.lo_hz < lower.hi_hz:
            raise ValueError(f"overlapping bands: {lower.name} and {upper.name}")
    return ordered


def band_powers(spectrum, bands: Sequence[FrequencyBand]) -> BandPowerReport:
    """Trapezoidal band powers of a spectrum or masked spectrum.

    The power of a band is the trapezoidal integral of the spectral
    values over the grid points whose Hz frequency falls in
    [lo_hz, hi_hz); no interpolation is done at band edges.  Bands must
    be non-overlapping.  ``spectrum`` may be any object exposing
    ``freqs_hz`` and ``values`` (a SpectrumEstimate or MaskedSpectrum).
    """
    if not bands:
        raise ValueError("need at least one band")
    ordered = _check_disjoint(bands)
    freqs_hz = spectrum.freqs_hz
    values = spectrum.values
    # One nonnegative trapezoid term per grid interval.  A band owns the
    # terms between its first and last grid point.  The total adds the
    # band powers one by one in the caller's order, then the terms no band
    # owns.  Rounding is monotone and every term is nonnegative, so the
    # total is at least the same in-order sum over any subset of the bands,
    # and no share exceeds 1.
    terms = np.diff(freqs_hz) * (values[1:] + values[:-1]) / 2.0
    owned = np.zeros(terms.size, dtype=bool)
    powers: dict[str, float] = {}
    for band in bands:
        inside = np.flatnonzero((freqs_hz >= band.lo_hz) & (freqs_hz < band.hi_hz))
        power = 0.0
        if inside.size >= 2:
            span = slice(inside[0], inside[-1])
            power = float(terms[span].sum())
            owned[span] = True
        powers[band.name] = power
    total = 0.0
    for power in powers.values():
        total += power
    total = float(total + terms[~owned].sum())
    per_band = {
        name: BandPower(power, power / total if total > 0.0 else 0.0)
        for name, power in powers.items()
    }
    best_name = "none"
    best_fraction = 0.0
    for band in ordered:
        fraction = per_band[band.name].fraction
        if fraction > best_fraction:
            best_fraction = fraction
            best_name = band.name
    return BandPowerReport(per_band, total, best_name)


def undifference_psd(spectrum: SpectrumEstimate, d: int = 1) -> SpectrumEstimate:
    """Map the PSD of a d-times differenced signal back to original units.

    Divides by the differencing filter response |1 - exp(-2j pi f)|^(2d)
    = (2 sin(pi f))^(2d).  The response vanishes at f = 0, so the
    zero-frequency grid point is dropped from the result.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    freqs = spectrum.freqs_normalized
    keep = freqs > 0.0
    if not np.any(keep):
        raise ValueError("no nonzero-frequency points to correct")
    response = (2.0 * np.sin(np.pi * freqs[keep])) ** (2 * d)
    return SpectrumEstimate(
        freqs[keep], spectrum.values[keep] / response, spectrum.sample_rate_hz
    )
