"""Mean-threshold masking of a PSD and rhythm-band power accounting."""

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import ArrayFields, FrequencyBand, SpectrumEstimate, check_bands

__all__ = [
    "MaskedSpectrum",
    "BandPower",
    "BandPowerReport",
    "threshold_psd",
    "threshold_rows",
    "band_powers",
    "band_power_rows",
    "undifference_psd",
    "undifference_rows",
]


@dataclass(frozen=True, eq=False)
class MaskedSpectrum(ArrayFields):
    """A PSD with sub-threshold values zeroed.

    ``values[i]`` is either 0 or exactly ``base.values[i]``; a grid point
    survives when its power is at least ``k`` times the grid-mean power
    of the base spectrum.  Equal by value (see
    :class:`arpsd.core.ArrayFields`); not hashable.
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


def threshold_rows(power: np.ndarray, k: float):
    """:func:`threshold_psd` over the rows of a 2-D array of spectra.

    Returns ``(mean_power, values, survivor_fraction)``, one entry or row
    per row of ``power``.  Rows are reduced along their own contiguous
    memory, so each is bit for bit what ``threshold_psd`` gives it alone.
    """
    mean_power = power.mean(axis=1)
    keep = power >= k * mean_power[:, np.newaxis]
    return mean_power, np.where(keep, power, 0.0), keep.sum(axis=1) / keep.shape[1]


def threshold_psd(spectrum: SpectrumEstimate, k: float) -> MaskedSpectrum:
    """Zero every grid point below ``k`` times the mean spectral power.

        P_M(f) = P(f)  if P(f) >= k * mean(P),  else 0

    The mean is the arithmetic mean over the full frequency grid and the
    comparison is inclusive, so ``k = 0`` keeps the spectrum unchanged
    and the surviving index set shrinks monotonically as ``k`` grows.
    This is the one-row case of :func:`threshold_rows`.

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
    mean_power, values, survivor_fraction = threshold_rows(spectrum.values[np.newaxis], k)
    return MaskedSpectrum(
        base=spectrum,
        k=float(k),
        mean_power=float(mean_power[0]),
        values=values[0],
        survivor_fraction=float(survivor_fraction[0]),
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


def band_power_rows(
    freqs_hz: np.ndarray, values: np.ndarray, bands: Sequence[FrequencyBand]
) -> list[BandPowerReport]:
    """:func:`band_powers` of each row of a 2-D array of spectral values.

    All rows share the grid ``freqs_hz``, so the band spans are found
    once.  Row r of the result is bit for bit ``band_powers`` of a
    spectrum with ``values[r]`` on that grid.
    """
    ordered = check_bands(bands)
    # One nonnegative trapezoid term per grid interval.  A band owns the
    # terms between its first and last grid point.  The total adds the
    # band powers one by one in the caller's order, then the terms no band
    # owns.  Rounding is monotone and every term is nonnegative, so the
    # total is at least the same in-order sum over any subset of the bands,
    # and no share exceeds 1.
    terms = np.diff(freqs_hz) * (values[:, 1:] + values[:, :-1]) / 2.0
    owned = np.zeros(terms.shape[1], dtype=bool)
    rows = values.shape[0]
    powers: dict[str, np.ndarray] = {}
    for band in bands:
        inside = np.flatnonzero((freqs_hz >= band.lo_hz) & (freqs_hz < band.hi_hz))
        power = np.zeros(rows)
        if inside.size >= 2:
            span = slice(inside[0], inside[-1])
            power = terms[:, span].sum(axis=1)
            owned[span] = True
        powers[band.name] = power
    total = np.zeros(rows)
    for power in powers.values():
        total = total + power
    # The boolean index of axis 1 comes back in Fortran order, whose row
    # sums would add in another order than a sum over one row.
    total = total + np.ascontiguousarray(terms[:, ~owned]).sum(axis=1)
    columns = {name: power.tolist() for name, power in powers.items()}
    reports = []
    for row, row_total in enumerate(total.tolist()):
        per_band = {
            name: BandPower(column[row], column[row] / row_total if row_total > 0.0 else 0.0)
            for name, column in columns.items()
        }
        best_name = "none"
        best_fraction = 0.0
        for band in ordered:
            fraction = per_band[band.name].fraction
            if fraction > best_fraction:
                best_fraction = fraction
                best_name = band.name
        reports.append(BandPowerReport(per_band, row_total, best_name))
    return reports


def band_powers(spectrum, bands: Sequence[FrequencyBand]) -> BandPowerReport:
    """Trapezoidal band powers of a spectrum or masked spectrum.

    The power of a band is the trapezoidal integral of the spectral
    values over the grid points whose Hz frequency falls in
    [lo_hz, hi_hz); no interpolation is done at band edges.  Bands must
    be non-overlapping.  ``spectrum`` may be any object exposing
    ``freqs_hz`` and ``values`` (a SpectrumEstimate or MaskedSpectrum).
    This is the one-row case of :func:`band_power_rows`.
    """
    return band_power_rows(spectrum.freqs_hz, spectrum.values[np.newaxis], bands)[0]


def undifference_rows(freqs: np.ndarray, values: np.ndarray, d: int = 1):
    """:func:`undifference_psd` over the rows of a 2-D array of spectra.

    All rows share the normalized grid ``freqs``.  Returns the grid
    points above 0 and the corrected rows, each bit for bit what
    ``undifference_psd`` gives the row alone.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    keep = freqs > 0.0
    if not np.any(keep):
        raise ValueError("no nonzero-frequency points to correct")
    response = (2.0 * np.sin(np.pi * freqs[keep])) ** (2 * d)
    # Contiguous rows, so that later row sums add as a sum over one row does.
    return freqs[keep], np.ascontiguousarray(values[:, keep]) / response


def undifference_psd(spectrum: SpectrumEstimate, d: int = 1) -> SpectrumEstimate:
    """Map the PSD of a d-times differenced signal back to original units.

    Divides by the differencing filter response |1 - exp(-2j pi f)|^(2d)
    = (2 sin(pi f))^(2d).  The response vanishes at f = 0, so the
    zero-frequency grid point is dropped from the result.  This is the
    one-row case of :func:`undifference_rows`.
    """
    freqs, values = undifference_rows(spectrum.freqs_normalized, spectrum.values[np.newaxis], d)
    return SpectrumEstimate(freqs, values[0], spectrum.sample_rate_hz)
