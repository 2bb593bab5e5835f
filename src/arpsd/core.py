"""Domain types shared across the package.

All array-valued fields are stored as read-only float64 ndarrays so the
dataclasses behave as immutable value objects.
"""

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "TimeSeries",
    "Recording",
    "ArModel",
    "AutocovarianceSeq",
    "SpectrumEstimate",
    "FrequencyBand",
    "ConfusionCounts",
    "default_bands",
    "default_montage",
    "band_containing",
]


def _frozen_array(values, *, name: str, min_size: int = 1, copy: bool = True) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True if copy else None)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size < min_size:
        raise ValueError(f"{name} must contain at least {min_size} value(s)")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly sampled real-valued signal."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self._freeze(_frozen_array(self.samples, name="samples"), self.sample_rate_hz)

    @classmethod
    def adopt(cls, samples: np.ndarray, sample_rate_hz: float) -> "TimeSeries":
        """Wrap a float64 array the caller has just made, without copying it.

        The checks are the constructor's, including its one pass over the
        samples for finiteness; only the copy is skipped.  The array is made
        read-only in place, so the caller must own it outright: a fresh
        result such as the output of ``np.diff``, never a view of samples
        that something else may still write.
        """
        series = cls.__new__(cls)
        series._freeze(_frozen_array(samples, name="samples", copy=False), sample_rate_hz)
        return series

    def _freeze(self, samples: np.ndarray, sample_rate_hz: float) -> None:
        rate = float(sample_rate_hz)
        if not (rate > 0.0 and np.isfinite(rate)):
            raise ValueError("sample_rate_hz must be positive and finite")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class Recording:
    """An ordered collection of equally long, equally sampled channels.

    Channel order is the insertion order of ``channels`` and is preserved
    by every operation that iterates over a recording.
    """

    channels: Mapping[str, TimeSeries]

    def __post_init__(self):
        chans = dict(self.channels)
        if not chans:
            raise ValueError("recording must contain at least one channel")
        lengths = {len(ts) for ts in chans.values()}
        if len(lengths) != 1:
            raise ValueError("all channels must have the same sample count")
        rates = {ts.sample_rate_hz for ts in chans.values()}
        if len(rates) != 1:
            raise ValueError("all channels must share one sample rate")
        object.__setattr__(self, "channels", chans)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.channels)

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.channels.values())))

    @property
    def sample_rate_hz(self) -> float:
        return next(iter(self.channels.values())).sample_rate_hz

    def __len__(self) -> int:
        return len(self.channels)

    def __getitem__(self, name: str) -> TimeSeries:
        return self.channels[name]


@dataclass(frozen=True)
class ArModel:
    """An autoregressive model in the prediction-error convention.

    ``coeffs`` holds a(1..p) such that the innovation is

        e(n) = x(n) + sum_i a(i) x(n - i),

    equivalently A(f) = 1 + sum_i a(i) exp(-2j pi f i).  A process is
    generated by x(n) = -sum_i a(i) x(n - i) + e(n).  ``sigma2`` is the
    innovation variance.
    """

    order_p: int
    coeffs: np.ndarray
    sigma2: float

    def __post_init__(self):
        p = int(self.order_p)
        if p < 0:
            raise ValueError("order_p must be nonnegative")
        coeffs = np.array(self.coeffs, dtype=np.float64, copy=True)
        if coeffs.ndim != 1 or coeffs.size != p:
            raise ValueError("coeffs must hold exactly order_p values")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs contains non-finite values")
        sigma2 = float(self.sigma2)
        if not (sigma2 >= 0.0 and np.isfinite(sigma2)):
            raise ValueError("sigma2 must be nonnegative and finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "order_p", p)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sigma2", sigma2)


@dataclass(frozen=True)
class AutocovarianceSeq:
    """Autocovariance values r(0..max_lag) of one channel."""

    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values, name="values")
        r0 = values[0]
        # A valid (biased-estimator) sequence satisfies |r(l)| <= r(0);
        # allow a relative tolerance for round-off from large inputs.
        if r0 < 0.0:
            raise ValueError("r(0) must be nonnegative")
        limit = r0 * (1.0 + 1e-9) + 1e-300
        if np.any(np.abs(values[1:]) > limit):
            raise ValueError("|r(l)| must not exceed r(0)")
        object.__setattr__(self, "values", values)

    @property
    def max_lag(self) -> int:
        return self.values.size - 1

    def __getitem__(self, lag: int) -> float:
        return float(self.values[lag])


@dataclass(frozen=True)
class SpectrumEstimate:
    """A one-sided power spectral density on a normalized frequency grid.

    ``freqs_normalized`` covers [0, 0.5] in cycles per sample; the Hz grid
    is derived as ``freqs_normalized * sample_rate_hz``.
    """

    freqs_normalized: np.ndarray
    values: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        freqs = _frozen_array(self.freqs_normalized, name="freqs_normalized")
        values = _frozen_array(self.values, name="values", min_size=freqs.size)
        if values.size != freqs.size:
            raise ValueError("values and freqs_normalized must align")
        if freqs[0] < 0.0 or freqs[-1] > 0.5 + 1e-12:
            raise ValueError("normalized frequencies must lie in [0, 0.5]")
        if freqs.size > 1 and np.any(np.diff(freqs) <= 0.0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(values < 0.0):
            raise ValueError("spectral values must be nonnegative")
        rate = float(self.sample_rate_hz)
        if not (rate > 0.0 and np.isfinite(rate)):
            raise ValueError("sample_rate_hz must be positive and finite")
        object.__setattr__(self, "freqs_normalized", freqs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sample_rate_hz", rate)

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.freqs_normalized * self.sample_rate_hz


@dataclass(frozen=True)
class FrequencyBand:
    """A half-open frequency interval [lo_hz, hi_hz) with a name."""

    name: str
    lo_hz: float
    hi_hz: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("band name must be non-empty")
        lo = float(self.lo_hz)
        hi = float(self.hi_hz)
        if not (0.0 <= lo < hi):
            raise ValueError("band must satisfy 0 <= lo_hz < hi_hz")
        object.__setattr__(self, "lo_hz", lo)
        object.__setattr__(self, "hi_hz", hi)

    def contains(self, freq_hz: float) -> bool:
        return self.lo_hz <= freq_hz < self.hi_hz


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion-matrix tallies."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        for label in ("tp", "fp", "tn", "fn"):
            value = getattr(self, label)
            if int(value) != value or value < 0:
                raise ValueError(f"{label} must be a nonnegative integer")
            object.__setattr__(self, label, int(value))

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def default_bands() -> tuple[FrequencyBand, ...]:
    """The clinical EEG rhythm bands used for screening, in ascending order.

    Delta starts at 0.5 Hz rather than 0 so that DC and sub-clinical drift
    never count as rhythm content; beta ends at the top of the clinical
    range of interest, 30 Hz.
    """
    return (
        FrequencyBand("delta", 0.5, 4.0),
        FrequencyBand("theta", 4.0, 8.0),
        FrequencyBand("alpha", 8.0, 14.0),
        FrequencyBand("beta", 14.0, 30.0),
    )


def default_montage() -> tuple[str, ...]:
    """The 18 longitudinal bipolar derivations, in report order."""
    return (
        "Fp2-F8",
        "F8-T4",
        "T4-T6",
        "T6-O2",
        "Fp2-F4",
        "F4-C4",
        "C4-P4",
        "P4-O2",
        "Fz-Cz",
        "Cz-Pz",
        "Fp1-F7",
        "F7-T3",
        "T3-T5",
        "T5-O1",
        "Fp1-F3",
        "F3-C3",
        "C3-P3",
        "P3-O1",
    )


def band_containing(bands: Sequence[FrequencyBand], freq_hz: float) -> str | None:
    """Name of the band whose interval contains ``freq_hz``, else None."""
    for band in bands:
        if band.contains(freq_hz):
            return band.name
    return None
