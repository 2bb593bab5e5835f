"""Domain types shared across the package, and the block rule.

All array-valued fields are stored as read-only float64 ndarrays so the
dataclasses behave as immutable value objects.  ``BLOCK_CHANNELS`` and
:func:`in_rows` are the one rule by which the fitting and screening
stages run channels as rows.  A row kernel, a function that runs many
channels as the rows of one call, raises the faults of its rows
(:func:`raise_row_faults`, :class:`RowFaults`), and :func:`in_rows` is
the one place that settles each fault on its channel.
"""

from dataclasses import dataclass, fields
from numbers import Integral
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "ArrayFields",
    "TimeSeries",
    "Recording",
    "ArModel",
    "AutocovarianceSeq",
    "SpectrumEstimate",
    "FrequencyBand",
    "check_bands",
    "ConfusionCounts",
    "default_bands",
    "default_montage",
    "band_containing",
    "BLOCK_CHANNELS",
    "RowFaults",
    "raise_row_faults",
    "in_rows",
    "as_count",
    "as_order",
]

# Channels are fitted and screened in blocks of this many rows.  A Burg
# stage's largest array holds rows x (5m + 5) x (m + 1) values (1.2 MB at
# order 30); a screening block, a few rows x grid_size matrices.  One
# block for all 256 channels of a wide montage raised peak resident memory
# from about 260 to 264 MB (2-core x86 VM); blocks of 32 did not.
BLOCK_CHANNELS = 32


class RowFaults(ValueError):
    """The faults of some rows of a call over several rows.

    ``faults`` maps the position of each faulty row in the call to the
    exception that the row raises when it runs alone.  The other rows
    hold no outcome; :func:`in_rows` runs them again without the faulty
    ones.
    """

    def __init__(self, faults: Mapping[int, Exception]):
        super().__init__("; ".join(f"row {row}: {fault}" for row, fault in faults.items()))
        self.faults = dict(faults)


def raise_row_faults(faults: Sequence) -> None:
    """Raise the faults of a row kernel's call, one entry per row: None
    for a row that passed, else the message of the ValueError that the
    row raises alone, or that exception itself.  A call of one row
    raises its exception; a call of several, :class:`RowFaults`.
    """
    found = {row: ValueError(fault) if isinstance(fault, str) else fault
             for row, fault in enumerate(faults) if fault is not None}
    if found:
        raise found[0] if len(faults) == 1 else RowFaults(found)


def in_rows(items: Sequence, run: Callable[[list], Sequence]) -> list:
    """``run(items)``, one outcome per item, which must not depend on the
    other items; each item is a row of whatever row kernels ``run``
    calls, in order.

    An item that is an exception is its own outcome, and ``run`` sees
    only the others.  A :class:`RowFaults` settles its rows, and the
    other items run once more without them.  Any other ValueError or
    ArithmeticError (under ``np.seterr(..., "raise")`` one row's fault
    stops the whole call) runs each item alone, and one that fails alone
    ends in that exception.
    """
    live = [item for item in items if not isinstance(item, Exception)]
    if len(live) < len(items):
        outcomes = iter(in_rows(live, run) if live else ())
        return [item if isinstance(item, Exception) else next(outcomes) for item in items]
    try:
        return run(items)
    except RowFaults as exc:
        return in_rows([exc.faults.get(row, item) for row, item in enumerate(items)], run)
    except (ValueError, ArithmeticError) as exc:
        if len(items) == 1:
            return [exc]
    return [outcome for item in items for outcome in in_rows([item], run)]


def as_count(value, least: int) -> int | None:
    """``value`` as an ``int`` when it is an integer of at least ``least``
    (of any integral type but bool), else None."""
    # bool is an Integral, but True is no count.
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        return None
    return int(value)


def as_order(value, name: str = "order") -> int:
    """``value`` as an ``int`` when it is an integer of at least 1 (see
    :func:`as_count`), else ValueError: "<name> must be an integer", or
    "<name> must be at least 1"."""
    if as_count(value, 1) is None:
        # as_count(value, value) is None only when value is no integer.
        raise ValueError(f"{name} must be " + ("an integer" if as_count(value, value) is None
                                                else "at least 1"))
    return int(value)


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


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return bool(a == b)


class ArrayFields:
    """Value equality for frozen dataclasses that hold arrays.

    The generated ``__eq__`` compares fields as tuples, which asks an
    array of more than one element for its truth value and raises.  With
    this base, declared with ``@dataclass(frozen=True, eq=False)``, ``==``
    returns a bool: instances of the same class are equal when every field
    is, arrays by shape and value (``np.array_equal``), tuples and lists
    item by item.  Such instances are not hashable.
    """

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class TimeSeries(ArrayFields):
    """A uniformly sampled real-valued signal.

    Equal by value (see :class:`ArrayFields`); not hashable.
    """

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
        result such as the output of ``np.diff`` or a column the CSV reader
        has just parsed; never a view of samples that something else may
        still write.
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

    @staticmethod
    def row_faults(samples: np.ndarray) -> list[str | None]:
        """The constructor's finiteness check, for each row of a 2-D array:
        entry r is the message it raises on row r, or None."""
        return [
            None if ok else "samples contains non-finite values"
            for ok in np.isfinite(samples).all(axis=1).tolist()
        ]


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


@dataclass(frozen=True, eq=False)
class ArModel(ArrayFields):
    """An autoregressive model in the prediction-error convention.

    ``coeffs`` holds a(1..p) such that the innovation is

        e(n) = x(n) + sum_i a(i) x(n - i),

    equivalently A(f) = 1 + sum_i a(i) exp(-2j pi f i).  A process is
    generated by x(n) = -sum_i a(i) x(n - i) + e(n).  ``sigma2`` is the
    innovation variance.  Equal by value (see :class:`ArrayFields`); not
    hashable.
    """

    order_p: int
    coeffs: np.ndarray
    sigma2: float

    def __post_init__(self):
        p = as_count(self.order_p, 0)
        if p is None:
            raise ValueError("order_p must be a nonnegative integer")
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


@dataclass(frozen=True, eq=False)
class AutocovarianceSeq(ArrayFields):
    """Autocovariance values r(0..max_lag) of one channel.

    Equal by value (see :class:`ArrayFields`); not hashable.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values, name="values")
        raise_row_faults(self.row_faults(values[np.newaxis]))
        object.__setattr__(self, "values", values)

    @staticmethod
    def row_faults(values: np.ndarray) -> list[str | None]:
        """The constructor's checks, for each row of a 2-D array: entry r
        is the message it raises when given row r as ``values``, or None."""
        finite = np.isfinite(values).all(axis=1)
        r0 = values[:, :1]
        # A valid (biased-estimator) sequence satisfies |r(l)| <= r(0);
        # allow a relative tolerance for round-off from large inputs.
        negative = (r0[:, 0] < 0.0).tolist()
        beyond = (np.abs(values[:, 1:]) > r0 * (1.0 + 1e-9) + 1e-300).any(axis=1).tolist()
        return [
            "values contains non-finite values" if not ok
            else "r(0) must be nonnegative" if neg
            else "|r(l)| must not exceed r(0)" if out
            else None
            for ok, neg, out in zip(finite.tolist(), negative, beyond)
        ]

    @property
    def max_lag(self) -> int:
        return self.values.size - 1

    def __getitem__(self, lag: int) -> float:
        return float(self.values[lag])


@dataclass(frozen=True, eq=False)
class SpectrumEstimate(ArrayFields):
    """A one-sided power spectral density on a normalized frequency grid.

    ``freqs_normalized`` covers [0, 0.5] in cycles per sample; the Hz grid
    is derived as ``freqs_normalized * sample_rate_hz``.  Equal by value
    (see :class:`ArrayFields`); not hashable.
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

    @staticmethod
    def row_faults(values: np.ndarray) -> list[str | None]:
        """The constructor's checks of ``values``, for each row of a 2-D array.

        Entry r is the message the constructor raises when given row r as
        ``values`` on a valid grid of the same size, or None when it
        accepts the row.
        """
        finite = np.isfinite(values).all(axis=1).tolist()
        negative = (values < 0.0).any(axis=1).tolist()
        return [
            "values contains non-finite values" if not ok
            else "spectral values must be nonnegative" if neg
            else None
            for ok, neg in zip(finite, negative)
        ]

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


def check_bands(bands: Sequence[FrequencyBand]) -> list[FrequencyBand]:
    """The bands in ascending order of ``lo_hz``, once they pass the checks.

    Raises
    ------
    ValueError
        "need at least one band" when ``bands`` is empty, "duplicate band
        name: <name>" when two bands share a name (band powers are keyed by
        name), and "overlapping bands: <lower> and <upper>" when two bands
        overlap.
    """
    if not bands:
        raise ValueError("need at least one band")
    names = set()
    for band in bands:
        if band.name in names:
            raise ValueError(f"duplicate band name: {band.name}")
        names.add(band.name)
    ordered = sorted(bands, key=lambda b: b.lo_hz)
    for lower, upper in zip(ordered, ordered[1:]):
        if upper.lo_hz < lower.hi_hz:
            raise ValueError(f"overlapping bands: {lower.name} and {upper.name}")
    return ordered


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion-matrix tallies."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        for label in ("tp", "fp", "tn", "fn"):
            value = as_count(getattr(self, label), 0)
            if value is None:
                raise ValueError(f"{label} must be a nonnegative integer")
            object.__setattr__(self, label, value)

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
