"""The per-channel screening path, channel flagging from masked spectra,
and scoring against annotations.

Every channel is screened through one path, which ``detect_recording``
and every CLI subcommand share: :func:`fit_channel` prepares the channel
and fits it as the run configuration says, :func:`channel_psd` turns the
fit into a masked spectrum, and :func:`classify_channel` flags it.
"""

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .config import RunConfig
from .core import ConfusionCounts, FrequencyBand, Recording, TimeSeries, default_bands
from .estimation import FitResult, ar_psd, burg_fit, mle_fit, yule_walker_fit
from .order_selection import OrderScanResult, order_scan
from .preprocess import demean, difference
from .spectral import MaskedSpectrum, band_powers, threshold_psd, undifference_psd

__all__ = [
    "ChannelDecision",
    "ChannelFit",
    "DetectionReport",
    "MetricsReport",
    "channel_psd",
    "classify_channel",
    "confusion_from_flags",
    "detect_recording",
    "evaluate",
    "fit_channel",
    "metrics_from_counts",
]

LOW_BANDS = ("delta", "theta")


@dataclass(frozen=True)
class ChannelDecision:
    """Screening outcome for one derivation."""

    derivation: str
    flagged: bool
    dominant_band: str
    low_band_fraction: float
    survivor_fraction: float


@dataclass(frozen=True)
class DetectionReport:
    """Per-channel decisions plus the parameters that produced them.

    Channels whose fit failed appear in ``errors`` (name to message)
    instead of ``per_channel``; every input channel lands in exactly one
    of the two.
    """

    per_channel: tuple[ChannelDecision, ...]
    parameters: Mapping[str, object]
    errors: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parameters", dict(self.parameters))
        object.__setattr__(self, "errors", dict(self.errors))

    def flagged_names(self) -> tuple[str, ...]:
        return tuple(d.derivation for d in self.per_channel if d.flagged)

    def decisions_by_name(self) -> dict[str, "ChannelDecision"]:
        return {d.derivation: d for d in self.per_channel}


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts and derived rates against a reference labeling.

    A rate whose denominator is empty (no positive or no negative cases)
    is reported as None rather than 0, with an explanatory note.
    """

    counts: ConfusionCounts
    sensitivity: float | None
    specificity: float | None
    accuracy: float
    notes: tuple[str, ...] = ()


def classify_channel(
    masked: MaskedSpectrum,
    bands: Sequence[FrequencyBand] | None = None,
    rho: float = 0.5,
    derivation: str = "",
) -> ChannelDecision:
    """Flag a channel whose surviving power is mostly low-band rhythm.

    The channel is flagged when the masked spectrum holds any power at
    all and the delta plus theta share of that surviving power is at
    least ``rho``.

    Parameters
    ----------
    masked : MaskedSpectrum
        Output of :func:`arpsd.spectral.threshold_psd`.
    bands : sequence of FrequencyBand, optional
        Defaults to the standard rhythm bands.
    rho : float
        Low-band dominance threshold in [0, 1].
    derivation : str
        Channel name carried into the decision.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if bands is None:
        bands = default_bands()
    report = band_powers(masked, bands)
    low = report.combined_fraction(LOW_BANDS)
    flagged = report.total_power > 0.0 and low >= rho
    return ChannelDecision(
        derivation=derivation,
        flagged=flagged,
        dominant_band=report.dominant_band,
        low_band_fraction=float(low),
        survivor_fraction=masked.survivor_fraction,
    )


@dataclass(frozen=True)
class ChannelFit:
    """One channel prepared and fitted as a run configuration says.

    ``scan`` is the order scan under ``order="auto"``, whose ``fit`` is
    ``fit``; it is None at a fixed order.
    """

    fit: FitResult
    scan: OrderScanResult | None = None


def fit_channel(x: TimeSeries, config: RunConfig) -> ChannelFit:
    """Prepare one raw channel and fit it with ``config.method``.

    The channel is differenced ``config.diff_order`` times and demeaned,
    ``demean(difference(x, config.diff_order))``.  At a fixed order the
    method's fitter runs once; under ``order="auto"`` :func:`order_scan`
    scores every order 1..``config.p_max`` and the selected order's fit
    comes from that scan.
    """
    series = demean(difference(x, config.diff_order))
    if config.order == "auto":
        scan = order_scan(
            series,
            p_max=config.p_max,
            method=config.method,
            criterion=config.criterion,
            grid_size=config.grid_size,
        )
        return ChannelFit(scan.fit, scan)
    if config.method == "burg":
        fit = burg_fit(series, config.order)
    elif config.method == "yule_walker":
        fit = yule_walker_fit(series, config.order)
    else:
        fit = mle_fit(series, config.order, grid_size=config.grid_size)
    return ChannelFit(fit)


def channel_psd(x: TimeSeries, config: RunConfig) -> MaskedSpectrum:
    """The masked model spectrum of one raw channel.

    Fits the channel by :func:`fit_channel`, evaluates the model PSD on
    ``config.grid_size`` points, divides out the differencing response
    when ``config.undifference_correction`` is set, and zeroes the power
    below ``config.k`` times the grid mean.
    """
    fit = fit_channel(x, config).fit
    spectrum = ar_psd(fit.model, config.grid_size, x.sample_rate_hz)
    if config.undifference_correction and config.diff_order > 0:
        spectrum = undifference_psd(spectrum, config.diff_order)
    return threshold_psd(spectrum, config.k)


def detect_recording(recording: Recording, config: RunConfig | None = None) -> DetectionReport:
    """Run the full screening pipeline over every channel of a recording.

    Per channel: difference ``config.diff_order`` times, demean, fit an
    AR model with ``config.method``, evaluate its PSD, zero sub-threshold
    power with multiplier ``config.k``, and flag by low-band dominance
    ``config.rho``.  The pipeline is deterministic.  A channel whose
    pipeline raises ValueError or ArithmeticError (a floating-point,
    zero-division or overflow fault) is reported in ``errors`` with the
    message, and the remaining channels are still screened.
    """
    if config is None:
        config = RunConfig()
    decisions = []
    errors: dict[str, str] = {}
    for name in recording.names:
        try:
            masked = channel_psd(recording[name], config)
            decisions.append(
                classify_channel(masked, config.bands, config.rho, derivation=name)
            )
        except (ValueError, ArithmeticError) as exc:
            errors[name] = str(exc)
    return DetectionReport(tuple(decisions), config.summary(), errors)


def confusion_from_flags(
    predicted: Mapping[str, bool], truth: Mapping[str, bool]
) -> ConfusionCounts:
    """Tally a confusion matrix from per-channel boolean flags.

    ``truth`` drives the iteration; every annotated channel must be
    present in ``predicted``.
    """
    tp = fp = tn = fn = 0
    for name, label in truth.items():
        pred = predicted[name]
        if label and pred:
            tp += 1
        elif label and not pred:
            fn += 1
        elif not label and pred:
            fp += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def metrics_from_counts(counts: ConfusionCounts) -> MetricsReport:
    """Sensitivity, specificity, and accuracy from confusion tallies."""
    if counts.total == 0:
        raise ValueError("no cases to score")
    notes = []
    positives = counts.tp + counts.fn
    negatives = counts.tn + counts.fp
    if positives > 0:
        sensitivity = counts.tp / positives
    else:
        sensitivity = None
        notes.append("sensitivity undefined: no positive cases")
    if negatives > 0:
        specificity = counts.tn / negatives
    else:
        specificity = None
        notes.append("specificity undefined: no negative cases")
    accuracy = (counts.tp + counts.tn) / counts.total
    return MetricsReport(counts, sensitivity, specificity, accuracy, tuple(notes))


def evaluate(predicted: DetectionReport, annotations: Mapping[str, bool]) -> MetricsReport:
    """Score flagged channels against reference annotations.

    The annotation keys must coincide exactly with the derivations in
    the report; any mismatch raises with the offending names listed.
    """
    decisions = predicted.decisions_by_name()
    missing = sorted(set(annotations) - set(decisions))
    extra = sorted(set(decisions) - set(annotations))
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing from report: " + ", ".join(missing))
        if extra:
            parts.append("missing from annotations: " + ", ".join(extra))
        raise ValueError("annotation keys do not match report; " + "; ".join(parts))
    flags = {name: decision.flagged for name, decision in decisions.items()}
    return metrics_from_counts(confusion_from_flags(flags, dict(annotations)))
