"""The per-channel screening path, channel flagging from masked spectra,
and scoring against annotations.

Every channel is screened through one path, which ``detect_recording``
and every CLI subcommand share: :func:`fit_channel` prepares the channel
and fits it as the run configuration says, :func:`channel_psd` turns the
fit into a masked spectrum, and :func:`classify_channel` flags it.
``detect_recording`` runs the same formulas over many channels at once:
Burg fits go through :func:`arpsd.estimation.burg_sweeps`, and the
spectral stages after the fits run over blocks of models.  A channel
alone is the one-row case.
"""

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .config import RunConfig
from .core import (
    ArModel,
    ConfusionCounts,
    FrequencyBand,
    Recording,
    SpectrumEstimate,
    TimeSeries,
    default_bands,
)
from .estimation import (
    BLOCK_CHANNELS,
    FitResult,
    FitSweep,
    ar_psd,
    ar_psd_rows,
    burg_sweeps,
    fit_sweep,
    mle_fit,
    yule_walker_fit,
)
from .order_selection import OrderScanResult, check_scan, scan_sweep
from .preprocess import prepare_into
from .spectral import (
    MaskedSpectrum,
    band_power_rows,
    threshold_psd,
    threshold_rows,
    undifference_psd,
    undifference_rows,
)

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
    "score_channels",
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


def _classify_rows(
    freqs_hz: np.ndarray,
    masked: np.ndarray,
    survivor_fractions: Sequence[float],
    bands: Sequence[FrequencyBand] | None,
    rho: float,
    derivations: Sequence[str],
) -> list[ChannelDecision]:
    """:func:`classify_channel` of each row of masked spectral values."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if bands is None:
        bands = default_bands()
    decisions = []
    for report, survivor_fraction, derivation in zip(
        band_power_rows(freqs_hz, masked, bands), survivor_fractions, derivations
    ):
        low = report.combined_fraction(LOW_BANDS)
        decisions.append(
            ChannelDecision(
                derivation=derivation,
                flagged=report.total_power > 0.0 and low >= rho,
                dominant_band=report.dominant_band,
                low_band_fraction=float(low),
                survivor_fraction=float(survivor_fraction),
            )
        )
    return decisions


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
    return _classify_rows(
        masked.freqs_hz, masked.values[np.newaxis], [masked.survivor_fraction], bands, rho,
        [derivation],
    )[0]


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
    comes from that scan.  This is the one-channel case of the fit phase
    of :func:`detect_recording`.
    """
    ((_, outcome),) = _fit_channels([x], config, np.empty(len(x)))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _fit_channels(channels: Sequence[TimeSeries], config: RunConfig, work: np.ndarray):
    """Yield ``(index, outcome)`` for each channel: its fit as
    :func:`fit_channel` gives it, or the ValueError or ArithmeticError it
    raises.

    Each channel is prepared in ``work``, which must hold the longest.
    Under Burg the channels go through
    :func:`arpsd.estimation.burg_sweeps`, which may prepare a channel
    again; the other methods fit one channel at a time.  Each outcome is
    yielded as soon as it is known, so that a caller need not hold every
    channel's fit (and order scan) at once.
    """
    auto = config.order == "auto"
    sizes = {}  # prepared samples of each channel, for its order scan

    def prepared(index: int) -> TimeSeries:
        series = prepare_into(channels[index], config.diff_order, work)
        if auto:
            check_scan(len(series), config.p_max, config.method, config.criterion)
        sizes[index] = len(series)
        return series

    if config.method == "burg":
        outcomes = burg_sweeps(prepared, len(channels), config.p_max if auto else config.order)
    else:
        outcomes = _levinson_fits(prepared, len(channels), config)
    for index, outcome in outcomes:
        if isinstance(outcome, FitSweep):
            try:
                outcome = _sweep_fit(outcome, sizes[index], config)
            except (ValueError, ArithmeticError) as exc:
                outcome = exc
        yield index, outcome


def _levinson_fits(prepared, count: int, config: RunConfig):
    """Yield ``(index, outcome)`` of Yule-Walker or MLE for each channel
    ``prepared(index)``: its sweep to ``config.p_max`` under
    ``order="auto"``, its fit at a fixed order, or the error raised."""
    for index in range(count):
        try:
            series = prepared(index)
            if config.order == "auto":
                outcome = fit_sweep(series, config.p_max, config.method, config.grid_size)
            elif config.method == "yule_walker":
                outcome = ChannelFit(yule_walker_fit(series, config.order))
            else:
                outcome = ChannelFit(mle_fit(series, config.order, grid_size=config.grid_size))
        except (ValueError, ArithmeticError) as exc:
            outcome = exc
        yield index, outcome


def _sweep_fit(sweep: FitSweep, n: int, config: RunConfig) -> ChannelFit:
    """The fit that ``config`` takes from a sweep over n prepared samples."""
    if config.order == "auto":
        scan = scan_sweep(sweep, n, config.criterion)
        return ChannelFit(scan.fit, scan)
    return ChannelFit(sweep.fit(config.order))


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


def _screen_block(
    models: Sequence[ArModel], names: Sequence[str], config: RunConfig, sample_rate_hz: float
) -> list:
    """Decision or error message of each fitted model, by the row-wise stages.

    Entry r is what :func:`channel_psd` and :func:`classify_channel` give
    ``models[r]``: the decision, or the message of the ValueError or
    ArithmeticError raised.
    """
    try:
        return _screen_rows(models, names, config, sample_rate_hz)
    except ArithmeticError as exc:
        if len(models) == 1:
            return [str(exc)]
    # Under np.seterr(..., "raise") one channel's fault stops the whole
    # block; screen its channels one by one instead.
    return [
        outcome
        for model, name in zip(models, names)
        for outcome in _screen_block([model], [name], config, sample_rate_hz)
    ]


def _screen_rows(
    models: Sequence[ArModel], names: Sequence[str], config: RunConfig, sample_rate_hz: float
) -> list:
    values, faults = ar_psd_rows(models, config.grid_size)
    freqs = np.linspace(0.0, 0.5, config.grid_size)
    if config.undifference_correction and config.diff_order > 0:
        freqs, values = undifference_rows(freqs, values, config.diff_order)
        faults = [
            fault or later for fault, later in zip(faults, SpectrumEstimate.row_faults(values))
        ]
    ok = [row for row, fault in enumerate(faults) if fault is None]
    if len(ok) < len(faults):
        values = values[ok]
    _, masked, survivor_fractions = threshold_rows(values, config.k)
    try:
        decisions = _classify_rows(
            freqs * sample_rate_hz, masked, survivor_fractions.tolist(), config.bands,
            config.rho, [names[row] for row in ok],
        )
    except ValueError as exc:
        decisions = [str(exc)] * len(ok)
    outcomes = list(faults)
    for row, decision in zip(ok, decisions):
        outcomes[row] = decision
    return outcomes


def detect_recording(recording: Recording, config: RunConfig | None = None) -> DetectionReport:
    """Run the full screening pipeline over every channel of a recording.

    Per channel: difference ``config.diff_order`` times, demean, fit an
    AR model with ``config.method``, evaluate its PSD, zero sub-threshold
    power with multiplier ``config.k``, and flag by low-band dominance
    ``config.rho``.  The pipeline is deterministic.  A channel whose
    pipeline raises ValueError or ArithmeticError (a floating-point,
    zero-division or overflow fault) is reported in ``errors`` with the
    message, and the remaining channels are still screened.

    Every channel is fitted first, as by :func:`fit_channel`, but prepared
    in one buffer that the channels share in turn; under Burg the
    channels are fitted together by
    :func:`arpsd.estimation.burg_sweeps`.  The fitted models are then
    screened ``BLOCK_CHANNELS`` at a time by the row-wise forms of
    :func:`channel_psd`'s and :func:`classify_channel`'s stages.  Each
    row-wise step gives each channel the bits it gets alone.  ``errors``
    keeps the recording's channel order.
    """
    if config is None:
        config = RunConfig()
    outcomes: dict[str, object] = {}
    models: dict[str, ArModel] = {}
    # Every channel is prepared in this one buffer.  Fresh channel-length
    # arrays, freed at the end of each channel, let the allocator hand
    # their pages back to the system, and the next channel fault them in
    # again.
    work = np.empty(recording.n_samples)
    channel_names = recording.names
    for index, fit in _fit_channels([recording[name] for name in channel_names], config, work):
        if isinstance(fit, Exception):
            outcomes[channel_names[index]] = str(fit)
        else:
            models[channel_names[index]] = fit.fit.model
    fitted = [name for name in channel_names if name in models]
    # A screening block holds a few channels x grid_size float64 matrices
    # (|A(f)|^2, PSD, mask, trapezoid terms); at 32 rows of a 512-point
    # grid each is 128 kB.  One block for all 256 channels of perfbench's
    # wide montage raised the library workload's peak resident memory from
    # about 260 to 264 MB (2-core x86 VM); blocks of 32 keep it at the
    # level of one channel at a time, and its wide-montage detect took the
    # same time.
    for start in range(0, len(fitted), BLOCK_CHANNELS):
        names = fitted[start : start + BLOCK_CHANNELS]
        screened = _screen_block([models[n] for n in names], names, config, recording.sample_rate_hz)
        outcomes.update(zip(names, screened))
    decisions = tuple(
        outcome for outcome in (outcomes[name] for name in recording.names)
        if isinstance(outcome, ChannelDecision)
    )
    errors = {name: outcomes[name] for name in recording.names if isinstance(outcomes[name], str)}
    return DetectionReport(decisions, config.summary(), errors)


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


def score_channels(
    flags: Mapping[str, bool],
    errored: Sequence[str],
    truth: Mapping[str, bool],
    wording: tuple[str, str, str] = (
        "annotation keys do not match report", "report", "annotations"
    ),
) -> MetricsReport:
    """Score per-channel flags against reference labels.

    Every labelled channel must have a flag or be named in ``errored``,
    and every flagged or errored channel must be labelled.  A mismatch
    raises ValueError naming the offending channels, worded from
    ``wording = (heading, predictions, labels)`` as "<heading>; missing
    from <predictions>: ...; missing from <labels>: ...".  The channels in
    ``errored`` have no decision to score: they are left out of the
    counts and named in the first of the notes.
    """
    unscored = set(errored)
    reported = set(flags) | unscored
    missing = sorted(set(truth) - reported)
    extra = sorted(reported - set(truth))
    if missing or extra:
        heading, predictions, labels = wording
        parts = []
        if missing:
            parts.append(f"missing from {predictions}: " + ", ".join(missing))
        if extra:
            parts.append(f"missing from {labels}: " + ", ".join(extra))
        raise ValueError(f"{heading}; " + "; ".join(parts))
    scored = {name: label for name, label in truth.items() if name not in unscored}
    metrics = metrics_from_counts(confusion_from_flags(flags, scored))
    if not errored:
        return metrics
    note = "not scored (error in report): " + ", ".join(errored)
    return replace(metrics, notes=(note, *metrics.notes))


def evaluate(predicted: DetectionReport, annotations: Mapping[str, bool]) -> MetricsReport:
    """Score flagged channels against reference annotations.

    The annotation keys must coincide exactly with the derivations in
    the report, decided or in ``errors``; any mismatch raises with the
    offending names listed.  Channels in ``errors`` are left out of the
    counts and named in the notes (see :func:`score_channels`).
    """
    flags = {decision.derivation: decision.flagged for decision in predicted.per_channel}
    return score_channels(flags, list(predicted.errors), annotations)
