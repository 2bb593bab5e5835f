"""The per-channel screening path, channel flagging from masked spectra,
and scoring against annotations.

Every channel is screened through one path, which ``detect_recording``
and every CLI subcommand share: :func:`fit_channel` prepares the channel
and fits it as the run configuration says, :func:`channel_psd` turns the
fit into a masked spectrum, and :func:`classify_channel` flags it.
``detect_recording`` runs the same formulas over the equal-length
channels of a recording, in one block pass (:func:`_screen_blocks`),
fitting and screening each block that
:func:`arpsd.estimation.fit_sweeps` yields in turn: that call prepares
and reads a block's channels of up to 10,000 samples as rows of one
matrix, the automatic order of a block of sweeps comes from one
:func:`arpsd.order_selection.sweep_orders` call, and the block's fitted
models are screened at once through :func:`arpsd.core.in_rows`.  The
row stages raise the faults of their rows, and ``in_rows`` settles each
on its channel, so every channel ends in a decision or an error.
:func:`channel_psds` takes the same pass and keeps the masked spectra.
A channel alone is the one-row case.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Sequence

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
    in_rows,
    raise_row_faults,
)
from .estimation import FitResult, ar_psd_rows, fit_sweeps
from .order_selection import check_scan, sweep_orders
from .spectral import MaskedSpectrum, band_power_rows, threshold_rows, undifference_rows

__all__ = [
    "ChannelDecision",
    "DetectionReport",
    "MetricsReport",
    "channel_psd",
    "channel_psds",
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


def fit_channel(x: TimeSeries, config: RunConfig) -> FitResult:
    """Prepare one raw channel and fit it with ``config.method``.

    The channel is differenced ``config.diff_order`` times and demeaned,
    ``demean(difference(x, config.diff_order))``.  At a fixed order the
    method's sweep runs to that order and gives its top fit; under
    ``order="auto"`` it runs to ``config.p_max`` and gives the fit that
    :func:`arpsd.order_selection.order_scan` selects on the prepared
    channel, without scoring every order.  This is the one-channel case
    of :func:`_fit_channels`, the fit phase of :func:`detect_recording`.
    """
    [[(_, outcome)]] = _fit_channels([x], config)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _fit_channels(channels: Sequence[TimeSeries], config: RunConfig):
    """Yield one list per block that :func:`arpsd.estimation.fit_sweeps`
    yields: ``(index, outcome)`` of each channel, in channel order, its
    fit as :func:`fit_channel` gives it, or the ValueError or
    ArithmeticError it raises.  The channels must all have the same
    sample count.

    ``fit_sweeps`` prepares the raw channels, a block at a time as rows of
    one matrix, checks the prepared length against the order scan under
    ``order="auto"``, and sweeps them to ``config.p_max`` or to the fixed
    order; Burg may prepare a channel again.  Under ``order="auto"`` each
    block's orders are selected by one
    :func:`arpsd.order_selection.sweep_orders` call, under
    :func:`arpsd.core.in_rows`.  No caller need hold every channel's fit
    at once.
    """
    auto = config.order == "auto"
    check = None
    if auto:
        check = partial(check_scan, p_max=config.p_max, method=config.method,
                        criterion=config.criterion)
    p = config.p_max if auto else config.order
    n = len(channels[0]) - config.diff_order if channels else 0

    def fits(sweeps: list) -> list:
        if auto:
            orders = sweep_orders(sweeps, [n] * len(sweeps), config.criterion)
        else:
            orders = [config.order] * len(sweeps)
        return [sweep.fit(order) for sweep, order in zip(sweeps, orders)]

    for block in fit_sweeps(channels, p, config.method, config.grid_size, config.diff_order,
                            check):
        indices, sweeps = zip(*block)
        yield list(zip(indices, in_rows(sweeps, fits)))


def _screen_blocks(channels: Sequence[TimeSeries], config: RunConfig,
                   screen: Callable[[list], list]):
    """Yield the outcome of each of the equal-length ``channels``, in
    channel order: the ValueError or ArithmeticError that its fit raises,
    or what ``screen`` gives its model.  The channels are fitted a
    block at a time (:func:`_fit_channels`), and ``screen`` takes the
    ``(index, model)`` of every fitted channel of a block and returns one
    outcome each, under :func:`arpsd.core.in_rows`."""
    for block in _fit_channels(channels, config):
        yield from in_rows([fit if isinstance(fit, Exception) else (index, fit.model)
                            for index, fit in block], screen)


def _masked_rows(models: Sequence[ArModel], config: RunConfig):
    """:func:`channel_psd`'s stages after the fit, over rows of models.

    Returns ``(freqs, spectra, threshold_rows(spectra, config.k))``:
    ``spectra`` holds a row per model on the normalized grid ``freqs``.
    A model whose spectrum raises ValueError is raised as its fault (see
    :func:`arpsd.core.raise_row_faults`).
    """
    values = ar_psd_rows(models, config.grid_size)
    freqs = np.linspace(0.0, 0.5, config.grid_size)
    if config.undifference_correction and config.diff_order > 0:
        freqs, values = undifference_rows(freqs, values, config.diff_order)
        raise_row_faults(SpectrumEstimate.row_faults(values))
    return freqs, values, threshold_rows(values, config.k)


def channel_psd(x: TimeSeries, config: RunConfig) -> MaskedSpectrum:
    """The masked model spectrum of one raw channel.

    Fits the channel by :func:`fit_channel`, evaluates the model PSD on
    ``config.grid_size`` points, divides out the differencing response
    when ``config.undifference_correction`` is set, and zeroes the power
    below ``config.k`` times the grid mean.  This is the one-channel case
    of :func:`channel_psds`.
    """
    (outcome,) = channel_psds([x], config)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def channel_psds(channels: Sequence[TimeSeries], config: RunConfig) -> list:
    """:func:`channel_psd` of each raw channel, or the ValueError or
    ArithmeticError it raises, in channel order.  The channels must all
    have the same sample count.

    The channels are fitted and their spectra masked a block at a time,
    by the block pass of :func:`detect_recording` (:func:`_screen_blocks`
    and the row forms of the screen's spectral stages), so each channel
    gets the bits it gets alone.
    """
    rates = [x.sample_rate_hz for x in channels]
    spectra = partial(_masked_spectra, config=config, rates=rates)
    return list(_screen_blocks(channels, config, spectra))


def _masked_spectra(fitted: Sequence[tuple[int, ArModel]], config: RunConfig,
                    rates: Sequence[float]) -> list:
    """The masked spectrum of each ``(index, model)``, at the sample rate
    ``rates[index]``, by :func:`_masked_rows`."""
    indices, models = zip(*fitted)
    freqs, values, (mean_power, masked, survivors) = _masked_rows(models, config)
    return [
        MaskedSpectrum(SpectrumEstimate(freqs, values[row], rates[index]), float(config.k),
                       float(mean_power[row]), masked[row], float(survivors[row]))
        for row, index in enumerate(indices)
    ]


def _screen_rows(fitted: Sequence[tuple[int, ArModel]], config: RunConfig,
                 names: Sequence[str], sample_rate_hz: float):
    """The decision of each ``(index, model)`` in ``fitted`` on the channel
    ``names[index]``, as :func:`channel_psd` and :func:`classify_channel`
    give it."""
    indices, models = zip(*fitted)
    freqs, _, (_, masked, survivor_fractions) = _masked_rows(models, config)
    return _classify_rows(
        freqs * sample_rate_hz, masked, survivor_fractions.tolist(), config.bands, config.rho,
        [names[index] for index in indices],
    )


def detect_recording(recording: Recording, config: RunConfig | None = None) -> DetectionReport:
    """Run the full screening pipeline over every channel of a recording.

    Per channel: difference ``config.diff_order`` times, demean, fit an
    AR model with ``config.method``, evaluate its PSD, zero sub-threshold
    power with multiplier ``config.k``, and flag by low-band dominance
    ``config.rho``.  The pipeline is deterministic.  A channel whose
    pipeline raises ValueError or ArithmeticError (a floating-point,
    zero-division or overflow fault) is reported in ``errors`` with the
    message, and the remaining channels are still screened.

    Channels are fitted and screened in one pass per block
    (:func:`_screen_blocks`): each block is fitted as by
    :func:`fit_channel` (see :func:`_fit_channels`), its channels prepared
    as rows of one reused matrix, and its fitted models are screened at
    once by the row-wise forms of :func:`channel_psd`'s and
    :func:`classify_channel`'s stages, through :func:`arpsd.core.in_rows`.
    Each channel gets the bits it gets alone.  ``errors`` keeps the recording's channel order, and
    ``parameters`` echoes ``config.summary()`` and the recording's sample
    rate as ``fs``.
    """
    if config is None:
        config = RunConfig()
    names = recording.names
    screen = partial(_screen_rows, config=config, names=names,
                     sample_rate_hz=recording.sample_rate_hz)
    outcomes = list(_screen_blocks([recording[name] for name in names], config, screen))
    decisions = tuple(outcome for outcome in outcomes if isinstance(outcome, ChannelDecision))
    errors = {name: str(outcome) for name, outcome in zip(names, outcomes)
              if isinstance(outcome, Exception)}
    parameters = {**config.summary(), "fs": recording.sample_rate_hz}
    return DetectionReport(decisions, parameters, errors)


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
