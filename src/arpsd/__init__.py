"""Autoregressive spectral estimation and low-frequency rhythm screening.

The package fits AR(p) models to single channels of a multichannel
recording (Yule-Walker, Burg, or periodogram-matched maximum likelihood),
turns the fitted models into parametric power spectral densities, and
flags channels whose above-average spectral mass concentrates in the
low EEG bands (delta and theta).  A small CLI drives the same pipeline
from CSV files.
"""

__version__ = "0.1.0"

from .core import (
    ArModel,
    AutocovarianceSeq,
    ConfusionCounts,
    FrequencyBand,
    Recording,
    SpectrumEstimate,
    TimeSeries,
    band_containing,
    default_bands,
    default_montage,
)
from .preprocess import (
    biased_autocov,
    demean,
    difference,
    normality_check,
    periodogram,
)
from .estimation import (
    FitResult,
    FitSweep,
    ar_psd,
    burg_fit,
    coefficients_from_reflection,
    fit_sweep,
    levinson_durbin,
    mle_fit,
    reflection_coefficients,
    yule_walker_fit,
)
from .order_selection import OrderScanResult, OrderScore, aic, aicc, bic, order_scan
from .spectral import (
    BandPowerReport,
    MaskedSpectrum,
    band_powers,
    threshold_psd,
    undifference_psd,
)
from .detection import (
    ChannelDecision,
    ChannelFit,
    DetectionReport,
    MetricsReport,
    channel_psd,
    classify_channel,
    confusion_from_flags,
    detect_recording,
    evaluate,
    fit_channel,
    metrics_from_counts,
)
from .simulate import BurstSpec, resonator_model, simulate_ar, simulate_recording
from .config import RunConfig

__all__ = [
    "ArModel",
    "AutocovarianceSeq",
    "BandPowerReport",
    "BurstSpec",
    "ChannelDecision",
    "ChannelFit",
    "ConfusionCounts",
    "DetectionReport",
    "FitResult",
    "FitSweep",
    "FrequencyBand",
    "MaskedSpectrum",
    "MetricsReport",
    "OrderScanResult",
    "OrderScore",
    "Recording",
    "RunConfig",
    "SpectrumEstimate",
    "TimeSeries",
    "aic",
    "aicc",
    "ar_psd",
    "band_containing",
    "band_powers",
    "bic",
    "biased_autocov",
    "burg_fit",
    "channel_psd",
    "classify_channel",
    "coefficients_from_reflection",
    "confusion_from_flags",
    "default_bands",
    "default_montage",
    "demean",
    "detect_recording",
    "difference",
    "evaluate",
    "fit_channel",
    "fit_sweep",
    "levinson_durbin",
    "metrics_from_counts",
    "mle_fit",
    "normality_check",
    "order_scan",
    "periodogram",
    "reflection_coefficients",
    "resonator_model",
    "simulate_ar",
    "simulate_recording",
    "threshold_psd",
    "undifference_psd",
    "yule_walker_fit",
]
