"""RunConfig validation."""

import numpy as np
import pytest

from arpsd import FrequencyBand, RunConfig, default_bands


@pytest.mark.parametrize("order", [10, np.int64(10), np.int32(10), np.uint8(10)])
def test_integral_orders_are_accepted_and_stored_as_int(order):
    config = RunConfig(order=order)
    assert config.order == 10
    assert type(config.order) is int


@pytest.mark.parametrize("order", [True, False, 0, -3, 2.0, "10", "Auto", None])
def test_non_orders_are_rejected(order):
    with pytest.raises(ValueError, match='positive integer or "auto"'):
        RunConfig(order=order)


def test_auto_order_is_kept():
    assert RunConfig(order="auto").order == "auto"


@pytest.mark.parametrize(
    "bands, message",
    [
        ((), "need at least one band"),
        ((FrequencyBand("low", 1.0, 6.0), FrequencyBand("mid", 4.0, 10.0)),
         "overlapping bands: low and mid"),
        ((FrequencyBand("x", 0.5, 4.0), FrequencyBand("x", 4.0, 8.0), FrequencyBand("y", 8.0, 64.0)),
         "duplicate band name: x"),
    ],
)
def test_bad_band_sets_are_refused_at_construction(bands, message):
    # Accepted, every channel of a run would land in errors with this message.
    with pytest.raises(ValueError, match=message):
        RunConfig(bands=bands)


def test_bands_are_stored_as_a_tuple_in_the_callers_order():
    # A list used to be kept as is: the config was then unhashable, and
    # config.bands.pop() edited a frozen config past its checks.
    bands = list(default_bands())
    config = RunConfig(bands=bands)
    assert config.bands == default_bands() and hash(config) == hash(RunConfig())
    bands.pop()
    assert config.bands == default_bands()
    reordered = RunConfig(bands=default_bands()[::-1])
    assert reordered.bands == default_bands()[::-1]


@pytest.mark.parametrize("field", ["p_max", "diff_order", "grid_size"])
def test_integral_counts_are_accepted_and_stored_as_int(field):
    config = RunConfig(order="auto", **{field: np.int64(3)})
    assert getattr(config, field) == 3
    assert type(getattr(config, field)) is int


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("p_max", 2.5, "p_max must be an integer of at least 1"),
        ("p_max", True, "p_max must be an integer of at least 1"),
        ("p_max", 0, "p_max must be an integer of at least 1"),
        ("diff_order", 1.0, "diff_order must be a nonnegative integer"),
        ("diff_order", True, "diff_order must be a nonnegative integer"),
        ("diff_order", -1, "diff_order must be a nonnegative integer"),
        ("grid_size", 512.0, "grid_size must be an integer of at least 2"),
        ("grid_size", False, "grid_size must be an integer of at least 2"),
        ("grid_size", 1, "grid_size must be an integer of at least 2"),
        ("k", True, "k must be a real number"),
        ("k", "2", "k must be a real number"),
        ("k", -1.0, "k must be nonnegative"),
        ("rho", True, "rho must be a real number"),
        ("rho", "0.5", "rho must be a real number"),
        ("rho", 1.5, r"rho must lie in \[0, 1\]"),
        ("undifference_correction", "off", "undifference_correction must be a bool"),
        ("undifference_correction", 1, "undifference_correction must be a bool"),
        ("undifference_correction", None, "undifference_correction must be a bool"),
        ("method", "nope", "unknown method: 'nope'"),
        ("criterion", "nope", "unknown criterion: 'nope'"),
    ],
)
def test_non_counts_are_rejected(field, value, message):
    # A float count was accepted, and detect_recording then raised
    # TypeError; True was accepted and written to report headers as d=True
    # or k=True; "2" for k raised TypeError; and "off" turned the
    # correction on.
    with pytest.raises(ValueError, match=f"^{message}$"):
        RunConfig(order="auto", **{field: value})


@pytest.mark.parametrize("field", ["k", "rho"])
@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.5), np.float64(0.5)])
def test_real_thresholds_are_accepted_and_stored_as_float(field, value):
    config = RunConfig(**{field: value})
    assert getattr(config, field) == float(value)
    assert type(getattr(config, field)) is float


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_bool_corrections_are_accepted_and_stored_as_bool(value):
    config = RunConfig(undifference_correction=value)
    assert config.undifference_correction is bool(value)

