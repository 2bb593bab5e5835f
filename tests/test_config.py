"""RunConfig validation."""

import numpy as np
import pytest

from arpsd import FrequencyBand, RunConfig


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
