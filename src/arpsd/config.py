"""Run configuration shared by the detection pipeline and the CLI."""

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .core import FrequencyBand, as_count, check_bands, default_bands
from .estimation import METHODS
from .order_selection import CRITERIA

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one screening run.

    Defaults reproduce the reference pipeline: first differencing, Burg
    fits at order 10, threshold multiplier 2 on the PSD grid mean, and a
    channel flagged when at least half of the surviving power sits in
    delta or theta.  ``order`` is a positive integer or the string "auto"
    to select the order per channel by ``criterion`` over 1..p_max.  The
    integers ``order``, ``p_max``, ``diff_order`` and ``grid_size`` may be
    of any integral type but bool, and are stored as ``int``; ``k`` and
    ``rho`` may be of any real type but bool, and are stored as ``float``;
    ``undifference_correction`` is a Python or NumPy bool, stored as
    ``bool``.
    """

    method: str = "burg"
    order: int | str = 10
    criterion: str = "bic"
    p_max: int = 30
    diff_order: int = 1
    k: float = 2.0
    rho: float = 0.5
    grid_size: int = 512
    undifference_correction: bool = False
    bands: tuple[FrequencyBand, ...] = field(default_factory=default_bands)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method!r}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion: {self.criterion!r}")
        if not (isinstance(self.order, str) and self.order == "auto"):
            order = as_count(self.order, 1)
            if order is None:
                raise ValueError('order must be a positive integer or "auto"')
            object.__setattr__(self, "order", order)
        for name, least, rule in (("p_max", 1, "an integer of at least 1"),
                                  ("diff_order", 0, "a nonnegative integer"),
                                  ("grid_size", 2, "an integer of at least 2")):
            value = as_count(getattr(self, name), least)
            if value is None:
                raise ValueError(f"{name} must be {rule}")
            object.__setattr__(self, name, value)
        for name in ("k", "rho"):
            value = getattr(self, name)
            # bool is a Real, but True is no threshold.
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a real number")
            object.__setattr__(self, name, float(value))
        if not isinstance(self.undifference_correction, (bool, np.bool_)):
            raise ValueError("undifference_correction must be a bool")
        object.__setattr__(self, "undifference_correction", bool(self.undifference_correction))
        if not self.k >= 0.0:
            raise ValueError("k must be nonnegative")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        # A tuple in the caller's order: band totals add the bands in it.
        object.__setattr__(self, "bands", tuple(self.bands))
        check_bands(self.bands)

    def summary(self) -> dict[str, object]:
        """Flat parameter echo used in report headers, which add the
        recording's sample rate as ``fs``."""
        return {
            "method": self.method,
            "order": self.order,
            "criterion": self.criterion,
            "p_max": self.p_max,
            "d": self.diff_order,
            "k": self.k,
            "rho": self.rho,
            "grid_size": self.grid_size,
            "correction": "on" if self.undifference_correction else "off",
        }
