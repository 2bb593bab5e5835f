"""Run configuration shared by the detection pipeline and the CLI."""

from dataclasses import dataclass, field
from numbers import Integral

from .core import FrequencyBand, check_bands, default_bands
from .estimation import METHODS
from .order_selection import CRITERIA

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one screening run.

    Defaults reproduce the reference pipeline: first differencing, Burg
    fits at order 10, threshold multiplier 2 on the PSD grid mean, and a
    channel flagged when at least half of the surviving power sits in
    delta or theta.  ``order`` is a positive integer (any integral type
    but bool, stored as ``int``) or the string "auto" to select the order
    per channel by ``criterion`` over 1..p_max.
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
            # bool is an Integral, but True is no model order.
            if isinstance(self.order, bool) or not isinstance(self.order, Integral) or self.order < 1:
                raise ValueError('order must be a positive integer or "auto"')
            object.__setattr__(self, "order", int(self.order))
        if self.p_max < 1:
            raise ValueError("p_max must be at least 1")
        if self.diff_order < 0:
            raise ValueError("diff_order must be nonnegative")
        if not self.k >= 0.0:
            raise ValueError("k must be nonnegative")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
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
