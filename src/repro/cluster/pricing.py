"""Serverless pricing: users pay for container-hours consumed.

Sec III-C: "We consider the recent trend of serverless analytics, where the
users only pay for the total container hours consumed by their analytical
queries." Monetary cost is therefore proportional to memory x time
(GB-seconds) aggregated over all containers a query holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro.cluster.containers import ResourceConfiguration, ResourceError
from repro.units import Dollars, GBSeconds, Seconds

#: A scalar GB-seconds charge or a numpy array of them.
Charge = TypeVar("Charge", float, np.ndarray)


@dataclass(frozen=True)
class PriceModel:
    """Linear serverless price: dollars per GB-hour of container time.

    The default rate is in the ballpark of public serverless analytics
    offerings; all the paper's comparisons are relative, so only
    proportionality matters.
    """

    dollars_per_gb_hour: float = 0.016

    def __post_init__(self) -> None:
        if self.dollars_per_gb_hour <= 0:
            raise ResourceError(
                "dollars_per_gb_hour must be > 0, got "
                f"{self.dollars_per_gb_hour}"
            )

    def cost_of_gb_seconds(self, gb_seconds: GBSeconds) -> Dollars:
        """Dollar cost of a given GB-seconds consumption."""
        if gb_seconds < 0:
            raise ResourceError(
                f"gb_seconds must be >= 0, got {gb_seconds}"
            )
        return Dollars(self.price(gb_seconds))

    def price(self, gb_seconds: Charge) -> Charge:
        """``gb_seconds / 3600 * rate``, elementwise on numpy arrays.

        The one place the price formula is written. It is unchecked:
        the planners' grid kernels price whole configuration grids,
        whose infeasible lanes hold ``inf``. Callers that price a
        single measured charge go through :meth:`cost_of_gb_seconds`.
        """
        return gb_seconds / 3600.0 * self.dollars_per_gb_hour

    def cost(
        self, config: ResourceConfiguration, duration_s: Seconds
    ) -> Dollars:
        """Dollar cost of holding ``config`` for ``duration_s`` seconds."""
        return self.cost_of_gb_seconds(config.gb_seconds(duration_s))
