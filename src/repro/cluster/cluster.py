"""Cluster conditions: the currently available resource envelope.

The RAQO optimizer "takes as input the declarative query and the current
cluster condition (through the RM)" (Sec IV). :class:`ClusterConditions`
captures what the resource planner needs: per-dimension minimum, maximum and
discrete step (Sec VII uses "a cluster of 100 containers each having a
maximum size of 10GB; minimum allocation is 1 container of size 1GB and
resources could be increased in discrete intervals of 1 on either axis").
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.cluster.containers import ResourceConfiguration, ResourceError


@dataclass(frozen=True)
class ResourceDimension:
    """One hill-climbable resource axis with bounds and a discrete step."""

    name: str
    minimum: float
    maximum: float
    step: float

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ResourceError(
                f"dimension {self.name!r} step must be > 0, got {self.step}"
            )
        if self.minimum > self.maximum:
            raise ResourceError(
                f"dimension {self.name!r} has min {self.minimum} > max "
                f"{self.maximum}"
            )

    @property
    def num_values(self) -> int:
        """How many discrete values the dimension can take."""
        return int(np.floor((self.maximum - self.minimum) / self.step)) + 1

    def values(self) -> List[float]:
        """All discrete values from minimum to maximum inclusive."""
        return [
            self.minimum + i * self.step for i in range(self.num_values)
        ]

    def clamp(self, value: float) -> float:
        """Clip ``value`` into the dimension's bounds."""
        return min(max(value, self.minimum), self.maximum)

    def contains(self, value: float) -> bool:
        """True when ``value`` lies within the bounds (inclusive)."""
        return self.minimum <= value <= self.maximum


@dataclass(frozen=True)
class ConfigurationGrid:
    """The full discrete configuration grid as parallel numpy arrays.

    Row ``i`` corresponds to the ``i``-th configuration yielded by
    :meth:`ClusterConditions.iter_configurations` -- the same enumeration
    order, so an argmin over batched costs breaks ties exactly like the
    scalar brute-force scan (first strictly-smaller cost wins).

    ``total_memory_gb`` is the per-configuration price basis: dollars for
    a duration are proportional to ``total_memory_gb * duration``.
    """

    counts: np.ndarray
    sizes: np.ndarray
    total_memory_gb: np.ndarray

    @property
    def num_configs(self) -> int:
        """Number of configurations (rows) in the grid."""
        return int(self.counts.shape[0])

    def config_at(self, index: int) -> ResourceConfiguration:
        """Materialise the configuration at one grid row."""
        return ResourceConfiguration(
            num_containers=int(round(float(self.counts[index]))),
            container_gb=float(self.sizes[index]),
        )

    def configurations(self) -> Iterator[ResourceConfiguration]:
        """Materialise every configuration in grid order."""
        for index in range(self.num_configs):
            yield self.config_at(index)


@functools.lru_cache(maxsize=256)
def _build_configuration_grid(
    cluster: "ClusterConditions",
) -> ConfigurationGrid:
    count_values = np.asarray(
        cluster.dimension("num_containers").values(), dtype=float
    )
    size_values = np.asarray(
        cluster.dimension("container_gb").values(), dtype=float
    )
    counts = np.repeat(count_values, size_values.shape[0])
    sizes = np.tile(size_values, count_values.shape[0])
    total = counts * sizes
    for array in (counts, sizes, total):
        array.setflags(write=False)
    return ConfigurationGrid(
        counts=counts, sizes=sizes, total_memory_gb=total
    )


@dataclass(frozen=True, kw_only=True)
class ClusterConditions:
    """The resource envelope the cluster currently offers a query.

    This is what the RM reports to RAQO: how many containers may be
    requested, how big each may be, and the granularity of both axes.

    All axes are keyword-only, so no two of them can be transposed.
    """

    max_containers: int
    max_container_gb: float
    min_containers: int = 1
    min_container_gb: float = 1.0
    container_step: int = 1
    container_gb_step: float = 1.0

    def __post_init__(self) -> None:
        if self.min_containers < 1:
            raise ResourceError(
                f"min_containers must be >= 1, got {self.min_containers}"
            )
        if self.max_containers < self.min_containers:
            raise ResourceError(
                "max_containers must be >= min_containers "
                f"({self.max_containers} < {self.min_containers})"
            )
        if self.min_container_gb <= 0:
            raise ResourceError(
                "min_container_gb must be > 0, got "
                f"{self.min_container_gb}"
            )
        if self.max_container_gb < self.min_container_gb:
            raise ResourceError(
                "max_container_gb must be >= min_container_gb "
                f"({self.max_container_gb} < {self.min_container_gb})"
            )
        if self.container_step < 1:
            raise ResourceError(
                f"container_step must be >= 1, got {self.container_step}"
            )
        if self.container_gb_step <= 0:
            raise ResourceError(
                "container_gb_step must be > 0, got "
                f"{self.container_gb_step}"
            )

    @property
    def dimensions(self) -> Tuple[ResourceDimension, ResourceDimension]:
        """The two resource axes in Algorithm 1 order."""
        return (
            ResourceDimension(
                name="num_containers",
                minimum=float(self.min_containers),
                maximum=float(self.max_containers),
                step=float(self.container_step),
            ),
            ResourceDimension(
                name="container_gb",
                minimum=self.min_container_gb,
                maximum=self.max_container_gb,
                step=self.container_gb_step,
            ),
        )

    def dimension(self, name: str) -> ResourceDimension:
        """Look one resource axis up by name.

        Callers that need a specific axis (e.g. the BHJ memory wall needs
        ``container_gb``) must use this instead of positional indexing so
        reordered or extended dimension lists cannot silently pick the
        wrong axis.
        """
        for dim in self.dimensions:
            if dim.name == name:
                return dim
        known = ", ".join(d.name for d in self.dimensions)
        raise ResourceError(
            f"unknown resource dimension {name!r} (known: {known})"
        )

    @property
    def step_sizes(self) -> Tuple[float, float]:
        """``GetDiscreteSteps(clusterCond)`` from Algorithm 1."""
        return (float(self.container_step), self.container_gb_step)

    @property
    def minimum_configuration(self) -> ResourceConfiguration:
        """Smallest allocatable configuration; hill climbing starts here."""
        return ResourceConfiguration(
            num_containers=self.min_containers,
            container_gb=self.min_container_gb,
        )

    @property
    def maximum_configuration(self) -> ResourceConfiguration:
        """Largest allocatable configuration."""
        return ResourceConfiguration(
            num_containers=self.max_containers,
            container_gb=self.max_container_gb,
        )

    @property
    def grid_size(self) -> int:
        """Total number of discrete resource configurations."""
        size = 1
        for dim in self.dimensions:
            size *= dim.num_values
        return size

    def contains(self, config: ResourceConfiguration) -> bool:
        """True when ``config`` lies within the envelope."""
        return self.dimension("num_containers").contains(
            float(config.num_containers)
        ) and self.dimension("container_gb").contains(config.container_gb)

    def clamp(self, config: ResourceConfiguration) -> ResourceConfiguration:
        """Clip a configuration into the envelope."""
        return ResourceConfiguration(
            num_containers=int(
                self.dimension("num_containers").clamp(
                    float(config.num_containers)
                )
            ),
            container_gb=self.dimension("container_gb").clamp(
                config.container_gb
            ),
        )

    def iter_configurations(self) -> Iterator[ResourceConfiguration]:
        """Enumerate the full discrete grid (brute-force search space)."""
        for count, size in itertools.product(
            self.dimension("num_containers").values(),
            self.dimension("container_gb").values(),
        ):
            yield ResourceConfiguration(
                num_containers=int(count), container_gb=size
            )

    def config_grid(self) -> ConfigurationGrid:
        """The full discrete grid as cached numpy arrays.

        The grid is built once per distinct cluster condition (the class
        is a frozen value type, so equal conditions share one grid) and
        the arrays are read-only. This is the input of the vectorized
        resource-planning fast path: one batched cost-model call replaces
        ``grid_size`` scalar invocations.
        """
        return _build_configuration_grid(self)

    def scaled(
        self, max_containers: int, max_container_gb: float
    ) -> "ClusterConditions":
        """A copy with different maxima (for the Fig 15(b) scaling sweep)."""
        return ClusterConditions(
            max_containers=max_containers,
            max_container_gb=max_container_gb,
            min_containers=self.min_containers,
            min_container_gb=self.min_container_gb,
            container_step=self.container_step,
            container_gb_step=self.container_gb_step,
        )
