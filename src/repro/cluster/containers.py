"""Container abstractions: resource configurations and container requests.

A :class:`ResourceConfiguration` is the paper's two-dimensional resource
plan for one operator: the number of concurrent containers and the size of
each container in GB of memory (Sec II-B / Sec III: "we consider the
container sizes in terms of memory, but our experiments can naturally be
extended to include other resources, such as CPU").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.units import GBSeconds, Seconds


class ResourceError(Exception):
    """Raised for invalid resource configurations or requests."""


@dataclass(frozen=True, order=True, kw_only=True)
class ResourceConfiguration:
    """A per-operator resource plan: ``num_containers`` x ``container_gb``.

    The two fields map onto the two hill-climbing dimensions of the paper's
    Algorithm 1; :meth:`as_vector` / :meth:`from_vector` convert to and from
    the generic vector form that algorithm manipulates.

    Both axes are keyword-only: ``num_containers=10, container_gb=4.0``
    cannot be silently transposed, ``(10, 4.0)`` could.
    """

    num_containers: int
    container_gb: float

    def __post_init__(self) -> None:
        if self.num_containers < 1:
            raise ResourceError(
                f"num_containers must be >= 1, got {self.num_containers}"
            )
        if self.container_gb <= 0:
            raise ResourceError(
                f"container_gb must be > 0, got {self.container_gb}"
            )

    @property
    def total_memory_gb(self) -> float:
        """Aggregate memory of the configuration."""
        return self.num_containers * self.container_gb

    def gb_seconds(self, duration_s: Seconds) -> GBSeconds:
        """Resources consumed holding this configuration for a duration.

        This is the paper's "total resources used" metric (memory x time);
        the serverless price model charges proportionally to it.
        """
        if duration_s < 0:
            raise ResourceError(f"duration must be >= 0, got {duration_s}")
        return GBSeconds(self.total_memory_gb * duration_s)

    def as_vector(self) -> Tuple[float, float]:
        """(num_containers, container_gb) as a mutable-friendly vector."""
        return (float(self.num_containers), self.container_gb)

    @classmethod
    def from_vector(cls, vector: Tuple[float, float]) -> "ResourceConfiguration":
        """Rebuild a configuration from the vector form.

        The container count is rounded to the nearest integer (resource
        dimensions move in discrete steps).
        """
        return cls(
            num_containers=int(round(vector[0])),
            container_gb=float(vector[1]),
        )

    def __str__(self) -> str:
        return f"<{self.num_containers} x {self.container_gb:g}GB>"


@dataclass(frozen=True)
class ContainerRequest:
    """A request to the resource manager for a job or DAG stage."""

    config: ResourceConfiguration
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ResourceError(
                f"duration_s must be > 0, got {self.duration_s}"
            )

    @property
    def memory_gb(self) -> float:
        """Total memory requested."""
        return self.config.total_memory_gb
