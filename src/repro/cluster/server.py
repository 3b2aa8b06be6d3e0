"""Edge server model: capacity, accelerator, power state, and allocations.

An :class:`EdgeServer` is the unit the placement decision variables refer to:
``x_ij`` places application *i* on server *j*, and ``y_j`` decides whether the
server is powered on. The server tracks its available capacity as applications
are committed to it (the incremental placement algorithm updates server states
after every batch, Algorithm 1 line 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.cluster.hardware import DeviceSpec, NVIDIA_A2, XEON_E5_2660V3
from repro.cluster.resources import FIT_SLACK, ResourceVector


class PowerState(Enum):
    """Power state of a server."""

    OFF = "off"
    ON = "on"


@dataclass
class EdgeServer:
    """A single edge server hosted in an edge data center.

    Parameters
    ----------
    server_id:
        Unique identifier.
    site:
        Name of the edge data center (city) hosting the server.
    zone_id:
        Carbon zone supplying the server's electricity.
    cpu:
        Host CPU device spec.
    accelerator:
        Optional GPU device spec (``None`` for CPU-only servers).
    power_state:
        Initial power state.
    """

    server_id: str
    site: str
    zone_id: str
    cpu: DeviceSpec = XEON_E5_2660V3
    accelerator: DeviceSpec | None = NVIDIA_A2
    power_state: PowerState = PowerState.OFF
    allocations: dict[str, ResourceVector] = field(default_factory=dict)
    #: Running sum of ``allocations`` — maintained incrementally so the
    #: commit path (allocate → can_host → available_capacity) costs O(dims)
    #: per allocation instead of re-summing every allocation each time, which
    #: made committing a batch quadratic and dominated the serving loop's
    #: warm re-solve latency. ``None`` means "recompute on next read" (the
    #: exact sum), which also snaps away any incremental float residue
    #: whenever the server empties.
    _used_cache: ResourceVector | None = field(
        default=None, repr=False, compare=False)
    #: Memoised CPU+accelerator capacity (the hardware is immutable).
    _total_cache: ResourceVector | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cpu.kind != "cpu":
            raise ValueError(f"server {self.server_id}: cpu device must have kind 'cpu'")
        if self.accelerator is not None and self.accelerator.kind != "gpu":
            raise ValueError(f"server {self.server_id}: accelerator must have kind 'gpu'")

    # -- capacity ------------------------------------------------------------

    def _total_ref(self) -> ResourceVector:
        if self._total_cache is None:
            capacity = self.cpu.capacity.copy()
            if self.accelerator is not None:
                capacity = capacity + self.accelerator.capacity
            self._total_cache = capacity
        return self._total_cache

    def _used_ref(self) -> ResourceVector:
        if self._used_cache is None:
            used = ResourceVector.zeros(tuple(self._total_ref().keys()))
            for demand in self.allocations.values():
                used = used + demand
            self._used_cache = used
        return self._used_cache

    @property
    def total_capacity(self) -> ResourceVector:
        """Total capacity across the host CPU and the accelerator."""
        return self._total_ref().copy()

    @property
    def used_capacity(self) -> ResourceVector:
        """Sum of the resources currently allocated to applications."""
        return self._used_ref().copy()

    @property
    def available_capacity(self) -> ResourceVector:
        """Capacity still available for new applications (C^k_j in Equation 1)."""
        return self._total_ref() - self._used_ref()

    def utilization(self) -> float:
        """Tightest fractional utilisation across resource dimensions."""
        return self._used_ref().max_utilization_of(self._total_ref())

    def can_host(self, demand: ResourceVector) -> bool:
        """Whether the demand fits in the currently available capacity."""
        # Hot path of every commit: compare amounts directly (same semantics
        # as ``demand.fits_within(self.available_capacity)``) instead of
        # constructing intermediate vectors per check.
        total = self._total_ref().amounts
        used = self._used_ref().amounts
        return all(v <= total.get(k, 0.0) - used.get(k, 0.0) + FIT_SLACK
                   for k, v in demand.amounts.items())

    # -- power ----------------------------------------------------------------

    @property
    def is_on(self) -> bool:
        """Whether the server is currently powered on."""
        return self.power_state is PowerState.ON

    @property
    def base_power_w(self) -> float:
        """Base (idle) power of the server when on: CPU idle + accelerator idle (B_j)."""
        base = self.cpu.idle_power_w
        if self.accelerator is not None:
            base += self.accelerator.idle_power_w
        return base

    @property
    def max_power_w(self) -> float:
        """Maximum power draw of the server at full utilisation."""
        power = self.cpu.max_power_w
        if self.accelerator is not None:
            power += self.accelerator.max_power_w
        return power

    def power_on(self) -> None:
        """Power the server on (idempotent)."""
        self.power_state = PowerState.ON

    def power_off(self) -> None:
        """Power the server off; refuses if applications are still allocated."""
        if self.allocations:
            raise RuntimeError(
                f"cannot power off server {self.server_id}: "
                f"{len(self.allocations)} applications still allocated")
        self.power_state = PowerState.OFF

    # -- allocation ------------------------------------------------------------

    def allocate(self, app_id: str, demand: ResourceVector) -> None:
        """Commit an application's resource demand to this server."""
        if app_id in self.allocations:
            raise ValueError(f"application {app_id!r} is already allocated on {self.server_id}")
        if not self.can_host(demand):
            raise ValueError(
                f"server {self.server_id} cannot host {app_id!r}: demand {demand} "
                f"exceeds available {self.available_capacity}")
        if not self.is_on:
            raise RuntimeError(
                f"cannot allocate {app_id!r} on powered-off server {self.server_id}")
        self.allocations[app_id] = demand.copy()
        # In-place cache update is safe: the cache only leaves this class as
        # a copy (``used_capacity``) or a fresh difference (``available_capacity``).
        used = self._used_ref().amounts
        for key, value in demand.amounts.items():
            used[key] = used.get(key, 0.0) + value

    def release(self, app_id: str) -> ResourceVector:
        """Release an application's allocation and return the freed demand."""
        try:
            freed = self.allocations.pop(app_id)
        except KeyError:
            raise KeyError(f"application {app_id!r} is not allocated on {self.server_id}") from None
        if not self.allocations:
            self._used_cache = None  # empty server: next read is the exact zero
        elif self._used_cache is not None:
            used = self._used_cache.amounts
            for key, value in freed.amounts.items():
                used[key] = max(used.get(key, 0.0) - value, 0.0)
        return freed

    def reset_allocations(self) -> None:
        """Drop every allocation (the fleet-wide pristine-baseline reset)."""
        self.allocations.clear()
        self._used_cache = None

    @property
    def device_name(self) -> str:
        """Name of the accelerator (or the CPU for CPU-only servers)."""
        return self.accelerator.name if self.accelerator is not None else self.cpu.name
