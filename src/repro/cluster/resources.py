"""Multi-dimensional resource vectors.

Edge servers are "computing, storage, and networking resource-limited and
diverse in capacity and resource types" (Section 4.2, constraint 1). A
:class:`ResourceVector` is a small immutable-ish mapping from resource-type
name (e.g. ``cpu_cores``, ``memory_mb``, ``gpu_memory_mb``) to a non-negative
amount, with element-wise arithmetic and comparison helpers used by the
capacity constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

#: Resource dimensions used by the default hardware catalogue.
STANDARD_RESOURCES: tuple[str, ...] = ("cpu_cores", "memory_mb", "gpu_memory_mb")

#: Per-dimension slack of every capacity fit test: it absorbs the float
#: residue subtraction leaves (0.3 - 0.1 is just under 0.2), so a demand
#: that fills what is left still fits.
FIT_SLACK: float = 1e-9


@dataclass
class ResourceVector:
    """A mapping of resource type to amount with element-wise operations."""

    amounts: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[str, float] = {}
        for key, value in self.amounts.items():
            v = float(value)
            if v < 0:
                raise ValueError(f"resource {key!r} must be non-negative, got {value}")
            clean[str(key)] = v
        self.amounts = clean

    # -- construction --------------------------------------------------------

    @classmethod
    def of(cls, **amounts: float) -> "ResourceVector":
        """Build a vector from keyword arguments: ``ResourceVector.of(cpu_cores=4)``."""
        return cls(amounts=dict(amounts))

    @classmethod
    def zeros(cls, keys: tuple[str, ...] = STANDARD_RESOURCES) -> "ResourceVector":
        """A zero vector over the given resource dimensions."""
        return cls(amounts={k: 0.0 for k in keys})

    def copy(self) -> "ResourceVector":
        """A deep copy of this vector."""
        return ResourceVector(amounts=dict(self.amounts))

    # -- mapping-style access -------------------------------------------------

    def __getitem__(self, key: str) -> float:
        return self.amounts.get(key, 0.0)

    def __contains__(self, key: str) -> bool:
        return key in self.amounts

    def __iter__(self) -> Iterator[str]:
        return iter(self.amounts)

    def keys(self) -> list[str]:
        """Resource-type names present in this vector."""
        return list(self.amounts)

    def get(self, key: str, default: float = 0.0) -> float:
        """Amount for ``key`` or ``default`` when absent."""
        return self.amounts.get(key, default)

    # -- arithmetic ------------------------------------------------------------

    def _merge_keys(self, other: "ResourceVector | Mapping[str, float]") -> set[str]:
        other_keys = other.keys() if hasattr(other, "keys") else []
        return set(self.amounts) | set(other_keys)

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        keys = self._merge_keys(other)
        return ResourceVector({k: self.get(k) + other.get(k) for k in keys})

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        keys = self._merge_keys(other)
        result = {k: self.get(k) - other.get(k) for k in keys}
        if any(v < -FIT_SLACK for v in result.values()):
            negative = {k: v for k, v in result.items() if v < -FIT_SLACK}
            raise ValueError(f"resource subtraction would go negative: {negative}")
        return ResourceVector({k: max(v, 0.0) for k, v in result.items()})

    def __mul__(self, scale: float) -> "ResourceVector":
        s = float(scale)
        if s < 0:
            raise ValueError(f"cannot scale resources by a negative factor ({scale})")
        return ResourceVector({k: v * s for k, v in self.amounts.items()})

    __rmul__ = __mul__

    # -- comparisons -----------------------------------------------------------

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """True if every demand dimension fits within ``capacity`` (missing =
        0), each within :data:`FIT_SLACK`."""
        return all(self.get(k) <= capacity.get(k) + FIT_SLACK for k in self.amounts)

    def dominates(self, other: "ResourceVector") -> bool:
        """True if this vector is >= ``other`` in every dimension of either vector."""
        keys = self._merge_keys(other)
        return all(self.get(k) >= other.get(k) - 1e-9 for k in keys)

    def is_zero(self) -> bool:
        """True if every amount is (numerically) zero."""
        return all(abs(v) < 1e-12 for v in self.amounts.values())

    def utilization_of(self, capacity: "ResourceVector") -> dict[str, float]:
        """Fractional utilisation per dimension relative to ``capacity``."""
        out: dict[str, float] = {}
        for k in capacity.keys():
            cap = capacity.get(k)
            out[k] = self.get(k) / cap if cap > 0 else 0.0
        return out

    def max_utilization_of(self, capacity: "ResourceVector") -> float:
        """The tightest (largest) fractional utilisation across dimensions."""
        utils = self.utilization_of(capacity)
        return max(utils.values()) if utils else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        keys = self._merge_keys(other)
        return all(abs(self.get(k) - other.get(k)) < 1e-9 for k in keys)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.amounts.items()))
        return f"ResourceVector({inner})"
