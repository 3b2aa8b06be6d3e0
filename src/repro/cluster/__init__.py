"""Edge cluster substrate: resources, hardware, servers, fleets.

This package models the physical side of the paper's edge deployments — the
heterogeneous accelerators of Section 6.1.2 (NVIDIA A2, Jetson Orin Nano,
GTX 1080 plus the Xeon CPU host), their base/dynamic power behaviour, and the
multi-dimensional resource capacities the placement constraints (Equation 1)
operate on.
"""

from repro.cluster.resources import ResourceVector
from repro.cluster.hardware import (
    DeviceSpec,
    DEVICE_CATALOG,
    device_by_name,
    XEON_E5_2660V3,
    NVIDIA_A2,
    ORIN_NANO,
    GTX_1080,
)
from repro.cluster.server import EdgeServer, PowerState
from repro.cluster.datacenter import EdgeDataCenter
from repro.cluster.fleet import EdgeFleet, build_regional_fleet, build_cdn_fleet

__all__ = [
    "ResourceVector",
    "DeviceSpec",
    "DEVICE_CATALOG",
    "device_by_name",
    "XEON_E5_2660V3",
    "NVIDIA_A2",
    "ORIN_NANO",
    "GTX_1080",
    "EdgeServer",
    "PowerState",
    "EdgeDataCenter",
    "EdgeFleet",
    "build_regional_fleet",
    "build_cdn_fleet",
]
