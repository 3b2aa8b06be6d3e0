"""Workload substrate: application specs, device profiles, and load generators.

The paper evaluates two workload classes (Section 6.1.1): a CPU-based edge
sensor-processing application and GPU model-serving applications
(EfficientNetB0, ResNet50, YOLOv4) profiled on three accelerators. This package
provides those profiles, the application specification the placement policies
consume (latency SLO, resource demand, and energy per server type), arrival
generators for the CDN simulation, and request-level load for the emulated
testbed.
"""

from repro.workloads.profiles import (
    WorkloadProfile,
    PROFILE_TABLE,
    MODEL_NAMES,
    DEVICE_NAMES,
    CPU_APP_NAME,
    get_profile,
    profiles_for_model,
)
from repro.workloads.application import Application, make_application
from repro.workloads.generator import (
    ApplicationBatch,
    ApplicationGenerator,
    LazyApplications,
)
from repro.workloads.requests import RequestLoad, generate_request_load
from repro.workloads.demand import (
    population_weights,
    uniform_weights,
    demand_per_site,
    capacity_weights_from_population,
)

__all__ = [
    "WorkloadProfile",
    "PROFILE_TABLE",
    "MODEL_NAMES",
    "DEVICE_NAMES",
    "CPU_APP_NAME",
    "get_profile",
    "profiles_for_model",
    "Application",
    "make_application",
    "ApplicationBatch",
    "ApplicationGenerator",
    "LazyApplications",
    "RequestLoad",
    "generate_request_load",
    "population_weights",
    "uniform_weights",
    "demand_per_site",
    "capacity_weights_from_population",
]
