"""Emulated mesoscale edge testbed (the Dell R630 / tc / Locust stand-in).

The paper's testbed (Section 6.1.2) runs five edge data centers — one per city
of a mesoscale region — each a Dell R630 with an NVIDIA A2, with Linux ``tc``
emulating inter-site latency, Locust generating request load, and RAPL/DCGM
measuring power. This package emulates that setup end-to-end in-process: the
same fleet construction, a latency injector derived from the network model,
request-driven carbon accounting (hourly emissions of each application's
per-request dynamic energy, optionally with a share of its host's base
power), and per-request response times. The Figure 8–10 experiments run on
top of it.
"""

from repro.testbed.emulation import (
    EmulatedTestbed,
    TestbedRunResult,
    build_testbed,
    run_testbed_experiment,
)

__all__ = [
    "EmulatedTestbed",
    "TestbedRunResult",
    "build_testbed",
    "run_testbed_experiment",
]
