"""Application-spec tests."""

import pytest

from repro.cluster.hardware import GTX_1080, ORIN_NANO
from repro.cluster.server import EdgeServer
from repro.core.problem import _demand_for
from repro.workloads.application import Application, make_application
from repro.workloads.profiles import get_profile


@pytest.fixture
def a2_server():
    return EdgeServer(server_id="s", site="Miami", zone_id="US-FL-MIA")


def test_validation():
    with pytest.raises(ValueError):
        Application(app_id="a", workload="ResNet50", source_site="Miami", latency_slo_ms=0)
    with pytest.raises(ValueError):
        Application(app_id="a", workload="ResNet50", source_site="Miami", request_rate_rps=0)
    with pytest.raises(ValueError):
        Application(app_id="a", workload="ResNet50", source_site="Miami", duration_hours=0)


def test_one_way_slo_is_half_rtt():
    app = make_application("a", "ResNet50", "Miami", latency_slo_ms=20.0)
    assert app.one_way_latency_slo_ms == 10.0


def test_gpu_workload_resolves_accelerator_profile(a2_server):
    app = make_application("a", "ResNet50", "Miami")
    assert app.profile_on(a2_server).device == "NVIDIA A2"


def test_cpu_workload_falls_back_to_host_cpu(a2_server):
    app = make_application("a", "Sci", "Miami")
    assert app.profile_on(a2_server).device == "Xeon E5-2660v3"
    assert app.supports_server(a2_server)


def test_unknown_workload_unsupported(a2_server):
    app = make_application("a", "UnknownNet", "Miami")
    assert not app.supports_server(a2_server)
    with pytest.raises(KeyError):
        app.profile_on(a2_server)


def test_energy_scales_with_rate_and_duration(a2_server):
    slow = make_application("a", "ResNet50", "Miami", request_rate_rps=5, duration_hours=1)
    fast = make_application("b", "ResNet50", "Miami", request_rate_rps=10, duration_hours=2)
    assert fast.energy_on(a2_server) == pytest.approx(4 * slow.energy_on(a2_server))


def test_energy_depends_on_device():
    app = make_application("a", "ResNet50", "Miami", request_rate_rps=10)
    orin = EdgeServer(server_id="o", site="Miami", zone_id="US-FL-MIA", accelerator=ORIN_NANO)
    gtx = EdgeServer(server_id="g", site="Miami", zone_id="US-FL-MIA", accelerator=GTX_1080)
    assert app.energy_on(orin) < app.energy_on(gtx)


def test_resource_demand_replicas(a2_server):
    # ResNet50 on A2 sustains ~133 rps per replica; 300 rps needs 3 replicas.
    light = make_application("a", "ResNet50", "Miami", request_rate_rps=10)
    heavy = make_application("b", "ResNet50", "Miami", request_rate_rps=300)
    assert heavy.resource_demand_on(a2_server)["gpu_memory_mb"] == pytest.approx(
        3 * light.resource_demand_on(a2_server)["gpu_memory_mb"])


@pytest.mark.parametrize("multiple, replicas", [
    (0.5, 1), (1.0, 1), (1.5, 2), (2.0, 2), (2.5, 3), (4.0, 4)])
def test_replica_formula_agrees_with_the_problem_builder(a2_server, multiple, replicas):
    """One replica serves up to the profile's max request rate; the problem
    builder's demand and the application's own agree at and between the
    replica boundaries."""
    profile = get_profile("ResNet50", "NVIDIA A2")
    rate = multiple * profile.max_request_rate()
    demand = make_application("a", "ResNet50", "Miami",
                              request_rate_rps=rate).resource_demand_on(a2_server)
    assert demand == _demand_for(rate, profile)
    assert demand == profile.resource_demand * float(replicas)


def test_processing_latency(a2_server):
    app = make_application("a", "YOLOv4", "Miami")
    assert app.processing_latency_on(a2_server) == pytest.approx(18.5)
