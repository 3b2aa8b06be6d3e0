"""Edge-server tests."""

import numpy as np
import pytest

from repro.cluster.hardware import GTX_1080, NVIDIA_A2, ORIN_NANO, XEON_E5_2660V3
from repro.cluster.resources import ResourceVector
from repro.cluster.server import EdgeServer, PowerState
from repro.core.problem import PlacementProblem
from tests.conftest import make_apps


@pytest.fixture
def server():
    s = EdgeServer(server_id="s1", site="Miami", zone_id="US-FL-MIA")
    s.power_on()
    return s


def test_total_capacity_combines_cpu_and_gpu(server):
    cap = server.total_capacity
    assert cap["cpu_cores"] == 40
    assert cap["gpu_memory_mb"] == 16_000
    assert cap["memory_mb"] == 256_000


def test_cpu_only_server_capacity():
    s = EdgeServer(server_id="s", site="x", zone_id="z", accelerator=None)
    assert s.total_capacity["gpu_memory_mb"] == 0.0
    assert s.device_name == XEON_E5_2660V3.name


def test_base_and_max_power(server):
    assert server.base_power_w == pytest.approx(XEON_E5_2660V3.idle_power_w + NVIDIA_A2.idle_power_w)
    assert server.max_power_w == pytest.approx(XEON_E5_2660V3.max_power_w + NVIDIA_A2.max_power_w)


@pytest.mark.parametrize("accelerator", [None, NVIDIA_A2, ORIN_NANO, GTX_1080],
                         ids=lambda a: "cpu-only" if a is None else a.name)
def test_power_envelope_per_accelerator(accelerator):
    s = EdgeServer(server_id="s", site="x", zone_id="z", accelerator=accelerator)
    idle = accelerator.idle_power_w if accelerator is not None else 0.0
    peak = accelerator.max_power_w if accelerator is not None else 0.0
    assert s.base_power_w == pytest.approx(XEON_E5_2660V3.idle_power_w + idle)
    assert s.max_power_w == pytest.approx(XEON_E5_2660V3.max_power_w + peak)
    assert 0.0 < s.base_power_w < s.max_power_w


def test_problem_reads_base_power_and_power_state(florida_fleet, florida_latency,
                                                  florida_carbon):
    servers = florida_fleet.servers()
    servers[1].power_off()
    servers[3].power_off()
    problem = PlacementProblem.build(make_apps(florida_fleet.sites()), servers,
                                     florida_latency, florida_carbon, hour=5)
    np.testing.assert_array_equal(problem.base_power_w, [s.base_power_w for s in servers])
    np.testing.assert_array_equal(problem.current_power, [1.0, 0.0, 1.0, 0.0, 1.0])


def test_allocate_and_release(server):
    demand = ResourceVector.of(cpu_cores=4, gpu_memory_mb=1000)
    server.allocate("app1", demand)
    assert server.used_capacity["cpu_cores"] == 4
    assert server.available_capacity["cpu_cores"] == 36
    assert server.utilization() > 0
    freed = server.release("app1")
    assert freed == demand
    assert server.used_capacity.is_zero()


def test_allocate_requires_power(server):
    server.power_off()
    with pytest.raises(RuntimeError):
        server.allocate("a", ResourceVector.of(cpu_cores=1))


def test_double_allocation_rejected(server):
    server.allocate("a", ResourceVector.of(cpu_cores=1))
    with pytest.raises(ValueError):
        server.allocate("a", ResourceVector.of(cpu_cores=1))


def test_over_capacity_rejected(server):
    with pytest.raises(ValueError):
        server.allocate("a", ResourceVector.of(cpu_cores=100))


def test_release_unknown_app(server):
    with pytest.raises(KeyError):
        server.release("ghost")


def test_power_off_with_allocations_refused(server):
    server.allocate("a", ResourceVector.of(cpu_cores=1))
    with pytest.raises(RuntimeError):
        server.power_off()


def test_power_transitions(server):
    assert server.is_on
    server.power_off()
    assert server.power_state is PowerState.OFF
    server.power_on()
    server.power_on()  # idempotent
    assert server.is_on


def test_device_kind_validation():
    with pytest.raises(ValueError):
        EdgeServer(server_id="s", site="x", zone_id="z", cpu=NVIDIA_A2)
    with pytest.raises(ValueError):
        EdgeServer(server_id="s", site="x", zone_id="z", accelerator=XEON_E5_2660V3)


def test_device_name_uses_accelerator():
    a = EdgeServer(server_id="a", site="x", zone_id="z", accelerator=ORIN_NANO)
    b = EdgeServer(server_id="b", site="x", zone_id="z", accelerator=GTX_1080)
    assert a.device_name == "Orin Nano"
    assert b.device_name == "GTX 1080"
