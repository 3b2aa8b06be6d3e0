"""Hardware-catalogue tests."""

import dataclasses

import pytest

from repro.cluster.hardware import (
    DEVICE_CATALOG,
    GTX_1080,
    NVIDIA_A2,
    ORIN_NANO,
    XEON_E5_2660V3,
    DeviceSpec,
    device_by_name,
)
from repro.cluster.resources import ResourceVector


def test_catalog_contents():
    assert set(DEVICE_CATALOG) == {"Xeon E5-2660v3", "NVIDIA A2", "Orin Nano", "GTX 1080"}
    assert device_by_name("NVIDIA A2") is NVIDIA_A2
    with pytest.raises(KeyError):
        device_by_name("H100")


def test_paper_device_specs():
    # Section 6.1.2: A2 has 1280 CUDA cores / 16 GB / 60 W; Orin Nano 1024 / 8 GB / 15 W;
    # GTX 1080 2560 / 8 GB / 180 W; the host is a 40-core Xeon with 256 GB.
    assert NVIDIA_A2.cuda_cores == 1280 and NVIDIA_A2.max_power_w == 60.0
    assert NVIDIA_A2.capacity["gpu_memory_mb"] == 16_000
    assert ORIN_NANO.cuda_cores == 1024 and ORIN_NANO.max_power_w == 15.0
    assert GTX_1080.cuda_cores == 2560 and GTX_1080.max_power_w == 180.0
    assert XEON_E5_2660V3.capacity["cpu_cores"] == 40


def test_device_validation():
    with pytest.raises(ValueError):
        DeviceSpec(name="x", kind="tpu", capacity=ResourceVector(), idle_power_w=1, max_power_w=2)
    with pytest.raises(ValueError):
        DeviceSpec(name="x", kind="gpu", capacity=ResourceVector(), idle_power_w=10, max_power_w=5)


def test_dynamic_power_range():
    assert NVIDIA_A2.dynamic_power_range_w == pytest.approx(52.0)


def test_catalog_power_envelopes():
    for name, spec in DEVICE_CATALOG.items():
        assert spec.name == name
        assert 0.0 <= spec.idle_power_w <= spec.max_power_w
        assert spec.dynamic_power_range_w == pytest.approx(spec.max_power_w - spec.idle_power_w)
        assert (spec.cuda_cores > 0) == (spec.kind == "gpu")


def test_power_envelope_bounds():
    def spec(idle, peak):
        return DeviceSpec(name="x", kind="gpu", capacity=ResourceVector(),
                          idle_power_w=idle, max_power_w=peak)

    # A device may idle at zero or draw its maximum when idle.
    assert spec(0.0, 10.0).dynamic_power_range_w == 10.0
    assert spec(10.0, 10.0).dynamic_power_range_w == 0.0
    with pytest.raises(ValueError):
        spec(-1.0, 10.0)
    with pytest.raises(ValueError):
        spec(0.0, 0.0)


def test_device_specs_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        NVIDIA_A2.idle_power_w = 0.0
