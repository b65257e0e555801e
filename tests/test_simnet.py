"""Tests for the testbed simulation: clocks, hardware, network and resources."""

from __future__ import annotations

import pytest

from repro.simnet.clock import SimClock
from repro.simnet.hardware import (
    DOCKER_CONTAINER,
    EDGE_CPU_NODE,
    GPU_NODE,
    JETSON_NANO,
    RASPBERRY_PI_400,
    HardwareProfile,
    available_profiles,
    profile_by_name,
)
from repro.simnet.network import NetworkLink, NetworkModel
from repro.simnet.resources import ResourceMonitor


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now() == 2.5

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_returns_wait(self):
        clock = SimClock(start=5.0)
        waited = clock.advance_to(8.0)
        assert waited == 3.0
        assert clock.now() == 8.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(start=5.0)
        assert clock.advance_to(3.0) == 0.0
        assert clock.now() == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)


class TestHardwareProfiles:
    def test_gpu_is_fastest(self):
        profiles = [RASPBERRY_PI_400, JETSON_NANO, DOCKER_CONTAINER, EDGE_CPU_NODE, GPU_NODE]
        fastest = max(profiles, key=lambda p: p.samples_per_second)
        assert fastest is GPU_NODE

    def test_raspberry_pi_is_slowest_client(self):
        clients = [RASPBERRY_PI_400, JETSON_NANO, DOCKER_CONTAINER]
        slowest = min(clients, key=lambda p: p.samples_per_second)
        assert slowest is RASPBERRY_PI_400

    def test_training_time_scales_with_samples_and_model(self):
        base = RASPBERRY_PI_400.training_time(100, 2)
        assert RASPBERRY_PI_400.training_time(200, 2) == pytest.approx(2 * base)
        assert RASPBERRY_PI_400.training_time(100, 2, model_scale=3.0) == pytest.approx(3 * base)

    def test_training_time_validation(self):
        with pytest.raises(ValueError):
            GPU_NODE.training_time(-1, 1)
        with pytest.raises(ValueError):
            GPU_NODE.training_time(1, 1, model_scale=0)

    def test_transfer_time_includes_latency(self):
        assert GPU_NODE.transfer_time(0) == pytest.approx(GPU_NODE.latency_s)
        assert GPU_NODE.transfer_time(10_000_000) > GPU_NODE.latency_s

    def test_bandwidth_unit_is_megabytes_per_second(self):
        """Pin the bytes/s conversion: the bandwidth field is mega*bytes*/s
        (1 MB = 1e6 bytes), despite the Mbps look of its former name."""
        profile = HardwareProfile(
            name="unit-probe",
            samples_per_second=1.0,
            bandwidth_mbytes_per_s=8.0,
            latency_s=0.5,
            memory_mb=1.0,
            train_cpu_percent=1.0,
        )
        # 16 MB at 8 MB/s is 2 s of serialisation on top of the latency; a
        # megabit reading (8 Mbit/s = 1 MB/s) would give 16 s instead.
        assert profile.transfer_time(16_000_000) == pytest.approx(0.5 + 2.0)
        assert GPU_NODE.transfer_time(125_000_000) == pytest.approx(GPU_NODE.latency_s + 1.0)

    def test_lookup_by_name(self):
        assert profile_by_name("jetson-nano") is JETSON_NANO
        with pytest.raises(ValueError):
            profile_by_name("cray")

    def test_available_profiles_contains_all_testbed_devices(self):
        names = set(available_profiles())
        assert {"gpu-node", "edge-cpu-node", "raspberry-pi-400", "jetson-nano", "docker-container"} <= names

    def test_profiles_are_immutable(self):
        with pytest.raises(Exception):
            GPU_NODE.samples_per_second = 1.0  # type: ignore[misc]


class TestNetworkModel:
    def test_default_link_applies(self):
        model = NetworkModel()
        assert model.transfer_time("a", "b", 1000) > 0

    def test_specific_link_overrides_default(self):
        model = NetworkModel()
        slow = NetworkLink(latency_s=1.0, bandwidth_bytes_per_s=1e3)
        model.set_link("a", "b", slow)
        assert model.transfer_time("a", "b", 1000) == pytest.approx(2.0)
        assert model.transfer_time("a", "c", 1000) < 1.0

    def test_symmetric_registration(self):
        model = NetworkModel()
        slow = NetworkLink(latency_s=0.5, bandwidth_bytes_per_s=1e6)
        model.set_link("a", "b", slow)
        assert model.link("b", "a") is slow

    def test_loopback_is_near_free(self):
        model = NetworkModel()
        assert model.transfer_time("a", "a", 10_000_000) < 0.01

    def test_link_validation(self):
        with pytest.raises(ValueError):
            NetworkLink(latency_s=-1.0, bandwidth_bytes_per_s=1.0)
        with pytest.raises(ValueError):
            NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            NetworkLink(0.0, 1.0).transfer_time(-1)


class TestResourceMonitor:
    def test_report_statistics(self):
        monitor = ResourceMonitor()
        for cpu in (10.0, 20.0, 30.0):
            monitor.record("client", cpu, 100.0)
        report = monitor.report("client")
        assert report.cpu_mean == pytest.approx(20.0)
        assert report.mem_mean_mb == pytest.approx(100.0)
        assert report.sample_count == 3

    def test_full_report_covers_all_types(self):
        monitor = ResourceMonitor()
        monitor.record("agg", 5.0, 1000.0)
        monitor.record("scorer", 15.0, 800.0)
        reports = monitor.full_report()
        assert set(reports) == {"agg", "scorer"}

    def test_missing_type_raises(self):
        with pytest.raises(ValueError):
            ResourceMonitor().report("ghost")

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ResourceMonitor().record("agg", -1.0, 10.0)

    def test_as_dict_keys(self):
        monitor = ResourceMonitor()
        monitor.record("geth", 0.2, 6.0)
        d = monitor.report("geth").as_dict()
        assert {"cpu_mean", "cpu_std", "mem_mean_mb", "mem_std_mb", "sample_count"} == set(d)

    def test_samples_for_filters_by_type(self):
        monitor = ResourceMonitor()
        monitor.record("a", 1.0, 1.0)
        monitor.record("b", 2.0, 2.0)
        assert len(monitor.samples_for("a")) == 1
        assert len(monitor) == 2
