"""Hardware profiles for the simulated testbeds.

Section 4.1 of the paper describes two clusters:

* **GPU cluster** — 4 nodes (i7-12700, RTX A2000, 64 GB RAM), each hosting an
  aggregator and 3 clients.
* **Edge cluster** — 3 CPU nodes hosting the aggregators, with client sets of
  Raspberry Pi 400s (4 GB), Jetson Nanos (4 GB) and Docker containers (2 GB).

A profile captures the attributes the timing and overhead models need:
relative training throughput (samples/second at a reference model size),
network bandwidth, and memory capacity.  The edge profiles are deliberately
heterogeneous so the straggler behaviour that motivates the Async mode
appears in the reproduction exactly as it does on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.simnet.units import bytes_over_bandwidth


@dataclass(frozen=True)
class HardwareProfile:
    """Capabilities of one device class."""

    name: str
    #: synthetic training throughput, in samples per simulated second for the
    #: reference CNN workload; larger models scale time by parameter ratio.
    samples_per_second: float
    #: sustained network bandwidth in **megabytes** per simulated second
    #: (1 MB = 1e6 bytes).
    bandwidth_mbytes_per_s: float
    #: one-way network latency to cluster peers, in simulated seconds.
    latency_s: float
    #: memory capacity in megabytes (used in the overhead report).
    memory_mb: float
    #: nominal CPU utilisation while training, as a percentage.
    train_cpu_percent: float

    def training_time(self, num_samples: int, epochs: int, model_scale: float = 1.0) -> float:
        """Simulated seconds to train ``epochs`` passes over ``num_samples``.

        ``model_scale`` is the ratio of the model's parameter count to the
        reference CNN (62K parameters), so heavier models train slower.
        """
        if num_samples < 0 or epochs < 0:
            raise ValueError("num_samples and epochs must be non-negative")
        if model_scale <= 0:
            raise ValueError("model_scale must be positive")
        return (num_samples * epochs * model_scale) / self.samples_per_second

    def transfer_time(self, num_bytes: int) -> float:
        """Simulated seconds to move ``num_bytes`` to or from this device."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return self.latency_s + bytes_over_bandwidth(num_bytes, self.bandwidth_mbytes_per_s)


#: GPU workstation node from the paper's GPU cluster.
GPU_NODE = HardwareProfile(
    name="gpu-node",
    samples_per_second=4000.0,
    bandwidth_mbytes_per_s=125.0,
    latency_s=0.002,
    memory_mb=65536.0,
    train_cpu_percent=35.0,
)

#: The aggregator-hosting CPU node of the edge cluster (i7, 8 GB RAM).
EDGE_CPU_NODE = HardwareProfile(
    name="edge-cpu-node",
    samples_per_second=900.0,
    bandwidth_mbytes_per_s=25.0,
    latency_s=0.01,
    memory_mb=8192.0,
    train_cpu_percent=45.0,
)

#: Raspberry Pi 400 client (4 GB RAM) — the slowest edge client class.
RASPBERRY_PI_400 = HardwareProfile(
    name="raspberry-pi-400",
    samples_per_second=120.0,
    bandwidth_mbytes_per_s=10.0,
    latency_s=0.02,
    memory_mb=4096.0,
    train_cpu_percent=85.0,
)

#: NVIDIA Jetson Nano client (128-core Maxwell GPU, 4 GB RAM).
JETSON_NANO = HardwareProfile(
    name="jetson-nano",
    samples_per_second=450.0,
    bandwidth_mbytes_per_s=12.0,
    latency_s=0.015,
    memory_mb=4096.0,
    train_cpu_percent=60.0,
)

#: Docker container client pinned to 2 GB RAM on a shared host.
DOCKER_CONTAINER = HardwareProfile(
    name="docker-container",
    samples_per_second=300.0,
    bandwidth_mbytes_per_s=50.0,
    latency_s=0.005,
    memory_mb=2048.0,
    train_cpu_percent=55.0,
)


_PROFILES: Dict[str, HardwareProfile] = {
    profile.name: profile
    for profile in (GPU_NODE, EDGE_CPU_NODE, RASPBERRY_PI_400, JETSON_NANO, DOCKER_CONTAINER)
}


def profile_by_name(name: str) -> HardwareProfile:
    """Look up a built-in hardware profile by its name."""
    if name not in _PROFILES:
        raise ValueError(f"unknown hardware profile '{name}'; available: {sorted(_PROFILES)}")
    return _PROFILES[name]


def available_profiles() -> Dict[str, HardwareProfile]:
    """All built-in profiles keyed by name."""
    return dict(_PROFILES)
