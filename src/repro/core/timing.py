"""Timing model translating cluster activity into simulated seconds.

The accuracy/loss numbers of the reproduction come from actually training the
(scaled-down) models; the *Time* columns come from this timing model, which is
parameterised by the paper's nominal workload sizes (Table 4) and the hardware
profiles of Section 4.1 rather than by the host machine's speed.  This keeps
the reproduced tables' timing structure faithful: client training dominates,
heterogeneous clients create stragglers, transfers scale with the real model's
size, and chain interactions add a small constant cost.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.chain.clique import TX_VALIDATION_COST_S
from repro.core.config import ClusterConfig, WorkloadConfig
from repro.core.scorer import FULL_ROUND_SCORERS
from repro.simnet.hardware import HardwareProfile
from repro.simnet.units import bytes_over_scaled_bandwidth, float32_model_bytes


@dataclass
class RoundTiming:
    """Durations (simulated seconds) of one cluster round's activities."""

    pull_time: float = 0.0
    client_training_time: float = 0.0
    aggregation_time: float = 0.0
    store_time: float = 0.0
    chain_time: float = 0.0
    scoring_time: float = 0.0
    #: peer-level model traffic (hierarchical intra-group shuttles, gossip
    #: pulls) — zero in the storage-mediated sync/async/semi modes.
    exchange_time: float = 0.0
    idle_time: float = 0.0

    def __iadd__(self, other: "RoundTiming") -> "RoundTiming":
        """Fold another step's durations into this record, field by field."""
        for field in fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))
        return self

    @property
    def active_time(self) -> float:
        """Time the cluster spends doing useful work (everything but idling)."""
        # A plain left-to-right loop: the builtin sum() compensates float
        # rounding since Python 3.12, which would move the last bit.
        active = 0.0
        for field in fields(self):
            if field.name != "idle_time":
                active += getattr(self, field.name)
        return active

    @property
    def total_time(self) -> float:
        """Active time plus idle (barrier) time."""
        return self.active_time + self.idle_time


class ClusterTimingModel:
    """Computes the simulated duration of each cluster activity."""

    #: fraction of a training pass that one evaluation pass costs.
    EVAL_COST_RATIO = 0.3
    #: weight averaging is memory-bound: it streams weights at a multiple of
    #: the node's *network* bandwidth (the profile attribute that tracks the
    #: device class's overall I/O capability).
    MEMORY_BANDWIDTH_SCALE = 4
    #: similarity scoring (MultiKRUM / cosine) streams flattened weights even
    #: faster — pairwise dot products, no optimiser state.
    SIMILARITY_BANDWIDTH_SCALE = 20
    #: multiplicative log-normal jitter applied to training times (systems noise).
    JITTER_SIGMA = 0.10

    def __init__(self, workload: WorkloadConfig, block_period: float = 2.0, seed: int = 0):
        self.workload = workload
        self.block_period = block_period
        self._rng = np.random.default_rng(seed)

    # -- model size ------------------------------------------------------------
    @property
    def nominal_model_bytes(self) -> int:
        """Serialized size of the paper's full-scale model (float32 weights)."""
        return float32_model_bytes(self.workload.reference_parameters)

    @property
    def compute_scale(self) -> float:
        """Per-sample compute cost relative to the reference 62K-parameter CNN.

        Grows sub-linearly with parameter count: large convolutional models
        reuse weights across spatial positions, so compute does not scale 1:1
        with parameters (VGG16 is roughly 30-60x the small CNN per image, not
        2000x).
        """
        ratio = self.workload.reference_parameters / 62_000.0
        return float(max(1.0, ratio ** 0.35))

    # -- per-activity durations ---------------------------------------------------
    def client_training_time(self, cluster: ClusterConfig, jitter: bool = True) -> float:
        """Wall time of one round of local training within a cluster.

        Clients train in parallel, so the cluster-level duration is the time
        of one (the slowest) client over its share of the nominal dataset.
        """
        samples_per_client = self.workload.nominal_samples_per_client
        base = cluster.client_profile.training_time(
            samples_per_client, self.workload.local_epochs, self.compute_scale
        )
        if jitter and self.JITTER_SIGMA > 0:
            base *= float(self._rng.lognormal(mean=0.0, sigma=self.JITTER_SIGMA))
        return base

    def aggregation_time(self, cluster: ClusterConfig, num_models: int) -> float:
        """Time for the aggregator to average ``num_models`` weight sets."""
        per_model = bytes_over_scaled_bandwidth(
            self.nominal_model_bytes,
            cluster.aggregator_profile.bandwidth_mbytes_per_s,
            self.MEMORY_BANDWIDTH_SCALE,
        )
        return 0.2 + max(0, num_models) * max(per_model, 0.05)

    def transfer_time(self, profile: HardwareProfile, num_models: int = 1) -> float:
        """Time to move ``num_models`` full-scale serialized models over the network."""
        return num_models * profile.transfer_time(self.nominal_model_bytes)

    def chain_interaction_time(self, num_transactions: int = 1) -> float:
        """Latency of having transactions included in a Clique block."""
        return max(0, num_transactions) * TX_VALIDATION_COST_S + self.block_period

    def scoring_time(self, cluster: ClusterConfig, num_models: int, algorithm: str = "accuracy") -> float:
        """Time for a scorer to evaluate ``num_models`` candidate models."""
        if num_models <= 0:
            return 0.0
        if algorithm in FULL_ROUND_SCORERS:
            # Similarity computation over flattened weights: cheap, bandwidth-bound.
            per_model = bytes_over_scaled_bandwidth(
                self.nominal_model_bytes,
                cluster.aggregator_profile.bandwidth_mbytes_per_s,
                self.SIMILARITY_BANDWIDTH_SCALE,
            )
            return num_models * max(per_model, 0.05)
        test_samples = self.workload.nominal_test_samples
        per_model = (
            cluster.aggregator_profile.training_time(test_samples, 1, self.compute_scale)
            * self.EVAL_COST_RATIO
        )
        return num_models * per_model

    # -- phase windows ------------------------------------------------------------
    def expected_training_window(self, clusters, headroom: float = 1.5) -> float:
        """Fixed training-phase duration for Sync mode.

        The synchronous orchestrator allocates each phase a predefined
        duration (Section 3.2); the default is the expected slowest cluster's
        training + submission time with a scheduling headroom, which is what
        an operator would provision.
        """
        slowest = max(
            cluster.client_profile.training_time(
                self.workload.nominal_samples_per_client,
                self.workload.local_epochs,
                self.compute_scale,
            )
            for cluster in clusters
        )
        submit = self.transfer_time(clusters[0].aggregator_profile) + self.chain_interaction_time()
        return headroom * (slowest + submit)

    def expected_scoring_window(self, clusters, algorithm: str = "accuracy", headroom: float = 1.5) -> float:
        """Fixed scoring-phase duration for Sync mode."""
        per_cluster = max(
            self.scoring_time(cluster, max(1, len(clusters) - 1), algorithm) for cluster in clusters
        )
        fetch = self.transfer_time(clusters[0].aggregator_profile, max(1, len(clusters) - 1))
        return headroom * (per_cluster + fetch + self.chain_interaction_time())
