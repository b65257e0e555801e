"""UnifyFL core: the paper's primary contribution.

This package assembles the substrates (``repro.ml``, ``repro.datasets``,
``repro.fl``, ``repro.chain``, ``repro.ipfs``, ``repro.simnet``) into the
decentralized cross-silo federated-learning framework described in the paper:

* the orchestrator smart contract (:mod:`repro.core.contract`),
* the cluster aggregator with its trainer/scorer duality
  (:mod:`repro.core.aggregator`),
* accuracy and MultiKRUM scoring (:mod:`repro.core.scorer`),
* aggregation and scoring policies (:mod:`repro.core.selection`),
* Byzantine attacks (:mod:`repro.core.attacks`),
* the baselines UnifyFL is compared against (:mod:`repro.core.baselines`), and
* the experiment runner, which drives the round policy the configured mode
  registers (:mod:`repro.sched.policies`), and the result/table utilities
  (:mod:`repro.core.runner`, :mod:`repro.core.results`).
"""

from repro.core.aggregator import AggregatorRoundRecord, UnifyFLAggregator
from repro.core.attacks import (
    GaussianNoiseAttack,
    ModelPoisoningAttack,
    ScalingAttack,
    SignFlipAttack,
    ZeroAttack,
    available_attacks,
    build_attack,
)
from repro.core.baselines import (
    BaselineClusterResult,
    BaselineResult,
    CentralizedMultilevelBaseline,
    NoCollabBaseline,
    SingleLevelFL,
)
from repro.core.capabilities import (
    FrameworkCapabilities,
    capability_table,
    format_capability_table,
    sync_async_comparison,
    unifyfl_capabilities,
)
from repro.core.config import (
    ClusterConfig,
    ExperimentConfig,
    WorkloadConfig,
    cifar10_workload,
    edge_cluster_configs,
    gpu_cluster_configs,
    tiny_imagenet_workload,
)
from repro.core.contract import ModelSubmission, UnifyFLContract
from repro.core.multimodel import (
    MultiModelCollaboration,
    MultiModelParticipant,
    MultiModelRoundRecord,
)
from repro.core.selection import (
    AboveAverage,
    AboveMedian,
    AboveSelf,
    AggregationPolicy,
    CandidateModel,
    MaxScore,
    MeanScore,
    MedianScore,
    MinScore,
    PickAll,
    PickSelf,
    RandomK,
    ScoringPolicy,
    TopK,
    available_aggregation_policies,
    available_scoring_policies,
    build_aggregation_policy,
    build_scoring_policy,
)
from repro.core.reporting import (
    load_result_json,
    load_results_csv,
    result_to_dict,
    save_result_json,
    save_results_csv,
)
from repro.core.results import (
    AggregatorResult,
    ExperimentResult,
    format_comm_table,
    format_comparison,
    format_policy_table,
    format_resource_table,
    format_run_table,
)
from repro.core.runner import ExperimentRunner, run_experiment
from repro.core.scorer import (
    AccuracyScorer,
    CosineSimilarityScorer,
    LossScorer,
    MultiKRUMScorer,
    Scorer,
    build_scorer,
)
from repro.core.timing import ClusterTimingModel, RoundTiming

__all__ = [
    "AggregatorRoundRecord",
    "UnifyFLAggregator",
    "GaussianNoiseAttack",
    "ModelPoisoningAttack",
    "ScalingAttack",
    "SignFlipAttack",
    "ZeroAttack",
    "available_attacks",
    "build_attack",
    "BaselineClusterResult",
    "BaselineResult",
    "CentralizedMultilevelBaseline",
    "NoCollabBaseline",
    "SingleLevelFL",
    "FrameworkCapabilities",
    "capability_table",
    "format_capability_table",
    "sync_async_comparison",
    "unifyfl_capabilities",
    "ClusterConfig",
    "ExperimentConfig",
    "WorkloadConfig",
    "cifar10_workload",
    "edge_cluster_configs",
    "gpu_cluster_configs",
    "tiny_imagenet_workload",
    "ModelSubmission",
    "UnifyFLContract",
    "MultiModelCollaboration",
    "MultiModelParticipant",
    "MultiModelRoundRecord",
    "AboveAverage",
    "AboveMedian",
    "AboveSelf",
    "AggregationPolicy",
    "CandidateModel",
    "MaxScore",
    "MeanScore",
    "MedianScore",
    "MinScore",
    "PickAll",
    "PickSelf",
    "RandomK",
    "ScoringPolicy",
    "TopK",
    "available_aggregation_policies",
    "available_scoring_policies",
    "build_aggregation_policy",
    "build_scoring_policy",
    "load_result_json",
    "load_results_csv",
    "result_to_dict",
    "save_result_json",
    "save_results_csv",
    "AggregatorResult",
    "ExperimentResult",
    "format_comm_table",
    "format_comparison",
    "format_policy_table",
    "format_resource_table",
    "format_run_table",
    "ExperimentRunner",
    "run_experiment",
    "AccuracyScorer",
    "CosineSimilarityScorer",
    "LossScorer",
    "MultiKRUMScorer",
    "Scorer",
    "build_scorer",
    "ClusterTimingModel",
    "RoundTiming",
]
