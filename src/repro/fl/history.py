"""Round-by-round training history for FL runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RoundMetrics:
    """Metrics recorded for a single federated round."""

    round_number: int
    loss: float
    accuracy: float
    num_clients: int = 0
    sim_time: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class TrainingHistory:
    """Accumulates :class:`RoundMetrics` across an FL run."""

    rounds: List[RoundMetrics] = field(default_factory=list)

    def record(self, metrics: RoundMetrics) -> None:
        """Append one round of metrics."""
        self.rounds.append(metrics)

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def final_accuracy(self) -> float:
        """Accuracy of the most recent round (NaN when no rounds recorded)."""
        return self.rounds[-1].accuracy if self.rounds else float("nan")

    @property
    def final_loss(self) -> float:
        """Loss of the most recent round (NaN when no rounds recorded)."""
        return self.rounds[-1].loss if self.rounds else float("nan")

    @property
    def best_accuracy(self) -> float:
        """Highest accuracy observed across all rounds."""
        return max((r.accuracy for r in self.rounds), default=float("nan"))

    def accuracies(self) -> List[float]:
        """Accuracy series over rounds."""
        return [r.accuracy for r in self.rounds]

    def losses(self) -> List[float]:
        """Loss series over rounds."""
        return [r.loss for r in self.rounds]

    def rounds_to_reach(self, target_accuracy: float) -> Optional[int]:
        """First round number whose accuracy meets the target, if any."""
        for metrics in self.rounds:
            if metrics.accuracy >= target_accuracy:
                return metrics.round_number
        return None
