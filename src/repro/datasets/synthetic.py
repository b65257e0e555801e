"""Synthetic image-classification datasets standing in for CIFAR-10 / Tiny ImageNet.

Each class is represented by a smooth random "prototype image"; samples of
that class are the prototype plus Gaussian pixel noise and a random global
brightness shift.  This creates a learnable but non-trivial classification
problem: a small CNN reaches moderate accuracy in a handful of epochs, and
Dirichlet-skewed partitions of it exhibit the same non-IID pathologies the
paper studies (per-silo overfitting, collaboration gains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


@dataclass
class Dataset:
    """A labelled dataset: ``x`` has shape (n, ...), ``y`` has shape (n,)."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same number of samples")
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")

    def __len__(self) -> int:
        return len(self.x)

    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "Dataset":
        """A new dataset containing only the given sample indices."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            x=self.x[indices],
            y=self.y[indices],
            num_classes=self.num_classes,
            name=name or self.name,
        )

    def class_counts(self) -> np.ndarray:
        """Number of samples per class label (length ``num_classes``)."""
        return np.bincount(self.y, minlength=self.num_classes)


class SyntheticImageDataset:
    """Factory for class-conditional Gaussian image datasets.

    Args:
        num_classes: number of labels.
        image_size: square image side length.
        channels: image channels (3 for the RGB workloads).
        samples_per_class: training samples generated for each class.
        test_samples_per_class: held-out samples generated for each class.
        noise_scale: standard deviation of per-pixel noise added to prototypes.
        seed: base seed; the same seed always yields the same dataset.
    """

    def __init__(
        self,
        num_classes: int = 10,
        image_size: int = 16,
        channels: int = 3,
        samples_per_class: int = 100,
        test_samples_per_class: int = 20,
        noise_scale: float = 0.35,
        seed: int = 0,
        name: str = "synthetic",
    ):
        if num_classes <= 1:
            raise ValueError("num_classes must be at least 2")
        if samples_per_class <= 0 or test_samples_per_class <= 0:
            raise ValueError("sample counts must be positive")
        self.num_classes = num_classes
        self.image_size = image_size
        self.channels = channels
        self.samples_per_class = samples_per_class
        self.test_samples_per_class = test_samples_per_class
        self.noise_scale = noise_scale
        self.seed = seed
        self.name = name
        self._prototypes = self._make_prototypes()

    def _make_prototypes(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        shape = (self.num_classes, self.channels, self.image_size, self.image_size)
        raw = rng.normal(size=shape)
        # Smooth each prototype slightly so classes are separated by structure,
        # not single-pixel outliers; this keeps the task learnable by a CNN.
        smoothed = raw.copy()
        smoothed[:, :, 1:, :] += raw[:, :, :-1, :]
        smoothed[:, :, :, 1:] += raw[:, :, :, :-1]
        smoothed /= np.abs(smoothed).max()
        return smoothed

    def _sample_split(self, per_class: int, seed_offset: int) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed + seed_offset)
        xs = []
        ys = []
        for label in range(self.num_classes):
            proto = self._prototypes[label]
            noise = rng.normal(scale=self.noise_scale, size=(per_class,) + proto.shape)
            brightness = rng.normal(scale=0.1, size=(per_class, 1, 1, 1))
            xs.append(proto[None, ...] + noise + brightness)
            ys.append(np.full(per_class, label, dtype=np.int64))
        x = np.concatenate(xs).astype(np.float64)
        y = np.concatenate(ys)
        order = rng.permutation(len(x))
        return x[order], y[order]

    def train_split(self) -> Dataset:
        """The training portion of the dataset."""
        x, y = self._sample_split(self.samples_per_class, seed_offset=1)
        return Dataset(x=x, y=y, num_classes=self.num_classes, name=f"{self.name}-train")

    def test_split(self) -> Dataset:
        """The held-out evaluation portion of the dataset."""
        x, y = self._sample_split(self.test_samples_per_class, seed_offset=2)
        return Dataset(x=x, y=y, num_classes=self.num_classes, name=f"{self.name}-test")

    def splits(self) -> Tuple[Dataset, Dataset]:
        """Convenience accessor returning (train, test)."""
        return self.train_split(), self.test_split()


class SyntheticCIFAR10(SyntheticImageDataset):
    """Scaled-down stand-in for CIFAR-10 (10 classes, 3-channel images)."""

    def __init__(
        self,
        image_size: int = 16,
        samples_per_class: int = 120,
        test_samples_per_class: int = 30,
        noise_scale: float = 0.35,
        seed: int = 0,
    ):
        super().__init__(
            num_classes=10,
            image_size=image_size,
            channels=3,
            samples_per_class=samples_per_class,
            test_samples_per_class=test_samples_per_class,
            noise_scale=noise_scale,
            seed=seed,
            name="cifar10-synth",
        )


class SyntheticTinyImageNet(SyntheticImageDataset):
    """Scaled-down stand-in for Tiny ImageNet (many classes, 3-channel images).

    The real dataset has 200 classes; the default here keeps the many-class
    character (harder task, lower absolute accuracy) at a tractable size.
    The class count can be raised to 200 for full-fidelity runs.
    """

    def __init__(
        self,
        num_classes: int = 20,
        image_size: int = 16,
        samples_per_class: int = 60,
        test_samples_per_class: int = 15,
        noise_scale: float = 0.45,
        seed: int = 0,
    ):
        super().__init__(
            num_classes=num_classes,
            image_size=image_size,
            channels=3,
            samples_per_class=samples_per_class,
            test_samples_per_class=test_samples_per_class,
            noise_scale=noise_scale,
            seed=seed,
            name="tiny-imagenet-synth",
        )


#: the paper datasets a workload can name (``SyntheticCIFAR10``, ``SyntheticTinyImageNet``).
DATASETS = ("cifar10", "tiny_imagenet")


def make_classification_dataset(
    num_samples: int = 500,
    num_features: int = 20,
    num_classes: int = 4,
    class_separation: float = 2.0,
    noise_scale: float = 1.0,
    seed: int = 0,
    name: str = "tabular-synth",
) -> Dataset:
    """Simple tabular classification dataset for MLP unit tests and examples."""
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=class_separation, size=(num_classes, num_features))
    y = rng.integers(0, num_classes, size=num_samples)
    x = centers[y] + rng.normal(scale=noise_scale, size=(num_samples, num_features))
    return Dataset(x=x.astype(np.float64), y=y.astype(np.int64), num_classes=num_classes, name=name)
