"""In-memory dataset container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ArrayDataset"]


@dataclass
class ArrayDataset:
    """Images + integer labels held as dense arrays.

    Attributes
    ----------
    images:
        ``(N, C, H, W)`` float32 array, already normalised by the generator.
    labels:
        ``(N,)`` int64 array with values in ``[0, n_classes)``.
    n_classes:
        Number of label categories (fixed at 10 for the paper's datasets).
    name:
        Provenance tag (e.g. ``"cifar10_like"``), carried through subsets.
    """

    images: np.ndarray
    labels: np.ndarray
    n_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.images = np.ascontiguousarray(self.images, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} mismatches "
                f"{self.images.shape[0]} images"
            )
        if self.n_classes <= 0:
            raise ValueError(f"n_classes must be positive, got {self.n_classes}")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_classes
        ):
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), got "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def input_shape(self) -> tuple[int, int, int]:
        """Per-sample ``(C, H, W)``."""
        return self.images.shape[1:]  # type: ignore[return-value]

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """New dataset holding rows ``indices`` (copies, no aliasing)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ArrayDataset(
            self.images[indices].copy(),
            self.labels[indices].copy(),
            self.n_classes,
            self.name,
        )

    def split(
        self, test_fraction: float, rng: np.random.Generator
    ) -> tuple["ArrayDataset", "ArrayDataset"]:
        """Random (train, test) split; test gets ``ceil(N * fraction)`` rows.

        Guarantees at least one row on each side when the dataset has ≥2
        rows, so client-local evaluation is always possible.
        """
        if not 0.0 < test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
        n = len(self)
        if n < 2:
            raise ValueError("need at least 2 samples to split")
        n_test = int(np.ceil(n * test_fraction))
        n_test = min(max(n_test, 1), n - 1)
        order = rng.permutation(n)
        return self.subset(order[n_test:]), self.subset(order[:n_test])
