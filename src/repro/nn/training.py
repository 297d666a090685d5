"""Centralised training utilities.

FL code paths train through :mod:`repro.fl.client`; this module is the
*non-federated* counterpart used by calibration scripts, examples and
tests: a plain fit/evaluate loop over one dataset with optional
validation tracking and LR scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataloader import DataLoader
from repro.data.dataset import ArrayDataset
from repro.fl.evaluation import evaluate_model
from repro.nn.loss import CrossEntropyLoss, Loss
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.nn.schedulers import Scheduler
from repro.utils.rng import make_rng

__all__ = ["FitResult", "fit", "accuracy"]


@dataclass
class FitResult:
    """Per-epoch history of a centralised fit."""

    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)

    @property
    def final_val_accuracy(self) -> float:
        return self.val_accuracy[-1] if self.val_accuracy else float("nan")


def fit(
    model: Module,
    train: ArrayDataset,
    optimizer: Optimizer,
    epochs: int,
    batch_size: int = 64,
    seed: int | np.random.Generator = 0,
    val: ArrayDataset | None = None,
    loss_fn: Loss | None = None,
    scheduler: Scheduler | None = None,
) -> FitResult:
    """Train ``model`` on ``train`` for ``epochs`` full passes.

    The scheduler (if any) is stepped once per epoch.  Validation metrics
    are recorded per epoch when ``val`` is given.
    """
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    loss_fn = loss_fn if loss_fn is not None else CrossEntropyLoss()
    rng = make_rng(seed)
    loader = DataLoader(train, min(batch_size, len(train)), rng=rng, shuffle=True)
    result = FitResult()

    for _ in range(epochs):
        model.train()
        total, batches = 0.0, 0
        for images, labels in loader:
            model.zero_grad()
            logits = model.forward(images)
            total += loss_fn.forward(logits, labels)
            model.backward(loss_fn.backward(), input_grad=False)
            optimizer.step()
            batches += 1
        result.train_loss.append(total / max(batches, 1))
        if val is not None:
            stats = evaluate_model(model, val)
            result.val_accuracy.append(stats.accuracy)
            result.val_loss.append(stats.loss)
        if scheduler is not None:
            scheduler.step()
    return result


def accuracy(model: Module, dataset: ArrayDataset, batch_size: int = 512) -> float:
    """Shorthand for ``evaluate_model(...).accuracy``."""
    return evaluate_model(model, dataset, batch_size=batch_size).accuracy
