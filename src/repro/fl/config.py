"""Training-loop configuration shared by every FL algorithm."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive

__all__ = ["TrainConfig"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one client's local training pass.

    Attributes
    ----------
    local_epochs:
        Full passes over the client's training split per round (the
        paper's "few local iterations").
    batch_size:
        Minibatch size; clients with fewer samples use one batch.
    lr, momentum:
        Local SGD hyper-parameters.  Momentum buffers are reset every
        round (standard in FedAvg-style simulation: momentum is local
        state that does not survive aggregation).
    max_steps:
        Optional cap on the *total* optimisation steps across all local
        epochs.  FedClust's clustering round uses this to give every
        client the same number of SGD steps regardless of local dataset
        size, so weight-signature distances compare drift *direction*
        rather than drift *magnitude*.
    eval_batch_size:
        Batch size for evaluation-only forward passes.
    """

    local_epochs: int = 1
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    max_steps: int | None = None
    eval_batch_size: int = 512

    def __post_init__(self) -> None:
        check_positive("local_epochs", self.local_epochs)
        check_positive("batch_size", self.batch_size)
        check_positive("lr", self.lr)
        check_non_negative("momentum", self.momentum)
        check_positive("eval_batch_size", self.eval_batch_size)
        if self.max_steps is not None:
            check_positive("max_steps", self.max_steps)
