"""Client-side local training.

The functions here implement one client's work during a round: load the
received packed row into a scratch model, run ``local_epochs`` of
(proximal) SGD over the local split, and return the updated row.  They
are plain functions over explicit arguments — no hidden globals — so
the parallel executors can ship them to worker processes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataloader import DataLoader
from repro.data.dataset import ArrayDataset
from repro.fl.config import TrainConfig
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import SGD, ProximalSGD
from repro.nn.state_flat import StateLayout, pack_state, unpack_state

__all__ = [
    "ClientUpdate",
    "local_train",
    "run_client_update_flat",
]


@dataclass
class ClientUpdate:
    """Result of one client's local round.

    ``flat`` is the client's new state as one packed float64 row on the
    environment's layout (see :mod:`repro.nn.state_flat`); admission,
    aggregation, the client-state store and checkpoints all read it
    directly.

    ``weight`` is the update's effective aggregation weight when
    scenario middleware overrides the historical sample-count weighting
    (compute budgets weight by steps taken; stale folding multiplies in
    the staleness discount).  ``None`` — the default, and the only value
    executors ever produce — means "weight by ``n_samples``", exactly
    the pre-middleware rule; see
    :func:`repro.fl.rounds.aggregation_weights`.
    """

    client_id: int
    flat: np.ndarray
    n_samples: int
    mean_loss: float
    n_batches: int
    weight: float | None = None


def local_train(
    model: Module,
    dataset: ArrayDataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
    prox_mu: float = 0.0,
    anchor_flat: np.ndarray | None = None,
    layout: StateLayout | None = None,
) -> tuple[float, int]:
    """Train ``model`` in place on ``dataset``; return (mean loss, batches).

    With ``prox_mu > 0`` the optimiser is :class:`ProximalSGD` anchored at
    ``anchor_flat`` (on ``layout``) — the packed global model the server
    just broadcast — which is exactly FedProx's local objective.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    model.train()
    loss_fn = CrossEntropyLoss()
    if prox_mu > 0.0:
        optimizer: SGD = ProximalSGD(
            model.parameters(),
            lr=cfg.lr,
            mu=prox_mu,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
        )
        optimizer.set_anchor_flat(anchor_flat, layout)
    else:
        optimizer = SGD(
            model.parameters(),
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
        )

    batch_size = min(cfg.batch_size, len(dataset))
    loader = DataLoader(dataset, batch_size, rng=rng, shuffle=True)
    total_loss = 0.0
    n_batches = 0
    done = False
    for _ in range(cfg.local_epochs):
        for batch_index, (images, labels) in enumerate(loader):
            if cfg.max_batches is not None and batch_index >= cfg.max_batches:
                break
            if cfg.max_steps is not None and n_batches >= cfg.max_steps:
                done = True
                break
            model.zero_grad()
            logits = model.forward(images)
            loss_value = loss_fn.forward(logits, labels)
            model.backward(loss_fn.backward(), input_grad=False)
            optimizer.step()
            total_loss += loss_value
            n_batches += 1
        if done:
            break
    return (total_loss / n_batches if n_batches else 0.0), n_batches


def run_client_update_flat(
    model: Module,
    client_id: int,
    dataset: ArrayDataset,
    incoming_flat: np.ndarray,
    layout: StateLayout,
    cfg: TrainConfig,
    rng: np.random.Generator,
    prox_mu: float = 0.0,
) -> ClientUpdate:
    """Full client round: one packed vector in, one out.

    Loads ``incoming_flat`` into ``model``, trains it locally and packs
    the new state.  The payload each way is a single contiguous buffer,
    which is what the parallel executors ship across process boundaries.
    """
    model.load_state_dict(unpack_state(incoming_flat, layout))
    mean_loss, n_batches = local_train(
        model,
        dataset,
        cfg,
        rng,
        prox_mu=prox_mu,
        anchor_flat=incoming_flat,
        layout=layout,
    )
    return ClientUpdate(
        client_id=client_id,
        flat=pack_state(model.state_dict(copy=False), layout),
        n_samples=len(dataset),
        mean_loss=mean_loss,
        n_batches=n_batches,
    )
