"""Batched cohort training on the flat parameter plane.

The third flat-plane subsystem (after :mod:`repro.nn.state_flat` and
:mod:`repro.fl.eval_flat`): local training for a whole cohort of clients
that received the **same broadcast state**, executed in lockstep with a
leading client axis instead of a per-client Python loop.

Pipeline per cohort:

1. **Schedule** — every client's minibatch stream is derived from the
   *same* per-client generator the serial trainer uses
   (``rng_for(seed, 1, round, client_id)``), drawing the same epoch
   permutations in the same order, so batch composition is identical to
   the serial path.  Clients with unequal dataset sizes produce ragged
   schedules; steps are aligned epoch-major and padded to the cohort's
   widest batch with **zero-weight rows** (a padded row contributes
   nothing to the loss gradient, so padding never leaks into updates),
   and clients with no batch at a lockstep position are masked out of
   the optimiser step entirely.
2. **Lockstep train** — one :class:`repro.nn.batched.BatchedSequential`
   mirror of the architecture runs fused forward/backward over
   ``(n_clients, batch, ...)`` tensors.  Every layer keeps dense
   per-client planes except, when it pays, the first: the schedule
   already names every sample a client will visit, so that layer is
   keyed by sample (see :mod:`repro.nn.batched`).  Each client's
   distinct samples are gathered once per round, and a step feeds the
   layer ``(n_clients, batch)`` slots into them instead of an image
   batch — a sample revisited in later local epochs is never gathered
   or multiplied against the broadcast weight again.
3. **Emit** — final per-client states are materialised straight into a
   ``(n_clients, n_params)`` float64 plane; each
   :class:`~repro.fl.client.ClientUpdate` carries a view of its row as
   ``flat``, and aggregation reads a whole cohort's rows in place.

Parity contract: per-client updates match the serial trainer
(:func:`repro.fl.client.run_client_update_flat`) to float summation
order — same RNG streams, same minibatch composition, same SGD
semantics — gated by ``tests/test_fl_train_flat.py`` together with a
seeded end-to-end Table-I accuracy parity check.  Architectures without
a batched mirror (anything convolutional) fall back to the serial
reference kernel; see :class:`repro.fl.parallel.BatchedClientExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.fl.client import ClientUpdate
from repro.fl.config import TrainConfig
from repro.nn.batched import (
    BatchedCrossEntropyLoss,
    BatchedProximalSGD,
    BatchedSGD,
    build_batched,
    factorable_layer,
    flush_cohort,
    supports_batched,
)
from repro.nn.state_flat import StateLayout
from repro.utils.rng import STREAM_TAGS, rng_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.simulation import FederatedEnv

__all__ = [
    "LockstepStep",
    "plan_cohort_schedule",
    "select_factored_keys",
    "train_cohort_flat",
    "supports_batched",
]

#: The stream the serial executors train on — the batched trainer must
#: consume the *same* per-(round, client) streams.
_CLIENT_UPDATE_TAG = STREAM_TAGS["client_update"]

#: Upper bound on a factored layer's per-cohort storage before it is
#: kept dense instead (bytes).  It holds every client's distinct
#: samples plus three output-width rows per sample; large cohorts over
#: large local datasets would otherwise hoard memory that the dense
#: representation bounds by construction.
_FACTOR_BYTES_CAP = 512 * 1024 * 1024


@dataclass
class LockstepStep:
    """One lockstep position: every active client's next minibatch.

    ``indices[c]`` is client ``c``'s row selection into its own train
    split (``None`` when the client has no batch here), drawn from the
    same permutation stream the serial :class:`~repro.data.dataloader.
    DataLoader` uses.
    """

    indices: list  # per client: np.ndarray | None
    active: np.ndarray  # (C,) bool


def plan_cohort_schedule(
    sizes: Sequence[int],
    cfg: TrainConfig,
    rngs: Sequence[np.random.Generator],
    max_steps: "Sequence[int | None] | None" = None,
) -> tuple[list[LockstepStep], int]:
    """Lockstep-align every client's serial minibatch schedule.

    Returns ``(steps, batch_width)`` where ``batch_width`` is the widest
    per-client batch in the cohort (``min(cfg.batch_size, n_c)`` per
    client, exactly the serial trainer's effective batch size).  Epoch
    permutations are drawn per client from ``rngs`` in the same order
    the serial path draws them, and ``max_batches``/``max_steps`` caps
    are applied per client with serial semantics (per-epoch cap; total
    cap checked before each step).

    ``max_steps`` optionally tightens the total-step cap **per client**
    (``None`` entries fall back to ``cfg.max_steps``) — the scenario
    compute-budget path: a budgeted client's schedule simply ends
    early and the existing per-step ``active`` masks keep it frozen for
    the rest of the cohort's lockstep schedule.  A cap of ``0`` yields
    an empty schedule (the client's weights never move).
    """
    n_clients = len(sizes)
    if n_clients == 0:
        raise ValueError("cohort must contain at least one client")
    if any(n <= 0 for n in sizes):
        raise ValueError("cannot train on an empty dataset")
    if max_steps is None:
        max_steps = [None] * n_clients
    if len(max_steps) != n_clients:
        raise ValueError(
            f"max_steps has {len(max_steps)} entries for {n_clients} clients"
        )
    batch_sizes = [min(cfg.batch_size, int(n)) for n in sizes]
    batch_width = max(batch_sizes)

    # Per client: the full (epoch-major) list of batch index arrays.
    per_client: list[list[np.ndarray]] = []
    for n, b, rng, budget in zip(sizes, batch_sizes, rngs, max_steps):
        cap = cfg.max_steps
        if budget is not None:
            cap = int(budget) if cap is None else min(cap, int(budget))
        batches: list[np.ndarray] = []
        taken = 0
        done = False
        for _ in range(cfg.local_epochs):
            order = rng.permutation(int(n))
            for batch_index, start in enumerate(range(0, int(n), b)):
                if cfg.max_batches is not None and batch_index >= cfg.max_batches:
                    break
                if cap is not None and taken >= cap:
                    done = True
                    break
                batches.append(order[start : start + b])
                taken += 1
            if done:
                break
        per_client.append(batches)

    # Epoch-major alignment: clients consume their own batch list in
    # order; lockstep position t serves every client that still has a
    # t-th batch.  (Any alignment is parity-correct — client streams
    # are independent — this one keeps epochs roughly in phase.)
    n_steps = max(len(b) for b in per_client)
    steps: list[LockstepStep] = []
    for t in range(n_steps):
        indices = [
            batches[t] if t < len(batches) else None for batches in per_client
        ]
        active = np.array([idx is not None for idx in indices], dtype=bool)
        steps.append(LockstepStep(indices=indices, active=active))
    return steps, batch_width


def select_factored_keys(
    model,
    n_clients: int,
    n_samples: int,
    factor_bytes_cap: int = _FACTOR_BYTES_CAP,
    sample_counts: Sequence[int] | None = None,
) -> frozenset[str]:
    """The weight key to factor: :func:`factorable_layer`'s, when it pays.

    ``n_samples`` is the most distinct samples any client visits this
    round and ``sample_counts`` (when given) each client's own count.
    The layer is factored while the mean count stays below its smallest
    dimension — beyond that computing the sample-space products and
    materialising the weights costs as much as dense updates — and
    while the cohort's factored storage, sized by ``n_samples``, stays
    under ``factor_bytes_cap``.

    The rank criterion takes the mean over clients, not the cohort
    maximum: under compute budgets clients drop out of the lockstep
    schedule early, and one unbudgeted client must not force the whole
    cohort dense when the typical member's rank is far below the
    threshold.  With uniform counts the mean is ``n_samples``.
    """
    found = factorable_layer(model)
    if found is None:
        return frozenset()
    name, layer = found
    if sample_counts is not None:
        if len(sample_counts) != n_clients:
            raise ValueError(
                f"sample_counts has {len(sample_counts)} entries for "
                f"{n_clients} clients"
            )
        rank = float(np.mean([int(n) for n in sample_counts]))
    else:
        rank = float(n_samples)
    if rank > min(layer.in_features, layer.out_features):
        return frozenset()
    rows = n_samples + 1
    need = (
        n_clients
        * rows
        * (layer.in_features + 3 * layer.out_features + rows)
        * layer.weight.data.dtype.itemsize
    )
    if need > factor_bytes_cap:
        return frozenset()
    return frozenset({f"{name}.weight"})


def _gather_step(
    datasets: Sequence[ArrayDataset],
    step: LockstepStep,
    x: np.ndarray,
    label_buf: np.ndarray,
    weight_buf: np.ndarray,
    visited: "Sequence[np.ndarray] | None" = None,
) -> None:
    """Fill one lockstep batch into ``x`` and the label/weight buffers.

    ``x`` is the ``(C, B, *input_shape)`` image batch, or — given each
    client's sorted ``visited`` sample indices — the ``(C, B)`` slot
    matrix of a factored first layer: every real row's position in its
    client's samples.  Padding rows keep a zero image or slot ``-1``
    (the factored layer's zero row) and zero row weight.
    """
    x[...] = 0 if visited is None else -1
    label_buf[...] = 0
    weight_buf[...] = 0.0
    for i, idx in enumerate(step.indices):
        if idx is None:
            continue
        k = len(idx)
        if visited is None:
            x[i, :k] = datasets[i].images[idx]
        else:
            x[i, :k] = np.searchsorted(visited[i], idx)
        label_buf[i, :k] = datasets[i].labels[idx]
        weight_buf[i, :k] = 1.0 / k


def train_cohort_flat(
    env: "FederatedEnv",
    client_ids: Sequence[int],
    incoming_flat: np.ndarray,
    round_index: int,
    prox_mu: float = 0.0,
    factored_keys: frozenset[str] | None = None,
    max_steps: "Sequence[int | None] | None" = None,
    gather_cache: dict | None = None,
) -> list[ClientUpdate]:
    """Run one cohort's local training in lockstep on the flat plane.

    Every client in ``client_ids`` starts from ``incoming_flat`` (one
    packed float64 row on ``env.layout``) and trains with
    ``env.train_cfg`` — the batched equivalent of calling
    :func:`repro.fl.client.run_client_update_flat` per client with the
    same ``rng_for`` streams.  Returns updates in ``client_ids`` order,
    each carrying its packed row (``flat``).

    ``max_steps`` is an optional per-client total-step cap (aligned
    with ``client_ids``; the scenario compute-budget path) — budgeted
    clients drop out of the lockstep schedule early via the per-step
    ``active`` masks, and a zero-budget client's emitted row is exactly
    the broadcast rounded through the parameter dtypes.

    ``gather_cache`` is an optional dict the caller keeps across rounds
    (the batched executor owns one): a cohort whose first layer is dense
    gathers every lockstep batch into one image buffer per shape kept
    there, so repeated rounds skip the allocation and the first-touch
    page faults of a fresh buffer.  A factored cohort gathers each
    client's distinct samples once per round instead, and each step
    only fills a small slot matrix.  Results are bit-identical with or
    without the cache.
    """
    cfg = env.train_cfg
    layout: StateLayout = env.layout
    client_ids = [int(cid) for cid in client_ids]
    datasets = [env.federation.clients[cid].train for cid in client_ids]
    sizes = [len(d) for d in datasets]
    rngs = [
        rng_for(env.seed, _CLIENT_UPDATE_TAG, round_index, cid)
        for cid in client_ids
    ]
    steps, batch_width = plan_cohort_schedule(sizes, cfg, rngs, max_steps)
    n_clients = len(client_ids)
    # Each client's distinct scheduled samples, sorted: the rows a
    # factored first layer is keyed by.
    visited = []
    for i in range(n_clients):
        batches = [s.indices[i] for s in steps if s.indices[i] is not None]
        visited.append(
            np.unique(np.concatenate(batches)) if batches else np.zeros(0, int)
        )
    if factored_keys is None:
        # Per-client counts feed the rank estimate so budgeted cohorts
        # route factored by their typical (not worst-case) rank.
        counts = [len(v) for v in visited]
        factored_keys = select_factored_keys(
            env.scratch_model, n_clients, max(counts), sample_counts=counts
        )

    input_shape = tuple(env.federation.input_shape)
    samples = None
    if factored_keys:
        in_features = int(np.prod(input_shape))
        samples = [
            d.images[v].reshape(len(v), in_features)
            for d, v in zip(datasets, visited)
        ]
    incoming_flat = np.asarray(incoming_flat, dtype=np.float64)
    batched, _plane = build_batched(
        env.scratch_model,
        layout,
        n_clients,
        incoming_flat,
        factored_keys=factored_keys,
        samples=samples,
    )
    params = batched.params()
    if prox_mu > 0.0:
        optimizer: BatchedSGD = BatchedProximalSGD(
            params,
            lr=cfg.lr,
            mu=prox_mu,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
        )
    else:
        optimizer = BatchedSGD(
            params,
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
        )
    loss_fn = BatchedCrossEntropyLoss()

    labels = np.zeros((n_clients, batch_width), dtype=np.int64)
    weights = np.zeros((n_clients, batch_width), dtype=np.float32)
    total_loss = np.zeros(n_clients, dtype=np.float64)
    n_batches = np.zeros(n_clients, dtype=np.int64)

    if batched.factored:
        x = np.empty((n_clients, batch_width), dtype=np.intp)
    else:
        x_shape = (n_clients, batch_width) + input_shape
        x = gather_cache.get(x_shape) if gather_cache is not None else None
        if x is None:
            x = np.zeros(x_shape, dtype=np.float32)
            if gather_cache is not None:
                gather_cache[x_shape] = x
    for step in steps:
        _gather_step(
            datasets,
            step,
            x,
            labels,
            weights,
            visited if batched.factored else None,
        )
        logits = batched.forward(x)
        losses = loss_fn.forward(logits, labels, weights)
        batched.backward(loss_fn.backward())
        optimizer.step(step.active)
        total_loss += np.where(step.active, losses, 0.0)
        n_batches += step.active

    out = np.empty((n_clients, layout.n_params), dtype=np.float64)
    flush_cohort(batched, layout, out)

    updates = []
    for i, cid in enumerate(client_ids):
        updates.append(
            ClientUpdate(
                client_id=cid,
                flat=out[i],
                n_samples=sizes[i],
                mean_loss=float(total_loss[i] / n_batches[i]) if n_batches[i] else 0.0,
                n_batches=int(n_batches[i]),
            )
        )
    return updates
