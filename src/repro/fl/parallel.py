"""Parallel client execution over the flat transport.

Within a round, client updates are embarrassingly parallel: each client
trains its own model copy on its own data.  The executors here exploit
that on multi-core hosts while guaranteeing **bit-identical results to
the serial path** — every (round, client) pair derives its RNG stream
statelessly via :func:`repro.utils.rng.rng_for`, so execution order and
worker count cannot change the outcome.

All executors move model states as *packed rows* at the layout dtype
(see :mod:`repro.nn.state_flat`): a task's payload is a packed row
(broadcast tasks share one row object, so it is encoded once per round,
not once per client), and every returned :class:`ClientUpdate` carries
its ``flat`` row at that dtype so the server can aggregate with a
single GEMV.

Three executors:

* :class:`SerialClientExecutor` — the default; zero overhead, easiest to
  debug.  Each update runs :func:`repro.fl.client.run_client_update_flat`.
* :class:`ProcessClientExecutor` — fork-based process pool; worker
  processes rebuild the environment once via an initializer, and
  per-task IPC is one contiguous row each way.
* :class:`BatchedClientExecutor` — trains each cohort that shares a
  broadcast in lockstep (:mod:`repro.fl.train_flat`), equal to the
  serial path up to float summation order; convolutional models fall
  back to the serial kernel.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.fl.client import ClientUpdate, run_client_update_flat
from repro.fl.communication import decode_flat_payload, encode_flat_payload
from repro.utils.rng import STREAM_TAGS, rng_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.simulation import FederatedEnv

__all__ = [
    "UpdateTask",
    "InFlightBuffer",
    "SerialClientExecutor",
    "ProcessClientExecutor",
    "BatchedClientExecutor",
    "make_executor",
]


@dataclass
class UpdateTask:
    """One client's work order for a round.

    ``flat`` is the packed state the client starts from, a row at the
    layout dtype.  Broadcast tasks share one row object; the process
    executor encodes each distinct object once, and the batched
    executor trains the tasks that share one as a lockstep cohort.

    ``max_steps`` caps this client's local SGD at that many total steps
    (``None`` = the training config's own schedule).  The round engine's
    compute-budget middleware stamps it per (round, client); every
    executor honours it identically — the batched executor via the
    cohort planner's per-client step masks, the others by tightening the
    training config.  A cap of ``0`` means the client does no local work
    and returns the broadcast state unchanged (``n_batches == 0``).
    """

    client_id: int
    flat: np.ndarray
    prox_mu: float = 0.0
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(
                f"task for client {self.client_id}: max_steps must be >= 0, "
                f"got {self.max_steps}"
            )


@dataclass
class InFlightBuffer:
    """Dispatched-but-undelivered client work, keyed by delivery round.

    The round engine's in-flight ledger (synchronous rounds deliver
    everything in its dispatch round).  Results are computed
    eagerly at dispatch (every executor already guarantees (round,
    client)-seeded bit-identical updates, so *when* the work runs cannot
    change *what* it produces) and held here until their seeded training
    duration elapses; :meth:`collect_due` then releases them in
    deterministic dispatch order — (dispatch round, dispatch position) —
    regardless of executor kind or duration interleaving.
    """

    #: ``(delivery round, dispatch sequence, dispatch round, update)``
    #: per undelivered update, in dispatch order.
    pending: list[tuple[int, int, int, ClientUpdate]] = field(default_factory=list)
    #: The dispatch sequence number the next update gets.
    seq: int = 0

    def __post_init__(self) -> None:
        # A restored ledger must number later dispatches above every
        # pending one, or they would collide with buffered ones and break
        # the deterministic delivery order.
        top = max((entry[1] for entry in self.pending), default=-1)
        if self.seq <= top:
            raise ValueError(
                f"seq {self.seq} collides with a pending entry "
                f"(highest pending sequence: {top})"
            )

    def add(
        self,
        updates: Sequence[ClientUpdate],
        dispatch_round: int,
        completes_at: Sequence[int],
    ) -> None:
        """Record freshly-dispatched updates and their delivery rounds."""
        if len(updates) != len(completes_at):
            raise ValueError(
                f"{len(updates)} updates but {len(completes_at)} delivery rounds"
            )
        for update, done in zip(updates, completes_at):
            if int(done) < int(dispatch_round):
                raise ValueError(
                    f"client {update.client_id} would deliver in round {done}, "
                    f"before its dispatch round {dispatch_round}"
                )
            self.pending.append((int(done), self.seq, int(dispatch_round), update))
            self.seq += 1

    def collect_due(
        self, round_index: int
    ) -> list[tuple[int, ClientUpdate]]:
        """Release every update whose delivery round has come.

        Returns ``(dispatch_round, update)`` pairs sorted by dispatch
        order, so the server's buffer fills identically however the
        durations interleave.
        """
        due = [entry for entry in self.pending if entry[0] <= round_index]
        if due:
            self.pending = [entry for entry in self.pending if entry[0] > round_index]
            due.sort(key=lambda entry: entry[1])
        return [(dispatch_round, update) for _, _, dispatch_round, update in due]

    @property
    def client_ids(self) -> frozenset[int]:
        """Clients currently mid-training (never re-dispatched)."""
        return frozenset(update.client_id for *_, update in self.pending)

    def __len__(self) -> int:
        return len(self.pending)


def _budgeted_cfg(cfg, max_steps: int | None):
    """The training config with a task-level step budget folded in.

    ``None`` (no budget) and caps at or above the config's own
    ``max_steps`` leave the config object untouched, so the default path
    never copies.  Callers must handle ``max_steps == 0`` themselves
    (``TrainConfig`` requires positive step counts — a zero-step round
    is "skip training", not a degenerate schedule).
    """
    if max_steps is None:
        return cfg
    if cfg.max_steps is not None and cfg.max_steps <= max_steps:
        return cfg
    import dataclasses

    return dataclasses.replace(cfg, max_steps=max_steps)


def _zero_budget_update(env: "FederatedEnv", task: UpdateTask) -> ClientUpdate:
    """The update of a client whose compute budget was zero steps.

    Bit-identical to what any executor would produce for "load the
    broadcast, take no step, snapshot": the state is a copy of the
    broadcast row (``layout.round_trip``), the loss is 0 over 0 batches.
    """
    return ClientUpdate(
        client_id=task.client_id,
        flat=env.layout.round_trip(task.flat),
        n_samples=len(env.federation.clients[task.client_id].train),
        mean_loss=0.0,
        n_batches=0,
    )


def _run_flat(
    env: "FederatedEnv", task: UpdateTask, round_index: int, train_cfg
) -> ClientUpdate:
    """One task on the serial kernel under ``train_cfg``, capped at the
    task's step budget."""
    if task.max_steps == 0:
        return _zero_budget_update(env, task)
    return run_client_update_flat(
        env.scratch_model,
        task.client_id,
        env.federation.clients[task.client_id].train,
        task.flat,
        env.layout,
        _budgeted_cfg(train_cfg, task.max_steps),
        rng_for(
            env.seed, STREAM_TAGS["client_update"], round_index, task.client_id
        ),
        prox_mu=task.prox_mu,
    )


class SerialClientExecutor:
    """Run updates one by one on the environment's scratch model."""

    def run(
        self, env: "FederatedEnv", tasks: Sequence[UpdateTask], round_index: int
    ) -> list[ClientUpdate]:
        return [_run_flat(env, task, round_index, env.train_cfg) for task in tasks]

    def close(self) -> None:
        """No resources to release."""


# ----------------------------------------------------------------------
# Process pool: module-level worker state, installed by the initializer.
# ----------------------------------------------------------------------
_WORKER_ENV: "FederatedEnv | None" = None


def _process_worker_init(env: "FederatedEnv") -> None:
    global _WORKER_ENV
    _WORKER_ENV = env


def _process_worker_run(
    args: tuple[int, bytes, float, int, object, int | None],
) -> tuple[int, bytes, int, float, int]:
    """One task in a worker: decode → train → encode.

    The payload each way is the wire-encoded flat vector plus scalars —
    no state dicts cross the process boundary.  The active training
    config rides along with the task: the worker's forked environment is
    a snapshot from pool creation, so trusting ``env.train_cfg`` would
    miss parent-side overrides (e.g. FedClust's warm-up config, which is
    swapped in only for the clustering round — forking mid-round used to
    freeze it into the workers for every later round).  The per-task
    step budget rides along the same way.
    """
    client_id, payload, prox_mu, round_index, train_cfg, max_steps = args
    env = _WORKER_ENV
    assert env is not None, "worker initializer did not run"
    task = UpdateTask(
        client_id,
        decode_flat_payload(payload, env.layout),
        prox_mu=prox_mu,
        max_steps=max_steps,
    )
    update = _run_flat(env, task, round_index, train_cfg)
    return (
        update.client_id,
        encode_flat_payload(update.flat, env.layout),
        update.n_samples,
        update.mean_loss,
        update.n_batches,
    )


class ProcessClientExecutor:
    """Fork-based process pool; workers hold a full environment copy.

    Slower than serial unless BLAS is pinned to one thread: on a 2-CPU
    host with 2 workers a round ran at 0.17–0.28× the serial executor's
    speed at the default BLAS threading.  At one BLAS thread
    (``BENCH_train.json``'s ``process`` rows: 32 training samples per
    client, 3 local epochs) it ran at 1.64× on 32 LeNet-5 clients and
    at 1.05× on 64 clients of the 1.6M-parameter MLP, whose rows cost
    more to ship than to train (0.83× at 2 epochs).  Its updates equal
    the serial executor's bit for bit.

    The pool is created lazily on first use (so the environment is fully
    constructed when pickled to workers) and must be :meth:`close`-d, or
    used via the environment's context manager.
    """

    def __init__(self, n_workers: int | None = None) -> None:
        if n_workers is not None and n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = n_workers if n_workers is not None else min(8, os.cpu_count() or 1)
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self, env: "FederatedEnv") -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing as mp

            context = mp.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=context,
                initializer=_process_worker_init,
                initargs=(env,),
            )
        return self._pool

    def run(
        self, env: "FederatedEnv", tasks: Sequence[UpdateTask], round_index: int
    ) -> list[ClientUpdate]:
        pool = self._ensure_pool(env)
        # Broadcast tasks share one row; encode each distinct row once.
        encoded: dict[int, bytes] = {}
        payload = []
        for task in tasks:
            buf = encoded.get(id(task.flat))
            if buf is None:
                buf = encode_flat_payload(task.flat, env.layout)
                encoded[id(task.flat)] = buf
            payload.append(
                (
                    task.client_id,
                    buf,
                    task.prox_mu,
                    round_index,
                    env.train_cfg,
                    task.max_steps,
                )
            )
        updates = []
        for client_id, buf, n_samples, mean_loss, n_batches in pool.map(
            _process_worker_run, payload
        ):
            updates.append(
                ClientUpdate(
                    client_id=client_id,
                    flat=decode_flat_payload(buf, env.layout),
                    n_samples=n_samples,
                    mean_loss=mean_loss,
                    n_batches=n_batches,
                )
            )
        return updates

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class BatchedClientExecutor:
    """Train whole cohorts in lockstep on the flat plane.

    Tasks are grouped by their broadcast row (the row object) and
    proximal coefficient; each group is one cohort for
    :func:`repro.fl.train_flat.train_cohort_flat`, which runs the
    cohort's local SGD with a leading client axis — same ``rng_for``
    streams and minibatch composition as the serial path, updates equal
    to float summation order (the parity suite gates it).

    A batched update's ``flat`` is a view into its cohort's working
    plane, which aggregation reads in place, so a row a caller retains
    keeps the whole plane alive: copy a row you keep.

    Architectures without a batched mirror (convolutional models) fall
    back **per task** to the serial reference kernel transparently;
    :attr:`last_dispatch` records the split so benchmarks can report the
    fallback honestly.
    """

    def __init__(self) -> None:
        #: ("batched", n_tasks) / ("serial", n_tasks) counts of the most
        #: recent run — the conv-fallback visibility hook.
        self.last_dispatch: dict[str, int] = {}
        # Round-to-round gather buffers (see train_cohort_flat): a dense
        # cohort's step buffer is first-touch-faulted once per shape,
        # not once per round.
        self._gather_cache: dict = {}

    def run(
        self, env: "FederatedEnv", tasks: Sequence[UpdateTask], round_index: int
    ) -> list[ClientUpdate]:
        from repro.fl.train_flat import supports_batched, train_cohort_flat

        batchable = supports_batched(env.scratch_model)
        self.last_dispatch = {"batched": 0, "serial": 0}
        results: dict[int, ClientUpdate] = {}
        if not batchable:
            self.last_dispatch["serial"] = len(tasks)
            return [
                _run_flat(env, task, round_index, env.train_cfg) for task in tasks
            ]
        # Cohorts: tasks sharing a broadcast row and prox_mu train as
        # one lockstep group (a group of one is still batched — results
        # must not depend on how callers happen to share row objects).
        groups: dict[tuple[int, float], list[int]] = {}
        for i, task in enumerate(tasks):
            groups.setdefault((id(task.flat), task.prox_mu), []).append(i)
        for (_, prox_mu), members in groups.items():
            updates = train_cohort_flat(
                env,
                [tasks[i].client_id for i in members],
                tasks[members[0]].flat,
                round_index,
                prox_mu=prox_mu,
                max_steps=[tasks[i].max_steps for i in members],
                gather_cache=self._gather_cache,
            )
            self.last_dispatch["batched"] += len(members)
            for i, update in zip(members, updates):
                results[i] = update
        return [results[i] for i in range(len(tasks))]

    def close(self) -> None:
        """Release the cached gather buffers."""
        self._gather_cache.clear()


_EXECUTORS = {
    "serial": SerialClientExecutor,
    "process": ProcessClientExecutor,
    "batched": BatchedClientExecutor,
}


def make_executor(kind: str, n_workers: int | None = None):
    """Factory: ``"serial"``, ``"process"`` or ``"batched"``.

    ``n_workers`` sizes the process pool; the other kinds take none.
    """
    if kind not in _EXECUTORS:
        raise ValueError(f"unknown executor {kind!r}; options: {sorted(_EXECUTORS)}")
    if kind == "process":
        return ProcessClientExecutor(n_workers)
    return _EXECUTORS[kind]()
