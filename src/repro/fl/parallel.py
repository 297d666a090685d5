"""Parallel client execution over the flat transport.

Within a round, client updates are embarrassingly parallel: each client
trains its own model copy on its own data.  The executors here exploit
that on multi-core hosts while guaranteeing **bit-identical results to
the serial path** — every (round, client) pair derives its RNG stream
statelessly via :func:`repro.utils.rng.rng_for`, so execution order and
worker count cannot change the outcome.

All executors move model states as *packed vectors* (see
:mod:`repro.nn.state_flat`): a task's payload is a packed row (broadcast
tasks share one row object, so it is converted and encoded once per
round, not once per client), and every returned :class:`ClientUpdate`
carries its ``flat`` row so the server can aggregate with a single GEMV.

Three executors:

* :class:`SerialClientExecutor` — the default; zero overhead, easiest to
  debug.  Each update runs :func:`repro.fl.client.run_client_update_flat`.
* :class:`ProcessClientExecutor` — fork-based process pool; worker
  processes rebuild the environment once via an initializer, and
  per-task IPC is one contiguous buffer each way, encoded at the
  layout's wire dtype (float32 for float32 models).
* :class:`BatchedClientExecutor` — trains each cohort that shares a
  broadcast in lockstep (:mod:`repro.fl.train_flat`), equal to the
  serial path up to float summation order; convolutional models fall
  back to the serial kernel.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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

    ``flat`` is the packed state the client starts from.  Broadcast
    tasks share one row object; executors convert and encode each
    distinct object once, and the batched executor trains the tasks that
    share one as a lockstep cohort.

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

    def __init__(self) -> None:
        # (delivery round, dispatch sequence, dispatch round, update)
        self._pending: list[tuple[int, int, int, ClientUpdate]] = []
        self._seq = 0

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
            self._pending.append(
                (int(done), self._seq, int(dispatch_round), update)
            )
            self._seq += 1

    def collect_due(
        self, round_index: int
    ) -> list[tuple[int, ClientUpdate]]:
        """Release every update whose delivery round has come.

        Returns ``(dispatch_round, update)`` pairs sorted by dispatch
        order, so the server's buffer fills identically however the
        durations interleave.
        """
        due = [entry for entry in self._pending if entry[0] <= round_index]
        if due:
            self._pending = [
                entry for entry in self._pending if entry[0] > round_index
            ]
            due.sort(key=lambda entry: entry[1])
        return [(dispatch_round, update) for _, _, dispatch_round, update in due]

    @property
    def client_ids(self) -> frozenset[int]:
        """Clients currently mid-training (never re-dispatched)."""
        return frozenset(update.client_id for *_, update in self._pending)

    def snapshot(self) -> list[tuple[int, int, int, ClientUpdate]]:
        """The pending entries, for checkpoint serialisation.

        Each entry is ``(delivery round, dispatch sequence, dispatch
        round, update)`` in insertion order.  Pair with
        :attr:`next_seq` — the sequence counter must survive a restore,
        or post-resume dispatches would collide with buffered ones and
        break the deterministic delivery order.
        """
        return list(self._pending)

    @property
    def next_seq(self) -> int:
        """The sequence number the next dispatched update will get."""
        return self._seq

    def restore(
        self,
        entries: Sequence[tuple[int, int, int, ClientUpdate]],
        next_seq: int,
    ) -> None:
        """Inverse of :meth:`snapshot` (checkpoint resume)."""
        entries = [
            (int(done), int(seq), int(dispatch_round), update)
            for done, seq, dispatch_round, update in entries
        ]
        next_seq = int(next_seq)
        top = max((seq for _, seq, _, _ in entries), default=-1)
        if next_seq <= top:
            raise ValueError(
                f"next_seq {next_seq} collides with a restored entry "
                f"(highest buffered sequence: {top})"
            )
        self._pending = entries
        self._seq = next_seq

    def __len__(self) -> int:
        return len(self._pending)


def _pack_tasks(tasks: Sequence[UpdateTask]) -> list[np.ndarray]:
    """Float64 incoming vector per task, converting shared rows only once.

    Memoised by payload object id: the batched executor's cohort
    grouping relies on the conversion preserving object sharing.
    """
    memo: dict[int, np.ndarray] = {}
    vectors = []
    for task in tasks:
        vec = memo.get(id(task.flat))
        if vec is None:
            vec = np.asarray(task.flat, dtype=np.float64)
            memo[id(task.flat)] = vec
        vectors.append(vec)
    return vectors


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


def _zero_budget_update(
    env: "FederatedEnv", task: UpdateTask, vector: np.ndarray
) -> ClientUpdate:
    """The update of a client whose compute budget was zero steps.

    Bit-identical to what any executor would produce for "load the
    broadcast, take no step, snapshot": the state is the broadcast
    rounded through the parameter dtypes (``layout.round_trip``), the
    loss is 0 over 0 batches.
    """
    return ClientUpdate(
        client_id=task.client_id,
        flat=env.layout.round_trip(vector),
        n_samples=len(env.federation.clients[task.client_id].train),
        mean_loss=0.0,
        n_batches=0,
    )


def _run_flat(
    env: "FederatedEnv",
    task: UpdateTask,
    vector: np.ndarray,
    round_index: int,
    train_cfg,
) -> ClientUpdate:
    """One task on the serial kernel under ``train_cfg``, capped at the
    task's step budget."""
    if task.max_steps == 0:
        return _zero_budget_update(env, task, vector)
    return run_client_update_flat(
        env.scratch_model,
        task.client_id,
        env.federation.clients[task.client_id].train,
        vector,
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
        vectors = _pack_tasks(tasks)
        return [
            _run_flat(env, task, vec, round_index, env.train_cfg)
            for task, vec in zip(tasks, vectors)
        ]

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
    vector = decode_flat_payload(payload, env.layout)
    task = UpdateTask(client_id, vector, prox_mu=prox_mu, max_steps=max_steps)
    update = _run_flat(env, task, vector, round_index, train_cfg)
    return (
        update.client_id,
        encode_flat_payload(update.flat, env.layout),
        update.n_samples,
        update.mean_loss,
        update.n_batches,
    )


class ProcessClientExecutor:
    """Fork-based process pool; workers hold a full environment copy.

    Slower than serial unless BLAS is pinned to one thread.  On a 2-CPU
    host with 2 workers (64 MLP clients or 32 LeNet-5 clients, 40
    samples and 3 local epochs each), a round ran at 0.17–0.28× the
    serial executor's speed at the default BLAS threading; with one
    BLAS thread it ran at 1.03× on the MLP and 1.80× on LeNet-5.

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
        vectors = _pack_tasks(tasks)
        # Broadcast tasks share one packed vector; encode each distinct
        # vector once (mirrors _pack_tasks's memo).
        encoded: dict[int, bytes] = {}
        payload = []
        for task, vec in zip(tasks, vectors):
            buf = encoded.get(id(vec))
            if buf is None:
                buf = encode_flat_payload(vec, env.layout)
                encoded[id(vec)] = buf
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

    Tasks are grouped by their broadcast row (the packed-vector object,
    mirroring ``_pack_tasks``'s sharing memo) and proximal coefficient;
    each group is one cohort for
    :func:`repro.fl.train_flat.train_cohort_flat`, which runs the
    cohort's local SGD with a leading client axis — same ``rng_for``
    streams and minibatch composition as the serial path, updates equal
    to float summation order (the parity suite gates it).

    A batched update's ``flat`` is a view into its cohort's emit plane,
    which aggregation reads in place, so a row a caller retains keeps
    the whole plane alive: copy a row you keep.

    Architectures without a batched mirror (convolutional models) fall
    back **per task** to the serial reference kernel transparently;
    :attr:`last_dispatch` records the split so benchmarks can report the
    fallback honestly.
    """

    def __init__(self, n_workers: int | None = None) -> None:
        # n_workers accepted for factory symmetry; lockstep batching is
        # single-process by construction.
        self.n_workers = n_workers
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

        vectors = _pack_tasks(tasks)
        batchable = supports_batched(env.scratch_model)
        self.last_dispatch = {"batched": 0, "serial": 0}
        results: dict[int, ClientUpdate] = {}
        if not batchable:
            self.last_dispatch["serial"] = len(tasks)
            return [
                _run_flat(env, task, vec, round_index, env.train_cfg)
                for task, vec in zip(tasks, vectors)
            ]
        # Cohorts: tasks sharing a broadcast vector and prox_mu train as
        # one lockstep group (a group of one is still batched — results
        # must not depend on how callers happen to share row objects).
        groups: dict[tuple[int, float], list[int]] = {}
        for i, (task, vec) in enumerate(zip(tasks, vectors)):
            groups.setdefault((id(vec), task.prox_mu), []).append(i)
        for (_, prox_mu), members in groups.items():
            updates = train_cohort_flat(
                env,
                [tasks[i].client_id for i in members],
                vectors[members[0]],
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
    """Factory: ``"serial"``, ``"process"`` or ``"batched"``."""
    if kind not in _EXECUTORS:
        raise ValueError(f"unknown executor {kind!r}; options: {sorted(_EXECUTORS)}")
    if kind == "serial":
        return SerialClientExecutor()
    return _EXECUTORS[kind](n_workers)
