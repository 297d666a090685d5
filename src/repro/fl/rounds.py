"""The round engine: one server loop shared by every algorithm.

Historically each algorithm hand-rolled its own per-round lifecycle, so
partial participation existed only inside FedAvg and failure injection
only as an executor wrapper.  This module extracts the loop once:

    select participants → broadcast packed rows → send (local training)
    → in-flight ledger → receive due updates → buffer → aggregation
    event → evaluate/log

:class:`RoundEngine` owns that lifecycle; algorithms are reduced to
:class:`RoundStrategy` objects with three required hooks —
``broadcast_for`` (participants → packed-row tasks), ``aggregate``
(buffered updates → new server state, returning the round's train-loss
statistic) and ``evaluate`` (the Table-I metric for the current state) —
plus optional ``on_arrivals``/``on_round_end`` notifications.

**One loop, two configurations.**  Every round's updates pass through
the :class:`repro.fl.parallel.InFlightBuffer` ledger and then through
one server buffer — client id → (dispatch round, update), insertion
ordered, one entry per client.  An *aggregation event* hands the whole
buffer to ``aggregate``, each update at weight × ``decay ** age`` (age =
event round − dispatch round):

* *synchronous* (``async_config=None``, the default): every update is
  due in its dispatch round (no duration is drawn) and the event fires
  every round — lockstep rounds;
* *asynchronous* (:class:`AsyncConfig`, FedBuff-style): every dispatch
  draws a seeded training duration, in-flight clients are not selected
  again, and the event fires at ``buffer_size`` buffered updates (the
  final round flushes a partial buffer).

Scenario policy lives in :class:`ScenarioConfig` and composes with
**every** strategy and every executor kind (serial/process/batched),
because it acts on the engine's task lists and update lists, never on
the executor or the payload format:

* **participation** — FedAvg's client fraction ``C``, sampled per round
  via :func:`repro.fl.sampling.uniform_sample` from the server RNG
  stream (``env.server_rng(round_index)``), exactly as FedAvg's
  historical loop did;
* **failures** — seeded pre-training drops on the stateless
  ``(seed, round, client)`` stream :data:`FAILURE_TAG`.  A failed client
  consumed the broadcast — the download is charged — but never trains
  or uploads;
* **stragglers** — seeded post-training drops on an independent stream
  (synchronous rounds only).  A straggler trains and uploads, but its
  update arrives after the aggregation deadline: both transfers are
  charged, the update misses this round, and aggregation weights
  renormalise over the survivors;
* **stale updates** — with ``staleness_decay > 0`` a straggler's
  finished work is not discarded: it is banked in the buffer after the
  round's aggregation event and folds at a later one, discounted by
  ``staleness_decay ** age``.  An on-time update replaces the client's
  banked one, so aggregation never sees two updates from one client;
* **compute budgets** — deadline as computation, not time: with
  ``compute_budget=(lo, hi)`` every participant draws a seeded
  per-(round, client) local step cap from ``[lo, hi]`` and its local
  training is truncated there.  Partial work is **kept** — the client
  uploads whatever it reached — and aggregation switches to
  FedNova-style renormalisation by steps actually taken (each update's
  weight is its step count, so the denominator is the cohort's total
  steps and a zero-budget client provably contributes nothing);
* **arrivals** — clients that join the federation mid-run.  They are
  ineligible for participation before their arrival round; strategies
  are told via ``on_arrivals`` (FedClust routes this into its newcomer
  onboarding);
* **departures** — the dual of arrivals: a client with departure round
  ``r`` is ineligible from round ``r`` on (it must depart strictly
  after it arrived).  Strategies are told via ``on_departures``; a
  departed client's already-uploaded update still folds (the server
  holds it), and evaluation keeps covering the client — its data did
  not leave the benchmark, only its participation;
* **availability traces** — the fully-explicit schedule: a replayable
  ``client_id → available-round-set`` mapping
  (:class:`repro.fl.trace.AvailabilityTrace`, JSON on disk, loadable
  from the CLI via ``--trace``) that subsumes arrivals, departures and
  recorded blackout rounds.  Traces compose with the other knobs by
  intersection; a trace absence charges no traffic (the client was
  never contacted — unlike a failure, which consumed the broadcast);
* **corruption** — seeded per-(dispatch round, client) events on their
  own stream (:data:`repro.fl.defense.CORRUPTION_TAG`) that mangle the
  *returned* update row (NaN/Inf poisoning, sign flips, scaled noise)
  before it enters the in-flight ledger;
* **admission + robust aggregation** — every received row passes a
  finiteness guard and an optional norm-bound guard; rejects are logged
  as ``quarantine`` events with reason codes, keep their upload charge
  (the bytes crossed the network), and never reach the buffer.
  ``robust_agg`` swaps the plain weighted average at the shared choke
  point (:func:`repro.algorithms.base.survivor_weighted_average`) for
  norm-clipping, a coordinate-wise trimmed mean, or the coordinate-wise
  median — ``"none"`` stays byte-for-byte the historical rule;
* **survivor quorum + retry** — ``min_survivors=q`` with
  ``max_retries=r`` redispatches the failed/quarantined remainder on a
  fresh seeded epoch (``round + 1_000_000 × attempt``, the derivation
  :meth:`RoundEngine.dispatch_with_retry` shares).  Still below quorum
  after the retries, the round degrades gracefully: no aggregation
  event, server state frozen, NaN loss, ``RoundRecord.quorum_failed``;
* **checkpoint/resume** — with a
  :class:`repro.fl.checkpoint.CheckpointConfig` on the scenario the
  engine writes a versioned single-file checkpoint on a round cadence
  and can resume from it.  What the file holds is declared once: the
  engine, the strategy, the traffic tracker and the history each list
  their resumable attributes in ``resumable``, typed by their class
  annotations, and :meth:`RoundEngine.checkpoint` and
  :meth:`RoundEngine.resume` walk those same lists
  (:mod:`repro.fl.checkpoint`).  The file's identity (seed, algorithm,
  scenario ``to_dict()``, BLAS thread count, the strategy's settings
  such as FedProx's μ) must equal the resuming run's.  A resumed run
  reproduces the uninterrupted one bit-identically because all
  middleware randomness is stateless in (seed, round, client) — the
  file only needs the round counter, never a generator state.

**One event log.**  What happened to each client is recorded once, in
:attr:`RoundEngine.events`: ``(round, kind, client id, reason)``
records whose kinds are ``participate`` (dispatched by the round loop),
``drop`` (failed before training), ``straggle`` (missed the deadline),
``quarantine`` (rejected by admission; the reason is the admission
code), ``stale`` (an earlier round's update folded) and ``depart``;
the reason is ``None`` for every other kind.  Quorum retries log under
their derived epoch ``round + 1_000_000 × attempt``.
:meth:`RoundEngine.run_record`, :meth:`RoundEngine.realized_trace`, the
``RoundRecord`` counters ``n_stale``/``n_departed``/``n_quarantined``
and the checkpoint are folds over this list.

At least one participant always survives a *dispatched* round (a round
whose whole cohort fails or misses the deadline would deadlock
aggregation; a real server would re-broadcast instead) — the
deterministically-first client by id is kept.  The guarantee is about
the middleware, not the schedule: an availability trace may
legitimately leave a round with **no eligible clients at all** (a
replayed federation can go fully dark).  Such a round dispatches
nothing; every strategy keeps its state and logs a NaN train loss, and
evaluation still runs on its cadence.

Under the default scenario (full participation, no failures) the engine
performs exactly the tracker calls and aggregation arithmetic of the
pre-engine per-algorithm loops, so seeded runs are bit-identical — the
parity suite in ``tests/test_fl_rounds.py`` gates this per algorithm
and per executor kind.
"""

from __future__ import annotations

import abc
import time
from collections import Counter
from itertools import groupby
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.fl.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    blas_threads,
    load_state,
    save_state,
)
from repro.fl.client import ClientUpdate
from repro.fl.defense import (
    CORRUPTION_TAG,
    ROBUST_AGG_MODES,
    CorruptionConfig,
    admit_updates,
    maybe_corrupt,
)
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.parallel import InFlightBuffer, UpdateTask
from repro.fl.sampling import sample_from, uniform_sample
from repro.fl.trace import AvailabilityTrace
from repro.utils.rng import RETRY_EPOCH_STRIDE, STREAM_TAGS, rng_for
from repro.utils.serialization import to_jsonable
from repro.utils.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable
    from pathlib import Path

    from repro.fl.simulation import FederatedEnv

__all__ = [
    "FAILURE_TAG",
    "STRAGGLER_TAG",
    "BUDGET_TAG",
    "DURATION_TAG",
    "CORRUPTION_TAG",
    "AsyncConfig",
    "ScenarioConfig",
    "CorruptionConfig",
    "CheckpointConfig",
    "CheckpointError",
    "DispatchOutcome",
    "RoundOutcome",
    "RoundStrategy",
    "RoundEngine",
    "aggregation_weights",
    "discounted_update",
]

#: The failure stream.  Historical faulty runs drew their drop sets from
#: it, and those drop sets are pinned in
#: ``tests/test_failures_and_stragglers.py``.
FAILURE_TAG = STREAM_TAGS["failure"]
#: Straggler draws use an independent stream.
STRAGGLER_TAG = STREAM_TAGS["straggler"]
#: Per-(round, client) compute-budget draws use their own stream.
BUDGET_TAG = STREAM_TAGS["budget"]
#: Per-(dispatch round, client) training-duration draws for the async
#: engine use their own stream, so async interleavings are a pure
#: function of (seed, scenario) — deterministic and executor-invariant.
DURATION_TAG = STREAM_TAGS["duration"]


def aggregation_weights(updates: Sequence[ClientUpdate]) -> np.ndarray:
    """Effective aggregation weight per update, as a float64 vector.

    The one place scenario middleware bends the FedAvg weighting rule:
    an update whose ``weight`` is set carries it (compute budgets set it
    to the steps actually taken, stale folding multiplies in the
    staleness discount); everything else falls back to the historical
    sample count.  Strategies must renormalise over whatever subset they
    aggregate — :func:`repro.fl.aggregation.packed_weighted_average`
    normalises by the weight sum, so passing this vector does it.
    """
    return np.array(
        [
            u.weight if u.weight is not None else float(u.n_samples)
            for u in updates
        ],
        dtype=np.float64,
    )


def discounted_update(
    update: ClientUpdate, decay: float, age: int
) -> ClientUpdate:
    """A *copy* of ``update`` carrying the staleness-discounted weight.

    The folded weight is ``base × decay ** age`` where ``base`` is the
    update's effective aggregation weight (its ``weight`` if set —
    compute budgets set it to steps taken — else its sample count).
    The input object is never mutated: buffers that observe the same
    update twice (async re-buffering, trace replay, a strategy keeping
    a reference) must not compound the discount.  The copy is shallow —
    the flat row is shared, which is safe because aggregation only
    reads it.
    """
    import dataclasses

    base = update.weight if update.weight is not None else float(update.n_samples)
    return dataclasses.replace(update, weight=base * decay**age)


def _int_range(name: str, value, floor: int) -> tuple[int, int]:
    """``value`` as a ``(lo, hi)`` pair with ``floor <= lo <= hi``; an int
    ``v``, or a one-int sequence ``[v]``, is shorthand for ``(v, v)``."""
    pair = [value] if isinstance(value, (int, np.integer)) else list(value)
    if len(pair) not in (1, 2):
        raise ValueError(f"{name} must be one or two ints, got {value!r}")
    lo, hi = int(pair[0]), int(pair[-1])
    if lo < floor or hi < lo:
        raise ValueError(f"{name} needs {floor} <= lo <= hi, got ({lo}, {hi})")
    return lo, hi


@dataclass(frozen=True)
class AsyncConfig:
    """FedBuff-style event-stream policy: dispatch ≠ aggregation.

    With an ``AsyncConfig`` on the scenario, the engine stops running
    lockstep rounds.  Each server step it dispatches fresh work to free
    clients (up to ``max_concurrency`` total in flight), every dispatch
    draws a seeded per-(dispatch round, client) *training duration* in
    server steps (tag :data:`DURATION_TAG`, uniform over
    ``duration_range``), and a client's update arrives at the server
    ``duration`` steps after dispatch.  Arrivals accumulate in a buffer;
    whenever ``buffer_size`` updates are buffered the server aggregates
    the whole buffer, discounting each update by ``decay ** age`` (age =
    aggregation round − dispatch round; ``staleness_decay == 0`` means
    undiscounted — async has no "discard stragglers" mode, lateness is
    the normal case).

    Without an ``AsyncConfig`` the same loop draws no durations and
    fires an event every round, which is exactly this policy at
    ``buffer_size = |participants|``, ``duration_range = (1, 1)``,
    ``max_concurrency = None``.

    Attributes
    ----------
    buffer_size:
        K: aggregate whenever this many updates are buffered.  The final
        round flushes a partially-filled buffer so arrived work is never
        discarded.
    max_concurrency:
        M: cap on clients concurrently in flight (``None`` = unbounded).
        When the cap binds, the deterministically-lowest client ids of
        the round's selection are dispatched.
    duration_range:
        ``(lo, hi)`` server-step training durations (an int is shorthand
        for ``(d, d)``); each dispatch draws uniformly from ``[lo, hi]``.
        A duration of 1 completes within its dispatch round.
    """

    buffer_size: int = 1
    max_concurrency: int | None = None
    duration_range: tuple[int, int] | int = (1, 3)

    def __post_init__(self) -> None:
        check_positive("buffer_size", self.buffer_size)
        if self.max_concurrency is not None:
            check_positive("max_concurrency", self.max_concurrency)
        duration = _int_range("duration_range", self.duration_range, 1)
        object.__setattr__(self, "duration_range", duration)


#: The :class:`ScenarioConfig` fields that hold a float (or ``None``).
_FLOAT_KNOBS = (
    "client_fraction",
    "failure_rate",
    "straggler_rate",
    "staleness_decay",
    "trim_fraction",
    "norm_bound",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """System-heterogeneity policy for a run; composes with any strategy.

    The scenario is its own JSON codec: :meth:`to_dict` writes every
    field that differs from its default, and ``ScenarioConfig(**d)``
    reads that dict back (string client ids, nested mappings and lists
    are coerced).  The run JSON, the ablation harness's run IDs and the
    checkpoint header all use it.  An empty schedule or trace and a
    zero-rate corruption are stored as ``None``.

    Attributes
    ----------
    client_fraction:
        FedAvg's ``C``: fraction of eligible clients sampled per round
        (1.0 = full participation).
    min_clients:
        Participation floor passed to :func:`uniform_sample`.
    failure_rate:
        Per-(round, client) probability that a participant goes dark
        before training.  Download charged, no upload, no update.
    straggler_rate:
        Per-(round, client) probability that a participant finishes too
        late for aggregation.  Download and upload charged, update
        discarded (or banked, see ``staleness_decay``); aggregation
        renormalises over the survivors.
    arrivals:
        ``client_id → arrival round`` for clients that join mid-run;
        unlisted clients are present from the start.  A client is
        ineligible for participation in rounds before its arrival round;
        strategies learn about arrivals via
        :meth:`RoundStrategy.on_arrivals`.
    staleness_decay:
        ``0`` (default) discards straggler updates.  A value in
        ``(0, 1]`` banks a straggler's update and folds it into a later
        round's aggregation with its weight multiplied by
        ``decay ** age`` (age in rounds; normally 1).  ``1.0`` means
        "late but undiscounted".
    compute_budget:
        ``None`` (default) leaves local schedules untouched.  A pair
        ``(lo, hi)`` (or a single int, shorthand for ``(b, b)``) caps
        every participant's local SGD at a seeded per-(round, client)
        step count drawn uniformly from ``[lo, hi]``.  Partial work is
        kept and aggregation weights become the steps actually taken
        (FedNova-style); a zero-step draw contributes no update.
    departures:
        ``client_id → departure round``: the client is ineligible from
        that round on.  A departure must come strictly after the
        client's arrival round (default arrival: round 1), so the
        earliest legal departure is round 2 for a founding client.
    trace:
        An :class:`repro.fl.trace.AvailabilityTrace` (or a plain
        ``client_id → iterable-of-rounds`` mapping, coerced) naming
        exactly which rounds each listed client is reachable; unlisted
        clients are always on.  Composes with arrivals/departures by
        intersection.
    async_config:
        ``None`` (default) runs synchronous rounds: every update is due
        in its dispatch round and aggregates in it.  An
        :class:`AsyncConfig` decouples dispatch from aggregation
        (FedBuff-style): clients stay in flight across server steps, and
        ``staleness_decay`` becomes the per-step-of-age buffer discount.
        Incompatible with
        ``straggler_rate`` — stragglers are a synchronous-deadline
        concept; model latency via ``duration_range`` instead.  All
        other middleware (participation, failures, budgets, arrivals,
        departures, traces) composes unchanged.
    corruption:
        ``None`` (default) returns every update pristine.  A
        :class:`repro.fl.defense.CorruptionConfig` draws seeded
        per-(dispatch round, client) corruption events that mangle the
        returned update row (NaN/Inf poisoning, sign flip, scaled
        noise) before it reaches admission — the fault-injection dual
        of the admission/robust-aggregation defenses below.
    robust_agg:
        Aggregation rule at the shared choke point: one of
        ``("none", "clip", "trimmed_mean", "coordinate_median")``.
        ``"none"`` (default) is byte-for-byte the historical weighted
        average; see :func:`repro.fl.defense.robust_weighted_average`.
    trim_fraction:
        Per-side trim for ``robust_agg="trimmed_mean"``.  Inert under
        any other mode, where it is validated and then reset to its
        default.
    norm_bound:
        ``None`` (default) admits any finite update.  A positive factor
        quarantines rows whose L2 norm exceeds ``norm_bound ×`` the
        median norm of their dispatch batch (reason code
        ``"norm_bound"``).  Non-finite rows are always quarantined
        (reason code ``"non_finite"``), bound or no bound.
    min_survivors:
        Quorum: the minimum admitted on-time survivors a synchronous
        round needs before aggregating.  ``0`` (default) keeps the
        historical behaviour (any survivor folds).  Below quorum the
        engine retries the failed/quarantined remainder up to
        ``max_retries`` times on fresh seeded epochs; still short, the
        round freezes state and records ``quorum_failed``.  Async runs
        must leave this at 0 — ``AsyncConfig.buffer_size`` *is* the
        async quorum.
    max_retries:
        Redispatch attempts per round while below ``min_survivors``.
    checkpoint:
        ``None`` (default) never touches disk.  A
        :class:`repro.fl.checkpoint.CheckpointConfig` (or a bare
        directory, coerced) makes the engine write a resumable
        checkpoint file every ``every`` rounds; with ``resume=True``
        :meth:`RoundEngine.run` restores from an existing file before
        its first round.  An execution detail: :meth:`to_dict` leaves
        it out, so it changes neither a run ID nor what a resume
        accepts.
    """

    client_fraction: float = 1.0
    min_clients: int = 1
    failure_rate: float = 0.0
    straggler_rate: float = 0.0
    arrivals: Mapping[int, int] | None = None
    staleness_decay: float = 0.0
    compute_budget: tuple[int, int] | int | None = None
    departures: Mapping[int, int] | None = None
    trace: AvailabilityTrace | Mapping | None = None
    async_config: AsyncConfig | None = None
    corruption: CorruptionConfig | None = None
    robust_agg: str = "none"
    trim_fraction: float = 0.1
    norm_bound: float | None = None
    min_survivors: int = 0
    max_retries: int = 0
    checkpoint: CheckpointConfig | None = None

    def __post_init__(self) -> None:
        # Read back what to_dict() writes: JSON keys are strings, nested
        # configs arrive as mappings, and an empty schedule or a
        # zero-rate corruption means the same as none at all.  A float
        # knob spelt as an int (1 for 1.0) is stored, written and hashed
        # as the float.
        for name in _FLOAT_KNOBS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))
        for name in ("arrivals", "departures"):
            schedule = getattr(self, name) or {}
            rounds = dict(sorted((int(c), int(r)) for c, r in schedule.items()))
            object.__setattr__(self, name, rounds or None)
        trace = self.trace
        if trace is not None and not isinstance(trace, AvailabilityTrace):
            trace = AvailabilityTrace(trace)
        object.__setattr__(
            self, "trace", trace if trace is not None and trace.clients else None
        )
        if isinstance(self.async_config, Mapping):
            object.__setattr__(self, "async_config", AsyncConfig(**self.async_config))
        corruption = self.corruption
        if isinstance(corruption, Mapping):
            corruption = CorruptionConfig(**corruption)
        object.__setattr__(
            self,
            "corruption",
            corruption if corruption is not None and corruption.rate > 0.0 else None,
        )
        check_fraction("client_fraction", self.client_fraction)
        check_positive("min_clients", self.min_clients)
        for name in ("failure_rate", "straggler_rate"):
            rate = getattr(self, name)
            check_fraction(name, rate, inclusive_low=True)
            if rate >= 1.0:
                raise ValueError(f"{name} must be < 1 (someone must survive)")
        if self.arrivals:
            bad = {c: r for c, r in self.arrivals.items() if r < 1}
            if bad:
                raise ValueError(f"arrival rounds must be >= 1, got {bad}")
        if not 0.0 <= self.staleness_decay <= 1.0:
            raise ValueError(
                f"staleness_decay must be in [0, 1], got {self.staleness_decay!r}"
            )
        if self.compute_budget is not None:
            budget = _int_range("compute_budget", self.compute_budget, 0)
            object.__setattr__(self, "compute_budget", budget)
        if self.departures:
            arrivals = self.arrivals or {}
            for cid, dep in self.departures.items():
                arrival = arrivals.get(cid, 1)
                if dep <= arrival:
                    raise ValueError(
                        f"client {cid} departs in round {dep} but only arrives "
                        f"in round {arrival} — departures must come strictly "
                        "after arrival"
                    )
        if self.async_config is not None and self.straggler_rate > 0.0:
            raise ValueError(
                "straggler_rate composes only with the synchronous engine "
                "— under async dispatch there is no aggregation deadline "
                "to miss; model client latency via "
                "AsyncConfig.duration_range instead"
            )
        if self.robust_agg not in ROBUST_AGG_MODES:
            raise ValueError(
                f"unknown robust_agg {self.robust_agg!r}; "
                f"options: {ROBUST_AGG_MODES}"
            )
        if not 0.0 < self.trim_fraction < 0.5:
            raise ValueError(
                f"trim_fraction must be in (0, 0.5), got {self.trim_fraction!r}"
            )
        if self.robust_agg != "trimmed_mean":
            # Inert under every other rule: back to the default, so it
            # changes neither a run ID nor what a resume accepts.
            object.__setattr__(self, "trim_fraction", type(self).trim_fraction)
        if self.norm_bound is not None:
            check_positive("norm_bound", self.norm_bound)
        if self.min_survivors < 0:
            raise ValueError(
                f"min_survivors must be >= 0, got {self.min_survivors!r}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )
        if self.async_config is not None and (
            self.min_survivors > 0 or self.max_retries > 0
        ):
            raise ValueError(
                "min_survivors/max_retries compose only with the "
                "synchronous engine — the async aggregation trigger "
                "(AsyncConfig.buffer_size) already is a survivor quorum, "
                "and lateness has no deadline to retry against"
            )
        if self.checkpoint is not None and not isinstance(
            self.checkpoint, CheckpointConfig
        ):
            # A bare directory is the common CLI shape.
            object.__setattr__(
                self, "checkpoint", CheckpointConfig(directory=self.checkpoint)
            )

    def to_dict(self) -> dict:
        """The scenario as JSON: every field whose value is not its default.

        Derived from the dataclass fields, so a field added later is
        written too.  Nested configs are written whole, the trace as its
        ``clients`` mapping.  ``checkpoint`` is left out: it decides how
        a run executes, not what it computes.  ``ScenarioConfig(**d)``
        reads the dict back.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "checkpoint" or value == f.default:
                continue
            if isinstance(value, AvailabilityTrace):
                value = value.to_dict()["clients"]
            out[f.name] = to_jsonable(value)
        return out

    def validate_for(self, n_clients: int) -> None:
        """Reject client ids outside ``[0, n_clients)`` in any schedule.

        Called by the engine at construction (the config itself cannot
        know the federation size): a trace, arrival or departure that
        names an unknown client is a configuration error, not a client
        that silently never materialises.
        """
        for name, ids in (
            ("arrivals", self.arrivals or {}),
            ("departures", self.departures or {}),
            ("trace", self.trace.clients if self.trace is not None else ()),
        ):
            bad = sorted(c for c in ids if not 0 <= c < n_clients)
            if bad:
                raise ValueError(
                    f"{name} references unknown client ids {bad} — this "
                    f"federation has clients 0..{n_clients - 1}"
                )


@dataclass
class DispatchOutcome:
    """The updates that came back from one dispatched task list.

    ``late`` holds the straggler updates themselves — populated only
    when stale folding is on (the default path must not keep dead
    updates alive across the next round's cohort allocation).  Which
    clients dropped, straggled or were quarantined is in the engine's
    :attr:`RoundEngine.events`.
    """

    survivors: list[ClientUpdate]
    late: list[ClientUpdate] = field(default_factory=list)


@dataclass
class RoundOutcome:
    """One engine round's cohort and results (client fates are in
    :attr:`RoundEngine.events`)."""

    round_index: int
    participants: np.ndarray
    #: The updates this round's aggregation event folded (discounted
    #: copies for stale ones); empty when no event fired.
    survivors: list[ClientUpdate]
    train_loss: float
    evaluated: bool
    mean_accuracy: float


class RoundStrategy(abc.ABC):
    """An algorithm's per-round behaviour, driven by the engine.

    The engine owns participant selection, failure/straggler injection,
    communication accounting, evaluation cadence and history logging;
    the strategy owns only what is genuinely algorithm-specific.
    """

    #: Registry/reporting name; subclasses override.
    name: str = "abstract"
    #: False for methods with no server round-trip (local-only); the
    #: engine then skips the per-round download/upload accounting.
    charges_communication: bool = True
    #: The attributes a checkpoint saves and a resume restores, each
    #: typed by its class annotation.  ``None`` means undeclared: such a
    #: strategy cannot be checkpointed, because a resume would continue
    #: from state it never saved.
    resumable: tuple[str, ...] | None = None

    @abc.abstractmethod
    def broadcast_for(
        self, engine: "RoundEngine", round_index: int, participants: np.ndarray
    ) -> list[UpdateTask]:
        """Build this round's task list (packed-row payloads).

        Tasks for clients sharing a server model must share the payload
        *object* so executors encode it once (and the batched executor
        groups them into one lockstep cohort).  Any extra traffic beyond
        the engine's one-download-per-participant baseline (e.g. IFCA's
        ``k×`` broadcast) is recorded here by the strategy.
        """

    @abc.abstractmethod
    def aggregate(
        self, engine: "RoundEngine", round_index: int, survivors: list[ClientUpdate]
    ) -> float:
        """Fold the surviving updates into the server state.

        Returns the round's train-loss statistic for the history record
        (NaN when nothing survived — the strategy keeps its state).
        Weighting must renormalise over ``survivors``.
        """

    @abc.abstractmethod
    def evaluate(
        self, engine: "RoundEngine", round_index: int
    ) -> tuple[float, np.ndarray]:
        """Table-I metric of the current server state: (mean, per-client)."""

    def current_n_clusters(self) -> int:
        """Cluster count for the history record."""
        return 1

    def on_arrivals(
        self, engine: "RoundEngine", round_index: int, arrived: np.ndarray
    ) -> None:
        """Clients newly present this round (before participant selection)."""

    def on_departures(
        self, engine: "RoundEngine", round_index: int, departed: np.ndarray
    ) -> None:
        """Clients gone from this round on (before participant selection).

        The dual of :meth:`on_arrivals`.  Departed clients stay in the
        evaluation population (their data still benchmarks the served
        model); strategies that key per-client server state may want to
        freeze or archive it here.
        """

    def on_round_end(self, engine: "RoundEngine", outcome: RoundOutcome) -> None:
        """Post-round notification (after history logging)."""

    def identity(self) -> dict:
        """Settings a checkpoint must share with the run that resumes
        it; compared on resume, never restored."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class RoundEngine:
    """The shared server loop over a :class:`FederatedEnv`.

    One engine instance runs one (or several consecutive) training
    phases; it holds no model state — that lives in the strategy — only
    the environment, the scenario policy, the event log, the in-flight
    ledger and the update buffer.
    """

    #: The engine's part of a checkpoint, each typed below.
    resumable = (
        "events",
        "_buffer",
        "_in_flight",
        "n_dispatched",
        "n_aggregation_events",
        "n_updates_absorbed",
        "_next_round",
        "_last_eval",
    )
    events: list[tuple[int, str, int, str | None]]
    _buffer: dict[int, tuple[int, ClientUpdate]]
    _in_flight: InFlightBuffer
    n_dispatched: int
    n_aggregation_events: int
    n_updates_absorbed: int
    _next_round: int
    _last_eval: tuple[float, np.ndarray]

    def __init__(
        self,
        env: "FederatedEnv",
        scenario: ScenarioConfig | None = None,
        phase: str = "training",
    ) -> None:
        self.env = env
        self.scenario = scenario or ScenarioConfig()
        self.phase = phase
        if self.scenario.min_clients > env.federation.n_clients:
            # Fail at construction, not rounds into the run: a floor
            # above the whole federation can never be met.
            raise ValueError(
                f"scenario min_clients ({self.scenario.min_clients}) exceeds "
                f"the federation size ({env.federation.n_clients})"
            )
        if self.scenario.min_survivors > env.federation.n_clients:
            raise ValueError(
                f"scenario min_survivors ({self.scenario.min_survivors}) "
                f"exceeds the federation size ({env.federation.n_clients}) "
                "— the quorum could never be met"
            )
        self.scenario.validate_for(env.federation.n_clients)
        #: Every client fate, in the order it happened: ``(round, kind,
        #: client id, reason)`` records (see the module docstring for the
        #: kinds).  Append-only.
        self.events: list[tuple[int, str, int, str | None]] = []
        #: Sent-but-undelivered work, keyed by delivery round (sync
        #: rounds deliver in their dispatch round).
        self._in_flight = InFlightBuffer()
        #: client id → (dispatch round, update) received but not yet
        #: aggregated, in arrival order: on-time arrivals and banked
        #: stragglers.
        self._buffer: dict[int, tuple[int, ClientUpdate]] = {}
        #: Tasks launched by every dispatch (retries and FedClust's
        #: clustering round included), and the aggregation counters.
        self.n_dispatched = 0
        self.n_aggregation_events = 0
        self.n_updates_absorbed = 0
        #: Run-state stash so ``engine.checkpoint(path)`` works without
        #: arguments mid-run (e.g. from an ``on_round_end`` hook).
        self._run_strategy: RoundStrategy | None = None
        self._run_history: RunHistory | None = None
        self._next_round = 1
        self._last_eval: tuple[float, np.ndarray] = (
            float("nan"),
            np.full(env.federation.n_clients, np.nan),
        )

    def _log(
        self, round_index: int, kind: str, client_ids: Sequence[int] | np.ndarray
    ) -> None:
        """Append one ``kind`` event per client id (no reason)."""
        self.events.extend((round_index, kind, int(c), None) for c in client_ids)

    @property
    def participation_log(self) -> list[tuple[int, list[int]]]:
        """``(round, dispatched client ids)`` per round that sent work,
        read from the ``participate`` events (quorum retries and barrier
        dispatches are not among them)."""
        sent = [(r, cid) for r, kind, cid, _ in self.events if kind == "participate"]
        return [
            (r, [cid for _, cid in group])
            for r, group in groupby(sent, key=lambda event: event[0])
        ]

    @property
    def is_async(self) -> bool:
        """True when the scenario runs the event-stream (FedBuff) loop."""
        return self.scenario.async_config is not None

    @property
    def admission_active(self) -> bool:
        """True when updates pass the admission scan before aggregation.

        Admission guards are armed by any hardening knob — corruption
        injection (the scenario *creates* non-finite rows), a norm
        bound, a robust aggregation rule, or a survivor quorum.  The
        default scenario skips the scan: a full-cohort finiteness pass
        reads the whole ``(cohort, n_params)`` plane every round
        (~27 ms at 64 × 395k), which is pure overhead on the
        bit-identical fast path the engine-overhead gate pins.
        """
        s = self.scenario
        return (
            s.corruption is not None
            or s.norm_bound is not None
            or s.robust_agg != "none"
            or s.min_survivors > 0
        )

    @property
    def robust_kwargs(self) -> dict:
        """Keyword arguments carrying the scenario's aggregation rule.

        Strategies splat this into every
        :func:`repro.algorithms.base.survivor_weighted_average` call so
        the robust-aggregation policy reaches all choke-point call
        sites without each strategy growing its own plumbing.
        """
        return {
            "robust_agg": self.scenario.robust_agg,
            "trim_fraction": self.scenario.trim_fraction,
        }

    # ------------------------------------------------------------------
    # Scenario middleware
    # ------------------------------------------------------------------
    def eligible_clients(self, round_index: int) -> np.ndarray:
        """Clients present in the federation as of ``round_index``.

        Intersection of the three presence schedules: arrived (arrival
        round ≤ now), not yet departed (departure round > now), and
        available per the trace (unlisted clients are always on).
        """
        m = self.env.federation.n_clients
        scenario = self.scenario
        arrivals = scenario.arrivals
        departures = scenario.departures
        trace = scenario.trace
        if not arrivals and not departures and trace is None:
            return np.arange(m)
        eligible = []
        for cid in range(m):
            if arrivals and arrivals.get(cid, 1) > round_index:
                continue
            if departures and cid in departures and departures[cid] <= round_index:
                continue
            if trace is not None and not trace.available(cid, round_index):
                continue
            eligible.append(cid)
        return np.array(eligible, dtype=np.int64)

    def arrivals_at(self, round_index: int) -> np.ndarray:
        """Clients whose arrival round is exactly ``round_index``."""
        arrivals = self.scenario.arrivals
        if not arrivals:
            return np.empty(0, dtype=np.int64)
        return np.array(
            sorted(cid for cid, r in arrivals.items() if r == round_index),
            dtype=np.int64,
        )

    def departures_at(self, round_index: int) -> np.ndarray:
        """Clients whose departure round is exactly ``round_index``."""
        departures = self.scenario.departures
        if not departures:
            return np.empty(0, dtype=np.int64)
        return np.array(
            sorted(cid for cid, r in departures.items() if r == round_index),
            dtype=np.int64,
        )

    def select_participants(
        self, round_index: int, exclude: Sequence[int] | None = None
    ) -> np.ndarray:
        """This round's participant set (sorted client ids).

        Full participation returns the eligible set unchanged; otherwise
        sampling draws from ``env.server_rng(round_index)`` — the same
        stream (and, with every client eligible, the same call) FedAvg's
        historical ``_participants`` used, so seeded sampled runs are
        reproduced exactly.

        ``exclude`` removes clients from the eligible pool before
        sampling — the round loop passes the in-flight set (always empty
        in synchronous rounds) so a client is never dispatched twice
        concurrently.  An empty/None exclusion leaves the draw sequence
        untouched.
        """
        eligible = self.eligible_clients(round_index)
        if exclude is not None and len(exclude) and eligible.size:
            gone = np.asarray(sorted(int(c) for c in exclude), dtype=np.int64)
            eligible = eligible[~np.isin(eligible, gone)]
        fraction = self.scenario.client_fraction
        if fraction >= 1.0 or eligible.size <= 1:
            return eligible
        rng = self.env.server_rng(round_index)
        if eligible.size == self.env.federation.n_clients:
            return uniform_sample(
                eligible.size, fraction, rng, self.scenario.min_clients
            )
        return sample_from(eligible, fraction, rng, self.scenario.min_clients)

    def _apply_failures(
        self, tasks: Sequence[UpdateTask], round_index: int
    ) -> tuple[list[UpdateTask], list[int]]:
        """Seeded pre-training drops (the :data:`FAILURE_TAG` stream)."""
        rate = self.scenario.failure_rate
        if rate <= 0.0 or not tasks:
            return list(tasks), []
        alive, failed = [], []
        for task in tasks:
            u = rng_for(
                self.env.seed, FAILURE_TAG, round_index, task.client_id
            ).random()
            (alive if u >= rate else failed).append(task)
        if not alive:
            # Guarantee progress: keep the deterministically-first client.
            keep = min(failed, key=lambda t: t.client_id)
            alive = [keep]
            failed = [t for t in failed if t is not keep]
        return alive, sorted(t.client_id for t in failed)

    def _apply_stragglers(
        self, updates: list[ClientUpdate], round_index: int
    ) -> tuple[list[ClientUpdate], list[ClientUpdate]]:
        """Seeded post-training deadline misses (independent stream)."""
        rate = self.scenario.straggler_rate
        if rate <= 0.0 or not updates:
            return updates, []
        on_time, late = [], []
        for update in updates:
            u = rng_for(
                self.env.seed, STRAGGLER_TAG, round_index, update.client_id
            ).random()
            (on_time if u >= rate else late).append(update)
        if not on_time:
            keep = min(late, key=lambda u: u.client_id)
            on_time = [keep]
            late = [u for u in late if u is not keep]
        return on_time, late

    def _apply_budgets(self, tasks: Sequence[UpdateTask], round_index: int) -> None:
        """Stamp each task with its seeded per-(round, client) step cap.

        Draws are uniform over the configured ``[lo, hi]`` on an
        independent stream (tag :data:`BUDGET_TAG`), so the budget
        schedule is reproducible across executors and compositions.  A
        caller-set ``max_steps`` on a task is only ever tightened.
        """
        budget = self.scenario.compute_budget
        if budget is None:
            return
        lo, hi = budget
        for task in tasks:
            drawn = int(
                rng_for(
                    self.env.seed, BUDGET_TAG, round_index, task.client_id
                ).integers(lo, hi + 1)
            )
            task.max_steps = (
                drawn if task.max_steps is None else min(task.max_steps, drawn)
            )

    # ------------------------------------------------------------------
    # Dispatch: a send half and a receive half
    # ------------------------------------------------------------------
    def _send(
        self,
        tasks: Sequence[UpdateTask],
        round_index: int,
        phase: str,
        charge_download: bool,
    ) -> list[ClientUpdate]:
        """Launch a task list; returns the finished updates.

        Downloads are charged for **every** task — a client that fails
        mid-round already consumed the broadcast.  The clients that
        survive the failure draw train under their budget caps, and
        corruption fires on the returned rows, keyed by this dispatch
        round.
        """
        env = self.env
        self.n_dispatched += len(tasks)
        if charge_download and tasks:
            env.tracker.record_download(env.n_params * len(tasks), phase)
        alive, failed_ids = self._apply_failures(tasks, round_index)
        self._log(round_index, "drop", failed_ids)
        self._apply_budgets(alive, round_index)
        updates = env.run_updates(alive, round_index)
        updates = self._apply_corruption(updates, round_index)
        if self.scenario.compute_budget is not None:
            # FedNova-style renormalisation: weight by steps actually
            # taken, so a budget-truncated client counts for what it
            # computed and a zero-step client counts for nothing.
            for update in updates:
                update.weight = float(update.n_batches)
        return updates

    def _receive(
        self,
        updates: list[ClientUpdate],
        round_index: int,
        phase: str,
        charge_upload: bool,
    ) -> DispatchOutcome:
        """Take delivered updates in: upload charge, admission, deadline.

        Uploads are charged for every delivered update: stragglers
        uploaded too, just late, and a quarantined row's bytes crossed
        the network.  Admission runs before the straggler split, so a
        quarantined client is neither a survivor nor a straggler, and
        nothing downstream ever holds a rejected row.
        """
        env = self.env
        if charge_upload and updates:
            env.tracker.record_upload(env.n_params * len(updates), phase)
        updates = self._admit(updates, round_index)
        survivors, late = self._apply_stragglers(updates, round_index)
        self._log(round_index, "straggle", sorted(u.client_id for u in late))
        return DispatchOutcome(
            survivors=survivors,
            # Keep the late updates alive only when stale folding banks
            # them — otherwise they must die here (buffer-lifetime
            # hygiene: dead cohort-sized buffers cost page faults).
            late=late if self.scenario.staleness_decay > 0.0 else [],
        )

    def dispatch(
        self,
        tasks: Sequence[UpdateTask],
        round_index: int,
        phase: str | None = None,
        charge_download: bool = True,
        charge_upload: bool = True,
    ) -> DispatchOutcome:
        """Send ``tasks`` and receive every update at once: a barrier.

        The primitive for work that must finish inside the call —
        FedClust's clustering round (through :meth:`dispatch_with_retry`)
        and quorum retries; the round loop itself routes its updates
        through the in-flight ledger instead.  ``charge_upload=False``
        lets callers with partial-weight uploads (FedClust's clustering
        round) account the upload themselves.
        """
        phase = self.phase if phase is None else phase
        updates = self._send(tasks, round_index, phase, charge_download)
        return self._receive(updates, round_index, phase, charge_upload)

    def _apply_corruption(
        self, updates: list[ClientUpdate], round_index: int
    ) -> list[ClientUpdate]:
        """Corruption middleware: seeded per-(round, client) mangling."""
        corruption = self.scenario.corruption
        if corruption is None or not updates:
            return updates
        seed = self.env.seed
        return [maybe_corrupt(u, seed, round_index, corruption) for u in updates]

    def _admit(
        self, updates: list[ClientUpdate], round_index: int
    ) -> list[ClientUpdate]:
        """Admission middleware: quarantine rows the server won't fold."""
        if not self.admission_active:
            return updates
        admitted, rejected = admit_updates(updates, self.scenario.norm_bound)
        self.events.extend(
            (round_index, "quarantine", cid, reason) for cid, reason in rejected
        )
        return admitted

    def _delivery_rounds(
        self, updates: Sequence[ClientUpdate], round_index: int
    ) -> list[int]:
        """The round each sent update reaches the server.

        Synchronous rounds deliver in the dispatch round and draw
        nothing.  Under :class:`AsyncConfig` every update draws a seeded
        per-(dispatch round, client) duration (tag :data:`DURATION_TAG`)
        of ``duration_range`` server steps; a duration of 1 delivers in
        the dispatch round.
        """
        cfg = self.scenario.async_config
        if cfg is None:
            return [round_index] * len(updates)
        lo, hi = cfg.duration_range
        return [
            round_index
            - 1
            + int(
                rng_for(
                    self.env.seed, DURATION_TAG, round_index, update.client_id
                ).integers(lo, hi + 1)
            )
            for update in updates
        ]

    def dispatch_with_retry(
        self,
        make_tasks: "Callable[[list[int]], list[UpdateTask]]",
        targets: Sequence[int],
        round_index: int,
        max_attempts: int,
        phase: str | None = None,
        charge_download: bool = True,
        charge_upload: bool = True,
    ) -> tuple[dict[int, ClientUpdate], list[int]]:
        """Dispatch ``targets`` with up to ``max_attempts`` seeded epochs.

        The retry derivation FedClust's clustering round pioneered, as
        an engine primitive: attempt ``a`` dispatches the still-pending
        clients at epoch ``round_index + RETRY_EPOCH_STRIDE × a``, so every
        attempt rolls fresh failure/straggler/budget/corruption dice on
        the stateless streams without colliding with any real round.
        ``make_tasks`` receives the pending client ids (in their
        original ``targets`` order) and builds the attempt's task list.

        Returns ``(collected, pending)``: one admitted update per
        responding client (first response wins) and the clients that
        never responded within the attempt budget.  Drop, straggle and
        quarantine events log under the derived epoch, exactly like a
        plain :meth:`dispatch`.
        """
        collected: dict[int, ClientUpdate] = {}
        pending = [int(c) for c in targets]
        for attempt in range(max_attempts):
            if not pending:
                break
            attempt_round = round_index + RETRY_EPOCH_STRIDE * attempt
            outcome = self.dispatch(
                make_tasks(pending),
                attempt_round,
                phase=phase,
                charge_download=charge_download,
                charge_upload=charge_upload,
            )
            for update in outcome.survivors:
                collected[update.client_id] = update
            pending = [cid for cid in pending if cid not in collected]
        return collected, pending

    # ------------------------------------------------------------------
    # The round lifecycle
    # ------------------------------------------------------------------
    def run(
        self,
        strategy: RoundStrategy,
        n_rounds: int,
        history: RunHistory,
        first_round: int = 1,
        eval_every: int = 1,
    ) -> tuple[float, np.ndarray]:
        """Run ``n_rounds`` engine rounds, appending to ``history``.

        Synchronous and async rounds share this body.  Each round:
        departures and arrivals; participant selection (clients still in
        flight are skipped, and ``max_concurrency`` caps how many are
        sent work); broadcast; the send half of dispatch; the in-flight
        ledger; the receive half for every update due this round, with
        quorum retries; the buffer; and an aggregation event — every
        round when synchronous, at ``buffer_size`` buffered updates or
        in the final round under :class:`AsyncConfig`.  Client results
        are computed eagerly at dispatch (they depend only on the seeded
        (dispatch round, client) streams and the broadcast payload, so
        the executor kind cannot change them) and merely *delivered*
        late.  Work still in flight after the last round is abandoned
        (server shutdown).

        Returns the last evaluation ``(mean accuracy, per-client
        accuracies)``; the final round is always evaluated.  Rounds off
        the ``eval_every`` cadence record ``mean_local_accuracy`` as NaN
        with ``evaluated=False`` — a history distinguishes "measured"
        from "not measured this round" instead of silently carrying the
        previous evaluation forward.  Rounds without an aggregation event
        record a NaN train loss and leave the server state alone.
        """
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        if eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every}")
        last_round = first_round + n_rounds - 1
        if last_round >= RETRY_EPOCH_STRIDE:
            raise ValueError(
                f"round {last_round} reaches the retry-epoch stride "
                f"{RETRY_EPOCH_STRIDE:,}: its retries would reuse real rounds' "
                "seeded streams"
            )
        env = self.env
        cfg = self.scenario.async_config
        decay = self.scenario.staleness_decay
        mean_acc, per_client = float("nan"), np.full(env.federation.n_clients, np.nan)
        start_round, restored = self._maybe_resume(strategy, history, first_round)
        if restored is not None:
            mean_acc, per_client = restored
            if start_round > last_round:
                return mean_acc, per_client

        for round_index in range(start_round, last_round + 1):
            t0 = time.perf_counter()
            first_event = len(self.events)
            departed = self.departures_at(round_index)
            if departed.size:
                self._log(round_index, "depart", departed)
                strategy.on_departures(self, round_index, departed)
            arrived = self.arrivals_at(round_index)
            if arrived.size:
                strategy.on_arrivals(self, round_index, arrived)
            participants = self.select_participants(
                round_index, exclude=self._in_flight.client_ids
            )
            if cfg is not None and cfg.max_concurrency is not None:
                slots = cfg.max_concurrency - len(self._in_flight)
                participants = participants[: max(0, slots)]
            self._log(round_index, "participate", participants)
            tasks = strategy.broadcast_for(self, round_index, participants)
            charge = strategy.charges_communication
            updates = self._send(tasks, round_index, self.phase, charge)
            self._in_flight.add(
                updates, round_index, self._delivery_rounds(updates, round_index)
            )
            due = self._in_flight.collect_due(round_index)
            # A client is never in flight twice, so ids map back to their
            # dispatch round unambiguously.
            sent_in = {update.client_id: sent for sent, update in due}
            received = self._receive(
                [update for _, update in due], round_index, self.phase, charge
            )
            quorum_failed = self._retry_for_quorum(
                strategy, round_index, participants, received, charge
            )
            if not quorum_failed:
                # A newer arrival replaces the client's buffered update
                # and queues behind the others (the older upload was
                # still charged — it did cross the network).  A round
                # below quorum drops its own on-time work instead.
                for update in received.survivors:
                    self._buffer.pop(update.client_id, None)
                    self._buffer[update.client_id] = (
                        sent_in.get(update.client_id, round_index),
                        update,
                    )
            if cfg is None:
                aggregation_event = not quorum_failed
            else:
                aggregation_event = len(self._buffer) >= cfg.buffer_size or (
                    round_index == last_round and bool(self._buffer)
                )
            train_loss = float("nan")
            folded: list[ClientUpdate] = []
            stale_ids: list[int] = []
            if aggregation_event:
                # Stale updates fold as discounted *copies*, so a path
                # that observes the same update twice never compounds
                # the decay.  Zero decay means undiscounted here: only
                # async buffers an older update without a decay.
                discount = decay if decay > 0.0 else 1.0
                for sent, update in self._buffer.values():
                    if sent < round_index:
                        stale_ids.append(update.client_id)
                        update = discounted_update(update, discount, round_index - sent)
                    folded.append(update)
                self._buffer.clear()
                self._log(round_index, "stale", sorted(stale_ids))
                train_loss = strategy.aggregate(self, round_index, folded)
                self.n_aggregation_events += 1
                self.n_updates_absorbed += len(folded)
            # Stragglers (kept only when decay > 0) bank after the event,
            # for a later one.
            for update in received.late:
                self._buffer.pop(update.client_id, None)
                self._buffer[update.client_id] = (round_index, update)
            evaluated = round_index == last_round or round_index % eval_every == 0
            if evaluated:
                mean_acc, per_client = strategy.evaluate(self, round_index)
            self._next_round = round_index + 1
            self._last_eval = (mean_acc, per_client)
            fates = Counter(kind for _, kind, _, _ in self.events[first_event:])
            history.append(
                RoundRecord(
                    round_index=round_index,
                    mean_train_loss=train_loss,
                    mean_local_accuracy=mean_acc if evaluated else float("nan"),
                    n_participants=len(participants),
                    n_clusters=strategy.current_n_clusters(),
                    uploaded_params=env.tracker.total_uploaded,
                    downloaded_params=env.tracker.total_downloaded,
                    wall_seconds=time.perf_counter() - t0,
                    n_stale=fates["stale"],
                    n_departed=fates["depart"],
                    n_buffered=len(self._buffer),
                    n_quarantined=fates["quarantine"],
                    aggregation_event=aggregation_event,
                    quorum_failed=quorum_failed,
                    evaluated=evaluated,
                )
            )
            strategy.on_round_end(
                self,
                RoundOutcome(
                    round_index=round_index,
                    participants=participants,
                    survivors=folded,
                    train_loss=train_loss,
                    evaluated=evaluated,
                    mean_accuracy=mean_acc,
                ),
            )
            self._maybe_checkpoint(round_index, last_round)
            # Drop this round's rows so their plane is freed before the
            # next round trains; banked updates stay in the buffer and
            # ledger.
            updates = due = received = folded = update = None
        return mean_acc, per_client

    def _retry_for_quorum(
        self,
        strategy: RoundStrategy,
        round_index: int,
        participants: np.ndarray,
        dispatched: DispatchOutcome,
        charge: bool,
    ) -> bool:
        """Redispatch the failed/quarantined remainder toward quorum.

        Each attempt re-broadcasts (download re-charged — a retry is a
        real network event) to the participants that have delivered
        nothing yet — neither an admitted update nor a banked late
        one — on the fresh seeded epoch ``round + RETRY_EPOCH_STRIDE × attempt``
        (attempt ≥ 1; the original dispatch was attempt 0).  Responses
        merge into ``dispatched`` in place.  Retry dispatches log no
        ``participate`` events: :meth:`realized_trace` captures the
        primary schedule, not the recovery traffic (their drop, straggle
        and quarantine events carry the derived epochs).  Returns True
        when the round is still below quorum.
        """
        quorum = self.scenario.min_survivors
        if quorum == 0 or not participants.size:
            return False
        for attempt in range(1, self.scenario.max_retries + 1):
            if len(dispatched.survivors) >= quorum:
                break
            delivered = {u.client_id for u in dispatched.survivors + dispatched.late}
            remainder = np.array(
                [int(c) for c in participants if int(c) not in delivered],
                dtype=np.int64,
            )
            if not remainder.size:
                break
            retry_round = round_index + RETRY_EPOCH_STRIDE * attempt
            tasks = strategy.broadcast_for(self, retry_round, remainder)
            outcome = self.dispatch(
                tasks,
                retry_round,
                charge_download=charge,
                charge_upload=charge,
            )
            dispatched.survivors.extend(outcome.survivors)
            dispatched.late.extend(outcome.late)
        return len(dispatched.survivors) < quorum

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def _maybe_resume(
        self, strategy: RoundStrategy, history: RunHistory, first_round: int
    ) -> tuple[int, tuple[float, np.ndarray] | None]:
        """Resume from the configured checkpoint file if asked and present.

        Returns ``(start round, restored last-eval or None)``.  A
        missing file is not an error: the same invocation then runs
        from scratch, which is what a crash-restart wrapper wants.
        """
        self._run_strategy, self._run_history = strategy, history
        ckpt = self.scenario.checkpoint
        if ckpt is None or not ckpt.resume or not ckpt.path.exists():
            return first_round, None
        next_round, mean_acc, per_client = self.resume(
            ckpt.path, strategy, history
        )
        return max(first_round, next_round), (mean_acc, per_client)

    def _maybe_checkpoint(self, round_index: int, last_round: int) -> None:
        """Write the configured checkpoint on its cadence (final round
        always writes)."""
        ckpt = self.scenario.checkpoint
        if ckpt is None:
            return
        if round_index % ckpt.every == 0 or round_index == last_round:
            self.checkpoint(ckpt.path)

    def _owners(
        self, strategy: RoundStrategy, history: RunHistory
    ) -> dict[str, object]:
        """Everything a checkpoint holds, by header section: each owner
        declares its part in ``resumable``."""
        if strategy.resumable is None:
            raise NotImplementedError(
                f"strategy {strategy.name!r} declares no resumable state, so "
                "it cannot be checkpointed"
            )
        return {
            "engine": self,
            "strategy": strategy,
            "tracker": self.env.tracker,
            "history": history,
        }

    def identity(self, strategy: RoundStrategy, history: RunHistory) -> dict:
        """What a checkpoint must share with the run that resumes it.

        FedAvg, FedProx and PACFL share one strategy, so the history's
        algorithm name tells their files apart, and the strategy adds
        its own settings (:meth:`RoundStrategy.identity`, such as
        FedProx's μ).  OpenBLAS's thread count changes how large GEMMs
        sum, so a file written at another count is refused too.
        """
        env = self.env
        return {
            "seed": int(env.seed),
            "strategy": strategy.name,
            "algorithm": history.algorithm,
            "n_clients": int(env.federation.n_clients),
            "n_params": int(env.n_params),
            "scenario": self.scenario.to_dict(),
            "blas_threads": blas_threads(),
            **strategy.identity(),
        }

    def checkpoint(
        self,
        path: "str | Path | None" = None,
        strategy: RoundStrategy | None = None,
        history: RunHistory | None = None,
    ) -> "Path":
        """Write a resumable checkpoint of the whole run state.

        The file holds :meth:`identity` and the state each owner
        declares in ``resumable``: the engine (event log, update buffer,
        in-flight ledger, counters, next round, last evaluation), the
        strategy, the traffic tracker and the history records.  Each
        update row keeps its own dtype, so a corrupted float64 copy
        awaiting admission survives.  The rng "state" is just the seed
        and the round counter: every stream is stateless in (seed, tag,
        round, client).

        Called automatically on the :class:`CheckpointConfig` cadence
        during :meth:`run`; callable directly mid-run (the strategy and
        history default to the ones of the active run) or standalone
        with explicit arguments.
        """
        strategy = strategy if strategy is not None else self._run_strategy
        history = history if history is not None else self._run_history
        if strategy is None or history is None:
            raise ValueError(
                "checkpoint() outside an active run needs explicit "
                "strategy/history arguments"
            )
        if path is None:
            if self.scenario.checkpoint is None:
                raise ValueError(
                    "checkpoint() needs a path: pass one or configure "
                    "ScenarioConfig.checkpoint"
                )
            path = self.scenario.checkpoint.path
        return save_state(
            path, self.identity(strategy, history), self._owners(strategy, history)
        )

    def resume(
        self,
        path: "str | Path",
        strategy: RoundStrategy,
        history: RunHistory,
    ) -> tuple[int, float, np.ndarray]:
        """Restore a checkpoint written by :meth:`checkpoint`.

        The file's identity must equal this run's :meth:`identity` key
        by key, or :class:`repro.fl.checkpoint.CheckpointError` quotes
        the key and both values.  The declared state is restored in
        place, ``history.records`` wholesale (FedClust re-runs its
        round-1 clustering before resuming, and converges on the file),
        and ``(next round, last mean accuracy, last per-client
        accuracies)`` is returned.
        """
        load_state(
            path, self.identity(strategy, history), self._owners(strategy, history)
        )
        return self._next_round, *self._last_eval

    # ------------------------------------------------------------------
    # Realized-schedule capture
    # ------------------------------------------------------------------
    def realized_trace(self) -> AvailabilityTrace:
        """The schedule this engine actually executed, as a trace.

        Per client, the rounds in which it *delivered on time*:
        dispatched (``participate`` events) minus seeded failures and
        deadline misses (``drop`` and ``straggle`` events).  Every
        client of the federation is listed — including never-dispatched
        ones with an empty round set — so replaying the trace through a
        fresh ``ScenarioConfig(trace=..., client_fraction=1.0)``
        reproduces exactly the original survivor cohorts without
        re-rolling any failure/straggler/sampling dice.  (Replay equivalence covers
        the aggregation stream; scenarios that *fold* straggler work
        late — ``staleness_decay > 0`` — deliver extra stale updates
        the trace deliberately does not re-create.)
        """
        m = self.env.federation.n_clients
        rounds: dict[int, set[int]] = {cid: set() for cid in range(m)}
        missed = {
            (round_index, cid)
            for round_index, kind, cid, _ in self.events
            if kind in ("drop", "straggle")
        }
        for round_index, kind, cid, _ in self.events:
            if kind == "participate" and (round_index, cid) not in missed:
                rounds[cid].add(round_index)
        return AvailabilityTrace(rounds)

    # ------------------------------------------------------------------
    # Run-record export
    # ------------------------------------------------------------------
    def run_record(self) -> dict:
        """Versioned JSON-ready summary of the engine's scenario counters.

        The export hook the ablation harness
        (:mod:`repro.experiments.ablation`) records per run: the count
        of each event kind (the events themselves stay on the engine for
        callers that need the per-round detail), the quarantine reasons
        broken out by code, the dispatch and aggregation counters, and
        the traffic totals.  ``n_dispatched`` counts every task sent,
        retries and FedClust's clustering round included, so it bounds
        the drop, straggler and quarantine counts from above.
        Algorithms attach it to ``RunResult.extras["engine_record"]`` so
        every run — regardless of strategy — reports the same counter
        schema.
        """
        counts = Counter(kind for _, kind, _, _ in self.events)
        reasons: dict[str, int] = {}
        for _, kind, _, reason in self.events:
            if kind == "quarantine":
                reasons[reason] = reasons.get(reason, 0) + 1
        return {
            "schema": 2,
            "async": self.is_async,
            "n_dispatched": int(self.n_dispatched),
            "n_dropped": counts["drop"],
            "n_stragglers": counts["straggle"],
            "n_stale_folded": counts["stale"],
            "n_departed": counts["depart"],
            "n_quarantined": counts["quarantine"],
            "quarantine_reasons": reasons,
            "n_aggregation_events": int(self.n_aggregation_events),
            "n_updates_absorbed": int(self.n_updates_absorbed),
            "uploaded_params": int(self.env.tracker.total_uploaded),
            "downloaded_params": int(self.env.tracker.total_downloaded),
        }
