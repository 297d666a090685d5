"""Span tracer that times the program's layers from outside.

Nothing under ``src/`` knows about it.  :meth:`Tracer.installed` patches
a wrapper onto the binding each caller actually uses (a class attribute
for methods, the importing module's global for functions — e.g.
``repro.algorithms.base.robust_weighted_average``, not the
``repro.fl.defense`` original) and restores every original on exit.

Two kinds of wrapper:

* **span** — one record per call: name, start, end, parent span id,
  engine round id and self time (duration minus the time its children
  cover).  Used at layer boundaries: engine stages, training dispatch,
  evaluation, aggregation, clustering.
* **kernel** — ``nn`` kernels and other per-batch or per-row calls are
  folded into per-(parent span, name) accumulators of call count, total
  and self time.  The population workload makes ~10^6 such calls; a
  span each would swamp both memory and the run.

Engine rounds have no call of their own, so the round is a span opened
when ``RoundEngine.departures_at`` (the first call of every round)
returns and closed when the engine appends the round's record to the
``RunHistory``; every span inside carries that round's id.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from collections import defaultdict
from typing import Callable, Iterator

__all__ = ["Tracer", "layer_metrics", "round_table", "format_round_table"]

ROUND = "fl.rounds.round"
ROOT = "run"


class Tracer:
    """In-memory spans plus folded kernel accumulators.

    A stack frame is ``[span id or -1 for a kernel, owning span id,
    time covered by children, name, start, enclosing span id]``; a
    span owns itself, a kernel is owned by the nearest enclosing span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: (id, name, start, end, parent id, round, self seconds)
        self.spans: list[tuple] = []
        #: (owning span id, kernel name) -> [calls, total s, self s]
        self.folded: dict[tuple, list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.round: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _push(self, name: str, is_span: bool) -> list:
        stack = self._stack
        owner = stack[-1][1] if stack else None
        if is_span:
            sid = self._next_id
            self._next_id += 1
            frame = [sid, sid, 0.0, name, 0.0, owner]
        else:
            frame = [-1, owner, 0.0, name, 0.0, owner]
        stack.append(frame)
        frame[4] = self.clock()
        return frame

    def _pop(self, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - frame[4]
        if frame[0] >= 0:
            self.spans.append(
                (frame[0], frame[3], frame[4], end, frame[5], self.round,
                 duration - frame[2])
            )
        else:
            acc = self.folded.get((frame[1], frame[3]))
            if acc is None:
                acc = self.folded[(frame[1], frame[3])] = [0, 0.0, 0.0]
            acc[0] += 1
            acc[1] += duration
            acc[2] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span."""
        frame = self._push(name, True)
        try:
            yield
        finally:
            self._pop(frame)

    def inside(self, name: str) -> bool:
        """True while a span or kernel called ``name`` is open."""
        return any(frame[3] == name for frame in self._stack)

    def begin_round(self, round_index: int) -> None:
        self._push(ROUND, True)
        self.round = int(round_index)

    def end_round(self) -> None:
        if self._stack and self._stack[-1][3] == ROUND:
            self._pop(self._stack[-1])
            self.round = None

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str, is_span: bool, observe=None) -> Callable:
        push, pop = self._push, self._pop

        def wrapper(*args, **kwargs):
            frame = push(name, is_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(frame)
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target for the duration of the ``with`` body."""
        try:
            for owner, attr, name, is_span, observe in _targets():
                self._patch(owner, attr, self.wrap(owner.__dict__[attr], name, is_span, observe))
            rounds = importlib.import_module("repro.fl.rounds").RoundEngine
            history = importlib.import_module("repro.fl.history").RunHistory
            departures_at = rounds.__dict__["departures_at"]
            append = history.__dict__["append"]

            def round_start(engine, round_index):
                result = departures_at(engine, round_index)
                self.begin_round(round_index)
                return result

            def round_end(hist, record):
                self.end_round()
                return append(hist, record)

            self._patch(rounds, "departures_at", round_start)
            self._patch(history, "append", round_end)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------
def _count_updates(tracer: Tracer, args: tuple, updates: list) -> None:
    env, tasks = args[0], args[1]
    steps = sum(u.n_batches for u in updates)
    c = tracer.counters
    c["client_updates"] += len(updates)
    c["sgd_steps"] += steps
    split = getattr(env.executor, "last_dispatch", None)
    if split:
        c["batched_clients"] += split.get("batched", 0)
        c["serial_clients"] += split.get("serial", 0)
    else:
        c["serial_clients"] += len(tasks)
    if tracer.inside("core.warmup"):
        c["warmup_steps"] += steps


def _count_padding(tracer: Tracer, args: tuple, updates: list) -> None:
    if not updates:
        return
    steps = [u.n_batches for u in updates]
    tracer.counters["cohorts"] += 1
    tracer.counters["lockstep_useful"] += sum(steps)
    tracer.counters["lockstep_slots"] += len(steps) * max(steps)


def _count_eval(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["eval_samples"] += sum(c.n_test for c in args[0].federation.clients)


def _count_rows(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["aggregation_rows"] += len(args[1])


def _signature_dim(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["signature_dim"] = args[0].shape[1]


def _n_clusters(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["n_clusters"] = result.n_clusters


_NN_KERNELS = {
    "repro.nn.layers.conv": {"Conv2d": ("forward", "backward")},
    "repro.nn.layers.pool": {"MaxPool2d": ("forward", "backward")},
    "repro.nn.layers.activation": {"ReLU": ("forward", "backward")},
    "repro.nn.layers.linear": {"Linear": ("forward", "backward")},
    "repro.nn.loss": {"CrossEntropyLoss": ("forward", "backward")},
    "repro.nn.optim": {"SGD": ("step",)},
    "repro.nn.batched": {
        "BatchedLinear": ("forward", "backward"),
        "BatchedActivation": ("forward", "backward"),
        "BatchedCrossEntropyLoss": ("forward", "backward"),
        "BatchedSGD": ("step",),
        "FactoredParam": ("materialize",),
    },
}

# (module, class or "" for a module global, attribute, trace name, observer)
_SPANS = (
    ("repro.fl.rounds", "RoundEngine", "run", "fl.rounds.run", None),
    ("repro.fl.rounds", "RoundEngine", "select_participants", "fl.rounds.select", None),
    ("repro.fl.rounds", "RoundEngine", "dispatch", "fl.rounds.dispatch", None),
    ("repro.fl.rounds", "RoundEngine", "dispatch_with_retry", "core.warmup", None),
    ("repro.fl.rounds", "", "admit_updates", "fl.defense.admit", None),
    ("repro.fl.simulation", "FederatedEnv", "run_updates", "fl.parallel.train", _count_updates),
    ("repro.fl.simulation", "FederatedEnv", "evaluate_packed", "fl.eval_flat.eval", _count_eval),
    ("repro.fl.simulation", "FederatedEnv", "evaluate_assignment", "fl.eval_flat.eval", _count_eval),
    ("repro.fl.simulation", "FederatedEnv", "mean_local_accuracy", "fl.eval_flat.eval", _count_eval),
    ("repro.fl.train_flat", "", "train_cohort_flat", "fl.train_flat.cohort", _count_padding),
    ("repro.algorithms.base", "", "cohort_matrix", "fl.aggregation.stack", _count_rows),
    ("repro.core.fedclust", "", "cohort_matrix", "fl.aggregation.stack", _count_rows),
    ("repro.algorithms.base", "", "robust_weighted_average", "fl.aggregation.reduce", None),
    ("repro.core.fedclust", "FedClust", "clustering_round", "core.clustering_round", None),
    ("repro.core.fedclust", "", "proximity_matrix", "core.proximity", _signature_dim),
    ("repro.core.fedclust", "", "cluster_clients", "core.cluster", _n_clusters),
)
# (module, class or "" for a module global, attribute, trace name)
_KERNELS = (
    ("repro.nn.state_flat", "StateLayout", "pack", "nn.state_flat.pack"),
    ("repro.nn.state_flat", "StateLayout", "round_trip", "nn.state_flat.round_trip"),
    ("repro.fl.store", "ClientStateStore", "get", "fl.store.get"),
    ("repro.fl.store", "ClientStateStore", "set", "fl.store.set"),
    ("repro.fl.store", "ClientStateStore", "rows", "fl.store.rows"),
    ("repro.fl.rounds", "", "maybe_corrupt", "fl.defense.corrupt"),
)
_STRATEGY_HOOKS = {
    "broadcast_for": "fl.rounds.broadcast",
    "aggregate": "fl.rounds.aggregate",
    "evaluate": "fl.rounds.evaluate",
}


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _targets() -> list[tuple]:
    """(owner, attribute, trace name, span?, observer) for every patch."""
    out = []
    for module, owner, attr, name, observe in _SPANS:
        mod = importlib.import_module(module)
        out.append((getattr(mod, owner) if owner else mod, attr, name, True, observe))
    for module, owner, attr, name in _KERNELS:
        mod = importlib.import_module(module)
        out.append((getattr(mod, owner) if owner else mod, attr, name, False, None))
    for module, classes in _NN_KERNELS.items():
        mod = importlib.import_module(module)
        for cls, methods in classes.items():
            for method in methods:
                out.append((getattr(mod, cls), method, f"nn.{cls}.{method}", False, None))
    # Strategy hooks: every RoundStrategy subclass that defines one,
    # including ones defined outside src/ (the population workload's).
    # The registry imports every algorithm, so all of src/'s are loaded.
    importlib.import_module("repro.algorithms.registry")
    base = importlib.import_module("repro.fl.rounds").RoundStrategy
    for cls in _subclasses(base):
        for attr, name in _STRATEGY_HOOKS.items():
            if attr in cls.__dict__:
                out.append((cls, attr, name, True, None))
    return out


def patch_points() -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer patches, for restoration checks."""
    rounds = importlib.import_module("repro.fl.rounds").RoundEngine
    history = importlib.import_module("repro.fl.history").RunHistory
    points = [(owner, attr) for owner, attr, *_ in _targets()]
    return points + [(rounds, "departures_at"), (history, "append")]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
_SERIAL_NN = ("Conv2d", "MaxPool2d", "ReLU", "Linear", "CrossEntropyLoss")
_BATCHED_NN = ("BatchedLinear", "BatchedActivation", "BatchedCrossEntropyLoss")


def _totals(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per name: busy seconds, self seconds, calls."""
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for _, name, start, end, _, _, self_s in tracer.spans:
        busy[name] += end - start
        own[name] += self_s
        calls[name] += 1
    for (_, name), (n, total, self_s) in tracer.folded.items():
        busy[name] += total
        own[name] += self_s
        calls[name] += n
    return busy, own, calls


def layer_metrics(tracer: Tracer, outcome) -> dict[str, float]:
    """Every per-layer value of one traced run but the overhead.

    The names and units are declared in ``BENCHMARK.json``.
    ``trace.overhead_pct`` compares traced with untraced runs, so the
    caller adds it.  The self times of all spans and kernels sum to the
    traced run's wall time; ``trace.unattributed_ms`` is the part no
    wrapped call covers.
    """
    busy, own, calls = _totals(tracer)
    c = tracer.counters
    rec = outcome.engine_record
    ms = 1e3
    m: dict[str, float] = {
        "fl.rounds.rounds": calls[ROUND],
        "fl.rounds.select_ms": own["fl.rounds.select"] * ms,
        "fl.rounds.broadcast_ms": own["fl.rounds.broadcast"] * ms,
        "fl.rounds.dispatch_self_ms": (own["fl.rounds.dispatch"] + own["core.warmup"]) * ms,
        "fl.rounds.aggregate_self_ms": own["fl.rounds.aggregate"] * ms,
        "fl.rounds.evaluate_self_ms": own["fl.rounds.evaluate"] * ms,
        "fl.rounds.loop_self_ms": (own[ROUND] + own["fl.rounds.run"]) * ms,
        "fl.rounds.dispatched": rec["n_dispatched"],
        "fl.rounds.dropped": rec["n_dropped"],
        "fl.rounds.stragglers": rec["n_stragglers"],
        "fl.rounds.stale_folded": rec["n_stale_folded"],
        "fl.rounds.quarantined": rec["n_quarantined"],
        "fl.rounds.aggregation_events": rec["n_aggregation_events"],
        "fl.rounds.updates_absorbed": rec["n_updates_absorbed"],
        "fl.parallel.train_ms": busy["fl.parallel.train"] * ms,
        "fl.parallel.train_self_ms": own["fl.parallel.train"] * ms,
        "fl.parallel.steps_per_s": (
            c["sgd_steps"] / busy["fl.parallel.train"] if busy["fl.parallel.train"] else 0.0
        ),
        "fl.parallel.client_updates": c["client_updates"],
        "fl.parallel.sgd_steps": c["sgd_steps"],
        "fl.parallel.batched_clients": c["batched_clients"],
        "fl.parallel.serial_clients": c["serial_clients"],
        "fl.train_flat.cohort_self_ms": own["fl.train_flat.cohort"] * ms,
        "fl.train_flat.cohorts": c["cohorts"],
        "fl.train_flat.padding_frac": (
            1.0 - c["lockstep_useful"] / c["lockstep_slots"] if c["lockstep_slots"] else 0.0
        ),
        "nn.SGD.step_ms": own["nn.SGD.step"] * ms,
        "nn.Conv2d.calls": calls["nn.Conv2d.forward"],
        "nn.BatchedSGD.step_ms": own["nn.BatchedSGD.step"] * ms,
        "nn.FactoredParam.materialize_ms": own["nn.FactoredParam.materialize"] * ms,
        "nn.BatchedLinear.calls": calls["nn.BatchedLinear.forward"],
        "nn.state_flat.pack_ms": (
            own["nn.state_flat.pack"] + own["nn.state_flat.round_trip"]
        ) * ms,
        "fl.eval_flat.eval_ms": busy["fl.eval_flat.eval"] * ms,
        "fl.eval_flat.eval_self_ms": own["fl.eval_flat.eval"] * ms,
        "fl.eval_flat.samples": c["eval_samples"],
        "fl.eval_flat.samples_per_s": (
            c["eval_samples"] / busy["fl.eval_flat.eval"] if busy["fl.eval_flat.eval"] else 0.0
        ),
        "fl.aggregation.stack_ms": own["fl.aggregation.stack"] * ms,
        "fl.aggregation.reduce_ms": own["fl.aggregation.reduce"] * ms,
        "fl.aggregation.rows": c["aggregation_rows"],
        "fl.defense.admit_ms": own["fl.defense.admit"] * ms,
        "fl.defense.corrupt_ms": own["fl.defense.corrupt"] * ms,
        "core.clustering_round_ms": busy["core.clustering_round"] * ms,
        "core.clustering_round_self_ms": own["core.clustering_round"] * ms,
        "core.warmup_ms": busy["core.warmup"] * ms,
        "core.warmup_steps": c["warmup_steps"],
        "core.proximity_ms": own["core.proximity"] * ms,
        "core.cluster_ms": own["core.cluster"] * ms,
        "core.signature_dim": c["signature_dim"],
        "core.n_clusters": c["n_clusters"],
        "fl.store.get_ms": own["fl.store.get"] * ms,
        "fl.store.set_ms": own["fl.store.set"] * ms,
        "fl.store.rows_ms": own["fl.store.rows"] * ms,
        "fl.store.resident_mb": outcome.store_resident_bytes / 2**20,
        "fl.store.resident_shards": outcome.store_resident_shards,
        "trace.run_ms": busy[ROOT] * ms,
        "trace.unattributed_ms": own[ROOT] * ms,
        "trace.accounted_pct": 100.0 * (1.0 - own[ROOT] / busy[ROOT]) if busy[ROOT] else 0.0,
        "trace.spans": len(tracer.spans),
        "trace.kernel_calls": sum(n for n, _, _ in tracer.folded.values()),
    }
    for kernel in _SERIAL_NN + _BATCHED_NN:
        for method in ("forward", "backward"):
            m[f"nn.{kernel}.{method}_ms"] = own[f"nn.{kernel}.{method}"] * ms
    for direction, table in (("upload", "uploaded"), ("download", "downloaded")):
        for phase in ("training", "clustering"):
            params = outcome.comm_by_phase.get(phase, {}).get(table, 0)
            m[f"fl.communication.{direction}_mparams.{phase}"] = params / 1e6
    return {name: float(value) for name, value in m.items()}


# ----------------------------------------------------------------------
# Per-round breakdown
# ----------------------------------------------------------------------
#: Table columns: (header, trace names whose self time it sums).
_COLUMNS = (
    ("train", ("fl.parallel.train", "fl.train_flat.cohort")),
    ("nn", None),  # every other nn.* kernel
    ("materialize", ("nn.FactoredParam.materialize",)),
    ("eval", ("fl.eval_flat.eval", "fl.rounds.evaluate")),
    ("aggregate", ("fl.rounds.aggregate", "fl.aggregation.stack", "fl.aggregation.reduce")),
    ("broadcast", ("fl.rounds.broadcast",)),
    ("select", ("fl.rounds.select",)),
    ("defense", ("fl.defense.admit", "fl.defense.corrupt")),
    ("store", ("fl.store.get", "fl.store.set", "fl.store.rows")),
    ("dispatch", ("fl.rounds.dispatch",)),
    ("loop", (ROUND,)),
)


def round_table(tracer: Tracer) -> list[dict]:
    """Self time per column and engine round (``None``: outside rounds)."""
    claimed = {k for _, names in _COLUMNS if names for k in names}
    round_of = {sid: rnd for sid, _, _, _, _, rnd, _ in tracer.spans}
    cells: dict = defaultdict(lambda: defaultdict(float))
    walls: dict = {}
    for sid, name, start, end, _, rnd, self_s in tracer.spans:
        if name == ROUND:
            walls[rnd] = end - start
        if name != ROOT:
            cells[rnd][name] += self_s
    for (owner, name), (_, _, self_s) in tracer.folded.items():
        cells[round_of.get(owner)][name] += self_s
    rows = []
    for rnd in sorted(cells, key=lambda r: -1 if r is None else r):
        named = cells[rnd]
        row = {"round": rnd, "wall_ms": walls[rnd] * 1e3 if rnd in walls else None}
        for header, names in _COLUMNS:
            if names is None:
                total = sum(
                    v for k, v in named.items()
                    if k.startswith("nn.") and k not in claimed
                )
            else:
                total = sum(named.get(k, 0.0) for k in names)
            row[header] = total * 1e3
        row["other"] = sum(named.values()) * 1e3 - sum(row[h] for h, _ in _COLUMNS)
        rows.append(row)
    return rows


def format_round_table(rows: list[dict]) -> str:
    """Fixed-width text of :func:`round_table`, plus a tail summary.

    The tail line compares the rounds at or above the 90th percentile of
    wall time with the median round, column by column, so it names the
    layer that grows in slow rounds.
    """
    headers = ["round", "wall_ms"] + [h for h, _ in _COLUMNS] + ["other"]
    lines = ["  ".join(f"{h:>9}" for h in headers)]
    for row in rows:
        cells = ["-" if row[h] is None else row[h] for h in headers]
        lines.append("  ".join(
            f"{c:9.1f}" if isinstance(c, float) else f"{c:>9}" for c in cells
        ))
    rounds = [r for r in rows if r["round"] is not None]
    if len(rounds) >= 10:
        walls = sorted(r["wall_ms"] for r in rounds)
        p90 = walls[int(math.ceil(0.9 * len(walls))) - 1]
        p50 = walls[len(walls) // 2]
        tail = [r for r in rounds if r["wall_ms"] >= p90]
        mid = sorted(rounds, key=lambda r: abs(r["wall_ms"] - p50))[: len(tail)]
        deltas = [
            f"{h} {sum(r[h] for r in tail) / len(tail) - sum(r[h] for r in mid) / len(mid):+.1f}"
            for h in headers[2:]
        ]
        lines.append(
            f"tail: {len(tail)} rounds >= p90 {p90:.1f} ms vs p50 {p50:.1f} ms; "
            "ms per round over the median rounds: " + ", ".join(deltas)
        )
    return "\n".join(lines)
