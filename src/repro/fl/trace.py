"""Availability traces: replayable per-client presence schedules.

A trace records, per client, the exact set of rounds in which that
client is reachable.  It is the fully-explicit form of the scenario
space: arrivals (present from round ``r`` on), departures (gone from
round ``r`` on) and even individual blackout rounds are all just shapes
of the same ``client_id → available-round-set`` mapping, so a schedule
captured from a real federation — or constructed for a regression test —
replays bit-for-bit through :class:`repro.fl.rounds.ScenarioConfig`.

Semantics
---------
* A client listed in the trace is eligible for participation in exactly
  the rounds of its set and in no others.
* A client *not* listed is always available — traces may be partial, so
  a schedule only needs to name the clients whose availability deviates
  from "always on".
* A trace composes with the other scenario knobs by intersection:
  arrivals/departures further restrict eligibility, the participation
  fraction samples from whoever remains, and failure/straggler draws
  apply to the selected participants.  Unlike a scenario *failure*
  (which charges the download — the client went dark mid-round), a
  trace absence means the client was never contacted: no traffic.

The JSON wire format is versioned and round-trip exact::

    {
      "format": "repro.availability-trace.v1",
      "clients": {"0": [1, 2, 5], "3": [2]}
    }

"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

__all__ = ["TRACE_FORMAT", "AvailabilityTrace"]

#: Format tag written into (and required from) trace JSON files.
TRACE_FORMAT = "repro.availability-trace.v1"


class AvailabilityTrace:
    """Immutable ``client_id → available-round-set`` schedule.

    Parameters
    ----------
    rounds_by_client:
        Mapping from client id to an iterable of 1-based round indices
        in which that client is available.  Ids and rounds must be
        non-negative/positive integers respectively; an empty round set
        is allowed (a client that never shows up).
    """

    __slots__ = ("_rounds",)

    def __init__(self, rounds_by_client: Mapping[int, Iterable[int]]) -> None:
        rounds: dict[int, frozenset[int]] = {}
        for raw_cid, raw_rounds in rounds_by_client.items():
            cid = int(raw_cid)
            if cid < 0:
                raise ValueError(f"trace client ids must be >= 0, got {raw_cid!r}")
            round_set = frozenset(int(r) for r in raw_rounds)
            bad = sorted(r for r in round_set if r < 1)
            if bad:
                raise ValueError(
                    f"trace rounds must be >= 1, client {cid} lists {bad}"
                )
            rounds[cid] = round_set
        self._rounds = rounds

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def clients(self) -> frozenset[int]:
        """Client ids the trace constrains (unlisted ids are always on)."""
        return frozenset(self._rounds)

    def rounds_for(self, client_id: int) -> frozenset[int] | None:
        """The client's available-round set, or ``None`` if unlisted."""
        return self._rounds.get(int(client_id))

    def available(self, client_id: int, round_index: int) -> bool:
        """Is ``client_id`` reachable in ``round_index``?

        Clients the trace does not mention are always available.
        """
        listed = self._rounds.get(int(client_id))
        return True if listed is None else int(round_index) in listed

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        n_clients: int,
        n_rounds: int,
        arrivals: Mapping[int, int] | None = None,
        departures: Mapping[int, int] | None = None,
        blackouts: Mapping[int, Iterable[int]] | None = None,
    ) -> "AvailabilityTrace":
        """Materialise an event-style schedule into an explicit trace.

        The subsumption constructor: arrivals (present from round ``r``),
        departures (gone from round ``r`` on) and per-client blackout
        rounds (e.g. recorded failure rounds) collapse into one explicit
        ``client → round-set`` mapping over ``1..n_rounds``.  The result
        lists **every** client, so replaying it pins the full schedule
        even if the original event dicts are lost.
        """
        if n_clients < 1 or n_rounds < 1:
            raise ValueError("from_events needs n_clients >= 1 and n_rounds >= 1")
        arrivals = arrivals or {}
        departures = departures or {}
        blackouts = blackouts or {}
        rounds: dict[int, set[int]] = {}
        for cid in range(n_clients):
            first = int(arrivals.get(cid, 1))
            last = int(departures.get(cid, n_rounds + 1)) - 1
            dark = {int(r) for r in blackouts.get(cid, ())}
            rounds[cid] = {
                r for r in range(first, min(last, n_rounds) + 1) if r not in dark
            }
        return cls(rounds)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict (sorted, so serialisation is deterministic)."""
        return {
            "format": TRACE_FORMAT,
            "clients": {
                str(cid): sorted(self._rounds[cid]) for cid in sorted(self._rounds)
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AvailabilityTrace":
        """Inverse of :meth:`to_dict`; validates the format tag."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"trace payload must be a mapping, got {type(payload)}")
        fmt = payload.get("format", TRACE_FORMAT)
        if fmt != TRACE_FORMAT:
            raise ValueError(
                f"unsupported trace format {fmt!r}; expected {TRACE_FORMAT!r}"
            )
        clients = payload.get("clients")
        if not isinstance(clients, Mapping):
            raise ValueError("trace payload needs a 'clients' mapping")
        return cls(clients)

    def save(self, path) -> Path:
        """Write the trace as JSON; returns the resolved path."""
        target = Path(path)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target

    @classmethod
    def load(cls, path) -> "AvailabilityTrace":
        """Read a trace JSON file written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AvailabilityTrace):
            return NotImplemented
        return self._rounds == other._rounds

    def __hash__(self) -> int:
        return hash(frozenset(self._rounds.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AvailabilityTrace({len(self._rounds)} listed clients)"
