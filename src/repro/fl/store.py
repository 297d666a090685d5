"""Population-scale client state: per-client rows at rest.

Materialising a full ``(n_clients, n_params)`` plane for every
per-client-state subsystem caps the reproduction near ~1k clients x
1.6M params.  A store keeps each client's row at the layout dtype
(``layout.dtype``, float32 for every model here), either as one dense
matrix (:class:`DenseStore`) or as lazily materialised, optionally
memory-mapped shards (:class:`ShardedStore`) so resident memory is
O(touched clients), not O(population).  ``get``/``rows`` copy the
round's cohort out; the long tail stays at rest.

Row contract (the bit-identity pin): ``set`` stores
:meth:`StateLayout.round_trip` of its row, so

    ``store.get(cid) == layout.round_trip(row)``  (bit for bit)

for *any* input row — exactly what a model holds after loading that
row (``unpack_state(row)`` repacked), a float64 corrupted copy
included.  DenseStore and ShardedStore therefore agree bit-for-bit with
each other and with every pre-store seed pin.

Checkpoints see one shape for every kind, :class:`StoreRows`: the base
row plus the rows held apart from it.  :meth:`ClientStateStore.contents`
writes it and :meth:`ClientStateStore.restore` reads any kind's into any
kind, dropping the rows the store held before.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from repro.nn.state_flat import StateLayout

__all__ = [
    "STORE_KINDS",
    "StoreConfig",
    "StoreRows",
    "ClientStateStore",
    "DenseStore",
    "ShardedStore",
    "make_store",
]

#: Store kinds accepted by :class:`StoreConfig` and the CLI ``--store``.
STORE_KINDS = ("dense", "sharded")


@dataclass(frozen=True)
class StoreConfig:
    """How an environment keeps per-client state between rounds.

    Parameters
    ----------
    kind:
        ``"dense"`` — one ``(n_clients, n_params)`` matrix (the fast
        path for populations that fit in memory);
        ``"sharded"`` — lazily materialised shards of ``shard_size``
        clients each, so memory is O(touched clients).
    shard_size:
        Clients per shard (sharded kind only).
    path:
        Optional directory for memory-mapped shards (sharded kind
        only); ``None`` keeps shards in anonymous memory.
    """

    kind: str = "dense"
    shard_size: int = 256
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in STORE_KINDS:
            raise ValueError(
                f"unknown store kind {self.kind!r}; choose from {STORE_KINDS}"
            )
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        if self.path is not None and self.kind != "sharded":
            raise ValueError("path is only meaningful for the sharded store")

    def describe(self) -> dict:
        """JSON-safe summary for run records."""
        return asdict(self)


@dataclass
class StoreRows:
    """A store's contents in one shape for every kind: the ``base`` row
    every client starts from, and the rows held apart from it by client
    id."""

    base: np.ndarray
    rows: dict[int, np.ndarray]


class ClientStateStore:
    """Per-client model state: one row per client at the layout dtype.

    Subclasses implement the storage (``_read_row``/``_write_row``/
    ``_reset``) and list the rows they hold apart from the base
    (:meth:`contents`); the base class owns the row contract and
    :meth:`restore`, which reads any kind's contents into any kind (a
    dense checkpoint restores into a sharded store and back).
    """

    kind: str = "abstract"

    def __init__(self, n_clients: int, layout: StateLayout, base_row: np.ndarray):
        if n_clients < 1:
            raise ValueError(f"need at least one client, got {n_clients}")
        self.n_clients = int(n_clients)
        self.layout = layout
        #: Initial (virgin-client) row.
        self._base = layout.round_trip(base_row)

    def _check_cid(self, client_id: int) -> int:
        cid = int(client_id)
        if not 0 <= cid < self.n_clients:
            raise IndexError(
                f"client id {cid} out of range [0, {self.n_clients})"
            )
        return cid

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def get(self, client_id: int) -> np.ndarray:
        """Client's state as a fresh row."""
        return self._read_row(self._check_cid(client_id)).copy()

    def set(self, client_id: int, row: np.ndarray) -> None:
        """Store ``layout.round_trip(row)`` as the client's state."""
        self._write_row(self._check_cid(client_id), self.layout.round_trip(row))

    def rows(self, client_ids: Iterable[int]) -> np.ndarray:
        """Stack ``get`` rows into one cohort matrix."""
        ids = [self._check_cid(c) for c in client_ids]
        out = np.empty((len(ids), self.layout.n_params), dtype=self.layout.dtype)
        for i, cid in enumerate(ids):
            out[i] = self._read_row(cid)
        return out

    # ------------------------------------------------------------------
    # Storage primitives (subclass responsibility)
    # ------------------------------------------------------------------
    def _read_row(self, cid: int) -> np.ndarray:
        raise NotImplementedError

    def _write_row(self, cid: int, row: np.ndarray) -> None:
        raise NotImplementedError

    def _reset(self, base: np.ndarray) -> None:
        """Forget every written row: ``base`` becomes every client's."""
        raise NotImplementedError

    def resident_bytes(self) -> int:
        """Bytes of client state actually materialised in memory."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def contents(self) -> StoreRows:
        """The base row and the rows held apart from it."""
        raise NotImplementedError

    def restore(self, contents: StoreRows) -> None:
        """Hold exactly ``contents``, written by a store of any kind.

        The rows held before are dropped and ``contents.base`` becomes
        every other client's row; each row enters through :meth:`set`,
        so it rests at the layout dtype.
        """
        base = self.layout.round_trip(contents.base)
        outside = sorted(c for c in contents.rows if not 0 <= c < self.n_clients)
        if outside:
            raise ValueError(
                f"checkpoint rows of clients {outside} fall outside this "
                f"store's population (its shape is "
                f"({self.n_clients}, {self.layout.n_params}))"
            )
        self._reset(base)
        for cid, row in contents.rows.items():
            self.set(cid, row)


class DenseStore(ClientStateStore):
    """One ``(n_clients, n_params)`` matrix.

    The fast path for populations that fit in memory.  It holds every
    row, and its :meth:`contents` are the rows that differ from the
    base.
    """

    kind = "dense"

    def __init__(self, n_clients: int, layout: StateLayout, base_row: np.ndarray):
        super().__init__(n_clients, layout, base_row)
        self._matrix = np.broadcast_to(
            self._base, (self.n_clients, layout.n_params)
        ).copy()

    def _read_row(self, cid: int) -> np.ndarray:
        return self._matrix[cid]

    def _write_row(self, cid: int, row: np.ndarray) -> None:
        self._matrix[cid] = row

    def _reset(self, base: np.ndarray) -> None:
        self._base = base
        self._matrix[:] = base

    def resident_bytes(self) -> int:
        return int(self._matrix.nbytes)

    def contents(self) -> StoreRows:
        apart = np.flatnonzero(np.any(self._matrix != self._base, axis=1))
        return StoreRows(self._base, {int(c): self._matrix[c] for c in apart})


class ShardedStore(ClientStateStore):
    """Lazily materialised shards of ``shard_size`` clients.

    A shard exists only once one of its clients is written (copy-on-
    write against the shared base row), so resident memory is
    O(touched clients): the long tail of a 100k-client population that
    is never sampled costs nothing beyond the base row.  With ``path``
    set, shards are backed by ``np.lib.format.open_memmap`` files so
    even touched state can page out.
    """

    kind = "sharded"

    def __init__(
        self,
        n_clients: int,
        layout: StateLayout,
        base_row: np.ndarray,
        shard_size: int = 256,
        path: str | None = None,
    ):
        super().__init__(n_clients, layout, base_row)
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.shard_size = int(shard_size)
        self.path = path
        if path is not None:
            os.makedirs(path, exist_ok=True)
        self._shards: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _shard_rows(self, si: int) -> int:
        lo = si * self.shard_size
        return min(self.shard_size, self.n_clients - lo)

    def _materialize_shard(self, si: int) -> np.ndarray:
        shard = self._shards.get(si)
        if shard is None:
            rows = self._shard_rows(si)
            shape = (rows, self.layout.n_params)
            if self.path is not None:
                shard = np.lib.format.open_memmap(
                    os.path.join(self.path, f"shard_{si:06d}.npy"),
                    mode="w+",
                    dtype=self.layout.dtype,
                    shape=shape,
                )
                shard[:] = self._base
            else:
                shard = np.broadcast_to(self._base, shape).copy()
            self._shards[si] = shard
        return shard

    def _read_row(self, cid: int) -> np.ndarray:
        si, ri = divmod(cid, self.shard_size)
        shard = self._shards.get(si)
        if shard is None:
            return self._base
        return shard[ri]

    def _write_row(self, cid: int, row: np.ndarray) -> None:
        si, ri = divmod(cid, self.shard_size)
        self._materialize_shard(si)[ri] = row

    def _reset(self, base: np.ndarray) -> None:
        self._base = base
        self._shards.clear()

    def resident_bytes(self) -> int:
        return int(self._base.nbytes) + sum(
            int(s.nbytes) for s in self._shards.values()
        )

    @property
    def n_resident_shards(self) -> int:
        """Shards actually materialised (touched at least once)."""
        return len(self._shards)

    def contents(self) -> StoreRows:
        # Every row of each materialised shard, base-equal ones included,
        # so a restore into the same geometry materialises the same shards.
        return StoreRows(
            self._base,
            {
                si * self.shard_size + ri: row
                for si in sorted(self._shards)
                for ri, row in enumerate(self._shards[si])
            },
        )


def make_store(
    config: StoreConfig,
    n_clients: int,
    layout: StateLayout,
    base_row: np.ndarray,
) -> ClientStateStore:
    """Build the configured store, seeded with ``base_row`` for everyone."""
    if config.kind == "dense":
        return DenseStore(n_clients, layout, base_row)
    return ShardedStore(
        n_clients,
        layout,
        base_row,
        shard_size=config.shard_size,
        path=config.path,
    )
