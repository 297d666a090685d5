"""Population-scale client state: wire-dtype stores.

Every per-client-state subsystem before this module materialised the
full ``(n_clients, n_params)`` float64 plane, which caps the
reproduction near ~1k clients x 1.6M params.  The store abstraction
splits the population into two tiers:

* the **cohort** — the clients sampled this round — stays on the dense
  float64 fast path (``rows``/``get`` always hand back float64), and
* the **long tail** — everyone else — rests at the *wire dtype*
  (``layout.wire_dtype``, float32 for float32 models), either as one
  dense wire matrix (:class:`DenseStore`) or as lazily materialised,
  optionally memory-mapped shards (:class:`ShardedStore`) so resident
  memory is O(touched clients), not O(population).

Quantisation contract (the bit-identity pin): a row enters the store
through :meth:`StateLayout.round_trip` and is kept at the wire dtype;
``get`` widens back to float64.  Because the wire dtype is the widest
parameter dtype, the round-tripped row embeds losslessly, so

    ``store.get(cid) == layout.round_trip(row)``  (bit for bit)

for *any* float64 input row — exactly what a model holds after loading
that row (``unpack_state(row)`` repacked).  DenseStore and
ShardedStore therefore agree bit-for-bit with each other and with every
pre-store seed pin, including rows corrupted by float64 noise.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.nn.state_flat import StateLayout

__all__ = [
    "STORE_KINDS",
    "StoreConfig",
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
        ``"dense"`` — one wire-dtype ``(n_clients, n_params)`` matrix
        (the fast path for populations that fit in memory);
        ``"sharded"`` — lazily materialised wire-dtype shards of
        ``shard_size`` clients each, so memory is O(touched clients).
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
        """JSON-safe summary for run output and checkpoints."""
        return asdict(self)


class ClientStateStore:
    """Per-client model state, quantised to the wire dtype at rest.

    Subclasses implement the storage (`_read_row` / `_write_row`); the
    base class owns the quantisation contract and the checkpoint /
    restore protocol, including cross-kind restore (a dense checkpoint
    restores into a sharded store and vice versa, preserving sparsity
    where the payload allows it).
    """

    kind: str = "abstract"

    def __init__(self, n_clients: int, layout: StateLayout, base_row: np.ndarray):
        if n_clients < 1:
            raise ValueError(f"need at least one client, got {n_clients}")
        self.n_clients = int(n_clients)
        self.layout = layout
        self.wire_dtype = layout.wire_dtype
        base64 = layout.round_trip(base_row)
        #: Initial (virgin-client) row, float64 and wire-dtype views.
        self._base64 = base64
        self._base_wire = base64.astype(self.wire_dtype)

    # ------------------------------------------------------------------
    # Quantisation contract
    # ------------------------------------------------------------------
    def _quantize(self, row: np.ndarray) -> np.ndarray:
        """Float64 row -> wire-dtype row, exactly as a model would hold it.

        ``round_trip`` rounds each key segment to its parameter dtype;
        the result then embeds losslessly into the wire dtype (the
        widest parameter dtype), so ``_quantize(row).astype(float64)``
        equals ``layout.round_trip(row)`` bit for bit.
        """
        return self.layout.round_trip(row).astype(self.wire_dtype)

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
        """Client's state as a fresh float64 row (the cohort fast path)."""
        return self._read_row(self._check_cid(client_id)).astype(np.float64)

    def set(self, client_id: int, row: np.ndarray) -> None:
        """Store a float64 row, quantising through the layout's dtypes."""
        self._write_row(self._check_cid(client_id), self._quantize(row))

    def rows(self, client_ids: Iterable[int]) -> np.ndarray:
        """Stack ``get`` rows into one float64 cohort matrix."""
        ids = [self._check_cid(c) for c in client_ids]
        out = np.empty((len(ids), self.layout.n_params), dtype=np.float64)
        for i, cid in enumerate(ids):
            out[i] = self._read_row(cid)
        return out

    # ------------------------------------------------------------------
    # Storage primitives (subclass responsibility)
    # ------------------------------------------------------------------
    def _read_row(self, cid: int) -> np.ndarray:
        raise NotImplementedError

    def _write_row(self, cid: int, wire_row: np.ndarray) -> None:
        raise NotImplementedError

    def resident_bytes(self) -> int:
        """Bytes of client state actually materialised in memory."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(JSON-safe meta, named arrays) for the checkpoint codec."""
        raise NotImplementedError

    def restore_from(self, meta: Mapping, arrays: Mapping[str, np.ndarray]) -> None:
        """Load a checkpoint payload written by *any* store kind."""
        src_kind = meta["kind"]
        p = self.layout.n_params
        if src_kind == "dense":
            matrix = np.asarray(arrays["states"])
            if matrix.shape != (self.n_clients, p):
                raise ValueError(
                    f"checkpoint states have shape {matrix.shape}, expected "
                    f"({self.n_clients}, {p})"
                )
            self._restore_dense(matrix.astype(self.wire_dtype, copy=False))
        elif src_kind == "sharded":
            shard_size = int(meta["shard_size"])
            if int(meta.get("n_clients", self.n_clients)) != self.n_clients:
                raise ValueError(
                    "checkpoint population "
                    f"{meta.get('n_clients')} != store population {self.n_clients}"
                )
            base = np.asarray(arrays["base"]).astype(self.wire_dtype, copy=False)
            if base.shape != (p,):
                raise ValueError(
                    f"checkpoint base row has shape {base.shape}, expected ({p},)"
                )
            self._restore_sharded(base, shard_size, meta["shards"], arrays)
        else:  # pragma: no cover - corrupt meta
            raise ValueError(f"unknown store kind in checkpoint: {src_kind!r}")

    def _restore_dense(self, matrix: np.ndarray) -> None:
        """Default cross-kind restore: write rows that differ from base."""
        changed = np.flatnonzero(np.any(matrix != self._base_wire, axis=1))
        for cid in changed:
            self._write_row(int(cid), np.array(matrix[cid], copy=True))

    def _restore_sharded(
        self,
        base: np.ndarray,
        shard_size: int,
        shard_indices: Sequence[int],
        arrays: Mapping[str, np.ndarray],
    ) -> None:
        """Default cross-kind restore: replay shard rows that changed."""
        self._base_wire = base
        self._base64 = base.astype(np.float64)
        for si in shard_indices:
            shard = np.asarray(arrays[f"shard_{int(si)}"]).astype(
                self.wire_dtype, copy=False
            )
            lo = int(si) * shard_size
            for ri in range(shard.shape[0]):
                cid = lo + ri
                if cid >= self.n_clients:
                    break
                if np.any(shard[ri] != base):
                    self._write_row(cid, np.array(shard[ri], copy=True))


class DenseStore(ClientStateStore):
    """One wire-dtype ``(n_clients, n_params)`` matrix.

    The fast path for populations that fit in memory; its checkpoint
    array is byte-identical to the pre-store ``local_only`` payload
    (``np.stack([pack(s) for s in states]).astype(wire)``).
    """

    kind = "dense"

    def __init__(self, n_clients: int, layout: StateLayout, base_row: np.ndarray):
        super().__init__(n_clients, layout, base_row)
        self._matrix = np.broadcast_to(
            self._base_wire, (self.n_clients, layout.n_params)
        ).copy()

    def _read_row(self, cid: int) -> np.ndarray:
        return self._matrix[cid]

    def _write_row(self, cid: int, wire_row: np.ndarray) -> None:
        self._matrix[cid] = wire_row

    def resident_bytes(self) -> int:
        return int(self._matrix.nbytes)

    def checkpoint_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        meta = {"kind": "dense", "n_clients": self.n_clients}
        return meta, {"states": self._matrix}

    def _restore_dense(self, matrix: np.ndarray) -> None:
        self._matrix[:] = matrix


class ShardedStore(ClientStateStore):
    """Lazily materialised wire-dtype shards of ``shard_size`` clients.

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
                    dtype=self.wire_dtype,
                    shape=shape,
                )
                shard[:] = self._base_wire
            else:
                shard = np.broadcast_to(self._base_wire, shape).copy()
            self._shards[si] = shard
        return shard

    def _read_row(self, cid: int) -> np.ndarray:
        si, ri = divmod(cid, self.shard_size)
        shard = self._shards.get(si)
        if shard is None:
            return self._base_wire
        return shard[ri]

    def _write_row(self, cid: int, wire_row: np.ndarray) -> None:
        si, ri = divmod(cid, self.shard_size)
        self._materialize_shard(si)[ri] = wire_row

    def resident_bytes(self) -> int:
        return int(self._base_wire.nbytes) + sum(
            int(s.nbytes) for s in self._shards.values()
        )

    @property
    def n_resident_shards(self) -> int:
        """Shards actually materialised (touched at least once)."""
        return len(self._shards)

    def checkpoint_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        meta = {
            "kind": "sharded",
            "shard_size": self.shard_size,
            "n_clients": self.n_clients,
            "shards": sorted(int(si) for si in self._shards),
        }
        arrays: dict[str, np.ndarray] = {"base": self._base_wire}
        for si in meta["shards"]:
            arrays[f"shard_{si}"] = np.asarray(self._shards[si])
        return meta, arrays

    def _restore_sharded(
        self,
        base: np.ndarray,
        shard_size: int,
        shard_indices: Sequence[int],
        arrays: Mapping[str, np.ndarray],
    ) -> None:
        if shard_size == self.shard_size:
            # Same geometry: adopt the payload shards directly, keeping
            # untouched shards unmaterialised.
            self._base_wire = base
            self._base64 = base.astype(np.float64)
            self._shards.clear()
            for si in shard_indices:
                shard = np.asarray(arrays[f"shard_{int(si)}"]).astype(
                    self.wire_dtype, copy=True
                )
                if self.path is not None:
                    target = self._materialize_shard(int(si))
                    target[:] = shard
                else:
                    self._shards[int(si)] = shard
            return
        super()._restore_sharded(base, shard_size, shard_indices, arrays)


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
