"""Server hardening: fault injection, update admission, robust
aggregation and the checkpoint codec.

The scenario middleware (participation, failures, stragglers, budgets,
traces, async lateness) simulates *absent* or *late* clients; this
module covers the remaining failure class — clients whose update
arrives on time but is **wrong**.  Four pieces, wired through
:class:`repro.fl.rounds.RoundEngine`:

* **Corruption injection** (:class:`CorruptionConfig`) — seeded
  per-(dispatch round, client) corruption events on their own rng
  stream (tag :data:`CORRUPTION_TAG`, same stateless pattern as the
  failure/straggler/budget/duration tags) that mangle the *returned*
  update row at the executor boundary: NaN/Inf poisoning, sign flips,
  scaled noise.  Because the corruption acts on the update list — never
  on the executor or the payload — all three executor kinds and the
  async in-flight path are exercised identically.
* **Update admission** (:func:`admit_updates`) — every survivor row
  passes a finiteness guard (always on) and an optional norm-bound
  guard before aggregation; rejects carry a reason code and are logged
  as ``quarantine`` events in the engine's event log.  A quarantined
  client was already charged its upload — the bytes crossed the
  network; the server just refuses to fold them.
* **Robust aggregation** (:func:`robust_weighted_average`) — drop-in
  replacements for the plain weighted average at the shared choke point
  (:func:`repro.algorithms.base.survivor_weighted_average`):
  norm-clipping to the cohort median, coordinate-wise trimmed mean, and
  coordinate-wise median.  ``"none"`` is byte-for-byte the historical
  rule; the robust statistics deliberately ignore sample-count weights
  (a poisoned client could otherwise buy influence by claiming samples)
  except for ``"clip"``, which only rescales rows.
* **Checkpoint codec** (:func:`save_checkpoint` /
  :func:`load_checkpoint`) — a versioned single-file format (magic,
  version word, JSON header, raw array blobs) for the engine's
  checkpoint/resume path.  Version mismatches and truncated files fail
  loudly with the expected/found values; arrays round-trip bit-exactly.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.fl.aggregation import packed_weighted_average
from repro.fl.client import ClientUpdate
from repro.utils.rng import STREAM_TAGS, rng_for
from repro.utils.validation import check_positive

__all__ = [
    "CORRUPTION_TAG",
    "CORRUPTION_KINDS",
    "ROBUST_AGG_MODES",
    "QUARANTINE_NON_FINITE",
    "QUARANTINE_NORM_BOUND",
    "CorruptionConfig",
    "maybe_corrupt",
    "admit_updates",
    "robust_weighted_average",
    "CheckpointConfig",
    "CheckpointError",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CHECKPOINT_FORMAT",
    "save_checkpoint",
    "load_checkpoint",
    "update_to_meta",
    "rebuild_update",
]

#: The corruption stream — independent of the failure, straggler,
#: budget and duration streams, so corruption composes with every other
#: middleware without perturbing their draws.
CORRUPTION_TAG = STREAM_TAGS["corruption"]

#: Supported corruption kinds, in draw order (the per-event kind is
#: drawn uniformly over the *configured* subset).
CORRUPTION_KINDS = ("nan", "inf", "sign_flip", "noise")

#: Robust aggregation modes accepted by :func:`robust_weighted_average`
#: (and ``ScenarioConfig.robust_agg``).
ROBUST_AGG_MODES = ("none", "clip", "trimmed_mean", "coordinate_median")

#: Quarantine reason codes.
QUARANTINE_NON_FINITE = "non_finite"
QUARANTINE_NORM_BOUND = "norm_bound"


# ----------------------------------------------------------------------
# Corruption fault injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorruptionConfig:
    """Seeded per-(dispatch round, client) update-corruption policy.

    Attributes
    ----------
    rate:
        Probability that a returned update is corrupted.  Drawn on the
        stateless ``(seed, CORRUPTION_TAG, round, client)`` stream, so
        the corruption schedule is a pure function of the seed —
        identical across executor kinds and sync/async engines.
    kinds:
        Subset of :data:`CORRUPTION_KINDS` to draw from, uniformly:

        * ``"nan"`` — poison a seeded ~1/64 subset of coordinates with
          NaN (the classic silent aggregation killer);
        * ``"inf"`` — same subset pattern with ±Inf;
        * ``"sign_flip"`` — negate the whole row (a model-replacement
          style attack: finite, norm-preserving, wrong direction);
        * ``"noise"`` — add ``scale × N(0, 1)`` per coordinate (finite
          but norm-exploded for large ``scale`` — what the norm-bound
          admission guard is for).
    scale:
        Standard deviation of the additive noise kind.
    """

    rate: float = 0.0
    kinds: tuple[str, ...] = CORRUPTION_KINDS
    scale: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"corruption rate must be in [0, 1], got {self.rate!r}")
        kinds = tuple(self.kinds)
        if not kinds:
            raise ValueError("corruption kinds must not be empty")
        bad = [k for k in kinds if k not in CORRUPTION_KINDS]
        if bad:
            raise ValueError(
                f"unknown corruption kinds {bad}; options: {CORRUPTION_KINDS}"
            )
        object.__setattr__(self, "kinds", kinds)
        check_positive("scale", self.scale)


def _poison_indices(rng: np.random.Generator, n: int) -> np.ndarray:
    """The seeded coordinate subset a nan/inf event poisons (~1/64)."""
    k = max(1, n // 64)
    return rng.choice(n, size=k, replace=False)


def maybe_corrupt(
    update: ClientUpdate,
    seed: int,
    round_index: int,
    config: CorruptionConfig,
) -> ClientUpdate:
    """The update, corrupted iff this (round, client)'s event fires.

    Draws are stateless per (seed, round, client): one uniform for the
    event, then — only when it fires — the kind and the kind's own
    randomness, all from the same derived generator.  Returns the input
    object untouched when the event does not fire (the common path
    allocates nothing); a fired event returns a *copy* with the flat row
    replaced, so buffered pristine updates elsewhere can never alias
    corrupted memory.
    """
    rng = rng_for(seed, CORRUPTION_TAG, round_index, update.client_id)
    if rng.random() >= config.rate:
        return update
    kind = config.kinds[int(rng.integers(len(config.kinds)))]
    flat = np.array(update.flat, dtype=np.float64, copy=True)
    n = flat.shape[0]
    if kind == "nan":
        flat[_poison_indices(rng, n)] = np.nan
    elif kind == "inf":
        idx = _poison_indices(rng, n)
        flat[idx] = np.where(rng.random(idx.size) < 0.5, np.inf, -np.inf)
    elif kind == "sign_flip":
        np.negative(flat, out=flat)
    else:  # noise
        flat += config.scale * rng.standard_normal(n)
    return replace(update, flat=flat)


# ----------------------------------------------------------------------
# Update admission
# ----------------------------------------------------------------------
def admit_updates(
    updates: Sequence[ClientUpdate],
    norm_bound: float | None = None,
) -> tuple[list[ClientUpdate], list[tuple[int, str]]]:
    """Admission guards over one batch of survivor updates.

    Two checks, in order:

    * **finiteness** (always): any NaN/Inf coordinate rejects the row —
      a single non-finite entry poisons the aggregation GEMV silently;
    * **norm bound** (when ``norm_bound`` is set): rows whose L2 norm
      exceeds ``norm_bound ×`` the *median* norm of the batch's finite
      rows are rejected.  The median is taken per batch (a robust
      location estimate the corrupted minority cannot drag), and the
      guard is skipped when the median is zero (a cohort of zero rows
      has no scale to bound against).

    Returns ``(admitted, rejected)`` where ``rejected`` is
    ``(client_id, reason)`` pairs.  When nothing is rejected the
    *original list object* is returned unchanged, so the default
    scenario's hot path allocates nothing and stays bit-identical.
    """
    if not updates:
        return list(updates), []
    rows = [u.flat for u in updates]
    finite = np.array([bool(np.isfinite(row).all()) for row in rows])
    rejected = [
        (updates[i].client_id, QUARANTINE_NON_FINITE)
        for i in np.flatnonzero(~finite)
    ]
    keep = finite.copy()
    if norm_bound is not None and finite.any():
        norms = np.array(
            [np.linalg.norm(row) if ok else np.inf for row, ok in zip(rows, finite)]
        )
        median = float(np.median(norms[finite]))
        if median > 0.0:
            over = finite & (norms > norm_bound * median)
            rejected.extend(
                (updates[i].client_id, QUARANTINE_NORM_BOUND)
                for i in np.flatnonzero(over)
            )
            keep &= ~over
    if keep.all():
        return updates if isinstance(updates, list) else list(updates), []
    rejected.sort(key=lambda pair: pair[0])
    return [u for u, ok in zip(updates, keep) if ok], rejected


# ----------------------------------------------------------------------
# Robust aggregation kernels
# ----------------------------------------------------------------------
#: Columns per block of the trimmed-mean kernel; a block's transposed
#: lane buffer (block × n_clients float64) stays cache-resident.
_TRIM_BLOCK = 8192


def _trimmed_middle_mean(matrix: np.ndarray, k: int) -> np.ndarray:
    """Mean of each column with its ``k`` smallest/largest values dropped.

    The naive ``np.sort(matrix, axis=0)`` pays strided lane access over
    the whole (n, p) cohort.  This kernel transposes blocks of columns
    into one contiguous (block, n) buffer so each lane is a short
    contiguous run — the layout NumPy's vectorised small-array sort is
    built for — and reduces the middle slice in place.  Measured ~2.5×
    the strided sort at cohort shapes (64 × 395k); selection via
    ``np.partition`` (single- and multi-kth) was benchmarked too and
    loses at these lane lengths, because introselect has no vectorised
    path.  Same surviving multiset per column as the sorted reference,
    so results agree to summation order.
    """
    n, p = matrix.shape
    out = np.empty(p, dtype=np.float64)
    buf = np.empty((min(_TRIM_BLOCK, p), n), dtype=np.float64)
    for lo in range(0, p, _TRIM_BLOCK):
        hi = min(lo + _TRIM_BLOCK, p)
        lanes = buf[: hi - lo]
        np.copyto(lanes, matrix[:, lo:hi].T)
        lanes.sort(axis=1)
        out[lo:hi] = lanes[:, k : n - k].mean(axis=1)
    return out


def robust_weighted_average(
    matrix: np.ndarray,
    weights: Sequence[float],
    mode: str = "none",
    trim_fraction: float = 0.1,
) -> np.ndarray:
    """Aggregate a packed cohort under a robust rule.

    ``mode``:

    * ``"none"`` — :func:`repro.fl.aggregation.packed_weighted_average`
      verbatim (the bit-identity-gated default);
    * ``"clip"`` — rescale every row with norm above the cohort's
      median norm down to the median, then take the weighted average.
      Keeps sample-count weighting but caps any single row's magnitude;
    * ``"trimmed_mean"`` — coordinate-wise trimmed mean: per
      coordinate, drop the ``⌊trim_fraction × n⌋`` smallest and largest
      values and average the rest, **unweighted** (weights would let a
      poisoned client buy its way past the trim);
    * ``"coordinate_median"`` — coordinate-wise median, unweighted.

    All modes return a float64 vector for the caller to round through
    the parameter dtypes, exactly like the plain rule.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"packed cohort must be (n, p), got {matrix.shape}")
    if mode == "none":
        return packed_weighted_average(matrix, weights)
    if mode == "clip":
        norms = np.linalg.norm(matrix, axis=1)
        median = float(np.median(norms))
        scale = np.where(norms > median, median / np.maximum(norms, 1e-300), 1.0)
        return packed_weighted_average(matrix * scale[:, None], weights)
    if mode == "trimmed_mean":
        n = matrix.shape[0]
        k = int(trim_fraction * n)
        if 2 * k >= n:
            k = (n - 1) // 2
        if k == 0:
            return matrix.mean(axis=0)
        return _trimmed_middle_mean(matrix, k)
    if mode == "coordinate_median":
        return np.median(matrix, axis=0)
    raise ValueError(f"unknown robust_agg {mode!r}; options: {ROBUST_AGG_MODES}")


# ----------------------------------------------------------------------
# Checkpoint codec
# ----------------------------------------------------------------------
#: File magic — rejects arbitrary files before any parsing happens.
CHECKPOINT_MAGIC = b"RPCKPT\x00"
#: Codec version word; bumped on any layout change.  Readers refuse
#: every other version loudly instead of mis-parsing: a resume promises
#: a bit-for-bit continuation, which a file from a build with other
#: numerics cannot keep.  Version 5 holds the engine's one event log,
#: every shared-model strategy's ``matrix``/``labels``/``prox_mu``
#: payload and the run's ``ScenarioConfig.to_dict()``.
CHECKPOINT_VERSION = 5
#: Format tag embedded in the JSON header (mirrors the availability
#: trace's ``repro.availability-trace.v1`` convention).
CHECKPOINT_FORMAT = "repro.checkpoint.v1"

_HEAD = struct.Struct("<IQ")  # version word, header length


class CheckpointError(RuntimeError):
    """A checkpoint file that cannot be trusted: wrong magic, wrong
    version, truncated payload, or metadata that contradicts the run
    being resumed."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Engine checkpoint policy (rides on ``ScenarioConfig``).

    Attributes
    ----------
    directory:
        Where the checkpoint file lives (created on first write).  One
        file, overwritten atomically each time — the latest round wins.
    every:
        Write cadence in rounds (the final round always writes).
    resume:
        If True, :meth:`repro.fl.rounds.RoundEngine.run` restores from
        an existing checkpoint file before its first round (a missing
        file is not an error — the run simply starts fresh, so one CLI
        invocation works both before and after a crash).
    filename:
        File name inside ``directory``.
    """

    directory: str | Path
    every: int = 1
    resume: bool = False
    filename: str = "checkpoint.bin"

    def __post_init__(self) -> None:
        check_positive("every", self.every)

    @property
    def path(self) -> Path:
        return Path(self.directory) / self.filename


def save_checkpoint(
    path: str | Path, header: dict, arrays: Mapping[str, np.ndarray]
) -> Path:
    """Write a versioned checkpoint file atomically.

    Layout: magic, ``<u32 version, u64 header-length>``, the UTF-8 JSON
    header (with an array manifest recording name/dtype/shape/bytes in
    blob order), then the raw array blobs concatenated.  The write goes
    to a sibling temp file first and is renamed into place, so a crash
    mid-write can never leave a torn file under the canonical name.
    """
    path = Path(path)
    manifest: list[dict] = []
    blobs: list[bytes] = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        blob = array.tobytes()
        manifest.append(
            {
                "name": str(name),
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "nbytes": len(blob),
            }
        )
        blobs.append(blob)
    head = dict(header)
    head["format"] = CHECKPOINT_FORMAT
    head["arrays"] = manifest
    payload = json.dumps(head).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(_HEAD.pack(CHECKPOINT_VERSION, len(payload)))
        f.write(payload)
        for blob in blobs:
            f.write(blob)
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Every failure mode is loud and specific: wrong magic, a version this
    build does not read (quoting expected vs found), and truncation at
    any stage (quoting how many bytes were expected vs present).
    Returns ``(header, arrays)`` with each array restored bit-exactly at
    its recorded dtype and shape.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint file at {path}") from None
    prelude = len(CHECKPOINT_MAGIC) + _HEAD.size
    if len(data) < prelude:
        raise CheckpointError(
            f"truncated checkpoint {path}: needs at least {prelude} bytes "
            f"of prelude, found {len(data)}"
        )
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path} is not a repro checkpoint (bad magic "
            f"{data[: len(CHECKPOINT_MAGIC)]!r}, expected {CHECKPOINT_MAGIC!r})"
        )
    version, header_len = _HEAD.unpack_from(data, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version mismatch in {path}: file has version "
            f"{version}, this build reads version {CHECKPOINT_VERSION}"
        )
    offset = prelude
    if len(data) < offset + header_len:
        raise CheckpointError(
            f"truncated checkpoint {path}: header claims {header_len} bytes "
            f"but only {len(data) - offset} follow the prelude"
        )
    try:
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header in {path}: {exc}") from exc
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint format mismatch in {path}: expected "
            f"{CHECKPOINT_FORMAT!r}, found {header.get('format')!r}"
        )
    offset += header_len
    manifest = header.pop("arrays", [])
    header.pop("format", None)  # codec bookkeeping, not caller data
    total = sum(int(entry["nbytes"]) for entry in manifest)
    if len(data) < offset + total:
        raise CheckpointError(
            f"truncated checkpoint {path}: array blobs need {total} bytes "
            f"but only {len(data) - offset} remain"
        )
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest:
        nbytes = int(entry["nbytes"])
        blob = data[offset : offset + nbytes]
        offset += nbytes
        arrays[entry["name"]] = np.frombuffer(
            blob, dtype=np.dtype(entry["dtype"])
        ).reshape(tuple(entry["shape"])).copy()
    return header, arrays


# ----------------------------------------------------------------------
# ClientUpdate (de)serialisation for engine buffers
# ----------------------------------------------------------------------
def update_to_meta(update: ClientUpdate) -> dict:
    """JSON-ready scalars of a buffered update (the row travels as an
    array blob alongside)."""
    return {
        "client_id": int(update.client_id),
        "n_samples": int(update.n_samples),
        "mean_loss": float(update.mean_loss),
        "n_batches": int(update.n_batches),
        "weight": None if update.weight is None else float(update.weight),
    }


def rebuild_update(meta: Mapping, row: np.ndarray) -> ClientUpdate:
    """Inverse of :func:`update_to_meta` plus the update's checkpointed row."""
    return ClientUpdate(
        client_id=int(meta["client_id"]),
        flat=np.asarray(row, dtype=np.float64),
        n_samples=int(meta["n_samples"]),
        mean_loss=float(meta["mean_loss"]),
        n_batches=int(meta["n_batches"]),
        weight=None if meta["weight"] is None else float(meta["weight"]),
    )
