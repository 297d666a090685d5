"""Checkpoints: the state a resumable run declares, and its file.

Each owner of resumable state — the round engine, the strategy, the
traffic tracker, the run history — declares it once: a ``resumable``
tuple of attribute names, typed by the class's annotations
(:func:`declared`).  :meth:`repro.fl.rounds.RoundEngine.checkpoint` and
``resume`` hand the same owners to :func:`save_state` and
:func:`load_state`, so a file holds exactly what a resume reads.

* :func:`encode` writes a value as JSON plus array blobs, walking
  dataclass fields, dicts (as ``[key, value]`` pairs, so int keys and
  insertion order survive), lists and tuples; each numpy array is its
  own blob at its own dtype.  :func:`decode` reads it back by its
  declared type.  Not pickle: loading a pickle runs code from the file,
  and it would bypass the file codec's loud errors.
* :func:`save_checkpoint` / :func:`load_checkpoint` write and read one
  versioned file (magic, version word, JSON header with an array
  manifest, raw blobs); a version mismatch or a truncated file fails
  loudly with the expected and found values.
* A file's ``identity`` (seed, strategy, scenario, ...) is compared key
  by key on resume and never restored; :func:`blas_threads` is one
  entry, because OpenBLAS sums large GEMMs differently at another
  thread count.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import json
import os
import struct
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CHECKPOINT_FORMAT",
    "CheckpointConfig",
    "CheckpointError",
    "blas_threads",
    "declared",
    "decode",
    "encode",
    "load_checkpoint",
    "load_state",
    "save_checkpoint",
    "save_state",
]

#: File magic — rejects arbitrary files before any parsing happens.
CHECKPOINT_MAGIC = b"RPCKPT\x00"
#: Codec version word; bumped on any layout change.  Readers refuse
#: every other version loudly instead of mis-parsing: a resume promises
#: a bit-for-bit continuation, which a file from a build with other
#: numerics cannot keep.  Version 6 stored each buffered and in-flight
#: row as its own array at its own dtype; version 7 writes every owner's
#: declared state through :func:`encode` under an ``identity`` dict;
#: version 8 adds FedClust's fitted clustering to its strategy's state
#: and the algorithm's settings to the identity.
CHECKPOINT_VERSION = 8
#: Format tag embedded in the JSON header (mirrors the availability
#: trace's ``repro.availability-trace.v1`` convention).
CHECKPOINT_FORMAT = "repro.checkpoint.v1"

_HEAD = struct.Struct("<IQ")  # version word, header length


class CheckpointError(RuntimeError):
    """A checkpoint file that cannot be trusted: wrong magic, wrong
    version, truncated payload, or an identity that contradicts the run
    being resumed."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Engine checkpoint policy (rides on ``ScenarioConfig``).

    Attributes
    ----------
    directory:
        Where the checkpoint file, ``checkpoint.bin``, lives (created on
        first write).  One file, overwritten atomically each time — the
        latest round wins.
    every:
        Write cadence in rounds (the final round always writes).
    resume:
        If True, :meth:`repro.fl.rounds.RoundEngine.run` restores from
        an existing checkpoint file before its first round (a missing
        file is not an error — the run simply starts fresh, so one CLI
        invocation works both before and after a crash).
    """

    directory: str | Path
    every: int = 1
    resume: bool = False

    def __post_init__(self) -> None:
        check_positive("every", self.every)

    @property
    def path(self) -> Path:
        return Path(self.directory) / "checkpoint.bin"


# ----------------------------------------------------------------------
# Declared state and the value codec
# ----------------------------------------------------------------------
def declared(owner: object) -> dict[str, Any]:
    """``owner``'s resumable attributes and their types: the names of
    its ``resumable`` tuple, typed by its class annotations."""
    hints = typing.get_type_hints(type(owner))
    return {name: hints[name] for name in owner.resumable}


def encode(value: Any, arrays: dict[str, np.ndarray]) -> Any:
    """``value`` as JSON; each numpy array in it is added to ``arrays``
    under a fresh name, which stands in its place."""
    if isinstance(value, np.ndarray):
        name = str(len(arrays))
        arrays[name] = value
        return name
    if dataclasses.is_dataclass(value):
        return {
            f.name: encode(getattr(value, f.name), arrays)
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return [[encode(k, arrays), encode(v, arrays)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [encode(item, arrays) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def decode(data: Any, kind: Any, arrays: Mapping[str, np.ndarray]) -> Any:
    """Inverse of :func:`encode`: ``data`` read back as a ``kind``."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        if data is None:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return decode(data, inner, arrays)
    if kind is np.ndarray:
        return arrays[data]
    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        return kind(
            **{
                f.name: decode(data[f.name], hints[f.name], arrays)
                for f in dataclasses.fields(kind)
            }
        )
    if origin is dict:
        key, item = args
        return {decode(k, key, arrays): decode(v, item, arrays) for k, v in data}
    if origin is list:
        (item,) = args
        return [decode(v, item, arrays) for v in data]
    if origin is tuple:
        return tuple(decode(v, a, arrays) for v, a in zip(data, args, strict=True))
    return kind(data)


def save_state(
    path: str | Path, identity: dict, owners: Mapping[str, object]
) -> Path:
    """Write ``identity`` and each owner's declared state to ``path``,
    one header section per owner."""
    arrays: dict[str, np.ndarray] = {}
    header: dict[str, Any] = {"identity": identity}
    for section, owner in owners.items():
        header[section] = {
            name: encode(getattr(owner, name), arrays) for name in declared(owner)
        }
    return save_checkpoint(path, header, arrays)


def load_state(
    path: str | Path, identity: dict, owners: Mapping[str, object]
) -> None:
    """Restore each owner's declared state from a :func:`save_state` file.

    The file's identity must equal ``identity`` key by key, or a
    :class:`CheckpointError` names the first key that differs.  Every
    value is decoded before the first is assigned; a list or dict is
    refilled in place (other code holds the tracker's counters and the
    history's records), anything else rebound.
    """
    header, arrays = load_checkpoint(path)
    held = header["identity"]
    for key in dict.fromkeys([*identity, *held]):
        want, found = identity.get(key), held.get(key)
        if found != want:
            raise CheckpointError(
                f"checkpoint {key} mismatch in {path}: this run expects "
                f"{want!r}, the file holds {found!r}"
            )
    values = [
        (owner, name, decode(header[section][name], kind, arrays))
        for section, owner in owners.items()
        for name, kind in declared(owner).items()
    ]
    for owner, name, value in values:
        current = getattr(owner, name)
        if isinstance(current, list):
            current[:] = value
        elif isinstance(current, dict):
            current.clear()
            current.update(value)
        else:
            setattr(owner, name, value)


@functools.lru_cache(maxsize=1)
def _openblas_get_num_threads() -> Any:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_-*.so")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return getter
    return None


def blas_threads() -> int | None:
    """The thread count NumPy's bundled OpenBLAS runs at now.

    Read through ``scipy_openblas_get_num_threads64_`` in the wheel's
    ``numpy.libs/libscipy_openblas64_-*.so`` (the library NumPy already
    loaded, so the count is the live one: 2 on a 2-CPU host by default,
    1 under ``OPENBLAS_NUM_THREADS=1``).  ``None`` where that symbol is
    absent, as in a NumPy built against another BLAS.
    """
    getter = _openblas_get_num_threads()
    return None if getter is None else int(getter())


# ----------------------------------------------------------------------
# The file codec
# ----------------------------------------------------------------------
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
