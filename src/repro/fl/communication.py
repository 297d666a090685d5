"""Communication-cost accounting and flat payload serialization.

FL communication cost is conventionally reported in *parameters
transferred* (× 4 bytes for float32).  The tracker tags every transfer
with a phase label so experiments can separate one-off clustering
overhead (FedClust's partial-weight upload, PACFL's basis upload) from
steady-state training traffic — the comparison behind the paper's
communication-cost claim.

With the flat parameter plane (:mod:`repro.nn.state_flat`) the payload
that actually moves is one contiguous row at the layout's dtype (the
model's parameter dtype, float32 for every model here), so
serialization is a single ``tobytes``/``frombuffer`` pair —
:func:`encode_flat_payload`/:func:`decode_flat_payload` below.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.state_flat import StateLayout

__all__ = [
    "CommunicationTracker",
    "encode_flat_payload",
    "decode_flat_payload",
]

BYTES_PER_PARAM = 4  # float32 over the wire


def encode_flat_payload(vector: np.ndarray, layout: "StateLayout") -> bytes:
    """Serialise a packed row to wire bytes at ``layout.dtype``, which
    :func:`decode_flat_payload` reads back exactly."""
    vector = np.asarray(vector)
    if vector.shape != (layout.n_params,):
        raise ValueError(
            f"vector has shape {vector.shape}, expected ({layout.n_params},)"
        )
    return np.ascontiguousarray(vector, dtype=layout.dtype).tobytes()


def decode_flat_payload(payload: bytes, layout: "StateLayout") -> np.ndarray:
    """Inverse of :func:`encode_flat_payload`: a fresh row at ``layout.dtype``."""
    vector = np.frombuffer(payload, dtype=layout.dtype)
    if vector.shape != (layout.n_params,):
        raise ValueError(
            f"payload holds {vector.size} params, expected {layout.n_params}"
        )
    return vector.copy()


@dataclass
class CommunicationTracker:
    """Up/down parameter counters, bucketed by phase label."""

    #: A checkpoint's part of the tracker (see ``repro.fl.checkpoint``).
    resumable = ("uploads", "downloads")

    uploads: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    downloads: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record_upload(self, n_params: int, phase: str = "training") -> None:
        """Client → server transfer of ``n_params`` scalars."""
        if n_params < 0:
            raise ValueError(f"n_params must be >= 0, got {n_params}")
        self.uploads[phase] += int(n_params)

    def record_download(self, n_params: int, phase: str = "training") -> None:
        """Server → client transfer of ``n_params`` scalars."""
        if n_params < 0:
            raise ValueError(f"n_params must be >= 0, got {n_params}")
        self.downloads[phase] += int(n_params)

    # ------------------------------------------------------------------
    @property
    def total_uploaded(self) -> int:
        return sum(self.uploads.values())

    @property
    def total_downloaded(self) -> int:
        return sum(self.downloads.values())

    @property
    def total_params(self) -> int:
        return self.total_uploaded + self.total_downloaded

    @property
    def total_bytes(self) -> int:
        return self.total_params * BYTES_PER_PARAM

    def uploaded_in(self, phase: str) -> int:
        return self.uploads.get(phase, 0)

    def downloaded_in(self, phase: str) -> int:
        return self.downloads.get(phase, 0)

    def totals(self) -> dict[str, int]:
        """Immutable totals for history records."""
        return {
            "uploaded": self.total_uploaded,
            "downloaded": self.total_downloaded,
            "bytes": self.total_bytes,
        }

    def by_phase(self) -> dict[str, dict[str, int]]:
        """Per-phase breakdown (clustering vs training traffic)."""
        phases = sorted(set(self.uploads) | set(self.downloads))
        return {
            phase: {
                "uploaded": self.uploads.get(phase, 0),
                "downloaded": self.downloads.get(phase, 0),
            }
            for phase in phases
        }
