"""Result persistence.

Experiments persist their outputs as a diff-able JSON document
(configuration + metrics); :func:`to_jsonable` turns numpy values and
dataclasses into JSON types on the way.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

import numpy as np

__all__ = ["to_jsonable", "save_json", "load_json"]


def to_jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays and dataclass-likes to JSON types."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: to_jsonable(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"cannot serialise {type(value).__name__} to JSON")


def save_json(path: str | os.PathLike[str], payload: Any, indent: int = 2) -> Path:
    """Serialise ``payload`` to JSON at ``path`` (parents created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(to_jsonable(payload), indent=indent) + "\n")
    return target


def load_json(path: str | os.PathLike[str]) -> Any:
    """Load a JSON document saved by :func:`save_json`."""
    return json.loads(Path(path).read_text())
