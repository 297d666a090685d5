"""Shared infrastructure: RNG discipline, logging, tables, I/O."""

from repro.utils.logging import RoundLogger, enable_console_logging, get_logger
from repro.utils.rng import derive_rng, make_rng, spawn_rngs, spawn_seeds
from repro.utils.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
    to_jsonable,
)
from repro.utils.tables import Table, format_mean_std, render_matrix

__all__ = [
    "RoundLogger",
    "enable_console_logging",
    "get_logger",
    "derive_rng",
    "make_rng",
    "spawn_rngs",
    "spawn_seeds",
    "load_arrays",
    "load_json",
    "save_arrays",
    "save_json",
    "to_jsonable",
    "Table",
    "format_mean_std",
    "render_matrix",
]
