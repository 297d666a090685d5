"""Shared infrastructure: RNG discipline, logging, tables, I/O."""

from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.serialization import load_json, save_json, to_jsonable
from repro.utils.tables import Table, format_mean_std, render_matrix

__all__ = [
    "enable_console_logging",
    "get_logger",
    "make_rng",
    "spawn_rngs",
    "load_json",
    "save_json",
    "to_jsonable",
    "Table",
    "format_mean_std",
    "render_matrix",
]
