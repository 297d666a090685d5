"""Minimal run logger.

The simulator and experiment drivers emit progress through this module so
that library users can silence, redirect, or capture output without the
library ever printing unconditionally.  It is a thin veneer over the stdlib
``logging`` package with a library-wide namespace and an opt-in console
handler (libraries must not install handlers on import).
"""

from __future__ import annotations

import logging
import sys

__all__ = ["get_logger", "enable_console_logging"]

_ROOT_NAME = "repro"


def get_logger(name: str | None = None) -> logging.Logger:
    """Return the library logger, optionally namespaced by ``name``."""
    if name is None:
        return logging.getLogger(_ROOT_NAME)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def enable_console_logging(level: int = logging.INFO) -> logging.Logger:
    """Attach a stderr handler to the library logger (idempotent).

    Examples and benchmark harnesses call this; the library itself never
    does, so embedding applications stay in control of log routing.
    """
    logger = get_logger()
    logger.setLevel(level)
    has_console = any(
        isinstance(h, logging.StreamHandler) and getattr(h, "_repro_console", False)
        for h in logger.handlers
    )
    if not has_console:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("[%(asctime)s %(name)s] %(message)s", "%H:%M:%S")
        )
        handler._repro_console = True  # type: ignore[attr-defined]
        logger.addHandler(handler)
    return logger
