"""ASCII table rendering for paper-style result tables.

The benchmark harness regenerates the paper's Table I and the ablation
tables as monospace text; this module owns the formatting so every bench
prints consistently and tests can assert on structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["Table", "format_mean_std", "render_matrix"]


def format_mean_std(mean: float, std: float, digits: int = 2) -> str:
    """Render ``mean ± std`` the way the paper's Table I does."""
    return f"{mean:.{digits}f} ± {std:.{digits}f}"


@dataclass
class Table:
    """A simple column-aligned table.

    >>> t = Table(title="demo", columns=["Method", "Acc"])
    >>> t.add_row(["FedAvg", "38.25 ± 2.98"])
    >>> print(t.render())  # doctest: +ELLIPSIS
    demo
    ...
    """

    title: str
    columns: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, cells: Iterable[object]) -> None:
        row = [str(c) for c in cells]
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: Sequence[str]) -> str:
            return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()

        rule = "  ".join("-" * w for w in widths)
        lines = [self.title, rule, fmt(list(self.columns)), rule]
        lines.extend(fmt(row) for row in self.rows)
        lines.append(rule)
        return "\n".join(lines)


def render_matrix(
    matrix, row_labels: Sequence[str] | None = None, digits: int = 2, shade: bool = False
) -> str:
    """Render a small 2-D array as aligned text.

    With ``shade=True`` the cells are rendered as block characters keyed to
    magnitude (dark = small distance), approximating the heat maps of the
    paper's Fig. 1 in a terminal.
    """
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {m.shape}")
    n_rows, n_cols = m.shape
    labels = list(row_labels) if row_labels is not None else [str(i) for i in range(n_rows)]
    if len(labels) != n_rows:
        raise ValueError("row_labels length mismatch")

    if shade:
        # Light shade = similar (small distance), matching the paper's colormap.
        glyphs = "█▓▒░ "
        lo, hi = float(m.min()), float(m.max())
        span = (hi - lo) or 1.0
        cells = [
            [glyphs[min(int((v - lo) / span * (len(glyphs) - 1)), len(glyphs) - 1)] * 2
             for v in row]
            for row in m
        ]
        width = 2
    else:
        cells = [[f"{v:.{digits}f}" for v in row] for row in m]
        width = max(len(c) for row in cells for c in row)

    label_w = max(len(s) for s in labels)
    lines = []
    for label, row in zip(labels, cells):
        lines.append(label.rjust(label_w) + " | " + " ".join(c.rjust(width) for c in row))
    return "\n".join(lines)
