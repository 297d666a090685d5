"""Experiment drivers that regenerate the paper's tables and figures.

Experiment index:

* T1 — :func:`repro.experiments.table1.run_table1` (paper Table I);
* A3 (heterogeneity sweep) — :func:`repro.experiments.table1.run_alpha_sweep`
  and C1 (communication) —
  :func:`repro.experiments.table1.run_communication_study`, both on
  Table I's preset;
* F1 — :func:`repro.experiments.fig1.run_fig1` (paper Fig. 1), which
  also reports A1 (linkage: each linkage's auto cut) and A2 (weight
  selection: each selection's upload and separability) from its one
  warm-up;
* F2 — :func:`repro.experiments.fig2.run_fig2` (paper Fig. 2 workflow);
* scenario × algorithm ablation matrix — :mod:`repro.experiments.ablation`;
  T1, A3 and C1 run as its cells.
"""

from repro.experiments.ablation import (
    AblationCell,
    AblationCheckError,
    AblationConfig,
    MatrixOutcome,
    build_report,
    cell_run_id,
    check_matrix,
    format_report,
    generate_cells,
    named_matrix,
    nightly_matrix,
    run_cells,
    run_check,
    run_matrix,
)
from repro.experiments.fig1 import Fig1Result, format_fig1, run_fig1
from repro.experiments.fig2 import Fig2Result, format_fig2, run_fig2
from repro.experiments.presets import (
    SCALES,
    ExperimentScale,
    algorithm_kwargs,
    get_scale,
)
from repro.experiments.table1 import (
    PAPER_TABLE1,
    AlphaSweepResult,
    CommunicationResult,
    Table1Cell,
    Table1Result,
    format_table1,
    run_alpha_sweep,
    run_communication_study,
    run_table1,
    table1_matrix,
)

__all__ = [
    "AblationCell",
    "AblationCheckError",
    "AblationConfig",
    "MatrixOutcome",
    "build_report",
    "cell_run_id",
    "check_matrix",
    "format_report",
    "generate_cells",
    "named_matrix",
    "nightly_matrix",
    "run_cells",
    "run_check",
    "run_matrix",
    "Fig1Result",
    "format_fig1",
    "run_fig1",
    "Fig2Result",
    "format_fig2",
    "run_fig2",
    "SCALES",
    "ExperimentScale",
    "algorithm_kwargs",
    "get_scale",
    "PAPER_TABLE1",
    "AlphaSweepResult",
    "CommunicationResult",
    "Table1Cell",
    "Table1Result",
    "format_table1",
    "run_alpha_sweep",
    "run_communication_study",
    "run_table1",
    "table1_matrix",
]
