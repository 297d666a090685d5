"""Experiment drivers that regenerate the paper's tables and figures.

Experiment index:

* T1 — :func:`repro.experiments.table1.run_table1` (paper Table I);
* F1 — :func:`repro.experiments.fig1.run_fig1` (paper Fig. 1);
* F2 — :func:`repro.experiments.fig2.run_fig2` (paper Fig. 2 workflow);
* A1–A3, C1 — :mod:`repro.experiments.ablations`;
* scenario × algorithm ablation matrix — :mod:`repro.experiments.ablation`.
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
    run_check,
    run_matrix,
)
from repro.experiments.ablations import (
    AlphaSweepResult,
    CommunicationResult,
    LinkageAblationResult,
    WeightAblationResult,
    run_alpha_sweep,
    run_communication_study,
    run_linkage_ablation,
    run_weight_ablation,
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
    Table1Cell,
    Table1Result,
    format_table1,
    run_table1,
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
    "run_check",
    "run_matrix",
    "AlphaSweepResult",
    "CommunicationResult",
    "LinkageAblationResult",
    "WeightAblationResult",
    "run_alpha_sweep",
    "run_communication_study",
    "run_linkage_ablation",
    "run_weight_ablation",
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
    "Table1Cell",
    "Table1Result",
    "format_table1",
    "run_table1",
]
