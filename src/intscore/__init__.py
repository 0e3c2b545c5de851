"""Sparse integer scoring systems for binary classification.

Models are points tables: an intercept plus a handful of small integer
coefficients over 0/1 features, trained by exactly minimizing a weighted
0-1 loss with sparsity penalties over a finite coefficient lattice.
"""

from .data import (
    AggregatedDataset,
    BandRule,
    BinaryDataset,
    DataError,
    FeatureSpec,
    FoldAssignment,
    ThresholdRule,
    aggregate,
    binarize_continuous,
    conditional_probabilities,
    load_csv,
    make_folds,
    synth_generate,
)
from .evaluation import (
    CalibrationTable,
    ConfusionCounts,
    RocCurve,
    SweepProtocol,
    SweepResult,
    auc,
    calibration,
    confusion,
    pick_at_decision_point,
    sweep,
)
from .model import (
    LatticeSpec,
    ObjectiveValue,
    PenaltyConfig,
    ScoringSystem,
    big_m_loss,
    derive_c0_bound,
    derive_epsilon_bound,
    objective,
)
from .mps import export_mps
from .polish import ActiveSet, polish, project_active
from .rules import AssociationRule, mine_rules, rule_metrics
from .sheet import format_sheet, parse_sheet
from .solver import (
    SolutionPool,
    SolveConfig,
    SolveReport,
    node_bound,
    solve,
)

__version__ = "0.1.0"
