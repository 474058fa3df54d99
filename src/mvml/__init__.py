"""Multi-view multi-label learning with a global/local trace-norm regularizer."""

from .data import (
    MultiViewDataset,
    StackGeometry,
    ViewData,
    WeightStack,
    indicator_from,
    present_rows,
    stack_predictions,
    sublabel_rows,
)
from .dataset_io import load_dataset, save_dataset
from .errors import (
    AllViewsMissing,
    DatasetFormatError,
    GenerationFailure,
    InvalidInput,
    IoError,
    LabelDomainViolation,
    MissingFile,
    MvmlError,
    NonFiniteEntry,
    NonFiniteObjective,
    SchemaViolation,
    SingularSystem,
    UndefinedMetric,
)
from .experiments import (
    ExperimentConfig,
    RunRecord,
    SplitSpec,
    bench_subgradient,
    export_report,
    run_experiment,
    strip_timing,
)
from .linalg import (
    EigenPair,
    SpdFactor,
    nuclear_norm,
    singular_values,
    spd_solve,
    svt,
    symmetric_eig,
    trace_norm_subgradient,
)
from .masking import CorruptionSpec, SyntheticSpec, corrupt, generate_synthetic
from .metrics import (
    MetricsReport,
    RankDiagnostics,
    adapted_auc,
    average_precision,
    evaluate_predictions,
    hamming_loss,
    nemenyi_cd,
    rank_diagnostics,
    ranking_loss,
)
from .objective import ObjectiveValue, masked_loss, objective, regularizer_value
from .solver import (
    SolverConfig,
    SolverState,
    SolverTrace,
    Variant,
    fit,
    init_state,
    predict,
    update_multipliers,
    update_w,
    update_z,
)

__version__ = "0.1.0"
