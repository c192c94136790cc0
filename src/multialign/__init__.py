"""Supervised and unsupervised functional alignment of multi-subject time series.

The package aligns subjects observed over a shared stimulus run into a
common feature space.  The supervised path couples time points through
their class labels and solves a single eigenproblem; an iterative variant
and an unsupervised reduction share the same machinery.  Evaluation tools
cover between-subject correlation profiles and leave-one-subject-out
classification, and a synthetic generator plants recoverable structure for
experiments.
"""

from .alignment import (
    METHODS,
    AlignmentModel,
    FitReport,
    MappedFeatures,
    fit,
    fit_none,
    fit_rha,
    fit_sha,
    fit_sha_r,
    load_model,
    map_dataset,
    map_subject,
    pairwise_objective,
    save_model,
)
from .classify import (
    FoldResult,
    LinearClassifier,
    LosoReport,
    run_loso,
    run_loso_normalized,
    train_classifier,
)
from .data import (
    Dataset,
    LabelMatrix,
    SubjectData,
    load_dataset,
    normalize,
    read_matrix_csv,
    save_dataset,
    write_matrix_csv,
)
from .errors import (
    AdvisoryWarning,
    InvalidArgumentError,
    InvalidDataError,
    MultialignError,
    NumericError,
)
from .linalg import (
    RegularizedProjector,
    TruncatedSvd,
    gram_svd,
    projector_from_svd,
    regularized_projector,
    symmetric_eig,
    truncated_svd,
)
from .metrics import (
    CorrelationReport,
    InstanceRun,
    MetricSummary,
    accuracy,
    class_instances,
    correlation_report,
    one_vs_rest_auc,
    rho1,
    rho2,
    rho3,
    rho4,
)
from .supervision import (
    SupervisionKernel,
    coupling_determinant,
    coupling_matrix,
    default_gamma,
    kernels_for,
    supervision_kernel,
)
from .synth import (
    GroundTruth,
    SynthConfig,
    generate,
    save_ground_truth,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "AdvisoryWarning",
    "AlignmentModel",
    "CorrelationReport",
    "Dataset",
    "FitReport",
    "FoldResult",
    "GroundTruth",
    "InstanceRun",
    "InvalidArgumentError",
    "InvalidDataError",
    "LabelMatrix",
    "LinearClassifier",
    "LosoReport",
    "MappedFeatures",
    "MetricSummary",
    "MultialignError",
    "NumericError",
    "RegularizedProjector",
    "SubjectData",
    "SupervisionKernel",
    "SynthConfig",
    "TruncatedSvd",
    "accuracy",
    "class_instances",
    "correlation_report",
    "coupling_determinant",
    "coupling_matrix",
    "default_gamma",
    "fit",
    "fit_none",
    "fit_rha",
    "fit_sha",
    "fit_sha_r",
    "generate",
    "gram_svd",
    "kernels_for",
    "load_dataset",
    "load_model",
    "map_dataset",
    "map_subject",
    "normalize",
    "one_vs_rest_auc",
    "pairwise_objective",
    "projector_from_svd",
    "read_matrix_csv",
    "regularized_projector",
    "rho1",
    "rho2",
    "rho3",
    "rho4",
    "run_loso",
    "run_loso_normalized",
    "save_dataset",
    "save_ground_truth",
    "save_model",
    "substream",
    "supervision_kernel",
    "symmetric_eig",
    "train_classifier",
    "truncated_svd",
    "write_matrix_csv",
]
