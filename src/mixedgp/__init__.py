"""Gaussian-process surrogates for mixed continuous/integer/categorical inputs.

The package bundles a unified family of categorical correlation kernels
(GD, CR, EHH, FE, HH), maximum-likelihood fitting through a deterministic
multistart derivative-free search, Latin hypercube and grid designs, and a
benchmark harness with reference problems.
"""

from .benchmarks import (
    BenchmarkResult,
    CantileverConfig,
    beam_space,
    cantilever_deflection,
    cosine_function,
    cosine_space,
    dragon_space,
    dragon_space_audit,
    pva,
    rmse,
    run_cantilever_benchmark,
    run_cosine_benchmark,
)
from .doe import grid, lhs
from .errors import (
    DimensionMismatch,
    LevelOutOfRange,
    MixedGpError,
    NotIntegral,
    NotRepresentable,
    NumericalFailure,
    ObjectiveFailure,
    OutOfBounds,
    ParseError,
    ShapeMismatch,
    SizeOverflow,
)
from .gp import (
    FitConfig,
    GpModel,
    build_model,
    concentrated_log_likelihood,
    correlation_matrix,
    fit,
    load_model,
    predict,
    save_model,
)
from .kernels import (
    EPSILON,
    CategoricalKernelKind,
    HyperparameterSet,
    categorical_matrix,
    categorical_param_count,
    embed_hyper_matrix,
    gram_to_angles,
    hyperparameter_count,
    hypersphere_lower_triangular,
    recover_angles_from_correlation,
)
from .optimize import BoxBounds, local_search, multistart
from .space import (
    Categorical,
    Continuous,
    Dataset,
    DesignSpace,
    Integer,
    MixedPoint,
    PointBatch,
    load_dataset,
    load_points,
    load_space,
    save_dataset,
    save_points,
    save_predictions,
    save_space,
    validate_point,
)

__version__ = "0.1.0"
