"""sgdcover: localized epsilon-covers, contraction diagnostics, and
generalization-gap certificates for constant-step projected SGD.

Importing the package loads what ``cover``, ``validate``, ``ifs`` and
``bound`` run.  The names of ``surrogate``, ``families``, ``trajectory`` and
``studies`` are public here too, but their module loads on first access
(PEP 562)."""

__version__ = "0.1.0"

import importlib

from .core import (
    Ball,
    Box,
    ConvexDomain,
    ProductOfBalls,
    WholeSpace,
    as_point,
    distance,
    hoeffding_tail,
    numeric_gradient,
    substream,
)
from .losses import (
    Dataset,
    Distribution,
    LossConstants,
    LossFamily,
    family_from_descriptor,
    quadratic_centers,
    uniform_ball,
    uniform_over,
)
from .sgd import (
    CustomMap,
    SGDStep,
    contraction_factor,
    sgd_step,
)
from .cover import (
    CoverEntry,
    CoverSet,
    CoverVerification,
    EnumerationCapExceeded,
    cover_horizon,
    enumerate_cover,
    replay_entry,
    verify_cover,
)
from .fractal import (
    BoxCountFit,
    IFSDimension,
    IFSModel,
    box_counting_dimension,
    ifs_dimension,
)
from .bounds import (
    BoundCertificate,
    bound_early,
    bound_expectation,
    bound_fractal,
    bound_hard_kmeans,
    bound_master_covering,
    bound_multi_index,
    bound_piecewise_approx,
    bound_piecewise_contractive,
    bound_single_trajectory,
    bound_soft_kmeans,
    bound_strongly_convex,
    multi_index_piece_params,
    soft_kmeans_params,
)
from .experiments import (
    Scenario,
    ValidationReport,
    validate_bound,
)

# module -> the public names it defines, loaded on first access
_DEFERRED = {
    "surrogate": (
        "PiecewiseQuadraticApprox",
        "PiecewiseSmoothFunction",
        "SmoothPiece",
        "build_piecewise_approx",
        "enumerate_piecewise_cover",
        "smooth_function",
    ),
    "families": (
        "LinkFunction",
        "hard_kmeans",
        "multi_index",
        "smooth_margin_link",
        "soft_kmeans",
        "squared_error_link",
        "stability_counterexample_1d",
        "zero_link",
    ),
    "trajectory": (
        "CouplingReport",
        "SGDConfig",
        "Trajectory",
        "coupled_contraction_ratio",
        "run_trajectory",
    ),
    "studies": (
        "EMEquivalenceReport",
        "EMStepResult",
        "GapEstimate",
        "HoeffdingReport",
        "StabilityReport",
        "em_step",
        "empirical_risk",
        "estimate_gap",
        "hoeffding_check",
        "population_risk",
        "run_em",
        "stability_experiment",
        "verify_em_equivalence",
    ),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
