"""thickset: exact computation with thick Cantor sets.

Stages (finite unions of disjoint closed rational intervals) stand in for
Cantor sets at finite depth.  The package computes Newhouse thickness
exactly, checks and exercises the gap lemma through nested-chain
intersection certificates, constructs calibrated counterexample sets, and
searches constructively for linear and nonlinear three-point configurations
{x - t, x, x + f(t)} with certified rational enclosures.
"""

from .core import (
    CantorStage,
    ClosedInterval,
    Gap,
    GapBridgeReport,
    Rational,
    ThicknessResult,
    affine_image,
    all_bridge_reports,
    bounded_gaps,
    bridge_at,
    dumps_stage,
    gaps,
    loads_stage,
    make_stage,
    restrict,
    stage_from_json,
    stage_to_json,
    thickness,
)
from .constructions import (
    AffineFamily,
    CounterexampleParams,
    RandomThickSpec,
    RefinableFamily,
    RestrictedFamily,
    StageFamily,
    counterexample_calibrate,
    counterexample_limit_ratio,
    counterexample_parts,
    counterexample_set,
    make_counterexample_params,
    middle_alpha,
    middle_alpha_family,
    random_thick,
    random_thick_family,
)
from .errors import (
    CalibrationError,
    ConstructionError,
    DomainError,
    HypothesisError,
    InsufficientDepthError,
    InternalContradictionError,
    PrecisionError,
    RangeError,
    ThicksetError,
)
from .functions import (
    DerivativeWindow,
    FunctionSpec,
    MonotoneBracket,
    Polynomial,
    derivative,
    derivative_ratio_bound,
    derivative_window,
    eval_function,
    monotone_inverse,
)
from .gaplemma import (
    GapLemmaVerdict,
    GapLemmaViolation,
    IntersectionWitness,
    check_hypotheses,
    intersect,
    persistent_intersect,
)
from .search import (
    ConfigWitness,
    FindConfigResult,
    GapFrame,
    MvtBoundsReport,
    AvoidanceReport,
    SearchConfig,
    find_3ap,
    find_config,
    largest_gap_frame,
    subset_extract,
    verify_counterexample,
    verify_mvt_bounds,
    verify_witness,
)

# Certified enclosures are closed intervals; this name denotes the same type.
CertifiedValue = ClosedInterval

__version__ = "0.1.0"
