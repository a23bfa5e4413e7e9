"""difflab: a numerical laboratory for one-dimensional diffeomorphism groups.

Grid-backed interval and circle diffeomorphisms with C^r-style metrics,
Szekeres vector fields and flow embeddings, asymptotic-variation and
Mather-type invariants, averaging/deformation machinery for commuting
tuples, exact counterexample constructions, and a CLI front end.
"""

from .gridfn import (
    DEFAULT_CONFIG,
    DomainError,
    GridFunction,
    MonotonicityError,
    ToleranceConfig,
)
from .diffeo import (
    ActionTuple,
    Bump,
    BumpDisplacement,
    BumpPerturbation,
    CircleDiffeo,
    Composition,
    Diffeo,
    FixedPoint,
    FixedPointReport,
    GridMap,
    GridSample,
    IntervalDiffeo,
    InverseMap,
    Moebius,
    Rotation,
    RotationNumber,
    bisect_monotone,
    commutator_residual,
    compose,
    fixed_point_analysis,
    grid_sample,
    identity,
    inverse,
    iterate,
    metric,
    rotation_number,
    sampled_distance,
)
from .szekeres import (
    AnalyticField,
    FlowTime,
    NotAContraction,
    SzekeresField,
    TailNotReached,
    TransportBudgetExceeded,
    VectorField1D,
    flow_group_residual,
    moebius_field,
    szekeres_bv_check,
    szekeres_field,
)
from .invariants import (
    MatherInvariant,
    VarEstimate,
    asymptotic_variation,
    coboundary_drift,
    mather_inequality_check,
    mather_invariant,
)
from .deform import (
    Component,
    ComponentDecomposition,
    ComponentwiseDiffeo,
    DeformationPath,
    GeometricMeanReport,
    HermanReport,
    InterpolationStep,
    NormalFormReport,
    RegularizedFlow,
    classify_action,
    deform_action,
    example_two_component_action,
    finite_order_structure,
    geometric_mean_conjugacy,
    herman_average,
    interpolation_path,
    log_linear_deform,
    normalize_finite_order,
    regularize_flow,
)
from .counterexamples import (
    BrickField,
    CantorTree,
    ConstructionError,
    build_staircase,
    bv_group_demo,
    hyperbolic_example,
    sergeraert_check,
    staircase_phi,
    staircase_report,
)

__version__ = "1.0.0"
