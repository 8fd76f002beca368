"""Flat (2+1)-dimensional spacetimes with massive and extremal BTZ particles.

Computational companion to the geometry of singular flat Lorentzian
3-manifolds: model cones and their isometries, developing maps and
holonomies, the causal structure of the extremal tube (closed form plus a
grid oracle and a Monte Carlo volume time), piecewise-smooth spacelike
surfaces with completeness/compactness surgeries, tube-chart extension
moves, and a worked example built from the modular group.
"""

from .causal import (
    MeasureConfig,
    ReachabilityGrid,
    VolumeTimeResult,
    btz_causal_future,
    btz_connecting_curve,
    grid_reachability,
    reachability_closed_form,
    sample_causal_curves,
    tangent_class,
    validate_causal,
    volume_time_report,
)
from .develop import (
    RescaleReport,
    boost_conjugate,
    btz_holonomy_generator,
    deck_generator,
    develop_btz,
    develop_btz_inverse,
    develop_btz_jacobian,
    develop_massive,
    develop_massive_jacobian,
    developing_report,
    match_cone_charts,
    rescale_btz,
)
from .errors import (
    BoundaryMismatchError,
    CertificationError,
    DegenerateMeasureError,
    GeometryError,
    GluingMismatchError,
    InvalidIsometryError,
    NotBTZExtendableError,
    SingularPointError,
)
from .extensions import (
    TubeChart,
    adjoin_btz,
    chain_membership,
    extremal_chart,
    remove_btz,
    sample_chain_monotone,
)
from .lorentz import (
    MINKOWSKI_METRIC,
    LorentzIsometry,
    boost_tx,
    classify_isometry,
    classify_vector,
    fixed_null_direction,
    hyperboloid_embed,
    minkowski_inner,
    q_form,
    rotation_about_t_axis,
)
from .models import (
    TWO_PI,
    ModelPoint,
    OmegaTransform,
    TubeRegion,
    chart_form,
    circle_circumference,
    in_region,
    is_singular,
    is_valid_cone_angle,
    metric_at,
    omega_metric_at,
    omega_transform,
)
from .modular import (
    EdgeClass,
    PolyhedralSurface,
    SuspensionComplex,
    build_complex,
    fundamental_triangles,
    polyhedral_cauchy_surface,
    psl2z_generators,
    ray_intersection_count,
    representation_checks,
    sample_interior_rays,
    sl2_adjoint,
    uhp_to_hyperboloid,
)
from .surfaces import (
    BoundaryCurve,
    CompositeSurface,
    GraphSurface,
    assemble_cauchy,
    completeness_certificate,
    delta_field,
    extend_boundary_cap,
    extend_boundary_complete,
    hyperbolic_plane_surface,
    induced_metric,
    min_spacelike_slack,
    surface_length,
)

__version__ = "0.1.0"
