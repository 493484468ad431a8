"""heislab: a laboratory for Heisenberg-type group diffusions.

Finite-dimensional Heisenberg-type groups built from a symplectic pairing;
their reduced (vertical-periodic) quotients; left-invariant calculus for
cylinder functions; hypoelliptic Brownian endpoints with deterministic
counter-based sampling; log-Sobolev functionals; and the closed-form
optimal polygon for the horizontal distance.
"""

__version__ = "0.1.0"

from .model import (
    WienerModel,
    SymplecticForm,
    Projection,
    full_projection,
    make_isotropic_form,
    make_nonisotropic_form,
    make_trace_class_form,
    check_hormander,
    project_element,
)
from .group import (
    TWO_PI,
    GroupElement,
    ReducedElement,
    LieVector,
    identity,
    reduced_identity,
    multiply,
    inverse,
    multiply_reduced,
    quotient,
    exp_group,
    exp_reduced,
    bracket,
    wrap_angle,
    angle_distance,
)
from .calculus import (
    CylinderFunction,
    Derivatives,
    left_invariant_derivative,
    second_invariant_derivative,
    horizontal_gradient,
    grad_norm_sq,
    sub_laplacian,
    compose_with_quotient,
    compose_scalar,
    multiply_functions,
    registry_names,
    make_registry_function,
    REGISTRY_DEFAULT_SELECTION,
)
from .diffusion import (
    PathConfig,
    EndpointSample,
    McEstimate,
    EndpointBatch,
    sample_unit_endpoints,
    simulate_endpoint,
    mc_expect,
    heat_equation_report,
    heat_equation_residual,
    levy_area_char_function,
    endpoint_moments,
    SPACE_FULL,
    SPACE_REDUCED,
)
from .lsi import (
    LsiReport,
    entropy,
    dirichlet_energy,
    lsi_ratio,
    FormFamily,
    ISOTROPIC_FAMILY,
    ASCENDING_WEIGHTS_FAMILY,
    family_from_name,
    ScanResult,
    lsi_scan,
    QuotientInvarianceReport,
    quotient_invariance_report,
    DEFAULT_C_REF,
)
from .distance import (
    HorizontalPath,
    LiftedPath,
    lift,
    DistanceResult,
    ReducedDistanceResult,
    cc_distance,
    cc_distance_reduced,
    distance_between,
    vertical_distance_reference,
    fiber_lower_bound,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    canonical_text,
    build_form,
    build_projection,
)

__all__ = [
    "__version__",
    # model
    "WienerModel", "SymplecticForm", "Projection", "full_projection",
    "make_isotropic_form", "make_nonisotropic_form", "make_trace_class_form",
    "check_hormander", "project_element",
    # group
    "TWO_PI", "GroupElement", "ReducedElement", "LieVector", "identity",
    "reduced_identity", "multiply", "inverse", "multiply_reduced", "quotient",
    "exp_group", "exp_reduced", "bracket", "wrap_angle", "angle_distance",
    # calculus
    "CylinderFunction", "Derivatives", "left_invariant_derivative",
    "second_invariant_derivative", "horizontal_gradient", "grad_norm_sq",
    "sub_laplacian", "compose_with_quotient", "compose_scalar",
    "multiply_functions", "registry_names", "make_registry_function",
    "REGISTRY_DEFAULT_SELECTION",
    # diffusion
    "PathConfig", "EndpointSample", "McEstimate", "EndpointBatch",
    "sample_unit_endpoints", "simulate_endpoint", "mc_expect",
    "heat_equation_report", "heat_equation_residual",
    "levy_area_char_function", "endpoint_moments", "SPACE_FULL", "SPACE_REDUCED",
    # lsi
    "LsiReport", "entropy", "dirichlet_energy", "lsi_ratio", "FormFamily",
    "ISOTROPIC_FAMILY", "ASCENDING_WEIGHTS_FAMILY", "family_from_name",
    "ScanResult", "lsi_scan", "QuotientInvarianceReport",
    "quotient_invariance_report", "DEFAULT_C_REF",
    # distance
    "HorizontalPath", "LiftedPath", "lift",
    "DistanceResult", "ReducedDistanceResult", "cc_distance",
    "cc_distance_reduced", "distance_between", "vertical_distance_reference",
    "fiber_lower_bound",
    # config
    "ConfigError", "ExperimentConfig", "parse_config", "canonical_text",
    "build_form", "build_projection",
]
