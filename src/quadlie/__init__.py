"""Structure-constant engine for left-invariant semi-Riemannian geometry.

Everything starts from a Lie algebra given by structure constants and a
symmetric bilinear form.  The package computes Levi-Civita products,
curvature and flatness certificates, integrates geodesics and variation
fields, scans for conjugate points, probes completeness, and builds the
quadratic families (double extensions, corank-zero two-step pairs,
graded-derivation flat structures) together with a catalog of worked
models that double as test oracles.
"""

import importlib

from .algebra import LieAlgebra, StructureReport, bracket, structure_report, validate_algebra
from .connection import (
    CurvatureTensor,
    FlatnessReport,
    ProductTensor,
    biinvariant_connection,
    curvature,
    dim4_obstruction,
    flatness_report,
    levi_civita,
    product_from_iso,
    product_report,
)
from .constructions import (
    FDerivationSpec,
    OscillatorJacobiForms,
    OscillatorSpec,
    SimilarityInvariants,
    TwoStepSpec,
    build_cotangent_double,
    build_double_extension,
    build_f_derivation,
    build_oscillator,
    build_two_step,
    oscillator_closed_forms,
    similarity_invariants,
    two_step_metric,
    volume_theta,
)
from .catalog import CatalogEntry, available, catalog
from .errors import EngineError, MixedModeError, ParseError, ValidationError
from .forms import (
    AdInvarianceReport,
    Signature,
    SymBilinearForm,
    SymmetricIso,
    check_ad_invariance,
    iso_from_metric,
    metric_from_iso,
    signature,
    validate_form,
)

# Modules imported when one of their names is first read: most commands
# integrate nothing, and a cold start need not pay for the integrator.
_DEFERRED = {
    "dynamics": (
        "ConjugateReport",
        "JacobiTrajectory",
        "PolynomialCertificate",
        "ProbeReport",
        "TerminationStatus",
        "Trajectory",
        "annotate_candidates",
        "biinvariant_jacobi",
        "completeness_probe",
        "conjugate_scan",
        "energy_drift",
        "euler_field",
        "integrate_geodesic",
        "integrate_jacobi",
        "jacobi_route_gap",
        "polynomial_geodesic_check",
        "quadratic_euler_field",
        "reflection_equation_residual",
        "right_invariant_reflection",
    ),
    "fileio": ("parse_algebra_file", "serialize_algebra", "write_algebra_file"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "LieAlgebra",
    "StructureReport",
    "bracket",
    "structure_report",
    "validate_algebra",
    "ProductTensor",
    "CurvatureTensor",
    "FlatnessReport",
    "levi_civita",
    "product_from_iso",
    "product_report",
    "flatness_report",
    "curvature",
    "biinvariant_connection",
    "dim4_obstruction",
    "OscillatorSpec",
    "TwoStepSpec",
    "FDerivationSpec",
    "SimilarityInvariants",
    "OscillatorJacobiForms",
    "build_oscillator",
    "build_double_extension",
    "build_two_step",
    "build_cotangent_double",
    "build_f_derivation",
    "volume_theta",
    "two_step_metric",
    "similarity_invariants",
    "oscillator_closed_forms",
    "CatalogEntry",
    "available",
    "catalog",
    "Trajectory",
    "JacobiTrajectory",
    "TerminationStatus",
    "ProbeReport",
    "ConjugateReport",
    "PolynomialCertificate",
    "integrate_geodesic",
    "integrate_jacobi",
    "biinvariant_jacobi",
    "euler_field",
    "quadratic_euler_field",
    "completeness_probe",
    "conjugate_scan",
    "annotate_candidates",
    "energy_drift",
    "right_invariant_reflection",
    "reflection_equation_residual",
    "jacobi_route_gap",
    "polynomial_geodesic_check",
    "EngineError",
    "ValidationError",
    "MixedModeError",
    "ParseError",
    "SymBilinearForm",
    "SymmetricIso",
    "Signature",
    "AdInvarianceReport",
    "validate_form",
    "signature",
    "check_ad_invariance",
    "metric_from_iso",
    "iso_from_metric",
    "parse_algebra_file",
    "serialize_algebra",
    "write_algebra_file",
]


def __getattr__(name):
    """A deferred module or one of its names, imported on first read and
    kept in the package from then on."""
    module = name if name in _DEFERRED else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    value = globals()[name] = loaded if module == name else getattr(loaded, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_DEFERRED})
