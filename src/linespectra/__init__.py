"""Exact-arithmetic toolkit for spanned-line spectra of planar point sets.

Configurations live in the projective plane over the rationals, a quadratic
extension, or a cyclotomic field; every geometric predicate is decided
exactly.  The package computes line spectra, generates the classical
extremal configurations, checks the incidence identities and inequalities
with exact slack, and searches small integer grids for incidence-minimal
sets.
"""

from .constructions import (
    ConstructionError,
    GENERATORS,
    boroczky,
    cuspidal_cubic,
    expected_spectrum,
    fermat,
    grid,
    near_pencil,
    random_config,
    sylvester_cubic,
    two_lines,
)
from .fields import (
    FieldDescriptor,
    FieldElement,
    FieldError,
    FieldMismatchError,
    cyclotomic_field,
    cyclotomic_polynomial,
    euler_phi,
    quadratic_field,
    rational_field,
)
from .inequalities import (
    ALPHA,
    BETA,
    PROVEN_KINDS,
    InequalityReport,
    all_reports,
    compare_with_quadratic,
    exit_code_for,
    run_checks,
    violations,
)
from .projective import (
    Configuration,
    DuplicatePointError,
    GeometryError,
    InternalError,
    LineKey,
    LineSpectrum,
    ProjectivePoint,
    apply_projective_map,
    collinear,
    line_through,
    oracle_spanned_lines,
    spanned_lines,
    spectrum,
)
from .render import RenderError, render_svg
from .search import SearchError, SearchRecord, exhaustive_search, local_search
from .serialization import (
    SerializationError,
    config_from_json,
    config_to_json,
    load_configuration,
    save_configuration,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "Configuration",
    "ConstructionError",
    "DuplicatePointError",
    "FieldDescriptor",
    "FieldElement",
    "FieldError",
    "FieldMismatchError",
    "GENERATORS",
    "GeometryError",
    "InequalityReport",
    "InternalError",
    "LineKey",
    "LineSpectrum",
    "PROVEN_KINDS",
    "ProjectivePoint",
    "RenderError",
    "SearchError",
    "SearchRecord",
    "SerializationError",
    "all_reports",
    "apply_projective_map",
    "boroczky",
    "collinear",
    "compare_with_quadratic",
    "config_from_json",
    "config_to_json",
    "cuspidal_cubic",
    "cyclotomic_field",
    "cyclotomic_polynomial",
    "euler_phi",
    "exhaustive_search",
    "exit_code_for",
    "expected_spectrum",
    "fermat",
    "grid",
    "line_through",
    "load_configuration",
    "local_search",
    "near_pencil",
    "oracle_spanned_lines",
    "quadratic_field",
    "random_config",
    "rational_field",
    "render_svg",
    "run_checks",
    "save_configuration",
    "spanned_lines",
    "spectrum",
    "sylvester_cubic",
    "two_lines",
    "violations",
]
