"""Exact-arithmetic toolkit for spanned-line spectra of planar point sets.

Configurations live in the projective plane over the rationals, a quadratic
extension, or a cyclotomic field; every geometric predicate is decided
exactly.  The package computes line spectra, generates the classical
extremal configurations, checks the incidence identities and inequalities
with exact slack, and searches small integer grids for incidence-minimal
sets.

The public names load lazily (PEP 562): `linespectra.spectrum` or
`from linespectra import spectrum` imports only the submodules that name
needs, so a CLI command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constructions": "ConstructionError GENERATORS boroczky expected_spectrum "
                     "fermat grid near_pencil random_config sylvester_cubic two_lines",
    "fields": "FieldDescriptor FieldElement FieldError FieldMismatchError cyclotomic_field "
              "cyclotomic_polynomial euler_phi quadratic_field rational_field",
    "inequalities": "ALPHA BETA PROVEN_KINDS InequalityReport all_reports exit_code_for "
                    "run_checks violations",
    "projective": "Configuration DuplicatePointError GeometryError InternalError LineKey "
                  "LineSpectrum ProjectivePoint apply_projective_map collinear line_through "
                  "oracle_spanned_lines spanned_lines spectrum",
    "render": "RenderError render_svg",
    "search": "SearchError SearchRecord exhaustive_search local_search",
    "serialization": "SerializationError config_from_json config_to_json load_configuration "
                     "save_configuration",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
