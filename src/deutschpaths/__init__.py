"""Exact enumeration of Deutsch paths.

Deutsch paths are nonnegative lattice paths built from unit up-steps and
down-steps of arbitrary size.  This package counts them (directly and in a
height-bounded strip), manipulates their generating functions in exact
rational arithmetic, verifies the determinant and LU factorization
identities of the associated linear systems, computes height/area
statistics with asymptotic comparisons, and realizes the size-preserving
bijection with Motzkin paths.

``import deutschpaths`` loads no submodule: each public name below, and each
``deutschpaths.<submodule>``, is imported on first use (PEP 562), so a
command that never touches, say, the matrix identities never compiles them.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "algebra": (
        "DivisionByZero",
        "DivisorNotUnit",
        "Poly",
        "PoleAtOrigin",
        "RatFn",
        "Series",
        "coeff_of_z",
        "expand_in_v",
        "expand_in_z",
        "trinomial",
        "trinomial_row",
        "v_of_z",
    ),
    "bijection": (
        "FirstReturnDecomposition",
        "NotAPath",
        "certify",
        "decompose",
        "from_motzkin",
        "returns_count",
        "to_motzkin",
    ),
    "formulas": (
        "BadParams",
        "FormulaId",
        "coeff_closed",
        "coeff_open",
        "coeff_reversed_formal",
        "combinatorial_ids",
        "formula",
        "oracle_check",
        "z_series",
    ),
    "matrices": (
        "QvMatrix",
        "SingularMatrix",
        "adjudicate_det_product",
        "build_matrix",
        "cramer_solve",
        "det_closed_form",
        "det_product_candidate",
        "determinant",
        "determinant_at",
        "lu_formulas",
        "u_diagonal_product",
        "verify_cramer",
        "verify_det_recursion",
        "verify_determinant",
        "verify_lu",
    ),
    "paths": (
        "BadStep",
        "BoundExceeded",
        "DeutschPath",
        "InfiniteFamily",
        "LatticePath",
        "MotzkinPath",
        "NegativeLevel",
        "NonzeroEnd",
        "PathFamilyQuery",
        "ReversedDeutschPath",
        "count_dp",
        "enumerate_paths",
        "reverse_path",
        "total_area_dp",
        "total_height_dp",
        "validate_path",
    ),
    "reporting": ("CheckResult", "MismatchFound", "VerificationReport"),
    "selftest": ("run_selftest",),
    "stats": (
        "LAWS",
        "AsymptoticLaw",
        "ComparisonRow",
        "ZeroCount",
        "area_total",
        "asymptotic_report",
        "avg_area",
        "avg_elevation",
        "avg_height",
        "height_total",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    # Nothing is cached here: each lookup reads the submodule's attribute as
    # it stands, so a patched or wrapped function is seen through the root too.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
