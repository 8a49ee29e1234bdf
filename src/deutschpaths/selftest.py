"""Fast whole-package verification battery.

Bundles the oracle comparison (small ranges), the determinant recursion,
the LU factorizations, the bijection certification, and the
determinant-product exponent adjudication into one report that finishes
in well under a minute.  The adjudication subreport states which exponent
in the diagonal-product identity is algebraically correct, with a
machine-checked witness dimension.
"""

from __future__ import annotations

from .bijection import certify
from .formulas import oracle_check
from .matrices import adjudicate_det_product, verify_det_recursion, verify_lu
from .reporting import MismatchFound, VerificationReport


def run_selftest() -> VerificationReport:
    """Run the full fast battery; raises MismatchFound on any failure."""
    report = VerificationReport("selftest")
    parts = (
        ("oracle", lambda: oracle_check(enum_max=8, dp_max=30, h_max=4)),
        ("lu", lambda: verify_lu(8)),
        ("det_recursion", lambda: verify_det_recursion(10)),
        ("bijection", lambda: certify(8)),
        ("det_product_adjudication", lambda: adjudicate_det_product(3)),
    )
    for name, run in parts:
        try:
            sub = run()
        except MismatchFound as exc:
            sub = exc.report
        for check in sub.checks:
            report.add(f"{name}: {check.name}", check.dimension, check.passed, check.witness)
        if sub.data:
            report.data[name] = sub.data

    adjudication = report.data.get("det_product_adjudication", {})
    report.data["det_product_statement"] = adjudication.get("statement", "adjudication missing")
    return report.raise_if_failed()
