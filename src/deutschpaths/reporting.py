"""Structured results for the package's internal verification runs.

Every identity checker returns a VerificationReport: a list of CheckResult
rows, one per (identity, size) pair, each carrying a witness string when
the check failed (``expect`` writes it for an equality).  Callers inspect
``report.ok``, or call ``raise_if_failed`` to raise MismatchFound on failure.
``_num_str`` writes an exact number of any length, as the CLI and the
reprs behind every witness need.
"""

from __future__ import annotations

from typing import NamedTuple


def _int_str(i: int) -> str:
    """str(i), or past the int-to-str digit limit (4300 by default) str(Decimal(i)):
    exact, plain digits, and held to no limit."""
    try:
        return str(i)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(i))


def _num_str(x) -> str:
    """Exact decimal text of an int or Fraction ("p/q") of any length."""
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


class MismatchFound(AssertionError):
    """An identity that should hold exactly failed at some size."""


class CheckResult(NamedTuple):
    """Outcome of one exact check at one size/dimension."""

    name: str
    dimension: str
    passed: bool
    witness: str = ""


class VerificationReport:
    """Collected check results plus free-form summary data."""

    def __init__(self, title: str):
        self.title = title
        self.checks: list[CheckResult] = []
        self.data = {}

    def add(self, name: str, dimension, passed: bool, witness: str = "") -> None:
        self.checks.append(CheckResult(name, str(dimension), bool(passed), witness))

    def expect(self, name: str, dimension, got, want, got_from: str, want_from: str) -> None:
        """Add the check ``got == want``, naming both routes in the witness if it fails."""
        passed = got == want
        witness = "" if passed else f"{got_from} {got!r} vs {want_from} {want!r}"
        self.add(name, dimension, passed, witness)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def raise_if_failed(self) -> VerificationReport:
        bad = self.failures
        if bad:
            first = bad[0]
            exc = MismatchFound(
                f"{self.title}: {first.name} failed at {first.dimension}"
                + (f" ({first.witness})" if first.witness else "")
                + (f"; {len(bad) - 1} more failure(s)" if len(bad) > 1 else "")
            )
            exc.report = self
            raise exc
        return self

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [c._asdict() for c in self.checks],
            "data": self.data,
        }
