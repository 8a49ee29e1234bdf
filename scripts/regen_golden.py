#!/usr/bin/env python3
"""Regenerate tests/data/golden_series.json.

Stores the first 31 z-coefficients (orders 0..30) of every formula in the
catalog, with parameterized families sampled on a small grid.  Run after
any intentional change to the catalog and review the diff by hand; the
test suite compares against this file coefficient-for-coefficient, and
checks that ``render()`` reproduces it byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

from deutschpaths.algebra import Series, expand_in_z
from deutschpaths.cli import _num_str
from deutschpaths.formulas import FormulaId, formula

ORDER = 30

GOLDEN_IDS = (
    [
        FormulaId("motzkin_M"),
        FormulaId("phi0_limit"),
        FormulaId("open_sum_limit"),
        FormulaId("reversed_limit_formal"),
        FormulaId("area_A"),
        FormulaId("height_sum_closed", (ORDER,)),
        FormulaId("height_sum_open", (ORDER,)),
    ]
    + [FormulaId("phi", (h, i)) for h in range(4) for i in range(h + 1)]
    + [FormulaId("phi0_bounded", (h,)) for h in range(4)]
    + [FormulaId("closed_height_ge", (h,)) for h in range(1, 5)]
    + [FormulaId("open_sum", (h,)) for h in range(4)]
    + [FormulaId("psi0", (h,)) for h in range(4)]
    + [FormulaId("psi", (h, i)) for h in range(1, 4) for i in range(1, h + 1)]
    + [FormulaId("reversed_sum", (h,)) for h in range(4)]
)


TARGET = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_series.json"


def render() -> str:
    """The golden file's text, byte for byte; writes nothing."""
    data = {}
    for fid in GOLDEN_IDS:
        obj = formula(fid)
        series = obj if isinstance(obj, Series) else expand_in_z(obj, ORDER)
        assert series.is_integral(), fid
        data[str(fid)] = [_num_str(c) for c in series.coeffs]
    return json.dumps({"order": ORDER, "series": data}, indent=1, sort_keys=True) + "\n"


def main() -> None:
    TARGET.write_text(render())
    print(f"wrote {TARGET} ({len(GOLDEN_IDS)} series)")


if __name__ == "__main__":
    main()
