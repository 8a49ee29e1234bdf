"""In-memory span tracing of deutschpaths' public functions, from outside.

``Tracer.install`` wraps each function in TRACED at every ``deutschpaths.*``
module attribute bound to it, and in module-level tables of records that
hold it, so a call from one layer into another goes through the wrapper and
the spans nest.  A span is (name, start, end,
parent, request id, raised); ``aggregate`` turns the spans of one process
into per-function calls, self time (span time minus child spans) and the
counts derived from arguments and results.  The package source is not
touched; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time

#: Traced public functions, by module.
TRACED = {
    "cli": ("main",),
    "algebra": (
        "expand_in_z", "expand_in_v", "compose_with_v", "v_of_z", "trinomial_row",
        "coeff_of_z", "poly_gcd", "save_cache", "load_cache",
    ),
    "formulas": ("formula", "oracle_check"),
    "matrices": (
        "determinant", "verify_determinant", "verify_det_recursion", "verify_cramer", "verify_lu",
    ),
    "paths": ("count_dp", "total_area_dp", "total_height_dp", "enumerate_paths", "validate_path"),
    "stats": ("height_total", "area_total", "avg_height", "avg_area"),
    "bijection": ("to_motzkin", "from_motzkin", "certify"),
    "selftest": ("run_selftest",),
}

#: Counts derived from arguments and results, and how two processes combine them.
DERIVED = {
    "algebra.expand_in_z.terms": "sum",
    "algebra.v_of_z.max_order": "max",
    "algebra.trinomial_row.repeats": "sum",
    "paths.count_dp.dp_cells": "sum",
    "paths.enumerate_paths.paths_listed": "sum",
    "formulas.oracle_check.cells_checked": "sum",
}
ERRORS_OF = ("bijection.to_motzkin", "bijection.from_motzkin")


def _strip_width(query) -> int:
    """Levels the DP counter sweeps for a query (mirrors its height cap)."""
    caps = [query.max_height] if query.max_height is not None else []
    if query.family == "reversed":
        if query.end_level is not None:
            caps.append(query.end_level + query.n)
    else:
        caps.append(query.n)
    return min(caps) + 1 if caps else 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._rows_seen: set[int] = set()

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        if name == "algebra.expand_in_z":
            c["algebra.expand_in_z.terms"] = c.get("algebra.expand_in_z.terms", 0) + args[1]
        elif name == "algebra.v_of_z":
            c["algebra.v_of_z.max_order"] = max(c.get("algebra.v_of_z.max_order", 0), args[0])
        elif name == "algebra.trinomial_row":
            if args[0] in self._rows_seen:
                c["algebra.trinomial_row.repeats"] = c.get("algebra.trinomial_row.repeats", 0) + 1
            self._rows_seen.add(args[0])
        elif name == "paths.count_dp":
            cells = args[0].n * _strip_width(args[0])
            c["paths.count_dp.dp_cells"] = c.get("paths.count_dp.dp_cells", 0) + cells
        elif name == "paths.enumerate_paths":
            c["paths.enumerate_paths.paths_listed"] = (
                c.get("paths.enumerate_paths.paths_listed", 0) + len(result)
            )
        elif name == "formulas.oracle_check":
            c["formulas.oracle_check.cells_checked"] = (
                c.get("formulas.oracle_check.cells_checked", 0) + result.data["cells_checked"]
            )

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request, raised)
            self._count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"deutschpaths.{m}") for m in TRACED}
        importlib.import_module("deutschpaths")
        for mod_name, names in TRACED.items():
            for fname in names:
                fn = getattr(modules[mod_name], fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", fn)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("deutschpaths"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((vars(mod), attr, value))
                        elif isinstance(value, dict):
                            self._patch_table(value, fn, wrapper)

    def _patch_table(self, table: dict, fn, wrapper) -> None:
        # stats.LAWS holds records whose fields are the functions themselves
        for key, record in list(table.items()):
            if not dataclasses.is_dataclass(record):
                continue
            for field in dataclasses.fields(record):
                if getattr(record, field.name) is fn:
                    table[key] = dataclasses.replace(record, **{field.name: wrapper})
                    self._patched.append((table, key, record))

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._patched):
            namespace[key] = value
        self._patched.clear()

    def aggregate(self) -> dict:
        """Per-function calls, self_s and errors, plus the derived counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = dict(self.counts)
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child_time[i])
            if raised and name in ERRORS_OF:
                out[f"{name}.errors"] = out.get(f"{name}.errors", 0) + 1
        return out


def merge(total: dict, part: dict) -> dict:
    """Combine the aggregates of two processes."""
    for key, value in part.items():
        total[key] = max(total.get(key, 0), value) if DERIVED.get(key) == "max" else total.get(key, 0) + value
    return total


def layer_metrics(agg: dict) -> dict:
    """Every per-layer metric, zero where the workload never reached the layer."""
    out = {}
    for mod_name, names in TRACED.items():
        for fname in names:
            out[f"{mod_name}.{fname}.calls"] = agg.get(f"{mod_name}.{fname}.calls", 0)
            out[f"{mod_name}.{fname}.self_s"] = agg.get(f"{mod_name}.{fname}.self_s", 0.0)
    for name in ERRORS_OF:
        out[f"{name}.errors"] = agg.get(f"{name}.errors", 0)
    for key in DERIVED:
        if key != "algebra.trinomial_row.repeats":
            out[key] = agg.get(key, 0)
    calls = agg.get("algebra.trinomial_row.calls", 0)
    out["algebra.trinomial_row.repeat_share"] = (
        agg.get("algebra.trinomial_row.repeats", 0) / calls if calls else 0.0
    )
    return out
