"""Generating-function catalog: identities, oracles, golden series."""

from __future__ import annotations

import importlib.util
import inspect
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deutschpaths import algebra, cli, formulas, paths
from deutschpaths.algebra import (
    KERNEL,
    V,
    Poly,
    RatFn,
    Series,
    compose_with_v,
    expand_in_v,
    expand_in_z,
)
from deutschpaths.formulas import (
    CATALOG,
    BadParams,
    FormulaId,
    _divisor_sieve,
    _end_height_area,
    closed_height_ge,
    coeff_closed,
    coeff_open,
    coeff_reversed_formal,
    combinatorial_ids,
    formula,
    height_sum_closed,
    height_sum_open,
    oracle_check,
    z_series,
)
from deutschpaths.paths import PathFamilyQuery, QueryError, count_dp, enumerate_paths
from deutschpaths.reporting import MismatchFound, VerificationReport
from deutschpaths.stats import height_total

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_series.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
#: The output of ``scripts/canonical_hash.py``: its digest and the number of values hashed.
CANONICAL_HASH = ("c46877389eff4cdeb871413d2fbce35e3b7d4b1232a26ed0433d61e2b0221112", 2177)


class TestCatalogValues:
    def test_phi0_limit_series(self):
        s = expand_in_z(formula("phi0_limit"), 10)
        assert s.coeffs == (1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603)

    def test_area_series(self):
        s = expand_in_z(formula("area_A"), 10)
        assert s.coeffs == (0, 0, 1, 3, 12, 39, 129, 411, 1300, 4065, 12633)

    def test_open_sum_limit_is_motzkin(self):
        s = expand_in_z(formula("open_sum_limit"), 6)
        assert s.coeffs == (1, 1, 2, 4, 9, 21, 51)
        assert formula("open_sum_limit") == formula("motzkin_M") == RatFn(KERNEL)

    def test_psi0_equals_phi0_bounded(self):
        for h in range(6):
            assert formula(f"psi0({h})") == formula(f"phi0_bounded({h})")

    def test_phi_at_i0_equals_phi0_bounded(self):
        for h in range(6):
            assert formula(f"phi({h},0)") == formula(f"phi0_bounded({h})")

    def test_reversed_formal_is_one_minus_v_cubed(self):
        f = formula("reversed_limit_formal")
        assert f == RatFn(Poly((1, 0, 0, -1)))
        s = expand_in_z(f, 8)
        assert s.coeffs == (1, 0, 0, -1, -3, -9, -25, -69, -189)
        assert s.coeff(3) == -1  # first negative coefficient

    def test_height_sum_closed_small_values(self):
        s = formula("height_sum_closed(6)")
        # n=4: the three closed paths have heights 3, 2, 1
        assert s.coeff(4) == 6
        assert s.coeffs == (0, 0, 1, 2, 6, 16, 44)

    def test_height_sum_open_small_values(self):
        s = formula("height_sum_open(6)")
        assert s.coeffs == (0, 1, 3, 8, 22, 60, 165)

    def test_closed_height_ge_picks_out_tall_paths(self):
        # the single closed path of length 3 (U U D2) has height 2
        s = expand_in_z(formula("closed_height_ge(1)"), 3)
        assert s.coeff(3) == 1
        s = expand_in_z(formula("closed_height_ge(2)"), 3)
        assert s.coeff(3) == 1
        s = expand_in_z(formula("closed_height_ge(3)"), 3)
        assert s.coeff(3) == 0


def _open_height_ge(h):
    """Open Deutsch paths of height >= h: (1+v+v^2)(1-v^2) v^h / (1-v^(h+2))."""
    return RatFn(KERNEL * Poly((1, 0, -1)) * V**h, 1 - V**(h + 2))


def _per_h_height_sum(order, summand):
    """The height sum as one rational function per bound h <= order."""
    total = [0] * (order + 1)
    for h in range(1, order + 1):
        w = expand_in_v(summand(h), order)
        total = [a + b for a, b in zip(total, w.coeffs)]
    return compose_with_v(total, order)


class TestHeightSums:
    @pytest.mark.parametrize("order", [0, 1, 7, 40])
    def test_divisor_series_equals_per_h_sum(self, order):
        assert height_sum_closed(order) == _per_h_height_sum(order, closed_height_ge)
        assert height_sum_open(order) == _per_h_height_sum(order, _open_height_ge)

    def test_matches_trinomial_height_total_at_large_n(self):
        closed, opened = height_sum_closed(300), height_sum_open(300)
        for n in (151, 300):
            assert closed.coeff(n) == height_total(n, "closed")
            assert opened.coeff(n) == height_total(n, "open")


class TestIdentities:
    @pytest.mark.parametrize("h", range(40))
    def test_telescoping_height_split(self, h):
        lhs = formula("phi0_limit") - formula(f"phi0_bounded({h})")
        assert lhs == formula(f"closed_height_ge({h + 1})")

    @pytest.mark.parametrize("h", range(21))
    def test_phi_sum_closed_form(self, h):
        total = formula(f"phi({h},0)")
        for i in range(1, h + 1):
            total = total + formula(f"phi({h},{i})")
        assert total == formula(f"open_sum({h})")

    @pytest.mark.parametrize("h", range(21))
    def test_psi_sum_closed_form(self, h):
        total = formula(f"psi0({h})")
        for i in range(1, h + 1):
            total = total + formula(f"psi({h},{i})")
        assert total == formula(f"reversed_sum({h})")

    @pytest.mark.parametrize("h", [0, 5, 17, 30])
    def test_bounded_matches_limit_below_h(self, h):
        bounded = expand_in_z(formula(f"phi0_bounded({h})"), h)
        limit = expand_in_z(formula("phi0_limit"), h)
        assert bounded == limit

    def test_alternating_identity_to_50(self):
        s = expand_in_z(formula("reversed_limit_formal"), 50)
        for n in range(51):
            assert s.coeff(n) == coeff_reversed_formal(n)

    def test_psi1_denominator_carries_one_plus_v(self):
        f = formula("psi(3,1)")
        assert (f.den % Poly((1, 1))).is_zero()


class TestCoefficientFormulas:
    def test_examples(self):
        assert coeff_closed(4) == 3
        assert coeff_closed(0) == 1
        assert coeff_open(4) == 9

    def test_against_series_to_50(self):
        sc = expand_in_z(formula("phi0_limit"), 50)
        so = expand_in_z(formula("open_sum_limit"), 50)
        for n in range(51):
            assert coeff_closed(n) == sc.coeff(n)
            assert coeff_open(n) == so.coeff(n)

    @given(st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_closed_counts_are_nonnegative(self, n):
        assert coeff_closed(n) >= 0
        assert coeff_open(n) >= 1


class TestFormulaId:
    def test_parse_and_str(self):
        fid = FormulaId.parse(" phi(4, 1) ")
        assert fid == FormulaId("phi", (4, 1))
        assert str(fid) == "phi(4,1)"
        assert str(FormulaId.parse("motzkin_M")) == "motzkin_M"

    @pytest.mark.parametrize(
        "bad",
        [
            "phi(1,2)",  # i > h
            "psi(3,0)",  # psi starts at i = 1
            "psi(3,4)",
            "closed_height_ge(0)",
            "phi0_bounded(-1)",
            "phi(1)",  # wrong arity
            "motzkin_M(3)",
            "no_such_formula",
            "phi[2]",
            "phi(1,,2)",  # malformed parameters used to escape as a bare ValueError
            "phi(--1,0)",
            "phi(1-2,0)",
            "phi( , )",
            "phi(4,)",
            pytest.param("phi(1" + "0" * 5000 + ",0)", id="past-the-int-digit-limit"),
        ],
    )
    def test_bad_params(self, bad):
        with pytest.raises(BadParams):
            formula(bad)

    def test_height_sum_orders_validated(self):
        with pytest.raises(BadParams):
            formula("height_sum_closed(-1)")


class TestFormulaIdRecord:
    """FormulaId is an immutable named tuple that no route builds unchecked."""

    @pytest.mark.parametrize(
        "name, args",
        [("no_such_formula", ()), ("phi", (4,)), ("motzkin_M", (3,)), ("psi", (1, 2, 3))],
    )
    def test_invalid_values_refused_on_every_route(self, name, args):
        with pytest.raises(BadParams):
            FormulaId(name, args)
        with pytest.raises(BadParams):
            FormulaId("phi", (4, 1))._replace(name=name, args=args)
        with pytest.raises(BadParams):
            FormulaId._make((name, args))

    def test_replace_checks_arity_against_the_new_name(self):
        with pytest.raises(BadParams):
            FormulaId("phi", (4, 1))._replace(name="phi0_limit")
        assert FormulaId("phi", (4, 1))._replace(args=(5, 2)) == FormulaId("phi", (5, 2))
        assert type(FormulaId._make(("phi0_limit", ()))) is FormulaId

    def test_fields_cannot_be_set(self):
        fid = FormulaId("phi", (4, 1))
        for name in ("name", "args", "other"):
            with pytest.raises(AttributeError):
                setattr(fid, name, "x")
        assert fid == FormulaId("phi", (4, 1))

    @pytest.mark.parametrize("text", ["phi(4,1)", "motzkin_M", "height_sum_open(7)", "psi(3,3)"])
    def test_parse_str_round_trip(self, text):
        fid = FormulaId.parse(text)
        assert str(fid) == text
        assert FormulaId.parse(str(fid)) == fid

    def test_tuple_behaviour(self):
        fid = FormulaId("phi", (4, 1))
        assert fid == ("phi", (4, 1))
        name, args = fid
        assert (name, args) == ("phi", (4, 1))
        assert repr(fid) == "FormulaId(name='phi', args=(4, 1))"
        assert FormulaId("phi0_limit").args == ()

    def test_bad_params_is_a_query_error(self):
        # the CLI refuses both with exit status 2 through one except clause
        assert issubclass(BadParams, QueryError)
        assert issubclass(BadParams, ValueError)


class TestCatalogTable:
    def test_parameter_count_is_the_constructor_arity(self):
        for name, record in CATALOG.items():
            assert len(record.params) == len(inspect.signature(record.build).parameters), name
            if record.meaning is not None:
                assert len(record.params) == len(inspect.signature(record.meaning).parameters), name

    def test_height_sum_is_built_only_through_the_order_asked(self):
        assert z_series("height_sum_closed(100000)", 3) == height_sum_closed(3)
        assert z_series(FormulaId("height_sum_open", (40,)), 9) == height_sum_open(9)
        assert z_series("height_sum_open(9)", 9) == height_sum_open(9)


class TestGoldenSeries:
    def test_every_golden_series_matches(self):
        order = GOLDEN["order"]
        for name, coeffs in GOLDEN["series"].items():
            series = z_series(name, order)
            assert [str(c) for c in series.coeffs] == coeffs, name

    def test_regen_script_renders_the_file_byte_for_byte(self):
        script = Path(__file__).parent.parent / "scripts" / "regen_golden.py"
        spec = importlib.util.spec_from_file_location("regen_golden", script)
        regen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(regen)
        assert regen.render().encode() == GOLDEN_PATH.read_bytes()

    def test_canonical_hash_is_pinned(self):
        # every canonical form and verification report the hash script covers;
        # a change that moves one on purpose updates CANONICAL_HASH
        script = Path(__file__).parent.parent / "scripts" / "canonical_hash.py"
        spec = importlib.util.spec_from_file_location("canonical_hash", script)
        canonical = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(canonical)
        assert canonical.digest() == CANONICAL_HASH

    def test_golden_file_covers_every_formula_name(self):
        names = {FormulaId.parse(k).name for k in GOLDEN["series"]}
        assert names == set(CATALOG)


def sieve_loop(m_max: int) -> list[int]:
    """The sieve run afresh for one m_max, as the package did before it kept one."""
    c = [0] * (m_max + 1)
    for d in range(3, m_max + 1):
        for m in range(d, m_max + 1, d):
            c[m] += 1
    return c


ONE_PLUS_V, ONE_MINUS_V = Poly((1, 1)), Poly((1, -1))


def one_minus_v_pow(k: int) -> Poly:
    return 1 - V**k


def psi_generic(h: int, i: int) -> tuple[Poly, Poly]:
    num = V * KERNEL * one_minus_v_pow(h + 1 - i) * ONE_PLUS_V ** max(i - 2, 0)
    return num, one_minus_v_pow(h + 3) * ONE_PLUS_V ** max(2 - i, 0)


#: (num, den) of each rational catalog formula as products of polynomials,
#: for the generic reduction RatFn(num, den): the route the catalog took
#: before it was built reduced without a gcd, kept as the oracle.
GENERIC = {
    "motzkin_M": lambda: (KERNEL, 1),
    "phi": lambda h, i: (
        V**i * KERNEL * one_minus_v_pow(h - i + 2),
        ONE_PLUS_V ** (i + 1) * one_minus_v_pow(h + 3),
    ),
    "phi0_bounded": lambda h: (KERNEL * one_minus_v_pow(h + 2), ONE_PLUS_V * one_minus_v_pow(h + 3)),
    "phi0_limit": lambda: (KERNEL, ONE_PLUS_V),
    "closed_height_ge": lambda h: (
        KERNEL * V**(h + 1) * ONE_MINUS_V, ONE_PLUS_V * one_minus_v_pow(h + 2)
    ),
    "open_sum": lambda h: (KERNEL * one_minus_v_pow(h + 1), one_minus_v_pow(h + 3)),
    "open_sum_limit": lambda: (KERNEL, 1),
    "psi0": lambda h: (KERNEL * one_minus_v_pow(h + 2), ONE_PLUS_V * one_minus_v_pow(h + 3)),
    "psi": psi_generic,
    "reversed_sum": lambda h: (KERNEL * ONE_PLUS_V**h * ONE_MINUS_V, one_minus_v_pow(h + 3)),
    "reversed_limit_formal": lambda: (KERNEL * ONE_MINUS_V, 1),
    "area_A": lambda: (V**2 * KERNEL**2, ONE_PLUS_V**3 * ONE_MINUS_V**2),
}


def typed(p: Poly) -> list:
    return [(type(c), c) for c in p.coeffs]


def assert_reduced_route(fid: FormulaId) -> None:
    built, generic = formula(fid), RatFn(*GENERIC[fid.name](*fid.args))
    assert (typed(built.num), typed(built.den)) == (typed(generic.num), typed(generic.den)), fid


class TestReducedConstruction:
    def test_every_catalog_id_through_h30(self):
        ids = [fid for fid in combinatorial_ids(30, 0) if fid.name in GENERIC]
        ids.append(FormulaId("reversed_limit_formal"))
        assert {fid.name for fid in ids} == set(GENERIC) and len(ids) > 1000
        for fid in ids:
            assert_reduced_route(fid)

    @pytest.mark.parametrize("h", [50, 75, 100])
    def test_large_heights(self, h):
        for name, args in (("phi", (h, 0)), ("phi", (h, h)), ("psi", (h, h)),
                           ("open_sum", (h,)), ("reversed_sum", (h,))):
            assert_reduced_route(FormulaId(name, args))

    def test_height_sum_prefactors(self):
        closed = RatFn(KERNEL * ONE_MINUS_V, ONE_PLUS_V)
        open_ = RatFn(KERNEL * Poly((1, 0, -1)))
        assert height_sum_closed(40) == formulas._height_sum_series(40, closed, 1)
        assert height_sum_open(40) == formulas._height_sum_series(40, open_, 2)

    def test_construction_runs_no_gcd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a catalog formula ran a gcd")

        monkeypatch.setattr(algebra, "poly_gcd", refuse)
        for fid in combinatorial_ids(12, 20):
            formula(fid)
        formula("reversed_limit_formal")


class TestDivisorCounts:
    def test_grown_sieve_matches_the_loop(self, monkeypatch):
        monkeypatch.setattr(formulas, "_DIVISOR_SIEVE", (0,))
        want = sieve_loop(10002)
        for m in range(2001):
            assert list(_divisor_sieve(m)[: m + 1]) == want[: m + 1]
        assert list(_divisor_sieve(10002)[:10003]) == want

    def test_height_totals_do_not_depend_on_the_kept_length(self, monkeypatch):
        # stats reads the kept sieve in place; it may be longer than n + s
        monkeypatch.setattr(formulas, "_DIVISOR_SIEVE", (0,))
        first = [height_total(n, family) for n in (0, 1, 2, 40) for family in ("closed", "open")]
        _divisor_sieve(5000)
        assert [height_total(n, family) for n in (0, 1, 2, 40) for family in ("closed", "open")] == first

    def test_the_kept_sieve_is_read_only(self, monkeypatch):
        # handed out as it is kept: no caller can change what the next one reads
        monkeypatch.setattr(formulas, "_DIVISOR_SIEVE", (0,))
        kept = _divisor_sieve(12)  # the sieve is built to exactly 12
        with pytest.raises(TypeError):
            kept[6] = 99
        assert _divisor_sieve(12) is kept
        assert list(kept) == sieve_loop(12)


class TestOracle:
    def test_full_battery(self):
        report = oracle_check(enum_max=7, dp_max=25, h_max=4)
        assert report.ok
        assert report.data["formulas_checked"] == len(combinatorial_ids(4, 25))

    def test_enumeration_oracle_reads_raw_steps_like_typed_paths(self):
        for family, cap in (("deutsch", None), ("motzkin", None), ("reversed", 4)):
            for n in range(8):
                for p in enumerate_paths(PathFamilyQuery(family, n, max_height=cap)):
                    assert _end_height_area(p.steps) == (p.end_level, p.height, p.area)

    def test_counting_series_are_nonnegative_integers(self):
        for fid in combinatorial_ids(3, 20):
            series = z_series(fid, 20)
            assert series.is_integral(), fid
            assert all(c >= 0 for c in series.coeffs), fid

    def test_mismatch_raises_with_witness(self, monkeypatch):
        wrong = RatFn(KERNEL, Poly((1, 2)))
        wrong_record = CATALOG["phi0_limit"]._replace(build=lambda: wrong)
        monkeypatch.setitem(CATALOG, "phi0_limit", wrong_record)
        with pytest.raises(MismatchFound) as exc:
            oracle_check(
                ids=[FormulaId("phi0_limit")], enum_max=5, dp_max=10, h_max=2
            )
        assert exc.value.report.failures
        assert "phi0_limit" in exc.value.report.failures[0].witness

    def test_ids_bounded_above_h_max(self):
        # the reversed enumeration must reach the ids' own height bounds
        ids = [FormulaId("psi", (5, 2)), FormulaId("reversed_sum", (5,))]
        report = oracle_check(ids=ids, enum_max=6, dp_max=12, h_max=2)
        assert report.ok
        assert report.data["cells_checked"] == 2 * (13 + 7)

    def test_meanings_cover_every_counting_formula(self):
        formal = [name for name, r in CATALOG.items() if r.meaning is None]
        assert formal == ["reversed_limit_formal"]

    def test_formal_formula_has_no_meaning(self):
        with pytest.raises(BadParams):
            oracle_check(ids=[FormulaId("reversed_limit_formal")], enum_max=3, dp_max=3)


def strip_prefix(query: PathFamilyQuery, statistic: str) -> list[int]:
    """One level-vector sweep per strip of the query alone, height as the
    differences of strip counts: the former per-id DP route."""
    rules, cap = paths._FAMILIES[query.family], paths._height_cap(query)
    target = paths._target_levels(query)

    def counts(h: int) -> list[int]:
        return [paths._read(v, target) for v in paths._dp_vector(rules, h, query.n)]

    if statistic == "count":
        return counts(cap)
    if statistic == "area":
        out, areas = [], [0] * (cap + 1)
        for t, vector in enumerate(paths._dp_vector(rules, cap, query.n)):
            if t:
                areas = paths._dp_step(rules, areas)
            areas = [a + level * c for level, (a, c) in enumerate(zip(areas, vector))]
            out.append(paths._read(areas, target))
        return out
    within, lower = counts(cap), [counts(h) for h in range(cap)]
    return [sum(w - low[n] for low in lower) for n, w in enumerate(within)]


def per_id_oracle(enum_max: int, dp_max: int, h_max: int) -> VerificationReport:
    """oracle_check's report with, for each id, its own DP sweeps and a scan
    of every enumerated path of its query: the oracle."""
    ids = combinatorial_ids(h_max, dp_max)
    report = VerificationReport("formula oracle equivalence")
    n_enum = min(enum_max, dp_max)
    weight = {"count": lambda p: 1, "area": lambda p: p.area, "height": lambda p: p.height}
    for fid in ids:
        m = formulas._meaning(fid)
        query = PathFamilyQuery(m.family, dp_max, end_level=m.end, max_height=m.max_height)
        dp = strip_prefix(query, m.statistic)
        if m.min_height:
            below = strip_prefix(query._replace(max_height=m.min_height - 1), m.statistic)
            dp = [a - b for a, b in zip(dp, below)]
        enumerated = [
            sum(
                weight[m.statistic](p)
                for p in enumerate_paths(query._replace(n=n))
                if p.height >= m.min_height
            )
            for n in range(n_enum + 1)
        ]
        series = z_series(fid, dp_max)
        for oracle, bound, wants in (("DP", dp_max, dp), ("enumeration", enum_max, enumerated)):
            witness = next(
                (
                    f"[z^{n}] {fid} = {series.coeff(n)}, {oracle} oracle = {want}"
                    for n, want in enumerate(wants)
                    if series.coeff(n) != want
                ),
                "",
            )
            report.add(f"{fid} vs {oracle}", f"n<={bound}", not witness, witness)
    report.data["formulas_checked"] = len(ids)
    report.data["cells_checked"] = len(ids) * (dp_max + 1 + n_enum + 1)
    return report


class TestSharedOracle:
    """oracle_check sweeps each (family, height cap) strip once and tallies
    each family's paths once per length, with the same report as the per-id
    oracle, and keeps nothing from one call to the next."""

    def test_report_matches_the_per_id_oracle(self):
        report = oracle_check(enum_max=6, dp_max=20, h_max=3)
        assert report.to_dict() == per_id_oracle(6, 20, 3).to_dict()

    def test_cli_default_report_matches_the_per_id_oracle(self):
        battery, default = cli._BATTERIES["oracle"][:2]
        assert battery(default).to_dict() == per_id_oracle(min(8, default), default, 4).to_dict()

    def test_tally_reads_like_every_path(self):
        for family, cap in (("deutsch", None), ("motzkin", None), ("reversed", 4)):
            for n, steps in enumerate(paths._walk(PathFamilyQuery(family, 7, max_height=cap))):
                query = PathFamilyQuery(family, n, max_height=cap)
                tally = formulas._tally(steps)
                assert sum(c for c, _ in tally.values()) == count_dp(query)
                for (end, height), (count, area) in tally.items():
                    same = [
                        p for p in enumerate_paths(query) if (p.end_level, p.height) == (end, height)
                    ]
                    assert (count, area) == (len(same), sum(p.area for p in same))

    def test_a_perturbed_sweep_in_a_later_call_fails(self, monkeypatch):
        first = oracle_check(enum_max=5, dp_max=12, h_max=2)
        step = paths._dp_step
        monkeypatch.setattr(paths, "_dp_step", lambda rules, v: [c + 1 for c in step(rules, v)])
        with pytest.raises(MismatchFound) as exc:
            oracle_check(enum_max=5, dp_max=12, h_max=2)
        second = exc.value.report
        assert second.to_dict() != first.to_dict()
        assert second.failures and all(c.name.endswith("vs DP") for c in second.failures)

    def test_a_perturbed_tally_in_a_later_call_fails(self, monkeypatch):
        first = oracle_check(enum_max=5, dp_max=12, h_max=2)
        stats = formulas._end_height_area
        monkeypatch.setattr(
            formulas, "_end_height_area", lambda steps: (*stats(steps)[:2], stats(steps)[2] + 1)
        )
        with pytest.raises(MismatchFound) as exc:
            oracle_check(enum_max=5, dp_max=12, h_max=2)
        second = exc.value.report
        assert second.to_dict() != first.to_dict()
        assert [c.name for c in second.failures] == ["area_A vs enumeration"]


class TestSharedExpansions:
    """oracle_check expands each distinct RatFn once per call, and every id
    that builds it reads that one series."""

    SHARED = ("phi(2,0)", "phi0_bounded(2)", "psi0(2)")

    def test_each_distinct_formula_is_expanded_once(self, monkeypatch):
        expand, calls = formulas.expand_in_z, []
        monkeypatch.setattr(formulas, "expand_in_z", lambda f, n: calls.append(f) or expand(f, n))
        oracle_check(enum_max=8, dp_max=30, h_max=4)
        ids = [fid for fid in combinatorial_ids(4, 30) if CATALOG[fid.name].params != ("order",)]
        assert len(ids) == 53 and len(calls) == len({formula(fid) for fid in ids}) == 35
        assert len(set(calls)) == len(calls)
        assert formula("open_sum_limit") == formula("motzkin_M")
        assert len({formula(fid) for fid in self.SHARED}) == 1

    def test_a_perturbed_shared_expansion_fails_every_id_that_reads_it(self, monkeypatch):
        first = oracle_check(enum_max=6, dp_max=20, h_max=3)
        shared, expand = formula(self.SHARED[0]), formulas.expand_in_z

        def perturbed(f, order):
            s = expand(f, order)
            return Series((*s.coeffs[:4], s.coeffs[4] + 1, *s.coeffs[5:])) if f == shared else s

        monkeypatch.setattr(formulas, "expand_in_z", perturbed)
        with pytest.raises(MismatchFound) as exc:
            oracle_check(enum_max=6, dp_max=20, h_max=3)
        second = exc.value.report
        assert second.to_dict() != first.to_dict()
        assert {c.name for c in second.failures} == {
            f"{fid} vs {oracle}" for fid in self.SHARED for oracle in ("DP", "enumeration")
        }
        assert second.to_dict() == per_id_oracle(6, 20, 3).to_dict()


class TestSingleFormulaOracleSpot:
    """Direct spot checks independent of the battery plumbing."""

    @pytest.mark.parametrize("h,i", [(1, 0), (2, 1), (4, 4), (5, 2)])
    def test_phi_counts_bounded_paths(self, h, i):
        s = expand_in_z(formula(f"phi({h},{i})"), 9)
        for n in range(10):
            q = PathFamilyQuery("deutsch", n, end_level=i, max_height=h)
            assert s.coeff(n) == len(enumerate_paths(q))

    @pytest.mark.parametrize("h,i", [(1, 1), (3, 1), (4, 2), (5, 5)])
    def test_psi_counts_reversed_paths(self, h, i):
        s = expand_in_z(formula(f"psi({h},{i})"), 9)
        for n in range(10):
            q = PathFamilyQuery("reversed", n, end_level=i, max_height=h)
            assert s.coeff(n) == count_dp(q)
