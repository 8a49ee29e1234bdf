"""Structured pass/fail reports used by the verification batteries."""

from __future__ import annotations

import pytest

from deutschpaths.reporting import CheckResult, MismatchFound, VerificationReport


class TestCheckResult:
    def test_to_dict(self):
        r = VerificationReport("demo")
        r.add("identity", "n=3", True)
        assert r.to_dict()["checks"] == [{
            "name": "identity",
            "dimension": "n=3",
            "passed": True,
            "witness": "",
        }]


class TestVerificationReport:
    def test_add_and_ok(self):
        r = VerificationReport("demo")
        r.add("a", "n=1", True)
        r.add("b", "n=2", False, "got 3, want 4")
        assert not r.ok
        assert [c.name for c in r.failures] == ["b"]
        assert r.failures[0].witness == "got 3, want 4"

    def test_raise_if_failed_attaches_report(self):
        r = VerificationReport("demo")
        r.add("bad", "n=1", False, "boom")
        with pytest.raises(MismatchFound) as exc:
            r.raise_if_failed()
        assert exc.value.report is r

    def test_clean_report_does_not_raise(self):
        r = VerificationReport("demo")
        r.add("good", "n=1", True)
        assert r.raise_if_failed() is r

    def test_expect_pass(self):
        r = VerificationReport("demo")
        r.expect("x = y", "n=2", 3, 3, "route", "closed form")
        assert r.checks == [CheckResult("x = y", "n=2", True, "")]

    def test_expect_fail_names_both_routes(self):
        r = VerificationReport("demo")
        r.expect("x = y", 2, "3", 4, "elimination", "closed form")
        assert r.checks == [CheckResult("x = y", "2", False, "elimination '3' vs closed form 4")]
        with pytest.raises(MismatchFound) as exc:
            r.raise_if_failed()
        assert str(exc.value) == "demo: x = y failed at 2 (elimination '3' vs closed form 4)"

    def test_expect_compares_once(self):
        class Counted:
            calls = 0

            def __eq__(self, other):
                Counted.calls += 1
                return True

        VerificationReport("demo").expect("x", 1, Counted(), 0, "a", "b")
        assert Counted.calls == 1

    def test_to_dict_shape(self):
        r = VerificationReport("demo")
        r.data["k"] = 1
        r.add("a", "n=1", True)
        d = r.to_dict()
        assert d["title"] == "demo"
        assert d["ok"] is True
        assert d["data"] == {"k": 1}
        assert d["checks"][0]["name"] == "a"

    def test_mismatch_is_assertion_error(self):
        assert issubclass(MismatchFound, AssertionError)


class TestRecordsUnchanged:
    """The payloads verify and selftest print, key for key and in order."""

    def test_check_result_to_dict(self):
        r = VerificationReport("demo")
        r.add("identity", "n=3", False, "got 1")
        (d,) = r.to_dict()["checks"]
        assert list(d.items()) == [
            ("name", "identity"),
            ("dimension", "n=3"),
            ("passed", False),
            ("witness", "got 1"),
        ]
        assert type(d) is dict

    def test_check_result_is_an_immutable_record(self):
        c = CheckResult("identity", "n=3", True)
        assert c == ("identity", "n=3", True, "")
        with pytest.raises(AttributeError):
            c.passed = False

    def test_report_to_dict(self):
        r = VerificationReport("demo")
        r.data["k"] = 1
        r.add("a", 1, True)
        r.expect("b", "n=2", 3, 4, "elimination", "closed form")
        assert r.to_dict() == {
            "title": "demo",
            "ok": False,
            "checks": [
                {"name": "a", "dimension": "1", "passed": True, "witness": ""},
                {
                    "name": "b",
                    "dimension": "n=2",
                    "passed": False,
                    "witness": "elimination 3 vs closed form 4",
                },
            ],
            "data": {"k": 1},
        }
        assert list(r.to_dict()) == ["title", "ok", "checks", "data"]

    def test_reports_do_not_share_their_lists(self):
        a, b = VerificationReport("a"), VerificationReport("b")
        a.add("x", 1, True)
        a.data["k"] = 1
        assert (b.checks, b.data) == ([], {})
