"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from deutschpaths import algebra


@pytest.fixture
def fresh_rows(monkeypatch):
    """An empty trinomial-row memo for one test, dropped with every row it built.

    Rows past n of about 9000 hold integers longer than the int-to-str limit;
    left in the process-wide memo, they make every later ``save_cache`` refuse.
    """
    rows = {0: (1,)}
    monkeypatch.setattr(algebra, "_TRI_ROWS", rows)
    return rows
