"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from deutschpaths import algebra


@pytest.fixture
def fresh_rows(monkeypatch):
    """An empty trinomial-row memo for one test, dropped with every row it built.

    It drops them to free memory: one row takes about 33 MB at n = 10 000.
    No CLI command saves the memo to disk, so a large row left in it would
    only cost memory for the rest of the run.
    """
    rows = {0: (1,)}
    monkeypatch.setattr(algebra, "_TRI_ROWS", rows)
    return rows
