"""Shared bench fixtures: the 20-app corpus run once per session.

Every table bench prints its rows (the "regenerate the paper table"
deliverable) and registers one representative timing with pytest-benchmark.
"""

from __future__ import annotations

import pytest

from tests.test_table3 import twenty_app_runs


@pytest.fixture(scope="session")
def twenty_runs():
    return twenty_app_runs()


def print_table(title: str, rows, paper_note: str = "") -> None:
    from repro.core import format_table

    print()
    print(f"=== {title} ===")
    if paper_note:
        print(paper_note)
    print(format_table(rows))
