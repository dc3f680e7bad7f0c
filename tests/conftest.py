"""Shared test fixtures and the acceptance-criteria summary hook.

Acceptance tests record one PASS/FAIL line each; the lines are echoed in
a dedicated terminal section at the end of the run so the verdicts stay
visible even when pytest captures stdout.
"""

import pytest

from fracheat import special_functions

_CRITERION_LINES: list[str] = []


def record_criterion(name: str, passed: bool, detail: str) -> bool:
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    _CRITERION_LINES.append(line)
    print(line)
    return passed


@pytest.fixture
def fresh_series_tables():
    """The series tables, cached per alpha, dropped on the way in and out: for
    a test that patches what they are built from."""
    special_functions._wright_series_table.cache_clear()
    yield
    special_functions._wright_series_table.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
