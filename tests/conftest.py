"""Shared test fixtures and the acceptance-criteria summary hook.

Acceptance tests record one PASS/FAIL line each; the lines are echoed in
a dedicated terminal section at the end of the run so the verdicts stay
visible even when pytest captures stdout.
"""

import pytest

from fracheat import special_functions, subordination

_CRITERION_LINES: list[str] = []


def record_criterion(name: str, passed: bool, detail: str) -> bool:
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    _CRITERION_LINES.append(line)
    print(line)
    return passed


# every cache of a Wright table: the certified cuts, the panel tables, the
# series coefficients of M_alpha and its saddle-contour geometry
_WRIGHT_CACHES = (subordination._certified_cut, subordination._density_table,
                  special_functions._wright_series_table,
                  special_functions._wright_contour_geometry)


def clear_wright_caches():
    for cache in _WRIGHT_CACHES:
        cache.cache_clear()


@pytest.fixture
def fresh_wright_tables():
    """The Wright caches dropped on the way in and out: for a test that
    patches what the tables are built from or counts what builds them."""
    clear_wright_caches()
    yield
    clear_wright_caches()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
