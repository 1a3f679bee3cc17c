"""Shared pytest plumbing for the test suite.

Holds a small registry that accumulates one PASS/FAIL verdict per acceptance
criterion and prints the whole block after the normal pytest summary, so a
reader can see the per-criterion outcome at a glance even in a long run.

Also loads a `hypothesis` profile that derives every property test's
examples from the test function itself (derandomize, which also turns off
the example database) and drops the per-example deadline, so a rerun draws
the same examples and a busy host cannot fail a test on time alone.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import settings

settings.register_profile("drisk", derandomize=True, deadline=None)
settings.load_profile("drisk")

_RESULTS: Dict[int, Tuple[str, str]] = {}
_NOTES: List[str] = []


def record_criterion(number: int, name: str, status: str) -> None:
    """Record (or overwrite) the verdict for one acceptance criterion."""
    _RESULTS[number] = (name, status)


def record_note(line: str) -> None:
    """Stash a measurement line to print after the criteria block."""
    _NOTES.append(line)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        name, status = _RESULTS[number]
        terminalreporter.write_line(f"criterion {number:02d} {name}: {status}")
    for line in _NOTES:
        terminalreporter.write_line(line)
