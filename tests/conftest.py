"""Prints one PASS/FAIL line per acceptance criterion after the run, and
holds the fixtures several test modules share."""

import os
import re
import tracemalloc

import pytest


@pytest.fixture
def four_cpus(monkeypatch):
    """Let the pool use 4 threads on a machine with fewer CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while ``fn()`` runs. A first,
    untraced call leaves out what only the first call allocates."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if m:
        _results[int(m.group(1))] = (report.outcome, report.nodeid)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        outcome, nodeid = _results[num]
        status = "PASS" if outcome == "passed" else "FAIL"
        name = nodeid.split("::")[-1].replace(f"test_criterion_{num:02d}_", "")
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {name}")
