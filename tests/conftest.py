"""Prints one PASS/FAIL line per acceptance criterion after the run, and
holds the fixtures several test modules share."""

import os
import re
import tracemalloc

import pytest

from occkit import fusion


@pytest.fixture
def four_cpus(monkeypatch):
    """Let the pool use 4 threads on a machine with fewer CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


@pytest.fixture
def block_passes(monkeypatch):
    """A list that grows by one per fusion forward block pass: ``occ_fuse``
    runs its blocks in one ``map_samples`` call."""
    passes = []
    real = fusion.map_samples
    monkeypatch.setattr(fusion, "map_samples",
                        lambda fn, items, threads: passes.append(1) or real(fn, items, threads))
    return passes


def traced_peak(fn, before=lambda: None) -> int:
    """Peak bytes that tracemalloc sees while ``fn()`` runs. A first,
    untraced call leaves out what only the first call allocates;
    ``before()`` runs untraced ahead of each call."""
    before()
    fn()
    before()
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
