"""The ``protocol/`` reports rerun to the same bytes."""

import importlib.util
import time
from pathlib import Path

PROTOCOL = Path(__file__).resolve().parents[1] / "protocol"


def _module(name):
    spec = importlib.util.spec_from_file_location(f"protocol_{name}", PROTOCOL / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stability_report_reruns_to_the_same_bytes():
    # One run without noise and one with, 5 steps each: both of the report's
    # paths, in a fraction of its full 200-step budget.
    stability = _module("stability")
    t0 = time.perf_counter()
    first, second = (stability.report([1], [0], steps=5) for _ in range(2))
    elapsed = time.perf_counter() - t0
    assert first == second
    assert '"runs": 1' in first and '"noise_seed": 0' in first
    assert elapsed <= 2.0, f"two quick reports took {elapsed:.2f} s"
