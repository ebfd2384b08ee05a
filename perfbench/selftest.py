"""The benchmark's own test.

It runs every workload briefly and checks that every metric printed is
declared in BENCHMARK.json with its unit (and every declared metric is
printed), and that deterministic counts and output digests repeat exactly
across two runs. It is not collected by the repository's default pytest run
because it takes about two minutes and ~2 GB of memory; run it from the
repository root with

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
from run import relative_latencies, tail  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    digest = [line for line in lines if line.startswith("digest ")]
    assert len(digest) == 1
    return result, digest[0]


def deterministic(result) -> dict:
    """Per-layer values that are counts or shares, not times."""
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] not in ("s", "%")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_declared_and_outputs_repeat(workload):
    e2e, e2e_digest = parse(run_bench(workload, 0))
    first, first_digest = parse(run_bench(workload, 1))
    second, second_digest = parse(run_bench(workload, 1))
    for result, kind in ((e2e, "end_to_end"), (first, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCH[kind]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert e2e_digest == first_digest == second_digest
    assert deterministic(first) == deterministic(second)
    assert deterministic(first)  # the run measured some counts


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_has_ten_ops_beyond_it_and_is_never_below_the_median():
    lat = [float(i) for i in range(100)]
    assert tail(lat) == (89.0, 90)
    assert tail(lat[:30]) == (19.0, 66)
    assert tail(lat[:20]) == (9.5, 50)
    assert tail(lat[:11]) == (5.0, 50)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50)


def test_each_op_is_set_against_the_reference_readings_around_it():
    class Loop:
        latencies = [4.0, 6.0]
        reference = [1.0, 3.0, 1.0]

    assert relative_latencies(Loop) == [2.0, 3.0]
