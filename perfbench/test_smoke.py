"""Smoke test of the benchmark at minimal size.

    python3 -m pytest perfbench -q

Every workload, untraced and traced, must emit exactly the metrics
BENCHMARK.json names, each with its unit; a deliberately wrong expectation
must be counted as a failure; and the benchmark must refuse to run where
there are no flagiso sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    run._hermetic()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


WORKLOADS = ["iso_dense", "iso_wide", "classify", "cli"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(spec, workload, trace):
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    result = run.run(workload, seed=3, seconds=0.01, trace=trace, small=True)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    json.dumps(result)


@pytest.mark.parametrize("workload", ["iso_dense", "iso_wide"])
def test_a_wrong_expected_verdict_is_counted(spec, workload):
    out = run.run(workload, seed=3, seconds=0.01, trace=False, small=True, inject_wrong=True)
    result = out["result"]
    assert result["failed"] == 1 and not result["correct"]
    n = result["attempted"]
    assert f"fail_frac {1 / n:.6f} ratio (1/{n})" in out["report"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iso_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
