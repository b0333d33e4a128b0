"""Smoke test of the benchmark: one task at one scene seed per workload.

Run with `python -m pytest perfbench/test_smoke.py` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import tracer  # noqa: E402

TASK = "berry1"


def _printed(out: str, specs) -> dict:
    """Checks every metric line and the final JSON line; returns the latter."""
    lines = out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = {line.split()[0]: line.split() for line in lines[:-2]}
    assert set(result["metrics"]) == set(table) == {name for name, _, _ in specs}
    for name, unit, _ in specs:
        assert table[name][-1] == unit
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)
    return result


@pytest.mark.parametrize("workload", sorted(run.PINNED_ROUNDS))
def test_one_cell_untraced_and_traced(workload, capsys):
    plain = run.measure(workload, 0, 1e-3, False, [TASK], 1, None)
    run.report(*plain)
    result = _printed(capsys.readouterr().out, run.END_TO_END)
    # The fresh cell, then MIN_PASSES timed passes over the one-cell grid.
    assert plain[3]["passes"] == run.MIN_PASSES
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES + 1
    assert result["metrics"]["cells_per_kref"]["value"] > 0
    assert all(c.calibration_s > 0 for c in plain[0])
    assert result["metrics"]["setup_s"]["value"] > 0

    traced = run.measure(workload, 0, 1e-3, True, [TASK], 1, None)
    run.report(*traced)
    result = _printed(capsys.readouterr().out, tracer.PER_LAYER)
    detail = traced[3]
    assert detail["traced_fingerprint"] == detail["pinned_fingerprint"]
    # The fresh cell, the untraced cell and the traced cell.
    assert result["correct"] and result["attempted"] == 3
    assert result["metrics"]["tasks.load_task.s"]["value"] > 0


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(tracer.PER_LAYER))
    assert [w["name"] for w in spec["workloads"]] == sorted(run.PINNED_ROUNDS)


def test_pass_count_follows_the_seconds_only():
    for workload, nominal in run.NOMINAL_PASS_S.items():
        assert run.passes_for(workload, 1e-3) == run.MIN_PASSES
        assert run.passes_for(workload, 4.99 * nominal) == 4
        assert run.passes_for(workload, 5 * nominal) == 5


def test_refuses_to_run_without_the_package_source(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "manual", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
