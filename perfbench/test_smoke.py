"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

Runs ``run.py --smoke`` in fresh processes, as the full benchmark does, and
checks the result line against the metric names in ``BENCHMARK.json``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _start(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.Popen(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
    )


def _finish(process):
    """(exit code, stdout, stderr) of a started run, killed after two minutes."""
    try:
        out, err = process.communicate(timeout=120)
    finally:
        process.kill()
        process.wait()
    return process.returncode, out, err


def _result(process):
    code, out, err = _finish(process)
    assert code == 0, err[-2000:]
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    # one untraced and two traced runs at once; traced counts must repeat exactly
    plain, *traced = [_result(p) for p in [_start(workload, t) for t in (0, 1, 1)]]
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    assert {k: v["unit"] for k, v in traced[0]["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert traced[0]["correct"] and traced[0]["attempted"] == traced[1]["attempted"]
    for name, metric in traced[0]["metrics"].items():
        if metric["unit"] in ("count", "MB", "ratio"):
            assert metric["value"] == traced[1]["metrics"][name]["value"], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out, _ = _finish(_start("verify-large", 0, cwd=tmp_path,
                                  script=tmp_path / "perfbench" / "run.py"))
    assert code != 0 and "correct" not in out
