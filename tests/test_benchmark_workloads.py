"""The benchmark's workloads, one full pass each, as the benchmark runs them.

Each case runs `perfbench/run.py --workload W --seconds 0` in its own
process: five set-ups and one timed pass at the workload's full size (the
battery at 100 000 replicas), then the workload's own correctness check.  The
last line of standard output is the result object, and its metrics are the
end-to-end metrics that BENCHMARK.json declares.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] > 0 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
