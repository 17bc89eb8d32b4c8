"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

The smoke runs check only that every metric named in BENCHMARK.json is
printed with its unit.  At smoke sizes the battery's statistical verdicts
mean nothing (its gates are calibrated for 100 000 replicas), so they are
not checked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "exact", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_importer_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import loopsoup  # noqa: PLC0415
    import loopsoup.cli  # noqa: F401, PLC0415  (install wraps cli.main too)
    from loopsoup import verify  # noqa: PLC0415

    original = loopsoup.soup.direct_sample
    tracer = spans.Tracer()
    tracer.install(loopsoup)
    try:
        # verify binds direct_sample and replica_map by name
        assert verify.direct_sample is loopsoup.soup.direct_sample is not original
        kernel = verify.build_kernel(verify.two_point_graph())
        verify.network_histogram(kernel, 40, 3, "direct", alpha=0.5)
        verify.network_histogram(kernel, 30, 4, "wilson")
    finally:
        tracer.uninstall()
    assert verify.direct_sample is original
    rows = {name: value for name, value, _, _ in spans.layer_metrics(tracer, 1, 1.0)}
    assert rows["soup.direct_sample.calls"] == 40
    assert rows["soup.wilson_sample.calls"] == 30
    assert rows["rng.replica_rng.calls"] == 70
    assert rows["verify.hist.two_point.direct.a0.5.replicas_per_s"] > 0
    by_name = tracer.by_name()
    calls, total, self_s = by_name["rng.replica_map"]
    assert calls == 2 and 0 <= self_s <= total
    child = sum(by_name[name][1] for name in ("rng.replica_rng", "soup.direct_sample",
                                              "soup.wilson_sample", "soup.jump_matrix",
                                              "network.key"))
    assert self_s == pytest.approx(total - child, abs=1e-9)


def test_balanced_counts_matches_the_triangle_layer_size():
    edges = [(x, y) for x in range(3) for y in range(3) if x != y]
    nets = workloads.balanced_counts(3, edges, 8)
    assert len(nets) == 21
    assert all((n.sum(axis=0) == n.sum(axis=1)).all() and n.sum() == 8 for n in nets)
