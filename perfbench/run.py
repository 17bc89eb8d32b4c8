"""Benchmark for loopsoup: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload battery|exact|cli --seed N --seconds S --trace 0|1

Run from anywhere inside a source tree: the package is imported from the
tree's `src/`, never from an installed copy.  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it is the run record (versions, seed, sizes, per-pass times).

Each run sets the workload up several times (a fresh import of loopsoup, the
inputs made from the seed, the workload's kernels) and reports the median as
`setup_s`.  It then runs whole passes of the workload until `--seconds` have
passed, at least one, and reports the median pass as `wall_s`.  With
`--trace 1` every public function of every module is wrapped (see spans.py),
the per-layer metrics are printed instead, and the spans are written to
`.perfbench_out/`.  Correctness is checked after the timed passes, outside
any timing.  `--smoke` shrinks every size; it exists for the tests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import spans
import speed
import workloads

ROOT = workloads.ROOT
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def fresh_import():
    """Import loopsoup from scratch, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "loopsoup" or m.startswith("loopsoup.")]:
        del sys.modules[name]
    ls = importlib.import_module("loopsoup")
    importlib.import_module("loopsoup.cli")
    return ls


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "loopsoup").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def percentile_ms(seconds: list, q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    meter = speed.SpeedMeter()
    try:
        with meter:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                ls = fresh_import()
                state = workload.setup(ls, args.seed, args.smoke, work_dir)
                setups.append((start, time.perf_counter()))

            tracer = spans.Tracer() if args.trace else None
            passes, calls, summary = [], [], None
            attempted = failed = timed = 0
            correct = True
            while True:
                if tracer:
                    tracer.install(ls)
                start = time.perf_counter()
                output, intervals = workload.run_pass(state)
                end = time.perf_counter()
                passes.append((start, end))
                calls.extend(intervals)
                timed += end - start
                if summary is None:
                    summary = workload.summary(state, output)
                if tracer:
                    tracer.uninstall()
                # checked pass by pass, so memory does not grow with the pass count
                n, bad, ok = workload.check(state, output)
                attempted, failed, correct = attempted + n, failed + bad, correct and ok
                del output
                if timed >= args.seconds:
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    def corrected(intervals):
        return [meter.corrected(start, end) for start, end in intervals]

    wall = statistics.median(corrected(passes))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        **source_identity(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "workers": 1,
        "passes": len(passes), "calls": len(calls),
        "pass_s": corrected(passes), "pass_raw_s": [end - start for start, end in passes],
        "setup_s": corrected(setups), "setup_raw_s": [end - start for start, end in setups],
        "speed_factor": meter.factor(), "probes": len(meter.lengths),
        "fail_ratio": failed / attempted,
        "summary": summary,
    }
    if tracer:
        raw = sum(end - start for start, end in passes)
        scale = sum(corrected(passes)) / raw
        layer = spans.layer_metrics(tracer, len(passes), wall, scale)
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in layer}
        record["computed_counts"] = list(spans.COMPUTED)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, record)
        record["spans_file"] = str(trace_path.relative_to(ROOT))
    else:
        call_s = corrected(calls)
        metrics = {
            "setup_s": {"value": statistics.median(corrected(setups)), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "call_p50_ms": {"value": percentile_ms(call_s, 50), "unit": "ms"},
            "call_p99_ms": {"value": percentile_ms(call_s, 99), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"record": record}))
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "loopsoup" / "__init__.py").is_file():
        print(f"error: no loopsoup source under {src}", file=sys.stderr)
        return 2
    if not (ROOT / "sample_graphs").is_dir():
        print(f"error: no sample_graphs directory under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
