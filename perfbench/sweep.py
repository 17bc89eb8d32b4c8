"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads battery exact cli --seeds 1-10 [--trace 1] [--out FILE]

Runs are made one after another, each in its own process.  For every metric
of every workload it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
interquartile distance as a share of the median, next to a third of the
metric's bound from BENCHMARK.json.  `--out` also writes all of it, with
every run's values and record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return result


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                for seed in args.seeds]
        names = runs[0]["metrics"]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in names}
        report["workloads"][workload] = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
            "records": [r["record"] for r in runs],
        }
        print(f"{workload}: correct {sum(r['correct'] for r in runs)}/{len(runs)}, "
              f"failed {[r['failed'] for r in runs]}")
        for name, s in metrics.items():
            limit = f"  (bound/3 {bounds[name] / 3:.3f})" if name in bounds else ""
            print(f"  {name:52s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{limit}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
