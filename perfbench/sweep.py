"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads check semantic --seeds 1-10 --seconds 15

For every workload and metric it prints the median, the quartiles and the
spread (distance between the quartiles as a share of the median), which
is how run-to-run noise is judged against the bounds in BENCHMARK.json.
--out writes every run's metrics and these summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            wall = time.perf_counter() - start
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result.update(seed=seed, wall_s=wall)
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        names = runs[0]["metrics"]
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
        summary["wall_s"] = summarise([r["wall_s"] for r in runs])
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            print(f"  {workload} {name}: median {s['median']:.6g} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
