"""Run one benchmark workload against the grass sources of this checkout.

    python3 perfbench/run.py --workload check --seed 1 --seconds 15 --trace 0

One process, one thread, a closed loop with one client: each item starts
after the previous one has its verdict.  Inputs are generated from the
seed before any timing starts.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of traced blocks, plus the tracing overhead
against untraced blocks run alternately over the same inputs.  Spans go
to .bench_out/trace-<workload>.spans.  End-to-end times are scaled to a
reference machine speed by the calibration loop in calibrate.py, which
runs between the timed items.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_ITEMS = 100  # so that p90 has at least ten samples beyond it
SETUP_RUNS = 7
SETUP_CAL_LOOPS = 15  # calibration loops each set-up process runs after setting up
CAL_EVERY_S = 0.2  # calibrate between items at least this often
CAL_LOOPS = 3  # loops per calibration point
CAL_REACH_S = 0.6  # calibration points this close to an item, or its duration if longer, scale it
POOL_MARGIN = 1.25  # inputs generated for this many times the seed-commit throughput

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import systems
systems.setup({workload!r}, systems.plain_api())
elapsed = time.perf_counter() - t0
import calibrate
print(elapsed, *calibrate.sample({loops}))
"""


@dataclass
class Pass:
    items: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    blocks: int = 0
    digest: object = field(default_factory=hashlib.sha256)  # of the first MIN_ITEMS outputs
    cal: list | None = None  # (time taken, loop times) when calibrating
    last_cal: float = 0.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Seconds for fresh processes to import grass and set the workload up,
    and the calibration loop times each process measured right after; the
    first process only warms the file cache and is not counted."""
    code = SETUP_CHILD.format(src=SRC, bench=BENCH, workload=workload, loops=SETUP_CAL_LOOPS)
    times, loops = [], []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        seconds, *samples = map(float, done.stdout.strip().splitlines()[-1].split())
        if k:
            times.append(seconds)
            loops += samples
    return times, loops


def calibrate_now(p: Pass) -> None:
    t0 = time.perf_counter()
    p.cal.append((t0, calibrate.sample(CAL_LOOPS)))
    p.last_cal = time.perf_counter()


def scaled_latencies(p: Pass) -> list[float]:
    """Each latency scaled to reference speed by the mean speed of the
    calibration points taken within CAL_REACH_S of its item, or within the
    item's own duration when that is longer: the machine's speed changes
    in phases of a fraction of a second to a few seconds, so a long item
    runs at the speed averaged over a stretch as long as itself, and a
    point's median loop is its speed at one instant."""
    at = [t for t, _ in p.cal]
    loop_s = [statistics.median(ts) for _, ts in p.cal]
    out = []
    for t0, lat in zip(p.starts, p.latencies):
        reach = max(CAL_REACH_S, lat)
        lo = bisect.bisect_left(at, t0 - reach)
        hi = max(bisect.bisect_right(at, t0 + lat + reach), lo + 1)
        out.append(lat * calibrate.REF_S / statistics.fmean(loop_s[lo:hi]))
    return out


def run_block(wl, systems, block, api, p: Pass, tracer=None) -> None:
    """Time each item of a block in turn and record its verdict in `p`."""
    for item in block:
        if p.cal is not None and time.perf_counter() - p.last_cal >= CAL_EVERY_S:
            calibrate_now(p)
        k = len(p.items)
        if tracer is not None:
            tracer.begin_item(k)
            tracer.on = True
        t0 = time.perf_counter()
        try:
            out = wl.run(item, systems, api)
        except Exception as e:  # noqa: BLE001 - the verdict check decides if it was expected
            out = e
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.on = False
        p.items.append(item)
        p.starts.append(t0)
        p.latencies.append(t1 - t0)
        p.verdicts.append(wl.verify(item, out, systems))
        if k < MIN_ITEMS:
            p.digest.update(wl.render(item, out).encode() + b"\n")
    p.blocks += 1


def run_pass(wl, systems, blocks, api, seconds: float) -> Pass:
    """Whole blocks until `seconds` have passed and MIN_ITEMS are timed,
    calibrating between items."""
    p = Pass(cal=[])
    calibrate_now(p)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(p.items) < MIN_ITEMS:
        run_block(wl, systems, blocks[p.blocks % len(blocks)], api, p)
    calibrate_now(p)
    return p


def generate(wl, seed, systems, seconds):
    """The input pool and its digest.  The cyclic collector is off while the
    pool is built and the pool is frozen afterwards, so collections during
    the timed items do not scan the benchmark's own inputs."""
    n_blocks = math.ceil(seconds * wl.blocks_per_s * POOL_MARGIN) + 1
    if wl.max_pool_blocks is not None:
        n_blocks = min(n_blocks, wl.max_pool_blocks)
    gc.disable()
    try:
        blocks = wl.generate(seed, systems, n_blocks)
    finally:
        gc.enable()
    digest = hashlib.sha256()
    for block in blocks:
        for item in block:
            digest.update(item.key.encode() + b"\n")
    gc.collect()
    gc.freeze()
    return blocks, digest.hexdigest()


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(math.ceil(q * len(s)) - 1, 0)]


def print_summary(wl, args, p: Pass, inputs_digest: str, metrics: dict, extra_lines=()):
    failed = [(k, v) for k, v in enumerate(p.verdicts) if not v.ok]
    n = len(p.items)
    kinds = {}
    for it in p.items:
        kinds[it.kind] = kinds.get(it.kind, 0) + 1
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print(f"  why: {wl.why}")
    print(f"  items timed: {n} in {p.blocks} blocks; kinds {kinds}")
    print(f"  error_rate: {len(failed) / max(n, 1):.6f} ({len(failed)} of {n} attempted)")
    for line in wl.notes(p.items, p.verdicts):
        print(f"  {line}")
    print(f"  inputs digest: {inputs_digest}")
    print(f"  output digest (first {MIN_ITEMS} items): {p.digest.hexdigest()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value!r} {unit}")
    for line in extra_lines:
        print(f"  {line}")
    for k, v in failed[:20]:
        print(f"  FAIL item {k} [{p.items[k].kind} {p.items[k].system}] {v.note}")
        print(f"       input: {p.items[k].key[:300]}")
    if len(failed) > 20:
        print(f"  ... {len(failed) - 20} more failures")


def emit(wl, passes, metrics):
    verdicts = [v for p in passes for v in p.verdicts]
    result = {
        "correct": wl.correct(verdicts),
        "attempted": len(verdicts),
        "failed": sum(not v.ok for v in verdicts),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def end_to_end(wl, args, api, systems_mod):
    from workloads import shape_metrics

    setup_times, setup_loops = measure_setup(wl.name)
    systems = systems_mod.setup(wl.name, api)
    started = time.perf_counter()
    blocks, inputs_digest = generate(wl, args.seed, systems, args.seconds)
    generated = time.perf_counter() - started
    p = run_pass(wl, systems, blocks, api, args.seconds)
    lat, wall = scaled_latencies(p), p.latencies
    metrics = {
        "setup_s": (statistics.median(setup_times) * calibrate.scale(setup_loops), "s"),
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    loops = sorted(t for _, ts in p.cal for t in ts)
    lines = [f"latency samples: {len(lat)}; set-up runs: {[round(t, 4) for t in setup_times]} s, "
             f"calibration loop median {statistics.median(setup_loops) * 1e3:.4f} ms",
             f"unscaled wall time: setup_s {statistics.median(setup_times)!r}, "
             f"items_per_s {len(wall) / sum(wall)!r}, latency_p50_ms "
             f"{statistics.median(wall) * 1e3!r}, latency_p90_ms {percentile(wall, 0.9) * 1e3!r}",
             f"calibration: {len(p.cal)} points, loop median {statistics.median(loops) * 1e3:.4f} "
             f"ms (reference {calibrate.REF_S * 1e3} ms), p10 {percentile(loops, 0.1) * 1e3:.4f}, "
             f"p90 {percentile(loops, 0.9) * 1e3:.4f}",
             f"input generation: {generated:.2f} s for {sum(map(len, blocks))} items "
             f"in {len(blocks)} blocks (the pool is cycled when the run needs more)"]
    lines += [f"{k}: {v!r} {u}" for k, (v, u) in shape_metrics(p.items).items()]
    print_summary(wl, args, p, inputs_digest, metrics, lines)
    emit(wl, [p], metrics)


def traced(wl, args, api, systems_mod):
    """Alternate untraced and traced blocks over identical inputs (generated
    twice from the seed), so that the overhead is measured under the same
    machine conditions; per-layer metrics come from the traced blocks."""
    import tracer
    from workloads import shape_metrics

    systems = systems_mod.setup(wl.name, api)
    blocks, inputs_digest = generate(wl, args.seed, systems, args.seconds / 2)
    recorder = tracer.Tracer()
    patches = tracer.Patches(recorder, api)
    with patches:
        for k in range(SETUP_RUNS):
            recorder.begin_item(-1 - k)
            traced_systems = systems_mod.setup(wl.name, patches.api)
        recorder.on = False
        traced_blocks, _ = generate(wl, args.seed, traced_systems, args.seconds / 2)
    plain, p = Pass(), Pass()
    start = time.perf_counter()
    while not recorder.full() and (time.perf_counter() - start < args.seconds
                                   or len(p.items) < MIN_ITEMS):
        run_block(wl, systems, blocks[plain.blocks % len(blocks)], api, plain)
        with patches:
            run_block(wl, traced_systems, traced_blocks[p.blocks % len(blocks)], patches.api, p,
                      recorder)
    overhead = sum(p.latencies) / sum(plain.latencies) - 1
    metrics = tracer.setup_metrics(recorder, SETUP_RUNS)
    metrics.update(tracer.pass_metrics(recorder, p.items, p.verdicts))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    path = os.path.join(OUT_DIR, f"trace-{wl.name}.spans")
    recorder.write(path)
    lines = [f"traced items: {len(p.items)}, alternating with as many untraced; "
             f"spans: {len(recorder.start)} -> {path}",
             "self time by span (top 12):"]
    lines += [f"  {name}: {sec:.4f} s" for name, sec in tracer.self_time_by_name(recorder)[:12]]
    lines += [f"{k}: {v!r} {u}" for k, (v, u) in shape_metrics(p.items).items()]
    print_summary(wl, args, p, inputs_digest, metrics, lines)
    emit(wl, [plain, p], metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "grass", "__init__.py")):
        print(f"error: no grass sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import systems as systems_mod
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    api = systems_mod.plain_api()
    (traced if args.trace else end_to_end)(wl, args, api, systems_mod)
    return 0


if __name__ == "__main__":
    sys.exit(main())
