"""Self-tests of the benchmark (not part of the grass test suite).

    python3 perfbench/selftest.py

Checks that a seed fixes the inputs and the outputs across processes and
hash seeds, that another seed changes the inputs, that every workload runs
to a result line with its error rate, that the metric names match
BENCHMARK.json, and that a directory without the grass sources is refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import systems  # noqa: E402
import workloads  # noqa: E402
from reference import ln_normal_form  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
SMALL_POOL = {"check": 2, "normalize": 1, "semantic": 2, "coherence": 1}


def digests(workload: str, seed: int) -> tuple[str, str]:
    """(inputs digest, outputs digest) of a small pool, computed in this process."""
    wl = workloads.WORKLOADS[workload]
    api = systems.plain_api()
    sy = systems.setup(workload, api)
    blocks = wl.generate(seed, sy, SMALL_POOL[workload])
    if workload == "coherence":  # the heavy L cases take seconds; keep the light ones
        blocks = [[it for it in blocks[0] if it.inputs not in wl.HEAVY][:20]]
    inputs = hashlib.sha256("\n".join(it.key for b in blocks for it in b).encode())
    outputs = hashlib.sha256()
    for block in blocks:
        for item in block:
            try:
                out = wl.run(item, sy, api)
            except Exception as e:  # noqa: BLE001 - rendered like the benchmark does
                out = e
            outputs.update(wl.render(item, out).encode() + b"\n")
    return inputs.hexdigest(), outputs.hexdigest()


def digests_in_child(workload: str, seed: int, hash_seed: str) -> tuple[str, str]:
    code = ("import sys; sys.path.insert(0, {!r}); import selftest; "
            "print(*selftest.digests({!r}, {}))").format(BENCH, workload, seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return tuple(done.stdout.split())


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_and_outputs_across_processes(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = digests_in_child(workload, 7, "1")
                second = digests_in_child(workload, 7, "2")
                self.assertEqual(first, second)

    def test_other_seed_other_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(digests(workload, 7)[0], digests(workload, 8)[0])


class Runs(unittest.TestCase):
    def result(self, done):
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_every_workload_reports_its_error_rate(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "0")
                result = self.result(done)
                self.assertIn("  error_rate: ", done.stdout)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], run.MIN_ITEMS)
                self.assertEqual(set(result["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        done = run_bench("--workload", "check", "--seed", "3", "--seconds", "1", "--trace", "1")
        result = self.result(done)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["per_layer"]})
        self.assertGreater(result["metrics"]["derivation.check_us_per_node"]["value"], 0)

    def test_refuses_a_directory_without_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            done = run_bench("--workload", "check", "--seed", "1", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class Calibration(unittest.TestCase):
    def test_latencies_scale_by_the_calibration_points_around_them(self):
        ref = run.calibrate.REF_S
        p = run.Pass(starts=[1.0, 9.8, 11.0], latencies=[0.1, 0.1, 18.0], items=[None] * 3,
                     cal=[(0.0, [ref] * 3), (10.0, [2 * ref] * 3), (10.5, [2 * ref] * 3),
                          (30.0, [ref] * 3)])
        # the first item has no point within reach and takes the next one;
        # the second sees the two points at half speed; the long third item
        # reaches all four points, which average to 1.5 times the reference
        for got, want in zip(run.scaled_latencies(p), [0.05, 0.05, 12.0]):
            self.assertAlmostEqual(got, want)


class Semantic(unittest.TestCase):
    def test_timed_beta_pairs_have_a_known_answer(self):
        wl = workloads.WORKLOADS["semantic"]
        sy = systems.setup("semantic", systems.plain_api())
        items = [it for block in wl.generate(3, sy, 20) for it in block]
        unscored = sum(it.shape.get("unscored_beta", 0) for it in items)
        self.assertGreater(unscored, 0)
        for it in items:
            if it.kind == "beta":
                self.assertTrue(workloads.has_known_answer(sy[it.system][1], it.inputs[0]))


class Spec(unittest.TestCase):
    def test_workload_reasons_match_the_code(self):
        self.assertEqual({w["name"]: w["why"] for w in SPEC["workloads"]},
                         {name: wl.why for name, wl in workloads.WORKLOADS.items()})


class Reference(unittest.TestCase):
    def test_contraction_under_a_binder_keeps_outer_variables(self):
        # (let-pair x y s (let-pair u v (pair a b) (f y))) -> (let-pair x y s (f y))
        inner = ("letp", "t", ("pair", ("free", "a"), ("free", "b")),
                 ("app", ("free", "f"), ("bound", 2)))
        term = ("letp", "t", ("free", "s"), inner)
        want = ("letp", "t", ("free", "s"), ("app", ("free", "f"), ("bound", 0)))
        self.assertEqual(ln_normal_form(term), (want, 1))

    def test_sizes_match_the_interpretation(self):
        from grass.gen import Gen
        from grass.semantics import interp_ctx, interp_type

        for space, backend in systems.setup("semantic", systems.plain_api()).values():
            gen = Gen(space=space, rng=random.Random(5), max_depth=4, max_obj_size=200)
            for _ in range(40):
                c = gen.gen_derivation(4).conclusion
                if workloads.ctx_size(backend, c) <= 5000:
                    self.assertEqual(len(interp_ctx(backend, c)), workloads.ctx_size(backend, c))
                    self.assertEqual(len(interp_type(backend, c.ty)),
                                     workloads.type_size(backend, c.ty))


if __name__ == "__main__":
    unittest.main()
