"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared virtual machines whose speed drifts: on a
2-vCPU VM the same pure-Python loop ran up to 1.5 times slower for tens of
seconds at a time.  A run therefore interleaves `loop` (a fixed stretch
of tree building, walking and dict work, the kind of code grass runs)
with the timed items and scales each item's wall time by `REF_S` over the
mean loop time around it (`run.scaled_latencies`).  The loop mixes interpreted tree
code with set-of-tuples work done in C, because a slow phase slows the
first more than the second and grass's workloads mix the two.  Timed metrics are thus wall
times at reference speed, the speed at which `loop` takes `REF_S`; the
run summary also prints the unscaled values.  The loop does not touch
grass, so a change to grass moves the scaled times as it moves wall time.
"""

from __future__ import annotations

import statistics
import time

# Median time of `loop` on an Intel Xeon 2-vCPU VM in its fast phases.
REF_S = 0.0011


class _Node:
    __slots__ = ("tag", "kids")

    def __init__(self, tag, kids):
        self.tag = tag
        self.kids = kids


def _build(depth: int, tag: int) -> _Node:
    if depth == 0:
        return _Node(tag, ())
    return _Node(tag, (_build(depth - 1, 2 * tag), _build(depth - 1, 2 * tag + 1)))


def _walk(node: _Node, seen: dict) -> int:
    n = 1
    for kid in node.kids:
        n += _walk(kid, seen)
    key = (node.tag % 17, n)
    seen[key] = seen.get(key, 0) + 1
    return n


def _pairs(seed: int, n: int) -> list[tuple[int, int]]:
    return [((seed * i) % 61, (seed * i * i) % 59) for i in range(n)]


_LEFT, _RIGHT = _pairs(7, 700), _pairs(11, 700)


def _compose() -> int:
    """Relational composition of two fixed 700-pair relations."""
    left, right = frozenset(_LEFT), frozenset(_RIGHT)
    after: dict = {}
    for x, y in right:
        after.setdefault(x, []).append(y)
    return len(frozenset((x, z) for x, y in left for z in after.get(y, ())))


def loop() -> int:
    """Fixed work: build a 255-node tree and walk it five times, then
    compose two relations."""
    tree = _build(7, 1)
    seen: dict = {}
    return sum(_walk(tree, seen) for _ in range(5)) + len(seen) + _compose()


def sample(n: int) -> list[float]:
    """Seconds taken by each of `n` consecutive loops."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        loop()
        out.append(time.perf_counter() - t0)
    return out


def scale(samples: list[float]) -> float:
    """Factor from wall time to reference-speed time."""
    return REF_S / statistics.median(samples)
