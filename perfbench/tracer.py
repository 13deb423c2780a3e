"""Spans around the calls into each grass layer, and the per-layer metrics.

A traced pass installs wrappers where each caller looks a name up: module
globals such as `grass.derivation.alpha_eq` or `grass.semantics.rel_compose`
(so recursive calls are spans too), the benchmark's own `api` namespace,
`Rel.__post_init__`, and the structure-map methods of a `ModelBackend`
subclass kept here.  Each span records its name, start, end, parent span
and item id in flat arrays; they are written out when the run ends and
self time is computed from them.
"""

from __future__ import annotations

import json
import os
import statistics
from array import array
from time import perf_counter_ns
from types import SimpleNamespace

import grass.derivation
import grass.modespace
import grass.rewrite
import grass.semantics
from grass.semantics import ModelBackend, Rel

STRUCTURE_MAPS = ("eps", "delta", "tau_many", "tau_pair", "iota", "c_map", "w_map",
                  "preorder_map", "mu", "lineator")


def _hashable(x):
    return tuple(map(_hashable, x)) if isinstance(x, (list, tuple)) else x


def _method_key(name: str):
    return lambda backend, *args: (id(backend), name, _hashable(args))


# (module, global, span name, repeat category, repeat key of the call's arguments)
GLOBALS = (
    (grass.derivation, "check_derivation", "derivation.check", None, None),
    (grass.rewrite, "check_derivation", "derivation.check", None, None),
    (grass.derivation, "alpha_eq", "syntax.alpha_eq", None, None),
    (grass.rewrite, "beta_step", "rewrite.beta_step", None, None),
    (grass.rewrite, "preservation_check", "rewrite.preservation_check", None, None),
    (grass.semantics, "subst_simultaneous", "rewrite.subst_simultaneous", None, None),
    (grass.semantics, "interp_derivation", "semantics.interp_derivation", None, None),
    (grass.semantics, "interp_ctx", "semantics.interp_ctx", None, None),
    (grass.semantics, "interp_type", "semantics.interp_type", "interp_type",
     lambda backend, ty: (id(backend), ty)),
    (grass.semantics, "rel_compose", "semantics.rel_compose", None, None),
    (grass.semantics, "power_obj", "semantics.power_obj", "power_obj", lambda *args: args),
    (grass.semantics, "spread_rel", "semantics.map.spread_rel", "structure_map",
     lambda *args: ("spread_rel",) + args),
    (grass.modespace, "mode_morphism_check", "grades.law_check", None, None),
)

API_SPANS = {
    "load_modes_file": "cli.load_modes_file",
    "modespace_validate": "modespace.validate",
    "derivation_from_sexpr": "sexpr.parse",
    "term_from_sexpr": "sexpr.parse_term",
    "type_from_sexpr": "sexpr.parse_type",
    "check_derivation": "derivation.check",
    "elaborate": "derivation.elaborate",
    "normalize": "rewrite.normalize",
    "semantic_eq": "semantics.semantic_eq",
    "subst_comp_check": "semantics.subst_comp_check",
    "model_coherence_validate": "semantics.coherence",
}

REPEATS = ("power_obj", "structure_map", "interp_type")
MAX_SPANS = 2_000_000


class Tracer:
    """Spans in flat arrays (name id, start ns, end ns, parent index, item id)."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name, self.start, self.end = array("H"), array("q"), array("q")
        self.parent, self.item = array("l"), array("l")
        self.stack = [-1]
        self.item_id = -1
        self.on = True
        self.calls = dict.fromkeys(REPEATS, 0)
        self.repeats = dict.fromkeys(REPEATS, 0)
        self.seen = {cat: set() for cat in REPEATS}
        self.seen_in_item = {cat: set() for cat in REPEATS}
        self.items_with_repeat = {cat: set() for cat in REPEATS}
        self.sizes: dict[str, list[int]] = {"semantics.interp_ctx": [], "semantics.rel_compose": []}

    def begin_item(self, item_id: int) -> None:
        self.item_id = item_id
        for s in self.seen_in_item.values():
            s.clear()

    def full(self) -> bool:
        return len(self.start) >= MAX_SPANS

    def _note_repeat(self, cat: str, key) -> None:
        h = hash(key)
        self.calls[cat] += 1
        if h in self.seen[cat]:
            self.repeats[cat] += 1
        else:
            self.seen[cat].add(h)
        if h in self.seen_in_item[cat]:
            self.items_with_repeat[cat].add(self.item_id)
        else:
            self.seen_in_item[cat].add(h)

    def wrap(self, span: str, fn, repeat: str | None = None, key=None):
        nid = self.ids.setdefault(span, len(self.ids))
        if nid == len(self.names):
            self.names.append(span)
        sizes = self.sizes.get(span)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.item.append(self.item_id)
            self.end.append(0)
            self.stack.append(idx)
            t0 = perf_counter_ns()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.stack.pop()
            if repeat is not None:
                self._note_repeat(repeat, key(*args, **kwargs))
            if sizes is not None:
                sizes.append(len(out.pairs) if isinstance(out, Rel) else len(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """Header line (JSON), then the five arrays back to back."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:H", "start:q", "end:q", "parent:l", "item:l"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.item):
                arr.tofile(fh)


class Patches:
    """The wrappers of one tracer.  `with patches:` installs them and
    restores the originals on exit; it can be entered again.  `api` is the
    traced entry-point namespace, whose ModelBackend is a subclass with
    traced structure maps."""

    def __init__(self, tracer: Tracer, api: SimpleNamespace):
        self.targets = []  # (owner, attribute, original, wrapper)
        wrapped: dict = {}
        for module, attr, span, repeat, key in GLOBALS:
            original = getattr(module, attr)
            wrapped.setdefault(original, tracer.wrap(span, original, repeat, key))
            self.targets.append((module, attr, original, wrapped[original]))
        post_init = Rel.__post_init__
        self.targets.append((Rel, "__post_init__", post_init,
                             tracer.wrap("semantics.rel_construct", post_init)))

        class TracedBackend(ModelBackend):
            pass

        for name in STRUCTURE_MAPS:
            fn = tracer.wrap(f"semantics.map.{name}", getattr(ModelBackend, name),
                             "structure_map", _method_key(name))
            setattr(TracedBackend, name, fn)
        self.api = SimpleNamespace(**vars(api))
        for attr, span in API_SPANS.items():
            original = getattr(api, attr)
            setattr(self.api, attr, wrapped.get(original) or tracer.wrap(span, original))
        self.api.ModelBackend = TracedBackend

    def __enter__(self):
        for owner, attr, _original, wrapper in self.targets:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _wrapper in reversed(self.targets):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics


class Spans:
    """Read-side view of one phase: set-up spans carry negative item ids,
    spans of the traced pass the index of their item."""

    def __init__(self, tracer: Tracer, setup: bool = False):
        self.t = tracer
        n = len(tracer.start)
        self.dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(tracer.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_ns = [d - c for d, c in zip(self.dur, child)]
        self.by_name: dict[str, list[int]] = {}
        for i, nid in enumerate(tracer.name):
            if (tracer.item[i] < 0) == setup:
                self.by_name.setdefault(tracer.names[nid], []).append(i)

    def idx(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def parent_name(self, i: int) -> str | None:
        p = self.t.parent[i]
        return self.t.names[self.t.name[p]] if p >= 0 else None

    def outermost(self, name: str) -> list[int]:
        """Spans of `name` whose parent is not a span of the same name."""
        return [i for i in self.idx(name) if self.parent_name(i) != name]

    def total(self, idxs) -> int:
        return sum(self.dur[i] for i in idxs)

    def outermost_prefix(self, prefix: str) -> list[int]:
        """Spans under `prefix` with no ancestor under `prefix`."""
        out = []
        for name in self.by_name:
            if name.startswith(prefix):
                for i in self.by_name[name]:
                    p = self.t.parent[i]
                    while p >= 0 and not self.t.names[self.t.name[p]].startswith(prefix):
                        p = self.t.parent[p]
                    if p < 0:
                        out.append(i)
        return out


def _median(xs, scale: float = 1.0) -> float:
    return statistics.median(xs) * scale if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def self_time_by_name(tracer: Tracer) -> list[tuple[str, float]]:
    """Seconds of self time per span name in the traced pass, largest first."""
    s = Spans(tracer)
    totals = {name: sum(s.self_ns[i] for i in idxs) * 1e-9 for name, idxs in s.by_name.items()}
    return sorted(totals.items(), key=lambda kv: -kv[1])


def setup_metrics(tracer: Tracer, runs: int) -> dict:
    """Medians over the traced set-ups; set-up k ran with item id -1-k."""
    s = Spans(tracer, setup=True)

    def per_setup(name):
        totals = [0] * runs
        for i in s.idx(name):
            totals[-1 - s.t.item[i]] += s.dur[i]
        return _median(totals, 1e-6)

    return {"cli.load_modes_ms": (per_setup("cli.load_modes_file"), "ms"),
            "modespace.validate_ms": (per_setup("modespace.validate"), "ms"),
            "grades.law_check_ms": (per_setup("grades.law_check"), "ms")}


def pass_metrics(tracer: Tracer, items, verdicts) -> dict:
    """Per-layer metrics of one traced pass over `items`."""
    s = Spans(tracer)
    n_items = max(len(items), 1)
    us, ms = 1e-3, 1e-6

    checks = s.idx("derivation.check")
    top_checks = s.outermost("derivation.check")
    check_ns = s.total(top_checks)
    alpha_in_check = [i for i in s.idx("syntax.alpha_eq")
                      if s.parent_name(i) == "derivation.check"]
    parse_nodes = sum(it.shape["nodes"] for it in items if it.kind in ("check", "reject"))
    reject_items = {k for k, it in enumerate(items) if it.kind == "reject"}
    elab = [v for it, v in zip(items, verdicts) if it.kind == "elaborate"]
    normalize_ns = s.total(s.idx("rewrite.normalize"))
    rechecks = [i for i in top_checks if s.parent_name(i) == "rewrite.normalize"]
    top_beta = [i for i in s.outermost("rewrite.beta_step")
                if s.parent_name(i) == "rewrite.normalize"]
    normalize_items = max(len(s.idx("rewrite.normalize")), 1)
    sem_ns = s.total(s.idx("semantics.semantic_eq") + s.idx("semantics.subst_comp_check"))
    coherence = s.idx("semantics.coherence")
    sizes = tracer.sizes

    return {
        "sexpr.parse_us_per_node": (_ratio(s.total(s.idx("sexpr.parse")) * us, parse_nodes),
                                    "us/node"),
        "derivation.check_us_per_node": (_ratio(check_ns * us, len(checks)), "us/node"),
        "derivation.check_nodes": (len(checks) / n_items, "nodes/item"),
        "derivation.reject_us": (_median([s.dur[i] for i in top_checks
                                          if s.t.item[i] in reject_items], us), "us"),
        "derivation.elaborate_ms": (_median([s.dur[i] for i in s.idx("derivation.elaborate")], ms),
                                    "ms"),
        "derivation.elaborate_success_ratio": (
            _ratio(sum(v.ok and v.tag != "declined" for v in elab), len(elab)), "ratio"),
        "syntax.alpha_eq_share": (_ratio(s.total(alpha_in_check), check_ns), "ratio"),
        "rewrite.beta_step_us": (_median([s.dur[i] for i in top_beta], us), "us"),
        "rewrite.beta_steps": (len(top_beta) / normalize_items, "calls/item"),
        "rewrite.recheck_share": (_ratio(s.total(rechecks), normalize_ns), "ratio"),
        "rewrite.subst_simultaneous_ms": (_median([s.dur[i] for i in
                                                   s.outermost("rewrite.subst_simultaneous")], ms),
                                          "ms"),
        "semantics.interp_derivation_ms": (
            _median([s.dur[i] for i in s.outermost("semantics.interp_derivation")], ms), "ms"),
        "semantics.interp_ctx_share": (_ratio(s.total(s.idx("semantics.interp_ctx")), sem_ns),
                                       "ratio"),
        "semantics.interp_ctx_elements": (_ratio(sum(sizes["semantics.interp_ctx"]),
                                                 len(sizes["semantics.interp_ctx"])), "elements"),
        "semantics.interp_type_repeat_ratio": (_ratio(tracer.repeats["interp_type"],
                                                      tracer.calls["interp_type"]), "ratio"),
        "semantics.rel_construct_s": (s.total(s.idx("semantics.rel_construct")) * 1e-9 / n_items,
                                      "s/item"),
        "semantics.rel_compose_s": (s.total(s.outermost("semantics.rel_compose")) * 1e-9 / n_items,
                                    "s/item"),
        "semantics.rel_compose_pairs": (_ratio(sum(sizes["semantics.rel_compose"]),
                                               len(sizes["semantics.rel_compose"])), "pairs/call"),
        "semantics.power_obj_repeat_ratio": (_ratio(tracer.repeats["power_obj"],
                                                    tracer.calls["power_obj"]), "ratio"),
        "semantics.structure_map_s": (
            s.total(s.outermost_prefix("semantics.map.")) * 1e-9 / n_items, "s/item"),
        "semantics.structure_map_repeat_ratio": (_ratio(tracer.repeats["structure_map"],
                                                        tracer.calls["structure_map"]), "ratio"),
        "semantics.coherence_ms_per_mode": (_median([s.dur[i] for i in coherence], ms), "ms"),
        "semantics.skipped_items": (sum(it.shape.get("skipped", 0) for it in items)
                                    + sum(v.tag == "skipped" for v in verdicts), "count"),
        "semantics.unscored_beta_pairs": (sum(it.shape.get("unscored_beta", 0) for it in items),
                                          "count"),
        "shape.power_obj_repeat_item_share": (len(tracer.items_with_repeat["power_obj"]) / n_items,
                                              "ratio"),
        "shape.structure_map_repeat_item_share": (
            len(tracer.items_with_repeat["structure_map"]) / n_items, "ratio"),
        "shape.interp_type_repeat_item_share": (
            len(tracer.items_with_repeat["interp_type"]) / n_items, "ratio"),
    }
