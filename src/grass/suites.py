"""Seeded oracle suites: preservation, substitution, semantic soundness,
and the substitution-is-composition law.

Each suite returns a SuiteResult whose lines are deterministic for a given
seed, so reports are byte-identical across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .derivation import Derivation, check_derivation
from .errors import GrassError, SizeLimitError
from .gen import Gen
from .modespace import ModeSpace, scale_vector
from .oracles import term_subst_oracle, to_locally_nameless
from .rewrite import (
    beta_step,
    eta_expand,
    eta_rule_for,
    preservation_check,
    subst_simultaneous,
)
from .semantics import (
    ModelBackend,
    semantic_eq,
    subst_comp_check,
)
from .syntax import TSum


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        head = f"[{self.name}] cases={self.cases} failures={len(self.failures)}"
        lines = [head] + [f"  FAIL {f}" for f in self.failures] + [f"  note {n}" for n in self.notes]
        return "\n".join(lines)


def _beta_trace(d: Derivation, space: ModeSpace, fuel: int = 24):
    """All single steps along the leftmost-outermost reduction of d."""
    steps = []
    current = d
    for _ in range(fuel):
        nxt = beta_step(current, space)
        if nxt is None:
            break
        steps.append((current, nxt[0]))
        current = nxt[0]
    return steps


def _eta_pairs(d: Derivation, space: ModeSpace):
    rule = eta_rule_for(d)
    return [] if rule is None else [(d, eta_expand(d, rule, space), rule)]


def preservation_suite(space: ModeSpace, seed: int, count: int, max_depth: int = 5) -> SuiteResult:
    """Every beta step and applicable eta expansion preserves the judgment
    and yields a derivation the checker accepts."""
    gen = Gen(space=space, rng=random.Random(seed), max_depth=max_depth)
    res = SuiteResult("preservation")
    for i in range(count):
        d = gen.gen_derivation(max_depth)
        res.cases += 1
        try:
            check_derivation(d, space)
            for before, after in _beta_trace(d, space):
                if not preservation_check(before, after):
                    res.failures.append(f"case {i}: beta step changed the judgment")
                check_derivation(after, space)
            for before, after, rule in _eta_pairs(d, space):
                if not preservation_check(before, after):
                    res.failures.append(f"case {i}: eta-{rule} changed the judgment")
                check_derivation(after, space)
        except GrassError as e:
            res.failures.append(f"case {i}: {e}")
    return res


def substitution_suite(space: ModeSpace, seed: int, count: int, max_depth: int = 4) -> SuiteResult:
    """Substitution outputs check, land on the stated judgment shape, and
    erase to the independent term-level substitution."""
    gen = Gen(space=space, rng=random.Random(seed), max_depth=max_depth)
    res = SuiteResult("substitution")
    for i in range(count):
        bundle = gen.gen_bundle(max_depth)
        res.cases += 1
        try:
            out = subst_simultaneous(bundle, space)
            check_derivation(out, space)
            tj = bundle.target.conclusion
            want_rho, want_modes, want_ctx = [], [], []
            for rep, g, n in zip(bundle.replacements, tj.rho, tj.modes):
                rc = rep.conclusion
                want_rho.extend(scale_vector(g, n, rc.rho, rc.modes, space))
                want_modes.extend(rc.modes)
                want_ctx.extend(rc.ctx)
            shape_ok = (
                out.conclusion.rho == tuple(want_rho)
                and out.conclusion.modes == tuple(want_modes)
                and out.conclusion.ctx == tuple(want_ctx)
                and out.conclusion.mode == tj.mode
                and out.conclusion.ty == tj.ty
            )
            if not shape_ok:
                res.failures.append(f"case {i}: conclusion shape differs from the theorem")
            mapping = {
                x: rep.conclusion.term
                for (x, _ty), rep in zip(tj.ctx, bundle.replacements)
            }
            if to_locally_nameless(out.conclusion.term) != term_subst_oracle(tj.term, mapping):
                res.failures.append(f"case {i}: term erasure disagrees with the oracle")
        except GrassError as e:
            res.failures.append(f"case {i}: {e}")
    return res


def _type_mentions_sum(ty) -> bool:
    if isinstance(ty, TSum):
        return True
    return any(
        _type_mentions_sum(getattr(ty, name))
        for name in ("left", "right", "arg", "body")
        if hasattr(ty, name)
    )


def _mentions_sum(d: Derivation) -> bool:
    for node in d.walk():
        if node.rule in ("sumIL", "sumIR", "sumE"):
            return True
        if _type_mentions_sum(node.conclusion.ty):
            return True
    return False


def _nonnatural_structure(backend: ModelBackend, d: Derivation) -> str | None:
    """Label the structure maps a derivation exercises that are natural on
    total functions but not on arbitrary relations: contraction at a grade
    whose arity collapses (a diagonal in the backend) or subsumption across
    grades of different arity (a proper projection).  Function types denote
    function spaces, so these maps are natural at every sum-free
    denotation and a failure carrying a label is a defect, not a limit."""
    for node in d.walk():
        if node.rule == "cont":
            prem = node.premises[0].conclusion
            n = node.conclusion.modes[-1]
            a1 = backend.arity(n, prem.rho[-2].value)
            a2 = backend.arity(n, prem.rho[-1].value)
            a_sum = backend.arity(n, node.conclusion.rho[-1].value)
            if a_sum != a1 + a2:
                return "diagonal contraction"
        if node.rule == "sub":
            prem = node.premises[0].conclusion
            for low, high, n in zip(prem.rho, node.conclusion.rho, node.conclusion.modes):
                if backend.arity(n, low.value) != backend.arity(n, high.value):
                    return "projection subsumption"
    return None


MAX_OBJ = 400  # the most elements of an object of a case the semantic suites interpret


def _fitting(backend: ModelBackend, seed: int, count: int, max_depth: int, res: SuiteResult,
             draw, objects):
    """Each (index, case) of the `count` cases `draw(gen, max_depth)` draws whose
    objects' sizes, `objects(sizes, case)`, are at most MAX_OBJ; a note counts the rest."""
    gen = Gen(space=backend.space, rng=random.Random(seed), max_depth=max_depth,
              max_obj_size=MAX_OBJ,
              base_sizes={b: len(c) for b, c in backend.base_carriers.items()})
    sizes = backend.sizes
    skipped = 0
    for i in range(count):
        case = draw(gen, max_depth)
        try:
            fits = max(objects(sizes, case)) <= MAX_OBJ
        except SizeLimitError:
            fits = False
        if fits:
            yield i, case
        else:
            skipped += 1
    res.notes.append(f"skipped {skipped} of {count} generated cases: an object over {MAX_OBJ} elements")


def semantic_suite(backend: ModelBackend, seed: int, count: int, max_depth: int = 5) -> SuiteResult:
    """Exact relation equality across every generated beta step and eta
    expansion; sum-involving cases are tagged as the flagged extension."""
    space = backend.space
    res = SuiteResult("semantic-soundness")
    for i, d in _fitting(backend, seed, count, max_depth, res, Gen.gen_derivation,
                         lambda sizes, d: (sizes.ctx_size(d.conclusion), sizes.size(d.conclusion.ty))):
        tag = " [extension:sum]" if _mentions_sum(d) else ""
        try:
            for before, after in _beta_trace(d, space, fuel=12):
                res.cases += 1
                if not semantic_eq(backend, before, after):
                    cls = _nonnatural_structure(backend, before) or "unclassified"
                    res.failures.append(
                        f"case {i}: beta step not semantically equal [{cls}]{tag}")
            for before, after, rule in _eta_pairs(d, space):
                res.cases += 1
                if not semantic_eq(backend, before, after):
                    cls = _nonnatural_structure(backend, d) or "unclassified"
                    res.failures.append(
                        f"case {i}: eta-{rule} not semantically equal [{cls}]{tag}")
        except SizeLimitError:
            res.notes.append(f"case {i}: skipped, interpretation too large")
        except GrassError as e:
            res.failures.append(f"case {i}: {e}{tag}")
    return res


def subst_comp_suite(backend: ModelBackend, seed: int, count: int, max_depth: int = 3) -> SuiteResult:
    """interp(subst(bundle)) equals target composed with the scaled
    replacement interpretations."""
    res = SuiteResult("subst-comp")
    for i, bundle in _fitting(backend, seed, count, max_depth, res, Gen.gen_bundle,
                              lambda sizes, b: [sizes.ctx_size(d.conclusion)
                                                for d in (*b.replacements, b.target)]):
        res.cases += 1
        tag = " [extension:sum]" if _mentions_sum(bundle.target) else ""
        try:
            if not subst_comp_check(backend, bundle):
                cls = _nonnatural_structure(backend, bundle.target) or "unclassified"
                res.failures.append(
                    f"case {i}: interpretation differs from the composite [{cls}]{tag}")
        except SizeLimitError:
            res.cases -= 1
            res.notes.append(f"case {i}: skipped, interpretation too large")
        except GrassError as e:
            res.failures.append(f"case {i}: {e}{tag}")
    return res
