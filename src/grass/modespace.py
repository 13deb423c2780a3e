"""The parametrizing structure: a preorder of modes with coherent morphisms.

Also hosts cross-mode scalar multiplication, grade-vector comparison and
the independence check that every typing judgment must satisfy.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import ConfigError, InputError, ModeOrderError, Report, Violation
from .grades import (
    DEFAULT_BUDGET,
    Grade,
    GradeValue,
    Mode,
    ModeMorphism,
    mode_morphism_check,
    order_closure,
)

GradeVector = tuple[Grade, ...]
ModeVector = tuple[str, ...]


@dataclass(frozen=True)
class ModeSpace:
    """Finite preordered set of modes with a morphism for each comparable pair.

    The order is closed reflexively and transitively on construction.
    `base_types` maps user-declared base type names to their mode.  The
    mappings passed in are copied, never written to, and held read-only.
    `wf_memo` holds `syntax.type_wf`'s answers for this space, keyed by
    (type, mode); a call that raises leaves nothing in it.
    """

    modes: Mapping[str, Mode]
    order_pairs: frozenset[tuple[str, str]] = frozenset()
    morphisms: Mapping[tuple[str, str], ModeMorphism] = field(default_factory=dict)
    base_types: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        modes, morphisms, base_types = dict(self.modes), dict(self.morphisms), dict(self.base_types)
        for a, b in self.order_pairs:
            if a not in modes or b not in modes:
                raise ConfigError(f"mode order mentions unknown mode {(a, b)}")
        order_pairs = order_closure(self.order_pairs, list(modes))
        for (a, b) in morphisms:
            if (a, b) not in order_pairs:
                raise ConfigError(f"morphism {a}->{b} given for an incomparable pair")
        for m in modes:
            morphisms.setdefault((m, m), ModeMorphism(m, m, named="identity"))
        for name, mode in base_types.items():
            if mode not in modes:
                raise ConfigError(f"base type {name}: unknown mode {mode}")
        object.__setattr__(self, "modes", MappingProxyType(modes))
        object.__setattr__(self, "order_pairs", order_pairs)
        object.__setattr__(self, "morphisms", MappingProxyType(morphisms))
        object.__setattr__(self, "base_types", MappingProxyType(base_types))
        object.__setattr__(self, "wf_memo", {})
        object.__setattr__(self, "_above", {m: frozenset(n for a, n in order_pairs if a == m) for m in modes})

    def mode(self, m: str) -> Mode:
        try:
            return self.modes[m]
        except KeyError:
            raise InputError(f"unknown mode {m!r}") from None

    def leq(self, m: str, n: str) -> bool:
        if (m, n) in self.order_pairs:  # the closed order holds declared modes only
            return True
        self.mode(m), self.mode(n)
        return False

    def morphism(self, m: str, n: str) -> ModeMorphism:
        if not self.leq(m, n):
            raise ModeOrderError(f"modes {m} <= {n} does not hold")
        try:
            return self.morphisms[(m, n)]
        except KeyError:
            raise ConfigError(f"missing morphism for {m} <= {n}") from None

    def phi(self, m: str, n: str, x: GradeValue) -> GradeValue:
        return self.morphism(m, n).apply(x, self.mode(n).algebra)

    def grade(self, m: str, value: GradeValue) -> Grade:
        return self.mode(m).grade(value)

    def algebra_of_grade(self, g: Grade):
        for mode in self.modes.values():
            if mode.algebra.id == g.algebra:
                return mode.algebra
        raise InputError(f"grade algebra {g.algebra!r} not used by any mode")


def modespace_validate(space: ModeSpace, budget: int = DEFAULT_BUDGET) -> Report:
    """Check that each finite algebra's `add` and `mul` tables are total, then
    the morphism laws and identity and composition coherence.  The order needs
    no check: `ModeSpace` closes it reflexively and transitively.  Neither do
    the laws of the named identity at (m, m), nor a composite through it: each
    holds by definition.  The morphisms from or to a mode over a partial table,
    and those reported `map-kind` or `image-defined`, are checked no further;
    one reported `image-in-carrier` is not composed with the next, which is
    undefined off its carrier."""
    found: list[Violation] = []
    ids = list(space.modes)

    holes: dict[str, list] = {}  # by algebra id: the pairs its add or mul table misses
    for mode in space.modes.values():
        alg = mode.algebra
        if alg.kind == "finite" and alg.id not in holes:
            holes[alg.id] = [(op, pair) for op, table in (("add", alg.add_table), ("mul", alg.mul_table))
                             for pair in itertools.product(alg.carrier, repeat=2) if pair not in table]
            found += (Violation(f"algebra-{alg.id}-{op}-defined", pair) for op, pair in holes[alg.id])
    partial = {m for m in ids if holes.get(space.mode(m).algebra.id)}

    unmapped = set()  # morphisms checked no further
    off_carrier = set()  # morphisms with an image off their target's carrier
    named_ids = {(m, m) for m in ids if space.morphisms[(m, m)].named == "identity"}
    for m, n in sorted(space.order_pairs):
        if (m, n) not in space.morphisms:
            found.append(Violation("missing-morphism", (m, n), f"no morphism for {m} <= {n}"))
            continue
        if m in partial or n in partial:
            unmapped.add((m, n))
            continue
        if (m, n) in named_ids:
            continue
        sub = mode_morphism_check(space.morphisms[(m, n)], space.mode(m), space.mode(n), budget)
        for v in sub.violations:
            found.append(Violation(f"morphism-{m}->{n}-{v.law}", v.witness, v.detail))
            if v.law in ("map-kind", "image-defined"):
                unmapped.add((m, n))
            elif v.law == "image-in-carrier":
                off_carrier.add((m, n))

    # phi_{m,m} = id pointwise
    for m in ids:
        if (m, m) in unmapped or (m, m) in named_ids:
            continue
        phi, alg = space.morphisms[(m, m)], space.mode(m).algebra
        for x in alg.elements(budget):
            if phi.apply(x, alg) != x:
                found.append(Violation("identity-coherence", (m, x), f"phi_({m},{m}) is not the identity"))
                break

    # phi_{n,l} . phi_{m,n} = phi_{m,l} pointwise
    for m, n in sorted(space.order_pairs):
        if (m, n) in named_ids or (m, n) in off_carrier:
            continue
        for l in ids:
            if (n, l) not in space.order_pairs or (n, l) in named_ids:
                continue
            if any(key not in space.morphisms or key in unmapped for key in ((m, n), (n, l), (m, l))):
                continue
            alg_n = space.mode(n).algebra
            alg_l = space.mode(l).algebra
            for x in space.mode(m).algebra.elements(budget):
                via = space.morphisms[(n, l)].apply(space.morphisms[(m, n)].apply(x, alg_n), alg_l)
                direct = space.morphisms[(m, l)].apply(x, alg_l)
                if via != direct:
                    found.append(Violation("composition-coherence", (m, n, l, x)))
                    break
    return Report(tuple(found))


def scalar_mul(q: Grade, m: str, r: Grade, n: str, space: ModeSpace) -> Grade:
    """phi_{m,n}(q) * r, computed in the algebra of mode n.  Requires m <= n."""
    mode_m, mode_n = space.mode(m), space.mode(n)
    if q.algebra != mode_m.algebra.id:
        raise InputError(f"grade {q} is not from the algebra of mode {m}")
    if r.algebra != mode_n.algebra.id:
        raise InputError(f"grade {r} is not from the algebra of mode {n}")
    if not space.leq(m, n):
        raise ModeOrderError(f"scalar multiplication needs {m} <= {n}")
    value = mode_n.algebra.mul(space.phi(m, n, q.value), r.value)
    return Grade(mode_n.algebra.id, value)


def scale_vector(q: Grade, m: str, rho: GradeVector, modes: ModeVector, space: ModeSpace) -> GradeVector:
    """Entrywise scalar multiplication q * rho; output modes unchanged."""
    if len(rho) != len(modes):
        raise InputError(f"grade vector length {len(rho)} != mode vector length {len(modes)}")
    return tuple(scalar_mul(q, m, r, n, space) for r, n in zip(rho, modes))


def vector_leq(rho: GradeVector, sigma: GradeVector, modes: ModeVector, space: ModeSpace) -> bool:
    """Entrywise comparison in each entry's own algebra."""
    if not (len(rho) == len(sigma) == len(modes)):
        raise InputError("vector_leq: length mismatch")
    for r, q, n in zip(rho, sigma, modes):
        alg = space.mode(n).algebra
        if r.algebra != alg.id or q.algebra != alg.id:
            raise InputError(f"entry at mode {n} drawn from the wrong algebra")
        if not alg.leq(r.value, q.value):
            return False
    return True


def independence_check(modes: ModeVector, m: str, space: ModeSpace) -> bool:
    """True iff m <= n for every mode n in the vector."""
    above = space._above.get(m)
    if above is not None and above.issuperset(modes):
        return True
    return all(space.leq(m, n) for n in dict.fromkeys(modes))  # the verdict, or which mode is unknown


def add_grades(a: Grade, b: Grade, space: ModeSpace) -> Grade:
    if a.algebra != b.algebra:
        raise InputError("cannot add grades from different algebras")
    alg = space.algebra_of_grade(a)
    return Grade(a.algebra, alg.add(a.value, b.value))
