"""Grade algebras (preordered semirings), ideals, modes, and mode morphisms.

Carriers are either explicit finite sets or the built-in naturals; every
law is checked by enumeration, truncated to a budget on the naturals.
Grade values are ints or short strings (e.g. "w" for the unrestricted
grade of the none-one-tons semiring).
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType
from typing import Iterable

from .errors import ConfigError, InputError, Report, Violation

GradeValue = int | str

DEFAULT_BUDGET = 8

NAT_ORDERS = ("usual", "opposite", "discrete")
NAT_IDEALS = ("all", "zero-only", "all-except-one")
NAT_MAPS = ("identity", "to-top", "clamp-01w", "clamp-01")


def order_closure(pairs: Iterable[tuple], elems: Iterable) -> frozenset[tuple]:
    """Reflexive-transitive closure of a relation on a finite set (Warshall)."""
    succ: dict = {x: {x} for x in elems}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
        succ.setdefault(b, set())
    for k in succ:
        for above in succ.values():
            if k in above:
                above |= succ[k]
    return frozenset((a, b) for a, above in succ.items() for b in above)


def _natural(x) -> bool:  # GradeAlgebra.contains inlines it, being called more often
    return isinstance(x, int) and x >= 0


@dataclass(frozen=True)
class GradeAlgebra:
    """A preordered semiring.

    kind "finite": ops are total tables over `carrier`.
    kind "nat": carrier is the naturals, ops are integer arithmetic and
    `nat_order` names the preorder; enumeration stops at the budget.
    The tables passed in are copied and held read-only.
    """

    id: str
    kind: str  # "finite" | "nat"
    carrier: tuple[GradeValue, ...] = ()
    zero: GradeValue = 0
    one: GradeValue = 1
    add_table: Mapping[tuple[GradeValue, GradeValue], GradeValue] = field(default_factory=dict)
    mul_table: Mapping[tuple[GradeValue, GradeValue], GradeValue] = field(default_factory=dict)
    order: frozenset[tuple[GradeValue, GradeValue]] = frozenset()
    nat_order: str = "usual"

    def __post_init__(self):
        object.__setattr__(self, "add_table", MappingProxyType(dict(self.add_table)))
        object.__setattr__(self, "mul_table", MappingProxyType(dict(self.mul_table)))
        if self.kind not in ("finite", "nat"):
            raise ConfigError(f"algebra {self.id}: unknown carrier kind {self.kind!r}")
        if self.kind == "nat" and self.nat_order not in NAT_ORDERS:
            raise ConfigError(f"algebra {self.id}: unknown naturals order {self.nat_order!r}")
        if self.kind == "finite":
            if self.zero not in self.carrier or self.one not in self.carrier:
                raise ConfigError(f"algebra {self.id}: zero/one outside carrier")
        object.__setattr__(self, "ops", self._operations())

    def elements(self, budget: int = DEFAULT_BUDGET) -> tuple[GradeValue, ...]:
        if budget < 0:
            raise InputError(f"budget must be 0 or more, got {budget}")
        if self.kind == "finite":
            return self.carrier
        return tuple(range(budget + 1))

    def contains(self, x: GradeValue) -> bool:
        if self.kind == "finite":
            return x in self.carrier
        return isinstance(x, int) and x >= 0

    def _operations(self) -> tuple:
        """`ops`: add, mul, leq and the carrier test; the operations do not
        test their operands, for the law checks, whose operands are in the carrier."""
        if self.kind == "nat":
            order = {"usual": operator.le, "opposite": operator.ge, "discrete": operator.eq}
            return operator.add, operator.mul, order[self.nat_order], _natural

        def entry(op, table):
            def look(x, y):
                try:
                    return table[x, y]
                except KeyError:
                    raise ConfigError(f"algebra {self.id}: {op} table missing {(x, y)}") from None
            return look
        return (entry("add", self.add_table), entry("mul", self.mul_table),
                lambda x, y: (x, y) in self.order, self.carrier.__contains__)

    def _require(self, x: GradeValue, y: GradeValue) -> tuple:
        """ops, once x and y are in the carrier."""
        ops = self.ops
        if ops[3](x) and ops[3](y):
            return ops
        raise InputError(f"algebra {self.id}: {y if ops[3](x) else x!r} not in carrier")

    def add(self, x: GradeValue, y: GradeValue) -> GradeValue:
        return self._require(x, y)[0](x, y)

    def mul(self, x: GradeValue, y: GradeValue) -> GradeValue:
        return self._require(x, y)[1](x, y)

    def leq(self, x: GradeValue, y: GradeValue) -> bool:
        return self._require(x, y)[2](x, y)


@dataclass(frozen=True, slots=True)
class Grade:
    """A carrier element tagged with the algebra it comes from."""

    algebra: str
    value: GradeValue


@dataclass(frozen=True)
class Ideal:
    """A subset closed under + and two-sided multiplication, containing 0.

    Finite carriers list members explicitly; over the naturals only the
    three named decidable predicates are supported.
    """

    algebra: str
    members: frozenset[GradeValue] = frozenset()
    nat_predicate: str | None = None  # one of NAT_IDEALS for naturals carriers

    def __post_init__(self):
        if self.nat_predicate is not None and self.nat_predicate not in NAT_IDEALS:
            raise ConfigError(f"ideal over {self.algebra}: unknown predicate {self.nat_predicate!r}")

    def contains(self, x: GradeValue) -> bool:
        if self.nat_predicate is not None:
            if self.nat_predicate == "all":
                return True
            if self.nat_predicate == "zero-only":
                return x == 0
            return x != 1  # all-except-one
        return x in self.members


@dataclass(frozen=True)
class Mode:
    """A grade algebra plus its contraction ideal and weakening flag."""

    id: str
    algebra: GradeAlgebra
    cont: Ideal
    weak: bool

    def __post_init__(self):
        if self.cont.algebra != self.algebra.id:
            raise ConfigError(f"mode {self.id}: ideal is over {self.cont.algebra}, not {self.algebra.id}")

    def grade(self, value: GradeValue) -> Grade:
        if not self.algebra.contains(value):
            raise InputError(f"mode {self.id}: {value!r} not in carrier of {self.algebra.id}")
        return Grade(self.algebra.id, value)


@dataclass(frozen=True)
class ModeMorphism:
    """A monotone semiring homomorphism preserving Cont and the Weak implication.

    Finite sources carry an explicit table, copied and held read-only;
    naturals sources must use one of the named arithmetic maps.
    """

    source: str
    target: str
    table: Mapping[GradeValue, GradeValue] | None = None
    named: str | None = None  # one of NAT_MAPS

    def __post_init__(self):
        if self.table is not None:
            object.__setattr__(self, "table", MappingProxyType(dict(self.table)))
        if (self.table is None) == (self.named is None):
            raise ConfigError(f"morphism {self.source}->{self.target}: give exactly one of table/named map")
        if self.named is not None and self.named not in NAT_MAPS:
            raise ConfigError(f"morphism {self.source}->{self.target}: unknown named map {self.named!r}")

    def apply(self, x: GradeValue, target_algebra: GradeAlgebra | None = None) -> GradeValue:
        if self.table is not None:
            try:
                return self.table[x]
            except KeyError:
                raise InputError(f"morphism {self.source}->{self.target}: no image for {x!r}") from None
        if self.named == "identity":
            return x
        if self.named == "to-top":
            if target_algebra is None:
                raise InputError("to-top map needs the target algebra")
            return target_algebra.zero  # zero == one in the one-element semiring
        if self.named == "clamp-01":
            return 0 if x == 0 else 1
        # clamp-01w: 0 -> 0, 1 -> 1, n >= 2 -> w
        if x == 0:
            return 0
        if x == 1:
            return 1
        return "w"


# ---------------------------------------------------------------------------
# Built-in algebras


def _table(carrier, fn):
    return {(x, y): fn(x, y) for x in carrier for y in carrier}


def builtin_algebra(name: str) -> GradeAlgebra:
    """The stock algebras: naturals (three orders), booleans, none-one-tons, top."""
    if name in ("nat-usual", "nat-opposite", "nat-discrete"):
        return GradeAlgebra(id=name, kind="nat", nat_order=name.split("-", 1)[1])
    if name == "bool":
        carrier = (0, 1)
        return GradeAlgebra(
            id=name, kind="finite", carrier=carrier, zero=0, one=1,
            add_table=_table(carrier, lambda x, y: min(x + y, 1)),
            mul_table=_table(carrier, lambda x, y: x * y),
            order=order_closure({(0, 1)}, carrier),
        )
    if name == "bool-discrete":
        base = builtin_algebra("bool")
        return GradeAlgebra(
            id=name, kind="finite", carrier=base.carrier, zero=0, one=1,
            add_table=base.add_table, mul_table=base.mul_table,
            order=order_closure(set(), base.carrier),
        )
    if name == "none-one-tons":
        carrier = (0, 1, "w")

        def add(x, y):
            if x == 0:
                return y
            if y == 0:
                return x
            return "w"  # 1+1 = 1+w = w+w = w

        def mul(x, y):
            if x == 0 or y == 0:
                return 0
            if x == 1:
                return y
            if y == 1:
                return x
            return "w"

        return GradeAlgebra(
            id=name, kind="finite", carrier=carrier, zero=0, one=1,
            add_table=_table(carrier, add), mul_table=_table(carrier, mul),
            order=order_closure({(0, "w"), (1, "w")}, carrier),
        )
    if name == "top":
        carrier = ("t",)
        return GradeAlgebra(
            id=name, kind="finite", carrier=carrier, zero="t", one="t",
            add_table={("t", "t"): "t"}, mul_table={("t", "t"): "t"},
            order=frozenset({("t", "t")}),
        )
    raise ConfigError(f"unknown built-in algebra {name!r}")


BUILTIN_ALGEBRAS = ("nat-usual", "nat-opposite", "nat-discrete", "bool", "none-one-tons", "top")


# ---------------------------------------------------------------------------
# Law checking


def algebra_axioms_check(alg: GradeAlgebra, budget: int = DEFAULT_BUDGET) -> Report:
    """Check all semiring and preorder laws on the tested subset.

    Returns the list of violated law instances; empty means no
    counterexample was found within the budget.
    """
    if budget < 1:
        raise InputError("budget must be >= 1")
    found: list[Violation] = []
    elems = alg.elements(budget)
    add, mul, leq, _ = alg.ops  # past the closure check, every operand is in the carrier

    if alg.kind == "finite":
        for x, y in itertools.product(elems, repeat=2):
            if not alg.contains(add(x, y)):
                found.append(Violation("add-closed", (x, y)))
            if not alg.contains(mul(x, y)):
                found.append(Violation("mul-closed", (x, y)))
        if found:
            return Report(tuple(found))

    for x in elems:
        if add(x, alg.zero) != x:
            found.append(Violation("add-unit", (x,)))
        if mul(x, alg.one) != x:
            found.append(Violation("mul-unit-right", (x,)))
        if mul(alg.one, x) != x:
            found.append(Violation("mul-unit-left", (x,)))
        if mul(x, alg.zero) != alg.zero or mul(alg.zero, x) != alg.zero:
            found.append(Violation("zero-annihilates", (x,)))
        if not leq(x, x):
            found.append(Violation("leq-reflexive", (x,)))

    for x, y in itertools.product(elems, repeat=2):
        if add(x, y) != add(y, x):
            found.append(Violation("add-commutative", (x, y)))

    for x, y, z in itertools.product(elems, repeat=3):
        if add(add(x, y), z) != add(x, add(y, z)):
            found.append(Violation("add-associative", (x, y, z)))
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            found.append(Violation("mul-associative", (x, y, z)))
        if mul(x, add(y, z)) != add(mul(x, y), mul(x, z)):
            found.append(Violation("distributes-left", (x, y, z)))
        if mul(add(x, y), z) != add(mul(x, z), mul(y, z)):
            found.append(Violation("distributes-right", (x, y, z)))
        if leq(x, y) and leq(y, z) and not leq(x, z):
            found.append(Violation("leq-transitive", (x, y, z)))

    for x, x2, y, y2 in itertools.product(elems, repeat=4):
        if leq(x, x2) and leq(y, y2):
            if not leq(add(x, y), add(x2, y2)):
                found.append(Violation("add-monotone", (x, x2, y, y2)))
            if not leq(mul(x, y), mul(x2, y2)):
                found.append(Violation("mul-monotone", (x, x2, y, y2)))
    return Report(tuple(found))


def ideal_check(alg: GradeAlgebra, ideal: Ideal | Iterable[GradeValue], budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the subset contains 0 and is closed under + and two-sided *."""
    if isinstance(ideal, Ideal):
        if ideal.nat_predicate is not None:
            if alg.kind != "nat":
                raise InputError("named ideal predicates only apply to the naturals carrier")
            # The three named predicates are ideals of the naturals; verified
            # symbolically: {0} and N trivially, N\{1} because sums and
            # products of non-1 naturals are never 1.
            return True
        members = set(ideal.members)
    else:
        members = set(ideal)
    for x in members:
        if not alg.contains(x):
            raise InputError(f"ideal member {x!r} outside carrier of {alg.id}")
    if alg.zero not in members:
        return False
    elems = alg.elements(budget)
    add, mul, _leq, _ = alg.ops
    for x, y in itertools.product(members, repeat=2):
        if add(x, y) not in members:
            return False
    for r in elems:
        for x in members:
            if mul(r, x) not in members or mul(x, r) not in members:
                return False
    return True


def ideal_closure(alg: GradeAlgebra, subset: Iterable[GradeValue]) -> frozenset[GradeValue]:
    """Least ideal containing the subset, by fixpoint over a finite carrier."""
    if alg.kind != "finite":
        raise InputError("ideal_closure requires a finite carrier")
    current = set(subset) | {alg.zero}
    for x in current:
        if not alg.contains(x):
            raise InputError(f"{x!r} outside carrier of {alg.id}")
    changed = True
    while changed:
        changed = False
        new = set()
        for x, y in itertools.product(current, repeat=2):
            new.add(alg.add(x, y))
        for r in alg.carrier:
            for x in current:
                new.add(alg.mul(r, x))
                new.add(alg.mul(x, r))
        if not new <= current:
            current |= new
            changed = True
    return frozenset(current)


def mode_morphism_check(
    phi: ModeMorphism,
    source: Mode,
    target: Mode,
    budget: int = DEFAULT_BUDGET,
) -> Report:
    """Check the homomorphism, monotonicity, Cont and Weak conditions."""
    found: list[Violation] = []
    if source.id != phi.source or target.id != phi.target:
        found.append(Violation("endpoints", (phi.source, phi.target), "morphism endpoints do not match the supplied modes"))
        return Report(tuple(found))
    src, tgt = source.algebra, target.algebra
    if src.kind == "nat" and phi.named is None:
        found.append(Violation("map-kind", (), "naturals sources require a named map"))
        return Report(tuple(found))

    f = cache(lambda x: phi.apply(x, tgt))  # each image once, kept for the call
    elems = src.elements(budget)
    if phi.table is not None and (missing := [x for x in elems if x not in phi.table]):
        return Report(tuple(Violation("image-defined", (x,)) for x in missing))
    known = [(x, f(x)) for x in elems]
    for x, fx in known:
        if not tgt.contains(fx):
            found.append(Violation("image-in-carrier", (x, fx)))
    if found:
        return Report(tuple(found))
    if f(src.zero) != tgt.zero:
        found.append(Violation("preserves-zero", (src.zero, f(src.zero))))
    if f(src.one) != tgt.one:
        found.append(Violation("preserves-one", (src.one, f(src.one))))
    (add, mul, leq, _), (tgt_add, tgt_mul, tgt_leq, _) = src.ops, tgt.ops  # f(x) checked above
    for (x, fx), (y, fy) in itertools.product(known, repeat=2):
        if f(add(x, y)) != tgt_add(fx, fy):
            found.append(Violation("preserves-add", (x, y)))
        if f(mul(x, y)) != tgt_mul(fx, fy):
            found.append(Violation("preserves-mul", (x, y)))
        if leq(x, y) and not tgt_leq(fx, fy):
            found.append(Violation("monotone", (x, y)))
    for x, fx in known:
        if source.cont.contains(x) and not target.cont.contains(fx):
            found.append(Violation("preserves-cont", (x, fx)))
    if source.weak and not target.weak:
        found.append(Violation("preserves-weak", (source.id, target.id), "Weak(source) -> Weak(target) is false"))
    return Report(tuple(found))

