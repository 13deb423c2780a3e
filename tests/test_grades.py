import collections
import itertools
import random
import re

import pytest

from grass.errors import ConfigError, InputError, Report, Violation
from grass.grades import (
    BUILTIN_ALGEBRAS,
    NAT_MAPS,
    GradeAlgebra,
    Ideal,
    Mode,
    ModeMorphism,
    algebra_axioms_check,
    builtin_algebra,
    ideal_check,
    ideal_closure,
    mode_morphism_check,
    _table,
)
from grass.oracles import brute_force_ideal_closure
from grass.presets import MODE_FACTORIES, mode_A, mode_L, mode_U, mode_fh, system

NOE = builtin_algebra("none-one-tons")
TOP = builtin_algebra("top")


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_builtin_algebras_pass_axioms(name):
    assert algebra_axioms_check(builtin_algebra(name), budget=8).ok()


def test_none_one_tons_table():
    # 1+1 = 1+w = w+w = w.w = w fixes the whole structure
    assert NOE.add(1, 1) == "w"
    assert NOE.add(1, "w") == "w"
    assert NOE.add("w", "w") == "w"
    assert NOE.mul("w", "w") == "w"
    assert NOE.mul("w", 1) == "w"
    assert NOE.mul(0, "w") == 0


def test_one_element_semiring_has_zero_equal_one():
    assert TOP.zero == TOP.one
    assert algebra_axioms_check(TOP).ok()


def test_non_monotone_table_is_reported():
    carrier = (0, 1)
    bad = GradeAlgebra(
        id="bad", kind="finite", carrier=carrier, zero=0, one=1,
        add_table=_table(carrier, lambda x, y: min(x + y, 1)),
        # multiplication violates monotonicity for the order 0 <= 1:
        # 0 <= 1 but 1*1 = 0 is not >= 1*0 = ... build a table where
        # x <= x' fails to give x*y <= x'*y.
        mul_table={(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 0},
        order=frozenset({(0, 0), (1, 1), (0, 1)}),
    )
    report = algebra_axioms_check(bad, budget=4)
    assert not report.ok()
    laws = {v.law for v in report.violations}
    assert "mul-monotone" in laws or "mul-unit-right" in laws
    # brute force over all pairs confirms a witness exists
    found = False
    for x, x2, y, y2 in itertools.product(carrier, repeat=4):
        if bad.leq(x, x2) and bad.leq(y, y2) and not bad.leq(bad.mul(x, y), bad.mul(x2, y2)):
            found = True
    assert found


def test_operations_refuse_operands_outside_the_carrier():
    nat = builtin_algebra("nat-usual")
    for alg, bad in ((nat, -1), (nat, "w"), (nat, 1.0), (NOE, 2), (builtin_algebra("top"), 0)):
        for op in (alg.add, alg.mul, alg.leq):
            for args in ((bad, alg.one), (alg.one, bad), (bad, "x")):
                with pytest.raises(InputError, match=re.escape(f"algebra {alg.id}: {bad!r} not in carrier")):
                    op(*args)
    partial = GradeAlgebra(id="p", kind="finite", carrier=(0, 1), add_table={(0, 0): 0},
                           mul_table={(1, 1): 1})
    with pytest.raises(ConfigError, match=re.escape("algebra p: add table missing (0, 1)")):
        partial.add(0, 1)
    with pytest.raises(ConfigError, match=re.escape("algebra p: mul table missing (1, 0)")):
        partial.mul(1, 0)


def test_budget_must_be_positive():
    with pytest.raises(InputError):
        algebra_axioms_check(NOE, budget=0)


# -- ideals -----------------------------------------------------------------


def test_paper_ideals():
    assert ideal_check(NOE, {0, "w"})
    nat = builtin_algebra("nat-usual")
    assert ideal_check(nat, Ideal("nat-usual", nat_predicate="all-except-one"))
    for name in ("bool", "none-one-tons", "top"):
        alg = builtin_algebra(name)
        assert ideal_check(alg, {alg.zero})
        assert ideal_check(alg, set(alg.carrier))


def test_zero_one_is_not_an_ideal():
    # w.1 = w escapes {0, 1}
    assert not ideal_check(NOE, {0, 1})


def test_ideal_member_outside_carrier():
    with pytest.raises(InputError):
        ideal_check(NOE, {0, 7})


def test_closure_examples():
    assert ideal_closure(NOE, set()) == {0}
    for name in ("bool", "none-one-tons", "top"):
        alg = builtin_algebra(name)
        assert ideal_closure(alg, {alg.one}) == set(alg.carrier)
    assert ideal_closure(NOE, {"w"}) == {0, "w"}


def test_closure_idempotent_and_least_exhaustively():
    for name in ("bool", "none-one-tons", "top"):
        alg = builtin_algebra(name)
        for size in range(len(alg.carrier) + 1):
            for subset in itertools.combinations(alg.carrier, size):
                closed = ideal_closure(alg, subset)
                assert ideal_check(alg, closed)
                assert ideal_closure(alg, closed) == closed
                assert closed == brute_force_ideal_closure(alg, subset)


# -- mode morphisms -----------------------------------------------------------


def test_to_top_morphism():
    phi = ModeMorphism("L", "U", named="to-top")
    assert mode_morphism_check(phi, mode_L(), mode_U()).ok()


def test_identity_morphism():
    for mk in (mode_L, mode_U, mode_A, mode_fh):
        m = mk()
        phi = ModeMorphism(m.id, m.id, named="identity")
        assert mode_morphism_check(phi, m, m).ok()


def test_weak_implication_violation():
    # A has weakening, L does not; the identity-carrier map breaks
    # Weak(source) -> Weak(target).
    phi = ModeMorphism("A", "L", table={0: 0, 1: 1})
    report = mode_morphism_check(phi, mode_A(), mode_L())
    assert not report.ok()
    assert any(v.law == "preserves-weak" for v in report.violations)


def test_clamp_morphisms():
    assert mode_morphism_check(ModeMorphism("L", "A", named="clamp-01"), mode_L(), mode_A()).ok()
    assert mode_morphism_check(ModeMorphism("L", "fh", named="clamp-01w"), mode_L(), mode_fh()).ok()


def test_morphism_composition_is_a_morphism():
    # L -> fh -> U composed pointwise equals the direct to-top map
    lfh = ModeMorphism("L", "fh", named="clamp-01w")
    fhu = ModeMorphism("fh", "U", table={0: "t", 1: "t", "w": "t"})
    fh, u = mode_fh(), mode_U()
    composite = {x: fhu.apply(lfh.apply(x, fh.algebra), u.algebra) for x in range(9)}
    direct = ModeMorphism("L", "U", named="to-top")
    assert all(composite[x] == direct.apply(x, u.algebra) for x in range(9))
    # composing two finite-table morphisms yields a valid morphism
    a_to_u = ModeMorphism("A", "U", table={0: "t", 1: "t"})
    u_id = ModeMorphism("U", "U", table={"t": "t"})
    assert mode_morphism_check(a_to_u, mode_A(), u).ok()
    assert mode_morphism_check(u_id, u, u).ok()
    composed = ModeMorphism("A", "U", table={x: u_id.apply(a_to_u.apply(x)) for x in (0, 1)})
    assert mode_morphism_check(composed, mode_A(), u).ok()


def _morphism_check_applying_at_every_use(phi, source, target, budget):
    """mode_morphism_check as a loop that applies phi wherever it needs an image."""
    found = []
    if source.id != phi.source or target.id != phi.target:
        return Report((Violation("endpoints", (phi.source, phi.target),
                                 "morphism endpoints do not match the supplied modes"),))
    src, tgt = source.algebra, target.algebra
    if src.kind == "nat" and phi.named is None:
        return Report((Violation("map-kind", (), "naturals sources require a named map"),))

    def f(x):
        return phi.apply(x, tgt)

    elems = src.elements(budget)
    for x in elems:
        if not tgt.contains(f(x)):
            found.append(Violation("image-in-carrier", (x, f(x))))
    if found:
        return Report(tuple(found))
    if f(src.zero) != tgt.zero:
        found.append(Violation("preserves-zero", (src.zero, f(src.zero))))
    if f(src.one) != tgt.one:
        found.append(Violation("preserves-one", (src.one, f(src.one))))
    for x, y in itertools.product(elems, repeat=2):
        if f(src.add(x, y)) != tgt.add(f(x), f(y)):
            found.append(Violation("preserves-add", (x, y)))
        if f(src.mul(x, y)) != tgt.mul(f(x), f(y)):
            found.append(Violation("preserves-mul", (x, y)))
        if src.leq(x, y) and not tgt.leq(f(x), f(y)):
            found.append(Violation("monotone", (x, y)))
    for x in elems:
        if source.cont.contains(x) and not target.cont.contains(f(x)):
            found.append(Violation("preserves-cont", (x, f(x))))
    if source.weak and not target.weak:
        found.append(Violation("preserves-weak", (source.id, target.id), "Weak(source) -> Weak(target) is false"))
    return Report(tuple(found))


def test_morphism_check_applies_each_image_once_and_reports_as_before():
    rng = random.Random(18)
    modes = {m: make() for m, make in MODE_FACTORIES.items()}
    finite = [m for m in modes.values() if m.algebra.kind == "finite"]
    cases = []
    for _ in range(300):  # tables between the finite algebras, now and then off the target carrier
        src, tgt = rng.choice(finite), rng.choice(finite)
        values = tgt.algebra.carrier + ((rng.choice(finite).algebra.one, 2) if rng.random() < 0.2 else ())
        table = {x: rng.choice(values) for x in src.algebra.carrier}
        cases.append((ModeMorphism(src.id, tgt.id, table=table), src, tgt, 4))
    for name, budget, src, tgt in itertools.product(NAT_MAPS, range(2, 9), modes.values(), modes.values()):
        if src.algebra.kind == "nat" or budget == 2:
            cases.append((ModeMorphism(src.id, tgt.id, named=name), src, tgt, budget))
    space = system("all")[0]  # the stock morphisms, which hold
    cases += [(phi, space.mode(m), space.mode(n), 4) for (m, n), phi in space.morphisms.items()]
    laws = collections.Counter()
    for phi, src, tgt, budget in cases:
        report = mode_morphism_check(phi, src, tgt, budget)
        assert report == _morphism_check_applying_at_every_use(phi, src, tgt, budget), (phi, budget)
        laws.update({v.law for v in report.violations} or {"ok"})
    assert set(laws) == {"ok", "image-in-carrier", "preserves-zero", "preserves-one", "preserves-add",
                         "preserves-mul", "monotone", "preserves-cont", "preserves-weak"}, laws


def test_grade_tables_are_read_only():
    # presets share one algebra per module, so a write would leak into
    # every later system
    alg = system("LU")[0].mode("U").algebra
    phi = system("all")[0].morphism("fh", "U")
    for table, key in ((alg.add_table, ("t", "t")), (alg.mul_table, ("t", "t")), (phi.table, 0)):
        with pytest.raises(TypeError):
            table[key] = "x"
    assert system("all")[0].mode("U").algebra.add("t", "t") == "t"
    tables = {(x, y): min(x + y, 1) for x in (0, 1) for y in (0, 1)}
    assert GradeAlgebra("b", "finite", (0, 1), add_table=tables, mul_table=tables) == \
        GradeAlgebra("b", "finite", (0, 1), add_table=dict(tables), mul_table=dict(tables))
    assert ModeMorphism("A", "U", table={0: "t"}) == ModeMorphism("A", "U", table={0: "t"})
