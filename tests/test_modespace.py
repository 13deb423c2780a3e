import collections
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grass.cli import load_modes_file
from grass.errors import InputError, ModeOrderError, Report, Violation
from grass.grades import (
    Grade,
    Ideal,
    Mode,
    ModeMorphism,
    builtin_algebra,
    mode_morphism_check,
    order_closure,
)
from grass.modespace import (
    ModeSpace,
    independence_check,
    modespace_validate,
    scalar_mul,
    scale_vector,
    vector_leq,
)
from grass.presets import MODE_FACTORIES, mode_fh, mode_L, mode_U, standard_space, system

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


def test_lnl_space_validates():
    space, _ = system("LU")
    assert modespace_validate(space).ok()


def test_construction_leaves_the_callers_dicts_alone():
    modes = {"L": mode_L(), "U": mode_U()}
    morphisms = {("L", "U"): ModeMorphism("L", "U", named="to-top")}
    base_types = {"P": "L"}
    space = ModeSpace(modes=modes, order_pairs=frozenset({("L", "U")}),
                      morphisms=morphisms, base_types=base_types)
    assert list(morphisms) == [("L", "U")]
    assert list(modes) == ["L", "U"] and base_types == {"P": "L"}
    assert len(space.morphisms) == 3
    modes["A"], base_types["Q"] = mode_L(), "U"
    assert list(space.modes) == ["L", "U"] and space.base_types == {"P": "L"}


def test_an_unknown_mode_raises_as_it_did_without_order_tables():
    space, _ = system("LU")
    for call in (lambda: space.leq("X", "L"), lambda: space.leq("L", "X"),
                 lambda: space.leq("X", "Y"), lambda: independence_check(("L", "X"), "L", space),
                 lambda: independence_check(("U",), "X", space)):
        with pytest.raises(InputError, match="^unknown mode 'X'$"):
            call()
    # the verdicts reached before an unknown mode is looked at stand
    assert independence_check((), "X", space)
    assert not independence_check(("L", "X"), "U", space)
    assert independence_check(("U", "L", "U"), "L", space)
    assert not space.leq("U", "L") and space.leq("L", "U") and space.leq("U", "U")


def test_single_mode_space_validates():
    space, _ = system("L")
    assert modespace_validate(space).ok()


def _rigged_identity_space():
    # phi_{fh,fh} rigged to a non-identity permutation of the carrier
    rigged = ModeMorphism("fh", "fh", table={0: 0, 1: "w", "w": 1})
    return ModeSpace(
        modes={"fh": mode_fh(), "U": mode_U()},
        order_pairs=frozenset({("fh", "U")}),
        morphisms={
            ("fh", "U"): ModeMorphism("fh", "U", table={0: "t", 1: "t", "w": "t"}),
            ("fh", "fh"): rigged,
        },
    )


def _succ_identity_space():
    succ = ModeMorphism("L", "L", table={n: n + 1 for n in range(20)})
    return ModeSpace(
        modes={"L": mode_L(), "U": mode_U()},
        order_pairs=frozenset({("L", "U")}),
        morphisms={("L", "U"): ModeMorphism("L", "U", named="to-top"), ("L", "L"): succ},
    )


def test_identity_coherence_failure_is_named():
    report = modespace_validate(_rigged_identity_space(), budget=8)
    assert any(v.law == "identity-coherence" for v in report.violations)


def test_nat_identity_map_checked_on_budget():
    # a non-identity table on a naturals source is rejected as unnamed
    report = modespace_validate(_succ_identity_space(), budget=8)
    assert not report.ok()


def test_missing_morphism_is_named():
    space = ModeSpace(
        modes={"L": mode_L(), "U": mode_U()},
        order_pairs=frozenset({("L", "U")}),
        morphisms={},
    )
    report = modespace_validate(space)
    assert any(v.law == "missing-morphism" for v in report.violations)


def _missing_image_space():
    return ModeSpace(
        modes={"L": mode_L(), "fh": mode_fh(), "U": mode_U()},
        order_pairs=frozenset({("L", "fh"), ("fh", "U")}),
        morphisms={
            ("L", "fh"): ModeMorphism("L", "fh", named="clamp-01w"),
            ("L", "U"): ModeMorphism("L", "U", named="to-top"),
            ("fh", "U"): ModeMorphism("fh", "U", table={0: "t", 1: "t"}),
            ("fh", "fh"): ModeMorphism("fh", "fh", table={1: 1}),
        },
    )


def test_a_table_with_no_image_for_an_element_is_reported_not_applied():
    # the identity- and composition-coherence loops would apply both tables to
    # w: through phi_{fh,fh} at w, and through phi_{fh,U} at phi_{L,fh}(2) = w
    space = _missing_image_space()
    assert [(v.law, v.witness, v.detail) for v in modespace_validate(space, budget=4).violations] == [
        ("morphism-fh->U-image-defined", ("w",), ""),
        ("morphism-fh->fh-image-defined", (0,), ""),
        ("morphism-fh->fh-image-defined", ("w",), ""),
    ]


def _off_carrier_space():
    return ModeSpace(modes={"fh": mode_fh()},
                     morphisms={("fh", "fh"): ModeMorphism("fh", "fh", table={0: 0, 1: 2, "w": "w"})})


def test_a_table_with_an_image_off_the_carrier_is_not_composed_with_itself():
    # the composition-coherence loop used to apply the table at (fh, fh, fh) to
    # its own image 2, which it has no image for, and raise
    assert [(v.law, v.witness) for v in modespace_validate(_off_carrier_space()).violations] == [
        ("morphism-fh->fh-image-in-carrier", (1, 2)),
        ("identity-coherence", ("fh", 1)),
    ]


def _validate_checking_every_law(space, budget):
    """modespace_validate over total tables, with the laws of the named identities
    and the composites through them checked as well; a morphism with an image off
    its target's carrier is not composed with the next."""
    found, ids, unmapped, off_carrier = [], list(space.modes), set(), set()
    for m, n in sorted(space.order_pairs):
        if (m, n) not in space.morphisms:
            found.append(Violation("missing-morphism", (m, n), f"no morphism for {m} <= {n}"))
            continue
        for v in mode_morphism_check(space.morphisms[(m, n)], space.mode(m), space.mode(n), budget).violations:
            found.append(Violation(f"morphism-{m}->{n}-{v.law}", v.witness, v.detail))
            if v.law in ("map-kind", "image-defined"):
                unmapped.add((m, n))
            if v.law == "image-in-carrier":
                off_carrier.add((m, n))
    for m in ids:
        alg = space.mode(m).algebra
        if (m, m) not in unmapped:
            bad = [x for x in alg.elements(budget) if space.morphisms[(m, m)].apply(x, alg) != x]
            found += [Violation("identity-coherence", (m, x), f"phi_({m},{m}) is not the identity")
                      for x in bad[:1]]
    for (m, n), l in itertools.product(sorted(space.order_pairs), ids):
        keys = ((m, n), (n, l), (m, l))
        if (n, l) not in space.order_pairs or any(k not in space.morphisms or k in unmapped for k in keys):
            continue
        if (m, n) in off_carrier:
            continue
        via, direct = (space.morphisms[k] for k in ((n, l), (m, l)))
        tgt_n, tgt_l = space.mode(n).algebra, space.mode(l).algebra
        bad = [x for x in space.mode(m).algebra.elements(budget)
               if via.apply(space.morphisms[(m, n)].apply(x, tgt_n), tgt_l) != direct.apply(x, tgt_l)]
        found += [Violation("composition-coherence", (m, n, l, x)) for x in bad[:1]]
    return Report(tuple(found))


def _seeded_table_spaces(rng, count):
    """A table morphism between two finite stock modes, now and then off the target
    carrier or missing an image, beneath L with the stock maps; a table at (m, m)
    when both are the same mode."""
    below_l = {"A": "clamp-01", "fh": "clamp-01w", "U": "to-top"}
    for _ in range(count):
        src, tgt = (MODE_FACTORIES[rng.choice(list(below_l))]() for _ in range(2))
        values = tgt.algebra.carrier + (("t", 2) if rng.random() < 0.2 else ())
        table = {x: rng.choice(values) for x in src.algebra.carrier if rng.random() < 0.9}
        ids = dict.fromkeys(("L", src.id, tgt.id))
        modes = {"L": mode_L(), src.id: src, tgt.id: tgt}
        yield ModeSpace(modes=modes, order_pairs=frozenset(("L", m) for m in ids) | {(src.id, tgt.id)},
                        morphisms={("L", m): ModeMorphism("L", m, named=below_l[m]) for m in ids if m != "L"}
                        | {(src.id, tgt.id): ModeMorphism(src.id, tgt.id, table=table)})


def test_the_laws_left_unchecked_hold_by_definition():
    # the named identity at (m, m) and the composites through it cannot fail, so
    # skipping them changes no report; a table at (m, m) is not the named identity
    spaces = [system(name)[0] for name in ("L", "U", "R", "A", "fh", "LU", "LA", "LfhU", "all")]
    spaces += [load_modes_file(str(SYSTEMS / f"{name}.modes"))[0] for name in ("allmodes", "filehandle", "lnl")]
    spaces += list(_seeded_table_spaces(random.Random(23), 300))
    spaces += [_rigged_identity_space(), _succ_identity_space(), _missing_image_space(),
               _off_carrier_space()]
    laws = collections.Counter()
    for space, budget in itertools.product(spaces, (2, 4)):
        report = modespace_validate(space, budget)
        assert report == _validate_checking_every_law(space, budget)
        laws.update(v.law.split("-", 3)[3] if v.law.startswith("morphism-") else v.law
                    for v in report.violations)
    assert set(laws) == {"identity-coherence", "composition-coherence", "map-kind", "image-defined",
                         "image-in-carrier", "preserves-zero", "preserves-one", "preserves-add",
                         "preserves-mul", "monotone", "preserves-cont"}, laws


# -- scalar multiplication ----------------------------------------------------


@pytest.fixture(scope="module")
def lu_space():
    return system("LU")[0]


def test_scalar_one_and_zero(lu_space):
    one = lu_space.grade("L", 1)
    zero = lu_space.grade("L", 0)
    r = lu_space.grade("U", "t")
    assert scalar_mul(one, "L", r, "U", lu_space) == r
    assert scalar_mul(zero, "L", r, "U", lu_space).value == "t"  # zero of top is t
    # in a two-valued target the zero law is visible
    fh_space = system("LfhU")[0]
    z = fh_space.grade("L", 0)
    r = fh_space.grade("fh", 1)
    assert scalar_mul(z, "L", r, "fh", fh_space).value == 0


def test_scalar_omega(fh):
    space, _ = fh
    w = space.grade("fh", "w")
    one = space.grade("fh", 1)
    assert scalar_mul(w, "fh", one, "fh", space).value == "w"


def test_scalar_needs_comparable_modes(lu_space):
    t = lu_space.grade("U", "t")
    one = lu_space.grade("L", 1)
    with pytest.raises(ModeOrderError):
        scalar_mul(t, "U", one, "L", lu_space)


def test_scale_vector_examples(lu_space):
    q = lu_space.grade("L", 2)
    assert scale_vector(q, "L", (), (), lu_space) == ()
    rho = (lu_space.grade("L", 3), lu_space.grade("L", 0))
    scaled = scale_vector(q, "L", rho, ("L", "L"), lu_space)
    assert tuple(g.value for g in scaled) == (6, 0)
    one = lu_space.grade("L", 1)
    assert scale_vector(one, "L", rho, ("L", "L"), lu_space) == rho


def test_vector_leq(lu_space):
    nat = builtin_algebra("nat-usual")
    space = ModeSpace(
        modes={"N": Mode("N", nat, Ideal("nat-usual", nat_predicate="zero-only"), False)},
    )
    g = lambda v: Grade("nat-usual", v)
    assert vector_leq((), (), (), space)
    assert vector_leq((g(1), g(2)), (g(2), g(2)), ("N", "N"), space)
    assert not vector_leq((g(3), g(2)), (g(2), g(2)), ("N", "N"), space)


def test_independence(lu_space):
    assert independence_check((), "L", lu_space)
    assert independence_check(("U", "U"), "L", lu_space)
    assert not independence_check(("L",), "U", lu_space)


# -- algebraic properties ------------------------------------------------------


def test_scale_vector_composes(fh):
    space, _ = fh
    alg = space.mode("fh").algebra
    for qv, rv in itertools.product(alg.carrier, repeat=2):
        q, r = space.grade("fh", qv), space.grade("fh", rv)
        for vec in itertools.product(alg.carrier, repeat=2):
            rho = tuple(space.grade("fh", v) for v in vec)
            modes = ("fh", "fh")
            one_step = scale_vector(
                space.grade("fh", alg.mul(qv, rv)), "fh", rho, modes, space)
            two_step = scale_vector(q, "fh", scale_vector(r, "fh", rho, modes, space), modes, space)
            assert one_step == two_step


def test_scale_vector_monotone(fh):
    space, _ = fh
    alg = space.mode("fh").algebra
    for qv in alg.carrier:
        q = space.grade("fh", qv)
        for a, b in itertools.product(alg.carrier, repeat=2):
            if not alg.leq(a, b):
                continue
            lo = (space.grade("fh", a),)
            hi = (space.grade("fh", b),)
            assert vector_leq(
                scale_vector(q, "fh", lo, ("fh",), space),
                scale_vector(q, "fh", hi, ("fh",), space),
                ("fh",), space,
            )


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=4),
       st.data())
@settings(max_examples=60, deadline=None)
def test_vector_leq_is_a_preorder(values, data):
    nat = builtin_algebra("nat-usual")
    space = ModeSpace(
        modes={"N": Mode("N", nat, Ideal("nat-usual", nat_predicate="zero-only"), False)},
    )
    modes = ("N",) * len(values)
    rho = tuple(Grade("nat-usual", v) for v in values)
    assert vector_leq(rho, rho, modes, space)
    bumps = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                               min_size=len(values), max_size=len(values)))
    mid = tuple(Grade("nat-usual", v + b) for v, b in zip(values, bumps))
    bumps2 = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=len(values), max_size=len(values)))
    hi = tuple(Grade("nat-usual", m.value + b) for m, b in zip(mid, bumps2))
    assert vector_leq(rho, mid, modes, space)
    assert vector_leq(mid, hi, modes, space)
    assert vector_leq(rho, hi, modes, space)


@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))))
@settings(max_examples=100, deadline=None)
def test_the_mode_order_is_closed_on_construction(case):
    # why modespace_validate checks no order law: none can fail on a ModeSpace
    n, declared = case
    names = [f"m{i}" for i in range(n)]
    pairs = frozenset((names[a], names[b]) for a, b in declared)
    nat = builtin_algebra("nat-usual")
    modes = {m: Mode(m, nat, Ideal("nat-usual", nat_predicate="all"), True) for m in names}
    order = ModeSpace(modes=modes, order_pairs=pairs).order_pairs
    assert all((m, m) in order for m in names)
    assert all((a, d) in order for a, b in order for c, d in order if b == c)
    assert order == order_closure(pairs, names)

    def above(m):  # the modes a path of declared pairs reaches from m
        seen, todo = {m}, [m]
        while todo:
            x = todo.pop()
            for a, b in pairs:
                if a == x and b not in seen:
                    seen.add(b)
                    todo.append(b)
        return seen
    assert order == {(m, k) for m in names for k in above(m)}
