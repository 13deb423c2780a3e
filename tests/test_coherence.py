"""The coherence validator: its reports, pinned byte for byte, and the
index tables it decides squares on, against the element-level relations
they stand for."""

import collections
import dataclasses
import itertools
import math
import random
from array import array
from pathlib import Path

import pytest

from grass import semantics
from grass._leafmaps import block_swap, equal, juxtapose, leaves, substitute
from grass.cli import load_modes_file
from grass.errors import ShapeError, SizeLimitError
from grass.grades import NAT_IDEALS, Ideal, Mode, ModeMorphism, builtin_algebra
from grass.modespace import ModeSpace
from grass.oracles import coherence_by_elements, read_elements
from grass.presets import MODE_FACTORIES, system
from grass.semantics import (
    ELEMENT_LIMIT,
    UNIT_OBJ,
    FinSetObj,
    ModelBackend,
    Positions,
    Rel,
    _Coherence,
    _elements,
    _read_positions,
    _same,
    _size,
    _strides,
    _Table,
    model_coherence_validate,
    positions_rel,
    power_obj,
    rel_compose,
    rel_tensor,
    spread,
    tensor_obj,
)

from corrupted_backend import CORRUPTIONS, ILL_TYPED_CORRUPTIONS, POSITION_CORRUPTIONS, corrupted

GOLDEN = Path(__file__).parent / "data" / "coherence_renders.txt"
SYSTEMS = Path(__file__).parent.parent / "systems"
STOCK = ("L", "U", "R", "A", "fh", "LU", "LA", "LfhU", "all")


def _renders(backend) -> str:
    """The element-level validator's reports on the clean backend and under
    each corruption, each headed by its name and its number of lines."""
    out = []
    for which in ("clean",) + CORRUPTIONS:
        be = backend if which == "clean" else corrupted(backend, which)
        lines = coherence_by_elements(be, max_size=3, budget=4).render().splitlines()
        out += [f"== {which} {len(lines)}", *lines]
    return "\n".join(out) + "\n"


def test_reports_match_the_golden_file():
    backend = system("all")[1]
    assert _renders(backend) == GOLDEN.read_text()
    # the corruptions damage elements, which only the element-level
    # validator reads; the clean report is the same through both
    clean = model_coherence_validate(backend, max_size=3, budget=4).render().splitlines()
    assert GOLDEN.read_text().startswith("\n".join([f"== clean {len(clean)}", *clean, "=="]))


def _splitting_backend() -> ModelBackend:
    """One naturals mode that contracts every grade, so that contraction
    splits wherever arities add up; no tupling backend is coherent there."""
    ideal = Ideal("nat-usual", nat_predicate="all")
    return ModelBackend(space=ModeSpace(modes={"N": Mode("N", builtin_algebra("nat-usual"), ideal, True)}))


@pytest.mark.parametrize("which", POSITION_CORRUPTIONS)
def test_position_mutants_are_reported_as_the_oracle_reports_them(which):
    # every contraction of `all` is a diagonal or splits nothing off, and a
    # diagonal is the same map with its halves swapped; the naturals mode splits
    caught = []
    for be, size, budget in ((system("all")[1], 3, 4), (_splitting_backend(), 2, 2)):
        bad = corrupted(be, which, positions=True)
        report = model_coherence_validate(bad, max_size=size, budget=budget).render()
        assert report == coherence_by_elements(bad, max_size=size, budget=budget).render()
        caught.append(report != model_coherence_validate(be, max_size=size, budget=budget).render())
    assert caught == [which != "c", True]


# -- index tables against relations ------------------------------------------------


def _obj(shape) -> FinSetObj:
    """The object a shape names, built with the element-level constructors."""
    if isinstance(shape, int):
        return FinSetObj(tuple(f"e{i}" for i in range(shape)))
    if shape == ():
        return UNIT_OBJ
    if all(s == shape[0] for s in shape):
        return power_obj(_obj(shape[0]), len(shape))
    return tensor_obj(*map(_obj, shape))


def _rel(t: _Table) -> Rel:
    """The relation a table holds."""
    dom, cod = _obj(t.dom), _obj(t.cod)
    return Rel(dom, cod, frozenset((dom.elements[i], cod.elements[y]) for i, row in enumerate(t.rows)
                                   for y in ((row,) if isinstance(row, int) else row)))


def _power_rel(f: Rel, k: int) -> Rel:
    """f^k element by element, each k-tuple of pairs to its pair of k-tuples."""
    pairs = {(tuple(a for a, _ in combo), tuple(b for _, b in combo))
             for combo in itertools.product(f.pairs, repeat=k)}
    return Rel(power_obj(f.dom, k), power_obj(f.cod, k), frozenset(pairs))


def _shape(rng: random.Random, depth: int = 2):
    """A test object of 0-3 elements, the unit, a tensor, or a power of arity 0-3."""
    kind = rng.randrange(4 if depth else 2)
    if kind == 0:
        return rng.randrange(4)
    if kind == 1:
        return ()
    if kind == 2:
        return (_shape(rng, depth - 1), _shape(rng, depth - 1))
    return (_shape(rng, depth - 1),) * rng.randrange(4)


def _table(co: _Coherence, rng: random.Random, dom, cod) -> _Table:
    """A seeded table: a function, a relation with empty rows, or an empty map."""
    nd, nc = _size(dom), _size(cod)
    kind = rng.randrange(3)
    if kind == 0 and (nc or not nd):
        return _Table(dom, cod, array("q", (rng.randrange(nc) for _ in range(nd))))
    density = 0.0 if kind == 2 else rng.random()
    rows = [co.rows.of(y for y in range(nc) if rng.random() < density) for _ in range(nd)]
    # the normal form: a function is always packed
    if all(isinstance(row, int) for row in rows):
        rows = array("q", rows)
    return _Table(dom, cod, rows)


def _small_shape(rng: random.Random):
    while _size(shape := _shape(rng)) > 27:
        pass
    return shape


class _Given:
    """A backend whose one map is the relation it is given."""

    @staticmethod
    def given(rel: Rel) -> Rel:
        return rel


def _read(co: _Coherence, rel: Rel, dom, cod) -> _Table:
    """rel read by index as the validator reads a backend map."""
    return co._map("given", (rel,), (), dom, cod)


def _spreads(co: _Coherence) -> list[_Table]:
    """Every spread X^s -> X^r for |X| and s, r in 0-3, read as the
    validator reads a backend map; out of the empty power it has a fresh
    coordinate."""
    out = []
    for n, s, r in itertools.product(range(4), repeat=3):
        rel = positions_rel(spread(s, r), _obj(n))
        t = _read(co, rel, (n,) * s, (n,) * r)
        assert _rel(t) == rel
        out.append(t)
    return out


def test_shapes_name_objects_as_finsetobj_equality_does():
    rng = random.Random(12)
    shapes = [_small_shape(rng) for _ in range(200)]
    for n in range(4):
        shapes += [(n, n), (n,) * 2, (), (n,) * 0, n, (n,), ((n,), ()), (0, n), ((), 0)]
        assert tensor_obj(_obj(n), _obj(n)) == power_obj(_obj(n), 2) == FinSetObj(_elements((n, n)))
        assert power_obj(_obj(n), 0) == UNIT_OBJ == FinSetObj(_elements(()))
    for shape in shapes:
        assert FinSetObj(_elements(shape)) == _obj(shape)
        assert _size(shape) == len(_obj(shape))
    for a, b in itertools.product(shapes[::7] + shapes[-36:], repeat=2):
        assert _same(a, b) == (_obj(a) == _obj(b)), (a, b)
    assert _same(0, ((0,), ())) and _same((1, 0), (0, 0, 0)) and not _same((), 0)


def test_index_tables_compose_tensor_and_power_as_relations_do():
    rng = random.Random(7)
    co = _Coherence(_Given(), read_elements)
    tables = _spreads(co)
    for _ in range(150):
        tables.append(_table(co, rng, _small_shape(rng), _small_shape(rng)))
    # reading a relation back by index gives the table it came from
    for t in tables[64:]:
        back = _read(co, _rel(t), t.dom, t.cod)
        assert (back.dom, back.cod, back.rows) == (t.dom, t.cod, t.rows)
    for _ in range(400):
        f, g = rng.sample(tables, 2)
        if rng.random() < 0.5:  # a second map out of f's codomain, or one out of an equal object
            dom = f.cod if _size(f.cod) or rng.random() < 0.5 else rng.choice([0, (0,), ((), 0)])
            g = _table(co, rng, dom, _small_shape(rng))
        if _same(f.cod, g.dom):
            assert _rel(co.compose([f, g])) == rel_compose(_rel(f), _rel(g))
        if _size(f.dom) * _size(g.dom) <= 729:
            assert _rel(co.tensor(f, g)) == rel_tensor(_rel(f), _rel(g))
    for t in tables:
        for k in range(4):
            if max(_size(t.dom), _size(t.cod)) ** k <= 729:
                assert _rel(co.power(t, k)) == _power_rel(_rel(t), k)
    # products whose weights permute the factors' codomains, as an exchange
    # does, against rel_tensor followed by the permutation element by
    # element; some factor is an identity held as a range, some has a
    # domain or a codomain of radix 0
    def nest(xs):
        return xs[0] if len(xs) == 1 else (xs[0], nest(xs[1:]))

    def flat(e, k):
        return (e,) if k == 1 else (e[0], *flat(e[1], k - 1))

    for _ in range(300):
        k = rng.choice((2, 3))
        fs = [rng.choice(tables) for _ in range(k)]
        if rng.random() < 0.3:
            shape = _small_shape(rng)
            fs[rng.randrange(k)] = _Table(shape, shape, range(_size(shape)))
        if rng.random() < 0.3:
            fs[rng.randrange(k)] = _table(co, rng, *rng.sample([0, _small_shape(rng)], 2))
        if math.prod(_size(f.dom) for f in fs) > 729:
            continue
        perm = rng.sample(range(k), k)  # output slot j holds factor perm[j]
        strides = _strides([_size(fs[i].cod) for i in perm])
        weights = [strides[perm.index(i)] for i in range(k)]
        got = _Table(nest([f.dom for f in fs]), nest([fs[i].cod for i in perm]),
                     co.rows.product([f.rows for f in fs], weights))
        tensored = _rel(fs[-1])
        for f in fs[-2::-1]:
            tensored = rel_tensor(_rel(f), tensored)
        want = {(x, nest([flat(y, k)[i] for i in perm])) for x, y in tensored.pairs}
        assert _rel(got).pairs == want, (k, perm)


def test_identities_associators_swaps_and_unitors_by_index():
    co = _Coherence(_Given(), read_elements)
    for a, b, c in itertools.product([0, 1, 2, (), (2, 2)], repeat=3):
        A, B, C = _obj(a), _obj(b), _obj(c)
        assert _rel(co.iso(a)).pairs == {(x, x) for x in A.elements}
        assert _rel(co.iso(((a, b), c), (a, (b, c)))).pairs == {
            (((x, y), z), (x, (y, z))) for x in A.elements for y in B.elements for z in C.elements}
        assert _rel(co.swap(a, b)).pairs == {((x, y), (y, x)) for x in A.elements for y in B.elements}
        assert _rel(co.iso(((), a), a)).pairs == {(((), x), x) for x in A.elements}
        assert _rel(co.iso((a, ()), a)).pairs == {((x, ()), x) for x in A.elements}


# -- the two validators against each other ----------------------------------------


def _outcome(validate, backend, max_size: int, budget: int) -> str:
    """A validator's render, or the class and message of what it raised."""
    try:
        return validate(backend, max_size=max_size, budget=budget).render()
    except Exception as e:  # noqa: BLE001 - the two validators must fail alike
        return f"raised {type(e).__name__}: {e}"


def _nat_backends():
    """One naturals mode per ideal predicate, weak or not, with the default,
    the square, a(0) = 1 and a(2) = 3 arities, each with the largest test
    (max_size, budget) that keeps this test within its time: the square
    arities reach the element limit at budget 3, and at budget 2 only after
    seconds of work."""
    nat = builtin_algebra("nat-usual")
    tables = (({}, 2, 2), ({("N", v): v * v for v in range(65)}, 1, 2), ({("N", 0): 1}, 3, 4),
              ({("N", 2): 3}, 3, 4))
    for pred, weak, (arities, s, b) in itertools.product(NAT_IDEALS, (True, False), tables):
        space = ModeSpace(modes={"N": Mode("N", nat, Ideal("nat-usual", nat_predicate=pred), weak)})
        yield ModelBackend(space=space, arities=arities), s, b
    yield ModelBackend(space=space, arities=tables[1][0]), 2, 3


def _arity_changes():
    """Every change of one grade's arity to 0, 1 or 2 on four stock systems."""
    for name in ("LU", "LA", "fh", "all"):
        be = system(name)[1]
        for m, mode in be.space.modes.items():
            for g, v in itertools.product(mode.algebra.elements(2), range(3)):
                if be.arity(m, g) != v:
                    yield dataclasses.replace(be, arities={**be.arities, (m, g): v})


def _non_homomorphic():
    """A below L through maps of bool into the naturals that are not homomorphisms."""
    modes = {m: MODE_FACTORIES[m]() for m in ("A", "L")}
    for table in ({0: 0, 1: 2}, {0: 1, 1: 1}, {0: 0, 1: 0}, {0: 2, 1: 3}):
        space = ModeSpace(modes=modes, order_pairs=frozenset({("A", "L")}),
                          morphisms={("A", "L"): ModeMorphism("A", "L", table=table)})
        yield ModelBackend(space=space)


def test_both_validators_report_alike():
    # Each stock system and shipped file at every budget 2-4 and, within max
    # size 3, every object size 0-3, though not at every pair of them: the
    # element-level validator takes 13 s over the full grid on 2 vCPUs,
    # mostly in mode L at budgets 3 and 4 (the golden file and criterion 7
    # compare `all` at size 3, budget 4).
    shipped = [load_modes_file(str(SYSTEMS / f"{name}.modes"))[1]
               for name in ("allmodes", "filehandle", "lnl")]
    cases = [(be, s, b) for be in [system(n)[1] for n in STOCK] + shipped
             for s, b in ((0, 4), (1, 3), (3, 2))]
    cases += _nat_backends()
    cases += [(be, 2, 2) for be in _arity_changes()]
    cases += [(be, 2, 2) for be in _non_homomorphic()]
    seen = collections.Counter()
    for be, s, b in cases:
        want = _outcome(coherence_by_elements, be, s, b)
        assert _outcome(model_coherence_validate, be, s, b) == want, (be, s, b)
        seen.update(kind for kind in ("differs at", "signature mismatch", "raised SizeLimitError")
                    if kind in want)
    # reports, by what they hold: both kinds of failing square; a map over
    # the element limit skips its instance, so the square arities at size
    # 2, budget 3 (the last naturals case) report that every other holds
    assert seen == {"differs at": 5, "signature mismatch": 4}
    assert _outcome(model_coherence_validate, *list(_nat_backends())[-1]) == ""


# -- squares proven on leaf maps ----------------------------------------------------


def test_every_clean_square_is_proven_without_a_table(monkeypatch):
    # the one table a clean backend still reads is iota's, whose pairs
    # `iota-iso` counts
    read = collections.Counter()

    def counting(backend, family, *rest):
        read[family] += 1
        return _read_positions(backend, family, *rest)

    monkeypatch.setattr(semantics, "_read_positions", counting)
    shipped = [load_modes_file(str(SYSTEMS / f"{name}.modes"))[1]
               for name in ("allmodes", "filehandle", "lnl")]
    for be in [system(n)[1] for n in STOCK] + shipped:
        assert semantics.model_coherence_validate(be, max_size=3, budget=4).render() == ""
    assert set(read) == {"iota"}


@pytest.mark.parametrize("which", ILL_TYPED_CORRUPTIONS)
def test_positions_that_are_no_map_between_their_objects_are_refused(which):
    bad = corrupted(system("all")[1], which, positions=True)
    with pytest.raises(ShapeError):
        model_coherence_validate(bad, max_size=3, budget=4)
    if which == "tau-untransposed":  # its element-level relation leaves its codomain
        with pytest.raises(ShapeError):
            coherence_by_elements(bad, max_size=3, budget=4)


def test_a_map_over_the_element_limit_is_refused_before_it_is_read():
    read = []
    co = _Coherence(system("all")[1], lambda *args: read.append(args))
    n = math.isqrt(ELEMENT_LIMIT) + 1
    with pytest.raises(SizeLimitError):
        co.delta("L", 2, 1, n)
    assert read == []


class _PositionsGiven:
    """A backend whose one map family is the Positions it is given."""

    @staticmethod
    def given_positions(p: Positions) -> Positions:
        return p


# test objects of 0-2 leaves at size n: the unit, X, X (x) X, X^1 (x) I, X (x) I^1
_OBJECTS = (lambda n: (), lambda n: n, lambda n: (n, n), lambda n: ((n,), ()), lambda n: (n, ((),)))


def _build(c: _Coherence, recipe, n: int) -> _Table:
    """A seeded composite of position maps, as c evaluates it at size n."""
    kind, *parts = recipe
    if kind == "map":
        p, x = parts[0], _OBJECTS[parts[1]](n)
        return c._map("given", (p,), (x,), (x,) * p.src, (x,) * len(p.out))
    if kind == "iso":
        return c.iso(_OBJECTS[parts[0]](n))
    if kind == "swap":
        return c.swap(*(_OBJECTS[i](n) for i in parts))
    if kind == "compose":
        return c.compose([_build(c, r, n) for r in parts])
    if kind == "tensor":
        return c.tensor(*(_build(c, r, n) for r in parts))
    return c.power(_build(c, parts[0], n), parts[1])


def _pairs(t: _Table) -> set:
    return {(i, y) for i, row in enumerate(t.rows) for y in ((row,) if isinstance(row, int) else row)}


def test_equal_leaf_maps_give_equal_tables_at_every_size():
    rng = random.Random(15)
    backend = _PositionsGiven()
    proof = _Coherence(backend, _read_positions, proving=True)
    tables = _Coherence(backend, _read_positions)

    def positions():
        src, fresh = rng.randrange(4), rng.random() < 0.5
        span = src + 1 if fresh or not src else src  # out of no coordinates, every output is fresh
        return Positions(src, tuple(rng.randrange(span) for _ in range(rng.randrange(4))))

    made = {}  # recipe -> its leaf map, with the leaves of its domain and codomain

    def add(recipe):
        t = _build(proof, recipe, 2)
        made[recipe] = (t, leaves(t.dom), leaves(t.cod))

    for recipe in ([("map", positions(), rng.randrange(len(_OBJECTS))) for _ in range(200)]
                   + [("iso", i) for i in range(len(_OBJECTS))]
                   + [("swap", i, j) for i, j in itertools.product(range(len(_OBJECTS)), repeat=2)]):
        add(recipe)
    for _ in range(1500):
        f, g = rng.sample(list(made), 2)
        (_t, fd, fc), (_u, gd, gc) = made[f], made[g]
        kind = rng.randrange(3)
        if kind == 0:
            after = [h for h, (_t, hd, _c) in made.items() if hd == fc]
            add(("compose", f, rng.choice(after)))
        elif kind == 1 and max(fd, fc) <= 2:
            add(("power", f, rng.randrange(3)))
        elif kind == 2 and fd + gd <= 4 and fc + gc <= 4:
            add(("tensor", f, g))
    # a fresh variable forgotten out of no leaves: the empty relation at
    # size 0, the identity of the unit above it
    dropped = ("compose", ("map", Positions(0, (0,)), 1), ("map", Positions(1, ()), 1))
    for recipe in (dropped, ("compose", dropped, ("iso", 0)), ("tensor", ("iso", 0), dropped)):
        add(recipe)
    assert not equal(made[dropped][0].rows, made["iso", 0][0].rows)
    # positions whose outputs are not its codomain's leaves are not read: a
    # tensor or power weighs a map's digits by its codomain's size
    assert proof._map("given", (Positions(1, (0, 0)),), (2,), (2,), (2,)).rows is None

    groups = collections.defaultdict(list)
    for recipe, (t, dl, cl) in made.items():
        if t.rows is not None and max(dl, cl) <= 4:
            groups[t.dom, t.cod].append((recipe, t.rows))
    proven = collections.Counter()
    for group in groups.values():
        for (r1, f1), (r2, f2) in itertools.combinations(group, 2):
            if equal(f1, f2):
                proven["drops out of no leaves" if f1[0] == 0 and len(set(f1[1])) < f1[2]
                       else "other"] += 1
                for n in range(4):
                    assert _pairs(_build(tables, r1, n)) == _pairs(_build(tables, r2, n)), (r1, r2, n)
    # distinct composites proven equal, some forgetting a fresh variable out of no leaves
    assert proven["other"] >= 100 and proven["drops out of no leaves"] >= 3, proven
    # the two sides of a square number their fresh variables apart: the swap
    # is natural on X^0 -> X (fresh) and X -> X^2 (a copy, then fresh) only
    # once they are renumbered
    f, g = (0, [-1], 1), (1, [0, -1], 1)
    assert equal(substitute(juxtapose(f, g), block_swap(1, 2)),
                 substitute(block_swap(0, 1), juxtapose(g, f)))
