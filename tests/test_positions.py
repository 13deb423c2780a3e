"""The interpretation's index tables against the backend's relations.

Every structure map has one definition, its objects, and its positions are
read off them: pinned here against the arities they must come to.  The
backend reads element-level relations off the positions and the
interpretation reads index tables off them; here each table the
interpretation uses is decoded and compared with the backend method's
relation, at every grade within the budget and every object size from 0 to 4.
"""

import itertools
from pathlib import Path

import pytest

from grass.cli import load_modes_file
from grass.errors import ConfigError, InputError, ShapeError, SizeLimitError
from grass.grades import Grade
from grass.presets import standard_space, system
from grass.semantics import (
    FinSetObj,
    ModelBackend,
    Positions,
    Rel,
    _entry_positions,
    _strides,
    _weights,
    rel_compose,
    semantic_eq,
    spread,
    spread_rel,
)

from corrupted_backend import corrupted

SIZES = range(5)
CAP = 4096  # skip instances whose objects have more elements


def _backends():
    lu = standard_space(("L", "U"), (("L", "U"),), {"P": "L", "Q": "U"})
    fh = standard_space(("fh",), (), {"H": "fh", "K": "fh"})
    return {
        "all": system("all")[1],
        "LU": ModelBackend(space=lu, arities={("U", "t"): 1},
                           base_carriers={"P": ("a", "b", "c"), "Q": ("c1", "c2")}),
        "fh": ModelBackend(space=fh, arities={("fh", "w"): 1},
                           base_carriers={"H": ("h1", "h2", "h3"), "K": ("k1", "k2")}),
    }


BACKENDS = _backends()


def _grades(be, m):
    return list(be.space.mode(m).algebra.elements(4))


def _power_len(n, k):
    return max(n, 1) ** k


def _each(row):
    return (row,) if isinstance(row, int) else row


def _same(table, rel: Rel) -> bool:
    """Whether the table decodes to exactly the relation: entry i is the
    image indices of the i-th element of rel.dom in rel.cod."""
    assert len(table) == len(rel.dom)
    decoded = frozenset((rel.dom.elements[i], rel.cod.elements[y])
                        for i, row in enumerate(table) for y in _each(row))
    return decoded == rel.pairs


def _x(n):
    return FinSetObj(tuple(f"e{i}" for i in range(n)))


STOCK = ("L", "U", "R", "A", "fh", "LU", "LA", "LfhU", "all")
SHIPPED = Path(__file__).parent.parent / "systems"


def test_each_map_is_the_spread_between_its_arities_and_tau_the_transpose():
    # each family's Positions, from the counts of coordinates of its objects
    # written out: eps a(1) -> 1, delta a(r.q) -> a(r).a(q), iota 0 -> a(q),
    # c a(r+q) -> a(r)+a(q), w a(0) -> 0, the preorder map a(high) -> a(low), mu
    # a(phi(q)) at the higher mode -> a(q) at the lower; tau takes coordinate j
    # of factor i to coordinate i of tuple j
    backends = [system(n)[1] for n in STOCK] + [load_modes_file(str(SHIPPED / f"{name}.modes"))[1]
                                                for name in ("allmodes", "filehandle", "lnl")]
    checked = 0
    for be in backends:
        space, a = be.space, be.arity
        for m in space.modes:
            alg = space.mode(m).algebra
            grades = _grades(be, m)
            assert be.positions("eps", m) == spread(a(m, alg.one), 1)
            assert be.positions("w_map", m) == spread(a(m, alg.zero), 0)
            for q in grades:
                n = a(m, q)
                assert be.positions("iota", m, q) == spread(0, n)
                for k in range(4):
                    assert be.positions("tau", m, q, k) == Positions(
                        k * n, tuple(i * n + j for j in range(n) for i in range(k))), (m, q, k)
            for r, q in itertools.product(grades, repeat=2):
                assert be.positions("delta", m, r, q) == spread(a(m, alg.mul(r, q)), a(m, r) * a(m, q))
                assert be.positions("c_map", m, r, q) == spread(a(m, alg.add(r, q)), a(m, r) + a(m, q))
                if alg.leq(r, q):
                    assert be.positions("preorder_map", m, r, q) == spread(a(m, q), a(m, r))
                checked += 1
        for low, high in sorted(space.order_pairs | {(m, m) for m in space.modes}):
            for q in _grades(be, low):
                assert be.positions("mu", low, high, q) == spread(a(high, space.phi(low, high, q)),
                                                                  a(low, q)), (low, high, q)
    assert checked > 200


def test_the_counit_delta_and_the_preorder_map_refuse_as_they_did():
    # each refusal comes before the Positions are read, so a mutant whose
    # Positions are no map between its objects is refused the same way
    space, be = system("L")
    for arities, read, error, message in (
            ({("L", 1): 2}, ("eps", "L"), ConfigError, "mode L: arity of 1 must be 1 for the counit, got 2"),
            ({("L", 2): 3}, ("delta", "L", 2, 2), ConfigError,
             "mode L: arity is not multiplicative at (2, 2): 4 != 3*3"),
            ({}, ("preorder_map", "L", 2, 1), InputError, "preorder map needs 2 <= 1 in L")):
        lawless = ModelBackend(space=space, arities=arities, base_carriers=be.base_carriers)
        for backend in (lawless, corrupted(lawless, "delta-overrun", positions=True)):
            for _ in range(2):
                with pytest.raises(error) as refused:
                    backend.positions(*read)
                assert str(refused.value) == message
            assert not backend.positions_memo
    with pytest.raises(ShapeError):
        corrupted(be, "delta-overrun", positions=True).positions("delta", "L", 2, 2)


def test_spread_tables():
    # every spread, including the diagonal out of the empty power into
    # powers that no stock backend reaches
    for s, r, n in itertools.product(range(4), range(4), SIZES):
        assert _same(spread(s, r).table(n, _weights(n, r)), spread_rel(_x(n), s, r)), (s, r, n)


@pytest.mark.parametrize("name", BACKENDS)
def test_eps_w_iota_tables(name):
    be = BACKENDS[name]
    for m, n in itertools.product(be.space.modes, SIZES):
        x = _x(n)
        assert _same(be.positions("eps", m).table(n, [1]), be.eps(m, x)), (m, n)
        w = be.positions("w_map", m)
        if _power_len(n, w.src) <= CAP:
            assert _same(w.table(n, ()), be.w_map(m, x)), (m, n)
    for m in be.space.modes:
        for q in _grades(be, m):
            p = be.positions("iota", m, q)
            assert _same(p.table(1, _weights(1, len(p.out))), be.iota(m, q)), (m, q)


@pytest.mark.parametrize("name", BACKENDS)
def test_preorder_and_c_tables(name):
    be = BACKENDS[name]
    checked = 0
    for m, n in itertools.product(be.space.modes, SIZES):
        alg = be.space.mode(m).algebra
        grades = _grades(be, m)
        for low, high in itertools.product(grades, repeat=2):
            if not alg.leq(low, high) or _power_len(n, be.arity(m, high)) > CAP:
                continue
            p = be.positions("preorder_map", m, low, high)
            assert _same(p.table(n, _weights(n, len(p.out))),
                         be.preorder_map(m, low, high, _x(n))), (m, low, high, n)
            checked += 1
        for r1, r2 in itertools.product(grades, repeat=2):
            p = be.positions("c_map", m, r1, r2)
            if _power_len(n, max(p.src, len(p.out))) > CAP:
                continue
            assert _same(p.table(n, _weights(n, len(p.out))),
                         be.c_map(m, r1, r2, _x(n))), (m, r1, r2, n)
            checked += 1
    assert checked


@pytest.mark.parametrize("name", BACKENDS)
def test_scaling_tables(name):
    # one context entry of q . t: F delta, then mu, over g (.) A
    be = BACKENDS[name]
    space = be.space
    checked = 0
    pairs = sorted(space.order_pairs | {(m, m) for m in space.modes})
    for (mode, n), size in itertools.product(pairs, SIZES):
        alg_n = space.mode(n).algebra
        for q, g in itertools.product(_grades(be, mode), _grades(be, n)):
            phi_q = space.phi(mode, n, q)
            a_src = be.arity(n, alg_n.mul(phi_q, g))
            a_g, a_q = be.arity(n, g), be.arity(mode, q)
            y_len = _power_len(size, a_g)
            if _power_len(size, a_src) > CAP or _power_len(y_len, a_q) > CAP:
                continue
            x = _x(size)
            y = be.act_obj(n, g, x)
            rel = rel_compose(be.delta(n, phi_q, g, x), be.mu(mode, n, q, y))
            p = _entry_positions(be, mode, q, Grade(alg_n.id, g), n)
            assert _same(p.table(len(y), _weights(len(y), a_q)), rel), (mode, n, q, g, size)
            checked += 1
    assert checked


def _tau_table(be, m, q, radices):
    """tau by index, the way the interpretation reads it: each source
    coordinate's digit at the place value tau's positions give it."""
    a, k = be.arity(m, q), len(radices)
    place = be.positions("tau", m, q, k).place_values(
        _strides([r for _j in range(a) for r in radices]))
    src_radices = [r for r in radices for _j in range(a)]
    return [sum(d * w for d, w in zip(ds, place))
            for ds in itertools.product(*map(range, src_radices))]


@pytest.mark.parametrize("name", BACKENDS)
def test_tau_tables(name):
    be = BACKENDS[name]
    checked = 0
    for m in be.space.modes:
        for q in _grades(be, m):
            a = be.arity(m, q)
            for nx, ny in itertools.product(SIZES, repeat=2):
                if _power_len(nx * ny, a) > CAP:
                    continue
                rel = be.tau_pair(m, q, _x(nx), _x(ny))
                assert _same(_tau_table(be, m, q, [nx, ny]), rel), (m, q, nx, ny)
                checked += 1
            for sizes in itertools.chain.from_iterable(
                    itertools.product(range(4), repeat=k) for k in (0, 1, 3)):
                if _power_len(max([1, *sizes]), a * len(sizes)) > CAP:
                    continue
                rel = be.tau_many(m, q, [_x(s) for s in sizes])
                assert _same(_tau_table(be, m, q, list(sizes)), rel), (m, q, sizes)
                checked += 1
    assert checked


def test_semantic_eq_builds_no_relation(monkeypatch):
    import random

    from grass.derivation import mk_sub, mk_var
    from grass.gen import Gen
    from grass.rewrite import beta_step
    from grass.semantics import interp_derivation
    from grass.syntax import TBase

    cases = []  # (backend, derivation, derivation)
    for name, seed in (("LU", 5), ("fh", 6)):
        be = BACKENDS[name]
        gen = Gen(space=be.space, rng=random.Random(seed), max_obj_size=200,
                  base_sizes={b: len(c) for b, c in be.base_carriers.items()})
        found = 0
        while found < 20:
            d = gen.gen_derivation(4)
            step = beta_step(d, be.space)
            if step is not None:
                cases.append((be, d, step[0]))
                found += 1
    fh = BACKENDS["fh"]
    plain = mk_var(fh.space, "x", TBase("H", "fh"))
    cases.append((fh, plain, mk_sub(fh.space, plain, ("w",))))
    rules = {node.rule for _be, d1, d2 in cases for d in (d1, d2) for node in d.walk()}
    assert {"var", "weak", "sub", "cont", "unitE", "arrowE", "pairE", "sumE", "dropI"} <= rules

    built = []
    post_init = Rel.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Rel, "__post_init__", counting)
    interp_derivation(fh, plain)
    assert built  # the counter sees the relations that are built
    built.clear()
    compared = 0
    for be, d1, d2 in cases:
        try:
            semantic_eq(be, d1, d2)
            compared += 1
        except SizeLimitError:  # refused before any work
            pass
    assert compared >= 30
    assert built == []
