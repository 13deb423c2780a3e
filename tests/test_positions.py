"""The interpretation's index tables against the backend's relations.

Every structure map has one definition, its positions.  The backend
reads element-level relations off them and the interpretation reads index
tables off them; here each table the interpretation uses is decoded and
compared with the backend method's relation, at every grade within the
budget and every object size from 0 to 4.
"""

import itertools

import pytest

from grass.errors import SizeLimitError
from grass.grades import Grade
from grass.presets import standard_space, system
from grass.semantics import (
    FinSetObj,
    ModelBackend,
    Rel,
    _entry_positions,
    _strides,
    _weights,
    rel_compose,
    semantic_eq,
    spread,
    spread_rel,
)

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
        assert _same(be.eps_positions(m).table(n, [1]), be.eps(m, x)), (m, n)
        w = be.w_positions(m)
        if _power_len(n, w.src) <= CAP:
            assert _same(w.table(n, ()), be.w_map(m, x)), (m, n)
    for m in be.space.modes:
        for q in _grades(be, m):
            p = be.iota_positions(m, q)
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
            p = be.preorder_positions(m, low, high)
            assert _same(p.table(n, _weights(n, len(p.out))),
                         be.preorder_map(m, low, high, _x(n))), (m, low, high, n)
            checked += 1
        for r1, r2 in itertools.product(grades, repeat=2):
            p = be.c_positions(m, r1, r2)
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
    place = be.tau_positions(m, q, k).place_values(
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
