"""Finite sets-and-relations backend and the interpretation of derivations.

Objects are finite sets of hashable values; tensor of types is the set of
pairs, the unit is a fixed singleton, and the hom object of A -o{q} B is
the set of total functions q (.) A -> B, each the tuple of its values in
the element order of q (.) A (`fun_obj`); abstraction keeps every total
function a relation contains, application evaluates.  Each mode acts
by tupling: q (.) X = X^a(q) for a declared arity a(q); the functors
connecting modes are identities.  So every structure map only copies,
permutes, forgets or repeats tuple positions, and each has one definition,
a `Positions` map built from the arities alone: delta and tau regroup,
contraction splits where arities add up and spreads otherwise, weakening
forgets, and the comparison maps are spreads.  `ModelBackend`'s relations
and the interpretation's index tables are both read off those positions,
which fix the map at every carrier (parametricity: Wadler, "Theorems for
free!", 1989), so neither view samples object sizes.

Context objects are flat k-tuples, one component per entry, which makes
the tensor of contexts strictly associative.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter

from .derivation import Derivation
from .errors import ConfigError, InputError, Report, ShapeError, SizeLimitError
from .grades import Grade, GradeValue
from .modespace import ModeSpace
from .rewrite import SubstitutionBundle, subst_simultaneous
from .syntax import (
    Judgment,
    TBase,
    TDrop,
    TFun,
    TRaise,
    TSum,
    TTensor,
    TUnit,
    Type,
    mode_of,
)

UNIT_ELEM = ()


@dataclass(frozen=True)
class FinSetObj:
    elements: tuple

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise InputError("object elements must be pairwise distinct")

    def __len__(self):
        return len(self.elements)


UNIT_OBJ = FinSetObj((UNIT_ELEM,))


@dataclass(frozen=True)
class Rel:
    dom: FinSetObj
    cod: FinSetObj
    pairs: frozenset

    def __post_init__(self):
        dom, cod = set(self.dom.elements), set(self.cod.elements)
        for x, y in self.pairs:
            if x not in dom or y not in cod:
                raise ShapeError("relation pair outside dom x cod")


def rel_id(x_obj: FinSetObj) -> Rel:
    return Rel(x_obj, x_obj, frozenset((e, e) for e in x_obj.elements))


def rel_compose(f: Rel, g: Rel) -> Rel:
    """f then g (diagrammatic order)."""
    if f.cod != g.dom:
        raise ShapeError("rel_compose: cod of first != dom of second")
    by_src: dict = {}
    for a, b in f.pairs:
        by_src.setdefault(b, []).append(a)
    pairs = set()
    for b, c in g.pairs:
        for a in by_src.get(b, ()):
            pairs.add((a, c))
    return Rel(f.dom, g.cod, frozenset(pairs))


def tensor_obj(x_obj: FinSetObj, y_obj: FinSetObj) -> FinSetObj:
    _guard(len(x_obj) * len(y_obj))
    return FinSetObj(tuple((a, b) for a in x_obj.elements for b in y_obj.elements))


def rel_tensor(f: Rel, g: Rel) -> Rel:
    return Rel(
        tensor_obj(f.dom, g.dom), tensor_obj(f.cod, g.cod),
        frozenset(((a, c), (b, d)) for a, b in f.pairs for c, d in g.pairs),
    )


ELEMENT_LIMIT = 200_000


def _guard(n: int) -> None:
    if n > ELEMENT_LIMIT:
        raise SizeLimitError(f"would materialize {n} elements (limit {ELEMENT_LIMIT})")


def fun_size(x_size: int, y_size: int) -> int:
    """|Y|^|X|, the number of total functions X -> Y, within the limit."""
    if y_size > 1 and x_size >= ELEMENT_LIMIT.bit_length():
        raise SizeLimitError(
            f"would materialize at least 2^{x_size} elements (limit {ELEMENT_LIMIT})")
    n = y_size ** x_size
    _guard(n)
    return n


def fun_obj(x_obj: FinSetObj, y_obj: FinSetObj) -> FinSetObj:
    """The total functions X -> Y, each the tuple of its values in the
    element order of X."""
    fun_size(len(x_obj), len(y_obj))
    return FinSetObj(tuple(itertools.product(y_obj.elements, repeat=len(x_obj))))


def power_obj(x_obj: FinSetObj, k: int) -> FinSetObj:
    _guard(max(len(x_obj), 1) ** k)
    return FinSetObj(tuple(itertools.product(x_obj.elements, repeat=k)))


def power_rel(f: Rel, k: int) -> Rel:
    _guard(max(len(f.pairs), 1) ** k)
    pairs = set()
    for combo in itertools.product(tuple(f.pairs), repeat=k):
        pairs.add((tuple(a for a, _ in combo), tuple(b for _, b in combo)))
    return Rel(power_obj(f.dom, k), power_obj(f.cod, k), frozenset(pairs))


# ---------------------------------------------------------------------------
# Position maps


@dataclass(frozen=True)
class Positions:
    """A map X^src -> X^len(out) that acts on positions alone: output
    coordinate j copies source coordinate out[j], where out[j] == src
    names one fresh coordinate that every such output shares and that
    ranges over X.  Without it the map is a total function."""

    src: int
    out: tuple

    @cached_property
    def fresh(self) -> bool:
        return self.src in self.out

    @cached_property
    def pick(self):
        """The image of a source tuple, with the fresh value appended if
        the map has one."""
        out = self.out
        return itemgetter(*out) if len(out) > 1 else lambda xs: tuple(xs[k] for k in out)

    def place_values(self, weights) -> list[int]:
        """The place value of each source coordinate, then of the fresh
        one, when output coordinate j has place value weights[j]."""
        place = [0] * (self.src + 1)
        for k, w in zip(self.out, weights):
            place[k] += w
        return place

    def table(self, n: int, weights) -> list:
        """The map by index for |X| = n: entry i, for the i-th element of
        X^src in mixed radix, is the sum of each output coordinate's digit
        times weights[j], or the tuple of those sums over the fresh value
        unless there is exactly one."""
        *place, fresh_w = self.place_values(weights)
        table = list(map(sum, itertools.product(*([d * w for d in range(n)] for w in place))))
        if not self.fresh or n == 1:
            return table
        return [tuple(i + x * fresh_w for x in range(n)) for i in table]


@lru_cache(maxsize=None)
def spread(s: int, r: int) -> Positions:
    """The canonical comparison X^s -> X^r: repeat the final coordinate to
    grow, forget a suffix to shrink; out of the empty power, the diagonal."""
    return Positions(s, tuple(min(j, s - 1) for j in range(r)) if s else (0,) * r)


def positions_rel(p: Positions, x_obj: FinSetObj, dom: FinSetObj | None = None,
                  cod: FinSetObj | None = None, regroup=tuple) -> Rel:
    """p between dom (default X^src) and cod (default X^len(out)), element
    by element: each source tuple to its images, regrouped into the
    nesting of cod's elements, for X = x_obj."""
    dom = power_obj(x_obj, p.src) if dom is None else dom
    cod = power_obj(x_obj, len(p.out)) if cod is None else cod
    pick = p.pick
    if p.fresh:  # one image per value of the fresh coordinate
        pairs = ((xs, regroup(pick(xs + (x,)))) for xs in dom.elements for x in x_obj.elements)
    else:
        pairs = ((xs, regroup(pick(xs))) for xs in dom.elements)
    return Rel(dom, cod, frozenset(pairs))


# no caller in this package; kept because perfbench/tracer.py wraps it by name
def spread_rel(x_obj: FinSetObj, s: int, r: int) -> Rel:
    return positions_rel(spread(s, r), x_obj)


@lru_cache(maxsize=None)
def _transpose(a: int, k: int) -> Positions:
    """k a-tuples, flat, to a k-tuples: coordinate j of tuple i goes to
    coordinate i of tuple j."""
    return Positions(k * a, tuple(i * a + j for j in range(a) for i in range(k)))


@lru_cache(maxsize=None)
def _chunker(width: int, count: int):
    """Cuts a flat tuple into count consecutive tuples of width elements."""
    if not width:
        return lambda xs: ((),) * count
    return lambda xs: tuple(zip(*[iter(xs)] * width))


# ---------------------------------------------------------------------------
# Backend


def default_arity(space: ModeSpace, mode: str, value: GradeValue) -> int:
    """The number of tuple components of q (.) X when no arity is declared:
    the value itself over the naturals, 0 at a zero distinct from one, else 1."""
    alg = space.mode(mode).algebra
    if alg.kind == "nat":
        return int(value)
    if value == alg.zero and alg.zero != alg.one:
        return 0
    return 1


@dataclass
class ModelBackend:
    """Arity tables and base-type carriers over a validated mode space."""

    space: ModeSpace
    arities: dict[tuple[str, GradeValue], int] = field(default_factory=dict)
    base_carriers: dict[str, tuple] = field(default_factory=dict)
    nat_budget: int = 4

    def arity(self, mode: str, value: GradeValue) -> int:
        key = (mode, value)
        if key in self.arities:
            return self.arities[key]
        return default_arity(self.space, mode, value)

    def act_obj(self, mode: str, value: GradeValue, x_obj: FinSetObj) -> FinSetObj:
        return power_obj(x_obj, self.arity(mode, value))

    def act_rel(self, mode: str, value: GradeValue, f: Rel) -> Rel:
        return power_rel(f, self.arity(mode, value))

    # -- structure maps as positions ----------------------------------------

    def eps_positions(self, mode: str) -> Positions:
        """The counit 1 (.) X -> X, the identity."""
        a1 = self.arity(mode, self.space.mode(mode).algebra.one)
        if a1 != 1:
            raise ConfigError(f"mode {mode}: arity of 1 must be 1 for the counit, got {a1}")
        return spread(1, 1)

    def delta_positions(self, mode: str, r: GradeValue, q: GradeValue) -> Positions:
        """(r.q) (.) X -> r (.) (q (.) X), the identity; the codomain
        groups the coordinates into a(r) chunks of a(q)."""
        alg = self.space.mode(mode).algebra
        ar, aq, arq = self.arity(mode, r), self.arity(mode, q), self.arity(mode, alg.mul(r, q))
        if arq != ar * aq:
            raise ConfigError(
                f"mode {mode}: arity is not multiplicative at ({r!r}, {q!r}): {arq} != {ar}*{aq}")
        return spread(arq, arq)

    def tau_positions(self, mode: str, value: GradeValue, k: int) -> Positions:
        """(x)_{i<k} (q (.) X_i) -> q (.) ((x)_i X_i), the transpose."""
        return _transpose(self.arity(mode, value), k)

    def iota_positions(self, mode: str, value: GradeValue) -> Positions:
        """I -> q (.) I, out of the empty power of I."""
        return spread(0, self.arity(mode, value))

    def c_positions(self, mode: str, r: GradeValue, q: GradeValue) -> Positions:
        """(r+q) (.) X -> (r (.) X) (x) (q (.) X): a split where arities add
        up (the spread is then the identity), a spread otherwise."""
        alg = self.space.mode(mode).algebra
        return spread(self.arity(mode, alg.add(r, q)), self.arity(mode, r) + self.arity(mode, q))

    def w_positions(self, mode: str) -> Positions:
        """0 (.) X -> I: forget every coordinate."""
        return spread(self.arity(mode, self.space.mode(mode).algebra.zero), 0)

    def preorder_positions(self, mode: str, low: GradeValue, high: GradeValue) -> Positions:
        """The functorial action on low <= high: high (.) X -> low (.) X."""
        if not self.space.mode(mode).algebra.leq(low, high):
            raise InputError(f"preorder map needs {low!r} <= {high!r} in {mode}")
        return spread(self.arity(mode, high), self.arity(mode, low))

    def mu_positions(self, low_mode: str, high_mode: str, value: GradeValue) -> Positions:
        """F(phi(q) (.) X) -> q (.) F(X) across low <= high; F is the identity."""
        phi_q = self.space.phi(low_mode, high_mode, value)
        return spread(self.arity(high_mode, phi_q), self.arity(low_mode, value))

    # -- structure maps as relations, read off the positions ----------------

    def eps(self, mode: str, x_obj: FinSetObj) -> Rel:
        return positions_rel(self.eps_positions(mode), x_obj, cod=x_obj, regroup=itemgetter(0))

    def delta(self, mode: str, r: GradeValue, q: GradeValue, x_obj: FinSetObj) -> Rel:
        """(r.q) (.) X -> r (.) (q (.) X), a chunking bijection."""
        p = self.delta_positions(mode, r, q)
        ar, aq = self.arity(mode, r), self.arity(mode, q)
        return positions_rel(p, x_obj, cod=power_obj(power_obj(x_obj, aq), ar),
                             regroup=_chunker(aq, ar))

    def tau_many(self, mode: str, value: GradeValue, objs: list[FinSetObj]) -> Rel:
        """(x)_i (q (.) X_i) -> q (.) ((x)_i X_i) on flat-tuple objects."""
        a = self.arity(mode, value)
        dom = FinSetObj(tuple(itertools.product(*(power_obj(o, a).elements for o in objs))))
        cod = power_obj(FinSetObj(tuple(itertools.product(*(o.elements for o in objs)))), a)
        pairs = frozenset((e, self.tau_element(mode, value, e)) for e in dom.elements)
        return Rel(dom, cod, pairs)

    def tau_element(self, mode: str, value: GradeValue, entry: tuple) -> tuple:
        """The image of one element under tau: a tuple of a(q)-tuples, one
        per factor, transposed into a(q) tuples over the factors."""
        a, k = self.arity(mode, value), len(entry)
        return _chunker(k, a)(_transpose(a, k).pick(sum(entry, ())))

    def tau_pair(self, mode: str, value: GradeValue, x_obj: FinSetObj, y_obj: FinSetObj) -> Rel:
        """(q (.) X) (x) (q (.) Y) -> q (.) (X (x) Y) on genuine pair objects."""
        return self.tau_many(mode, value, [x_obj, y_obj])

    def iota(self, mode: str, value: GradeValue) -> Rel:
        return positions_rel(self.iota_positions(mode, value), UNIT_OBJ)

    def c_map(self, mode: str, r: GradeValue, q: GradeValue, x_obj: FinSetObj) -> Rel:
        """(r+q) (.) X -> (r (.) X) (x) (q (.) X)."""
        ar, aq = self.arity(mode, r), self.arity(mode, q)
        cod = tensor_obj(power_obj(x_obj, ar), power_obj(x_obj, aq))
        return positions_rel(self.c_positions(mode, r, q), x_obj, cod=cod,
                             regroup=lambda ys: (ys[:ar], ys[ar:]))

    def w_map(self, mode: str, x_obj: FinSetObj) -> Rel:
        return positions_rel(self.w_positions(mode), x_obj)

    def preorder_map(self, mode: str, low: GradeValue, high: GradeValue, x_obj: FinSetObj) -> Rel:
        return positions_rel(self.preorder_positions(mode, low, high), x_obj)

    def mu(self, low_mode: str, high_mode: str, value: GradeValue, x_obj: FinSetObj) -> Rel:
        return positions_rel(self.mu_positions(low_mode, high_mode, value), x_obj)

    # phi(q) (.) G(X) -> G(q (.) X), the lineator, is mu here since F = G = id
    lineator = mu


# ---------------------------------------------------------------------------
# Interpretation of types, contexts, scalar action


def interp_type(backend: ModelBackend, ty: Type) -> FinSetObj:
    match ty:
        case TUnit(_):
            return UNIT_OBJ
        case TBase(name, _):
            return FinSetObj(tuple(_carrier(backend, name)))
        case TTensor(left, right):
            return tensor_obj(interp_type(backend, left), interp_type(backend, right))
        case TSum(left, right):
            lo, ro = interp_type(backend, left), interp_type(backend, right)
            return FinSetObj(
                tuple(("l", e) for e in lo.elements) + tuple(("r", e) for e in ro.elements))
        case TFun(arg, grade, body):
            m = mode_of(arg)
            dom = backend.act_obj(m, grade.value, interp_type(backend, arg))
            return fun_obj(dom, interp_type(backend, body))
        case TDrop(grade, _low, high, body):
            return backend.act_obj(high, grade.value, interp_type(backend, body))
        case TRaise(_low, _high, body):
            return interp_type(backend, body)
    raise InputError(f"not a type: {ty!r}")


def _carrier(backend: ModelBackend, name: str) -> tuple:
    try:
        return backend.base_carriers[name]
    except KeyError:
        raise ConfigError(f"no carrier declared for base type {name!r}") from None


def _entry_objs(backend: ModelBackend, j: Judgment) -> list[FinSetObj]:
    return [
        backend.act_obj(n, g.value, interp_type(backend, ty))
        for g, n, (_x, ty) in zip(j.rho, j.modes, j.ctx)
    ]


def interp_ctx(backend: ModelBackend, j: Judgment) -> FinSetObj:
    """The tensor of the per-entry objects, as flat tuples."""
    objs = _entry_objs(backend, j)
    total = 1
    for o in objs:
        total *= max(len(o), 1)
    _guard(total)
    return FinSetObj(tuple(itertools.product(*(o.elements for o in objs))))


def _entry_positions(backend: ModelBackend, mode: str, value: GradeValue, g: Grade,
                     n: str) -> Positions:
    """One context entry of q . t, F delta followed by mu, from
    (phi(q).g) (.) A to q (.) (g (.) A), as positions over the coordinates
    of g (.) A.  By index delta is the identity, so the composite is mu;
    delta_positions refuses arities that are not multiplicative."""
    backend.delta_positions(n, backend.space.phi(mode, n, value), g.value)
    return backend.mu_positions(mode, n, value)


# ---------------------------------------------------------------------------
# Denotations by index
#
# Inside the interpretation the elements of every object are numbered in
# enumeration order: an element of a power or a function space in mixed
# radix, first coordinate most significant; a tensor element (a, b) as
# a*|B| + b; a right injection after the left summand.  So the index of a
# nested tuple is the index of its flattening, and a structure map's table
# by index is its `Positions.table`: the index of an image is the sum of
# the digits the map copies, each at the place value of the coordinate it
# lands in.  No object is enumerated and no relation is built.
#
# A relation from a context object is held as its rows: row c holds the
# indices of the elements related to the c-th context element, as an int
# when there is exactly one and as an interned frozenset otherwise.  Rows
# that are all single indices are packed into an array('q'), eight bytes a
# row, so a relation as large as ELEMENT_LIMIT stays small.

_EMPTY = frozenset()


def _index(obj: FinSetObj) -> dict:
    return {x: i for i, x in enumerate(obj.elements)}


def _strides(radices) -> list[int]:
    """Place values of the digits of a mixed-radix number, most significant first."""
    out, acc = [], 1
    for r in reversed(radices):
        out.append(acc)
        acc *= r
    return out[::-1]


def _weights(base: int, k: int) -> list[int]:
    """Place values of a k-digit number in the given base, most significant first."""
    return [base ** (k - 1 - j) for j in range(k)]


def _decode(rows: list, dom: FinSetObj, cod: FinSetObj) -> Rel:
    """The relation that rows hold by index, between dom and cod."""
    return Rel(dom, cod, frozenset((dom.elements[c], cod.elements[y])
                                   for c, row in enumerate(rows) for y in _each(row)))


def _each(row):
    """The indices in a row."""
    return (row,) if row.__class__ is int else row


def _scale_each(row, s: int):
    return row * s if row.__class__ is int else tuple(v * s for v in row)


def _pack(rows):
    """Rows whose every entry is one index, as an array of 8-byte ints."""
    if rows.__class__ is array:
        return rows
    try:
        return array("q", rows)
    except TypeError:
        return rows


def _build(make) -> list:
    """The rows make() yields, packed without a list in between when every
    one is a single index; make() is called again otherwise."""
    try:
        return array("q", make())
    except TypeError:
        return list(make())


def _count(rows: list) -> int:
    """The number of pairs of a relation held by rows."""
    return sum(1 if row.__class__ is int else len(row) for row in rows)


class _Rows:
    """The rows of one call: a row of one index is the int itself, any
    other row an interned frozenset."""

    def __init__(self):
        self.seen: dict = {_EMPTY: _EMPTY}

    def of(self, ys):
        row = frozenset(ys)
        if len(row) == 1:
            return next(iter(row))
        return self.seen.setdefault(row, row)

    def gather(self, rows: list, tables: list[list]) -> list:
        """Row c of the result is the union of the rows at the premise codes
        that `tables` gives for the digits of c: tables[i][d] is the
        contribution of digit d of entry i, or the tuple of contributions
        unless there is exactly one."""
        if all(table.__class__ is range or all(t.__class__ is int for t in table)
               for table in tables):
            return _build(lambda: (rows[c] for c in map(sum, itertools.product(*tables))))
        out = []
        for parts in itertools.product(*tables):
            codes = {sum(p) for p in itertools.product(*map(_each, parts))}
            if len(codes) == 1:
                out.append(rows[next(iter(codes))])
            else:
                out.append(self.of(y for c in codes for y in _each(rows[c])))
        return out


def _scale_rows(backend: ModelBackend, mode: str, value: GradeValue, rows: list,
                entries, radices: list[int], cod_size: int, interned: _Rows) -> list:
    """Rows of q . t from the rows of t: the composite (x)_i (mu o F delta),
    then tau, then q (.) t, or iota then q (.) t for an empty context.
    Entry i is (g_i, n_i), and g_i (.) A_i has radices[i] elements."""
    maps = [_entry_positions(backend, mode, value, g, n) for g, n in entries]
    a = backend.arity(mode, value)
    _guard(max(_count(rows), 1) ** a)
    if a == 1 and all(p == spread(1, 1) for p in maps):
        return rows  # every entry's map is the identity, and so is tau at arity 1
    # entry i's table gives the index in (the context object)^a(q) of tau's
    # image: output coordinate i of tuple j has entry i's radix, and the
    # coordinate j of entry i that tau moves there takes its place value
    tau = backend.tau_positions(mode, value, len(maps))
    place = tau.place_values(_strides([r for _j in range(a) for r in radices]))
    ctx_size = math.prod(radices)
    ctx_w, cod_w = _weights(ctx_size, a), _weights(cod_size, a)
    tables = ([p.table(r, place[i * a:(i + 1) * a]) for i, (p, r) in enumerate(zip(maps, radices))]
              or [backend.iota_positions(mode, value).table(1, ctx_w)])
    _guard(math.prod(max(_count(t), 1) for t in tables))
    out = []
    for parts in itertools.product(*tables):
        ys = set()
        for code in {sum(c) for c in itertools.product(*map(_each, parts))}:
            contexts = [code // w % ctx_size for w in ctx_w]
            for values in itertools.product(*(_each(rows[c]) for c in contexts)):
                ys.add(sum(v * w for v, w in zip(values, cod_w)))
        out.append(interned.of(ys))
    return out


def scalar_act(
    backend: ModelBackend,
    mode: str,
    value: GradeValue,
    t: Rel,
    entries: list[tuple[Grade, str, FinSetObj]],
) -> Rel:
    """The scaled morphism q . t, the displayed composite
    tau o (x)_i (mu o F delta) followed by q (.) t; for an empty context it
    is (q (.) t) o iota.  t's domain is the flat product of the entries'
    g (.) A objects."""
    a = backend.arity(mode, value)
    space = backend.space
    prem_objs = [backend.act_obj(n, g.value, a_obj) for g, n, a_obj in entries]
    radices = [len(o) for o in prem_objs]
    prem_index = [_index(o) for o in prem_objs]
    strides = _strides(radices)
    cod_index = _index(t.cod)
    rows: list = [set() for _ in range(math.prod(radices))]
    for gamma, y in t.pairs:
        rows[sum(ix[e] * s for ix, e, s in zip(prem_index, gamma, strides))].add(cod_index[y])
    interned = _Rows()
    out = _scale_rows(backend, mode, value, [interned.of(r) for r in rows],
                      [(g, n) for g, n, _a_obj in entries], radices, len(t.cod), interned)
    dom = FinSetObj(tuple(itertools.product(*(
        backend.act_obj(n, space.mode(n).algebra.mul(space.phi(mode, n, value), g.value),
                        a_obj).elements
        for g, n, a_obj in entries))))
    return _decode(out, dom, power_obj(t.cod, a))


# ---------------------------------------------------------------------------
# Interpretation of derivations


def _power_size(n: int, k: int) -> int:
    """|X^k| for |X| = n, with power_obj's guard."""
    _guard(max(n, 1) ** k)
    return n ** k


class _Interpretation:
    """The state of one interpretation call: object sizes and
    denotations, each computed once and shared by every
    derivation interpreted in the call (both sides of a `semantic_eq`, or
    a bundle and its substitution).  Nothing outlives the call.

    A node's denotation is its rows (see above); no object is enumerated,
    and only the denotations of nodes reached more than once are kept
    after their parent used them.  `check` refuses a derivation before any
    work when a node's
    context or type object, or the grade power of a scaled premise's,
    would exceed ELEMENT_LIMIT, so an oversized case fails fast and small
    and no rows list is longer than the limit."""

    def __init__(self, backend: ModelBackend):
        self.backend = backend
        self.rows = _Rows()
        self.sizes: dict = {}
        self.seen: dict = {}  # id(node) -> node, for every checked node
        self.shared: set = set()  # ids of nodes reached more than once
        self.done: dict = {}  # id(shared node) -> rows

    # -- sizes and objects ---------------------------------------------------

    def size(self, ty: Type) -> int:
        """len(interp_type(ty)), refused where interp_type would refuse."""
        n = self.sizes.get(ty)
        if n is not None:
            return n
        be = self.backend
        match ty:
            case TUnit(_):
                n = 1
            case TBase(name, _):
                n = len(_carrier(be, name))
            case TTensor(left, right):
                n = self.size(left) * self.size(right)
                _guard(n)
            case TSum(left, right):
                n = self.size(left) + self.size(right)
            case TFun(arg, grade, body):
                n = fun_size(_power_size(self.size(arg), be.arity(mode_of(arg), grade.value)),
                             self.size(body))
            case TDrop(grade, _low, high, body):
                n = _power_size(self.size(body), be.arity(high, grade.value))
            case TRaise(_low, _high, body):
                n = self.size(body)
            case _:
                raise InputError(f"not a type: {ty!r}")
        self.sizes[ty] = n
        return n

    def radices(self, j: Judgment) -> list[int]:
        """The sizes of the context entries' objects g (.) A."""
        return [_power_size(self.size(ty), self.backend.arity(n, g.value))
                for g, n, (_x, ty) in zip(j.rho, j.modes, j.ctx)]

    def ctx_size(self, j: Judgment) -> int:
        """len(interp_ctx(j)), refused where interp_ctx would refuse."""
        radices = self.radices(j)
        _guard(math.prod(max(r, 1) for r in radices))
        return math.prod(radices)

    def check(self, d: Derivation) -> None:
        """Refuse an oversized derivation, and note the nodes met before:
        those are the ones whose denotations `rel` keeps."""
        stack = [d]
        while stack:
            node = stack.pop()
            if id(node) in self.seen:
                self.shared.add(id(node))
                continue
            self.seen[id(node)] = node
            j = node.conclusion
            self.ctx_size(j)
            self.size(j.ty)
            scaled = _SCALED.get(node.rule)
            if scaled is not None:
                index, scaling = scaled
                a = self.backend.arity(*scaling(node))
                prem = node.premises[index].conclusion
                _power_size(self.ctx_size(prem), a)
                _power_size(self.size(prem.ty), a)
            stack.extend(node.premises)

    def same_objects(self, j1: Judgment, j2: Judgment) -> bool:
        """Whether two judgments have equal context and type objects."""
        if (j1.rho, j1.modes, [ty for _x, ty in j1.ctx], j1.ty) == \
                (j2.rho, j2.modes, [ty for _x, ty in j2.ctx], j2.ty):
            return True
        be = self.backend
        return (interp_type(be, j1.ty) == interp_type(be, j2.ty)
                and interp_ctx(be, j1) == interp_ctx(be, j2))

    # -- denotations ---------------------------------------------------------

    def scaled(self, mode: str, value: GradeValue, rows: list, j: Judgment) -> list:
        """Rows of q . t for t the rows of a derivation of j."""
        return _pack(_scale_rows(self.backend, mode, value, rows, zip(j.rho, j.modes),
                                 self.radices(j), self.size(j.ty), self.rows))

    def bind(self, body: list, width: int, j: Judgment, values: list) -> list:
        """Rows of a derivation of j that binds the last `width`-element
        entry of a body to the values of a scrutinee: row (cb, cs) is the
        union of the body rows at cb * width + v over v in values[cs]."""
        if not width:
            return [_EMPTY] * self.ctx_size(j)
        return _build(lambda: (body[cb + vs] if vs.__class__ is int else
                               self.rows.of(y for v in vs for y in _each(body[cb + v]))
                               for cb in range(0, len(body), width) for vs in values))

    def rel(self, d: Derivation, kept: bool = False) -> list:
        """The rows of d's denotation; d and its premises must be checked.
        Rows that stay alive while other premises are interpreted are
        `kept`, and packed."""
        key = id(d)
        if key not in self.shared:
            return _pack(self._rule(d)) if kept else self._rule(d)
        rows = self.done.get(key)
        if rows is None:
            rows = self.done[key] = _pack(self._rule(d))
        return rows

    def _rule(self, d: Derivation) -> list:
        be = self.backend
        R = self.rows
        j = d.conclusion
        rule = d.rule

        if rule == "var":
            return array("q", be.eps_positions(j.mode).table(self.size(j.ty), [1]))

        # the premise's rows come first, so that no table of this node is
        # alive while the premise is interpreted
        if rule == "weak":
            rows = self.rel(d.premises[0])
            # w sends every element of the new entry to the one element of I
            table = be.w_positions(j.modes[-1]).table(self.size(j.ctx[-1][1]), ())
            return _build(lambda: (row for row in rows for _ in table))

        if rule == "sub":
            rows = self.rel(d.premises[0])
            prem = d.premises[0].conclusion
            tables = []
            for rl, rh, n, (_x, ty), s in zip(prem.rho, j.rho, j.modes, j.ctx,
                                              _strides(self.radices(prem))):
                p = be.preorder_positions(n, rl.value, rh.value)
                size = self.size(ty)
                tables.append(p.table(size, [s * w for w in _weights(size, len(p.out))]))
            return R.gather(rows, tables)

        if rule == "cont":
            rows = self.rel(d.premises[0])
            prem = d.premises[0].conclusion
            radices = self.radices(prem)
            size = self.size(j.ctx[-1][1])
            p = be.c_positions(j.modes[-1], prem.rho[-2].value, prem.rho[-1].value)
            tables = [range(0, r * s, s) for r, s in zip(radices[:-2], _strides(radices)[:-2])]
            # the split's two entries come last, so the index of the pair is
            # the index of its flattening
            tables.append(p.table(size, _weights(size, len(p.out))))
            return R.gather(rows, tables)

        if rule == "exchange":
            rows = self.rel(d.premises[0])
            strides = _strides(self.radices(d.premises[0].conclusion))
            perm = d.payload[0]
            # conclusion slot i holds premise slot perm[i]
            tables = [range(0, r * strides[perm[i]], strides[perm[i]])
                      for i, r in enumerate(self.radices(j))]
            return R.gather(rows, tables)

        if rule == "unitI":
            return [0]

        if rule == "unitE":
            body, scrut = d.premises
            scaled = self.scaled(j.mode, d.payload[0], self.rel(scrut), scrut.conclusion)
            # q (.) I has the one element 0
            ok = [0 in _each(row) for row in scaled]
            t = self.rel(body)
            return _build(lambda: (rb if keep else _EMPTY for rb in t for keep in ok))

        if rule == "arrowI":
            prem = d.premises[0].conclusion
            x = self.radices(prem)[-1]
            if not x:  # the one function out of an empty set, from every context element
                return [0] * self.ctx_size(j)
            t = self.rel(d.premises[0])
            if x == 1:  # a function out of a singleton is its one result
                return t
            weights = _weights(self.size(prem.ty), x)
            def functions():
                for c in range(0, len(t), x):
                    images = t[c:c + x]
                    if all(r.__class__ is int for r in images):
                        yield sum(r * w for r, w in zip(images, weights))
                    else:
                        images = [_each(r) for r in images]
                        _guard(math.prod(map(len, images)))
                        yield R.of(sum(v * w for v, w in zip(f, weights))
                                   for f in itertools.product(*images))
            return _build(functions)

        if rule == "arrowE":
            fn, arg = d.premises
            fun_ty = fn.conclusion.ty
            assert isinstance(fun_ty, TFun)
            m, q = mode_of(fun_ty.arg), fun_ty.grade.value
            y = self.size(fun_ty.body)
            weights = _weights(y, _power_size(self.size(fun_ty.arg), be.arity(m, q)))
            scaled = self.scaled(m, q, self.rel(arg), arg.conclusion)
            t = self.rel(fn)
            return _build(lambda: (
                (rf // weights[ra]) % y if rf.__class__ is ra.__class__ is int else
                R.of((h // weights[i]) % y for h in _each(rf) for i in _each(ra))
                for rf in t for ra in scaled))

        if rule == "pairI":
            left, right = d.premises
            nb = self.size(right.conclusion.ty)
            rr = self.rel(right, kept=True)
            rl = self.rel(left)
            return _build(lambda: (ra * nb + rb if ra.__class__ is rb.__class__ is int else
                                   R.of(a * nb + b for a in _each(ra) for b in _each(rb))
                                   for ra in rl for rb in rr))

        if rule == "pairE":
            body, scrut = d.premises
            prem = body.conclusion
            mode, qval = prem.modes[-1], prem.rho[-1].value
            a = be.arity(mode, qval)
            na, nb = self.size(prem.ctx[-2][1]), self.size(prem.ctx[-1][1])
            n1, n2 = self.radices(prem)[-2:]
            wa, wb, wz = _weights(na, a), _weights(nb, a), _weights(na * nb, a)
            def split(z):
                digits = [(z // w) % (na * nb) for w in wz]
                return (sum((dd // nb) * w for dd, w in zip(digits, wa)) * n2
                        + sum((dd % nb) * w for dd, w in zip(digits, wb)))
            scaled = _pack([split(row) if row.__class__ is int else tuple(map(split, row))
                            for row in self.scaled(mode, qval, self.rel(scrut), scrut.conclusion)])
            return self.bind(self.rel(body), n1 * n2, j, scaled)

        if rule == "sumIL":
            return self.rel(d.premises[0])

        if rule == "sumIR":
            shift = self.size(j.ty.left)
            t = self.rel(d.premises[0])
            return _build(lambda: (row + shift if row.__class__ is int else
                                   R.of(y + shift for y in row) for row in t))

        if rule == "sumE":
            left, right, scrut = d.premises
            prem = left.conclusion
            mode, qval = prem.modes[-1], prem.rho[-1].value
            a = be.arity(mode, qval)
            sum_ty = scrut.conclusion.ty
            nl, nr = self.size(sum_ty.left), self.size(sum_ty.right)
            wz, wl, wr = _weights(nl + nr, a), _weights(nl, a), _weights(nr, a)
            def branches(z):
                """2v for the left branch at v, 2v + 1 for the right one."""
                digits = [(z // w) % (nl + nr) for w in wz]
                out = ()
                if all(dd < nl for dd in digits):
                    out += (2 * sum(dd * w for dd, w in zip(digits, wl)),)
                if all(dd >= nl for dd in digits):
                    out += (2 * sum((dd - nl) * w for dd, w in zip(digits, wr)) + 1,)
                return out[0] if len(out) == 1 else out  # mixed tuples carry no branch
            scaled = _pack([branches(row) if row.__class__ is int else
                            tuple(b for z in row for b in _each(branches(z)))
                            for row in self.scaled(mode, qval, self.rel(scrut), scrut.conclusion)])
            t = (self.rel(left, kept=True), self.rel(right))
            widths = (self.radices(prem)[-1], self.radices(right.conclusion)[-1])
            n_body = math.prod(self.radices(prem)[:-1])
            return _build(lambda: (
                t[bs & 1][cb * widths[bs & 1] + (bs >> 1)] if bs.__class__ is int else
                R.of(y for b in bs for y in _each(t[b & 1][cb * widths[b & 1] + (b >> 1)]))
                for cb in range(n_body) for bs in scaled))

        if rule == "dropI":
            prem = d.premises[0].conclusion
            return self.scaled(prem.mode, d.payload[0], self.rel(d.premises[0]), prem)

        if rule == "dropE":
            body, scrut = d.premises
            return self.bind(self.rel(body, kept=True), self.radices(body.conclusion)[-1], j,
                             self.rel(scrut))

        if rule in ("raiseI", "raiseE"):
            return self.rel(d.premises[0])

        raise InputError(f"interpretation does not handle rule {rule!r}")


# Scaled premises: rule -> (premise index, the mode and grade that scale it).
_SCALED = {
    "unitE": (1, lambda d: (d.conclusion.mode, d.payload[0])),
    "dropI": (0, lambda d: (d.premises[0].conclusion.mode, d.payload[0])),
    "arrowE": (1, lambda d: (mode_of(d.premises[0].conclusion.ty.arg),
                             d.premises[0].conclusion.ty.grade.value)),
    "pairE": (1, lambda d: (d.premises[0].conclusion.modes[-1],
                            d.premises[0].conclusion.rho[-1].value)),
    "sumE": (2, lambda d: (d.premises[0].conclusion.modes[-1],
                           d.premises[0].conclusion.rho[-1].value)),
}


def interp_derivation(backend: ModelBackend, d: Derivation) -> Rel:
    """A relation from the context object to the type object, clause by clause."""
    run = _Interpretation(backend)
    run.check(d)
    j = d.conclusion
    return _decode(run.rel(d), interp_ctx(backend, j), interp_type(backend, j.ty))


def semantic_eq(backend: ModelBackend, d1: Derivation, d2: Derivation) -> bool:
    run = _Interpretation(backend)
    run.check(d1)
    run.check(d2)
    if not run.same_objects(d1.conclusion, d2.conclusion):
        raise ShapeError("semantic_eq: the two derivations have different signatures")
    return run.rel(d1, kept=True) == _pack(run.rel(d2))


def subst_comp_check(backend: ModelBackend, bundle: SubstitutionBundle) -> bool:
    """Interpretation of a substitution equals the composite with the
    tensor of the scaled replacement interpretations."""
    out = subst_simultaneous(bundle, backend.space)
    run = _Interpretation(backend)
    for d in (out, bundle.target) + tuple(bundle.replacements):
        run.check(d)
    lhs = run.rel(out, kept=True)

    tj = bundle.target.conclusion
    scaled = [run.scaled(n, g.value, run.rel(rep), rep.conclusion)
              for rep, g, n in zip(bundle.replacements, tj.rho, tj.modes)]
    strides = _strides(run.radices(tj))
    t = run.rel(bundle.target)
    tables = [[_scale_each(row, s) for row in rows] for rows, s in zip(scaled, strides)]
    return lhs == _pack(run.rows.gather(t, tables))


# ---------------------------------------------------------------------------
# Coherence validation

_SIZE_CAP = 4096


def _assoc_rel(a_obj: FinSetObj, b_obj: FinSetObj, c_obj: FinSetObj) -> Rel:
    dom = tensor_obj(tensor_obj(a_obj, b_obj), c_obj)
    cod = tensor_obj(a_obj, tensor_obj(b_obj, c_obj))
    pairs = frozenset((((a, b), c), (a, (b, c))) for ((a, b), c) in dom.elements)
    return Rel(dom, cod, pairs)


def _swap_rel(a_obj: FinSetObj, b_obj: FinSetObj) -> Rel:
    dom = tensor_obj(a_obj, b_obj)
    pairs = frozenset(((a, b), (b, a)) for (a, b) in dom.elements)
    return Rel(dom, tensor_obj(b_obj, a_obj), pairs)


def _chain(*rels: Rel) -> Rel:
    out = rels[0]
    for r in rels[1:]:
        out = rel_compose(out, r)
    return out


def _square(report: Report, name: str, witness, lhs: Rel, rhs: Rel) -> None:
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
        report.add(name, witness, "signature mismatch")
        return
    if lhs.pairs != rhs.pairs:
        diff = sorted(map(repr, lhs.pairs ^ rhs.pairs))[:1]
        report.add(name, witness, f"differs at {diff[0] if diff else '?'}")


def _fits_size(base: int, *exponents: int) -> bool:
    return all(max(base, 1) ** e <= _SIZE_CAP for e in exponents)


def model_coherence_validate(
    backend: ModelBackend,
    modes: list[str] | None = None,
    max_size: int = 3,
    budget: int | None = None,
) -> Report:
    """Enumerate every coherence diagram over the given modes, all grades
    (naturals truncated to the budget) and objects up to the size bound.

    Instances whose intermediate objects blow past an element cap are
    skipped; the cap only bites on large naturals grades.
    """
    report = Report()
    space = backend.space
    modes = list(space.modes) if modes is None else modes
    budget = backend.nat_budget if budget is None else budget

    test_objs = [
        FinSetObj(tuple(f"e{i}" for i in range(size)))
        for size in range(0, max_size + 1)
    ]

    for m in modes:
        mode = space.mode(m)
        alg = mode.algebra
        grades = list(alg.elements(budget))
        conts = [g for g in grades if mode.cont.contains(g)]
        a = lambda v: backend.arity(m, v)

        if a(alg.one) != 1:
            report.add("arity-of-one", (m,), f"a(1) = {a(alg.one)}")
            continue
        if alg.zero != alg.one and a(alg.zero) != 0:
            report.add("arity-of-zero", (m,), f"a(0) = {a(alg.zero)}")
        for q, r in itertools.product(grades, repeat=2):
            if a(alg.mul(q, r)) != a(q) * a(r):
                report.add("arity-multiplicative", (m, q, r))

        for x_obj in test_objs:
            size = len(x_obj)
            # counit laws for delta/epsilon
            for q in grades:
                if not _fits_size(size, a(q)):
                    continue
                qx = backend.act_obj(m, q, x_obj)
                lhs = _chain(backend.delta(m, alg.one, q, x_obj), backend.eps(m, qx))
                _square(report, "delta then eps is the identity", (m, q, size), lhs, rel_id(qx))
                lhs = _chain(backend.delta(m, q, alg.one, x_obj),
                             backend.act_rel(m, q, backend.eps(m, x_obj)))
                _square(report, "delta then q (.) eps is the identity", (m, q, size), lhs, rel_id(qx))
                # iota is an isomorphism onto a singleton power
                io = backend.iota(m, q)
                if len(io.pairs) != 1:
                    report.add("iota-iso", (m, q), f"{len(io.pairs)} pairs")
                # tau unit law: (iota (x) id) then tau then q (.) unitor == unitor
                tau = backend.tau_pair(m, q, UNIT_OBJ, x_obj)
                step = rel_tensor(io, rel_id(qx))
                unitor = Rel(tensor_obj(UNIT_OBJ, x_obj), x_obj,
                             frozenset(((u, x), x) for (u, x) in tensor_obj(UNIT_OBJ, x_obj).elements))
                lhs = _chain(step, tau, backend.act_rel(m, q, unitor))
                rhs = Rel(tensor_obj(UNIT_OBJ, qx), qx,
                          frozenset(((u, xs), xs) for (u, xs) in tensor_obj(UNIT_OBJ, qx).elements))
                _square(report, "tau unit law", (m, q, size), lhs, rhs)
                # tau symmetry: tau then q (.) swap == swap then tau
                # (object sizes already bounded by the guard above)
                tau_xx = backend.tau_pair(m, q, x_obj, x_obj)
                lhs = _chain(tau_xx, backend.act_rel(m, q, _swap_rel(x_obj, x_obj)))
                rhs = _chain(_swap_rel(qx, qx), backend.tau_pair(m, q, x_obj, x_obj))
                _square(report, "tau symmetry", (m, q, size), lhs, rhs)
                # tau associativity
                if _fits_size(size, 3 * a(q)):
                    t_l = _chain(
                        rel_tensor(tau_xx, rel_id(qx)),
                        backend.tau_pair(m, q, tensor_obj(x_obj, x_obj), x_obj),
                        backend.act_rel(m, q, _assoc_rel(x_obj, x_obj, x_obj)),
                    )
                    t_r = _chain(
                        _assoc_rel(qx, qx, qx),
                        rel_tensor(rel_id(qx), tau_xx),
                        backend.tau_pair(m, q, x_obj, tensor_obj(x_obj, x_obj)),
                    )
                    _square(report, "tau associativity", (m, q, size), t_l, t_r)

            # delta coassociativity
            for q, r, s in itertools.product(grades, repeat=3):
                if not _fits_size(size, a(q) * a(r) * a(s), a(q) * a(r), a(r) * a(s)):
                    continue
                lhs = _chain(
                    backend.delta(m, alg.mul(q, r), s, x_obj),
                    backend.act_rel(m, alg.mul(q, r), rel_id(backend.act_obj(m, s, x_obj))),
                    backend.delta(m, q, r, backend.act_obj(m, s, x_obj)),
                )
                rhs = _chain(
                    backend.delta(m, q, alg.mul(r, s), x_obj),
                    backend.act_rel(m, q, backend.delta(m, r, s, x_obj)),
                )
                _square(report, "delta coassociativity", (m, q, r, s, size), lhs, rhs)

            # graded-comonad coherence: c against delta/tau (both squares)
            for q in grades:
                for r1, r2 in itertools.product(conts, repeat=2):
                    if not _fits_size(size, a(q) * (a(r1) + a(r2)), a(r1) + a(r2),
                                      a(q) * a(r1), a(q) * a(r2)):
                        continue
                    qr1, qr2 = alg.mul(q, r1), alg.mul(q, r2)
                    lhs = _chain(
                        backend.c_map(m, qr1, qr2, x_obj),
                        rel_tensor(backend.delta(m, q, r1, x_obj), backend.delta(m, q, r2, x_obj)),
                        backend.tau_pair(m, q, backend.act_obj(m, r1, x_obj),
                                         backend.act_obj(m, r2, x_obj)),
                    )
                    rhs = _chain(
                        backend.delta(m, q, alg.add(r1, r2), x_obj),
                        backend.act_rel(m, q, backend.c_map(m, r1, r2, x_obj)),
                    )
                    _square(report, "c then delta tensor delta then tau", (m, q, r1, r2, size), lhs, rhs)

                    r1q, r2q = alg.mul(r1, q), alg.mul(r2, q)
                    lhs = _chain(
                        backend.c_map(m, r1q, r2q, x_obj),
                        rel_tensor(backend.delta(m, r1, q, x_obj), backend.delta(m, r2, q, x_obj)),
                    )
                    rhs = _chain(
                        backend.delta(m, alg.add(r1, r2), q, x_obj),
                        backend.c_map(m, r1, r2, backend.act_obj(m, q, x_obj)),
                    )
                    _square(report, "c against delta on the right factor", (m, q, r1, r2, size), lhs, rhs)

            # c coassociativity
            for r1, r2, r3 in itertools.product(conts, repeat=3):
                if not _fits_size(size, a(r1) + a(r2) + a(r3)):
                    continue
                o1, o2, o3 = (backend.act_obj(m, r, x_obj) for r in (r1, r2, r3))
                lhs = _chain(
                    backend.c_map(m, alg.add(r1, r2), r3, x_obj),
                    rel_tensor(backend.c_map(m, r1, r2, x_obj), rel_id(o3)),
                    _assoc_rel(o1, o2, o3),
                )
                rhs = _chain(
                    backend.c_map(m, r1, alg.add(r2, r3), x_obj),
                    rel_tensor(rel_id(o1), backend.c_map(m, r2, r3, x_obj)),
                )
                _square(report, "c coassociativity", (m, r1, r2, r3, size), lhs, rhs)

            if mode.weak:
                zero = alg.zero
                for r in grades:
                    if not _fits_size(size, max(a(r), 1)):
                        continue
                    # w against delta at 0.r
                    lhs = _chain(
                        backend.delta(m, zero, r, x_obj),
                        backend.w_map(m, backend.act_obj(m, r, x_obj)),
                    )
                    _square(report, "w after delta at zero times r", (m, r, size), lhs,
                            backend.w_map(m, x_obj))
                    # w against iota at r.0
                    lhs = _chain(
                        backend.delta(m, r, zero, x_obj),
                        backend.act_rel(m, r, backend.w_map(m, x_obj)),
                    )
                    rhs = _chain(backend.w_map(m, x_obj), backend.iota(m, r))
                    _square(report, "w then iota against delta at r times zero", (m, r, size), lhs, rhs)
                    # counit laws of (c, w)
                    if r in conts:
                        rx = backend.act_obj(m, r, x_obj)
                        lhs = _chain(
                            backend.c_map(m, zero, r, x_obj),
                            rel_tensor(backend.w_map(m, x_obj), rel_id(rx)),
                            Rel(tensor_obj(UNIT_OBJ, rx), rx,
                                frozenset(((u, xs), xs) for (u, xs) in tensor_obj(UNIT_OBJ, rx).elements)),
                        )
                        _square(report, "w counit on the left of c", (m, r, size), lhs, rel_id(rx))
                        lhs = _chain(
                            backend.c_map(m, r, zero, x_obj),
                            rel_tensor(rel_id(rx), backend.w_map(m, x_obj)),
                            Rel(tensor_obj(rx, UNIT_OBJ), rx,
                                frozenset(((xs, u), xs) for (xs, u) in tensor_obj(rx, UNIT_OBJ).elements)),
                        )
                        _square(report, "w counit on the right of c", (m, r, size), lhs, rel_id(rx))

    # mu coherence across every comparable pair (the lineator is mu here)
    for (mlo, mhi) in sorted(space.order_pairs):
        if mlo not in modes or mhi not in modes:
            continue
        mode_lo = space.mode(mlo)
        alg_lo = mode_lo.algebra
        grades_lo = list(alg_lo.elements(budget))
        for x_obj in test_objs:
            size = len(x_obj)
            for r in grades_lo:
                ar = backend.arity(mlo, r)
                aphi = backend.arity(mhi, space.phi(mlo, mhi, r))
                if not _fits_size(size, max(ar, aphi)):
                    continue
                # unit square
                if r == alg_lo.one:
                    lhs = _chain(backend.mu(mlo, mhi, r, x_obj), backend.eps(mlo, x_obj))
                    _square(report, "mu unit square", (mlo, mhi, size), lhs,
                            backend.eps(mhi, x_obj))
                # zero square
                if mode_lo.weak and r == alg_lo.zero:
                    lhs = _chain(backend.mu(mlo, mhi, r, x_obj), backend.w_map(mlo, x_obj))
                    _square(report, "mu zero square", (mlo, mhi, size), lhs,
                            backend.w_map(mhi, x_obj))
            for q, r in itertools.product(grades_lo, repeat=2):
                aq, ar = backend.arity(mlo, q), backend.arity(mlo, r)
                aphi_q = backend.arity(mhi, space.phi(mlo, mhi, q))
                aphi_r = backend.arity(mhi, space.phi(mlo, mhi, r))
                if not _fits_size(size, aq * ar, aphi_q * aphi_r,
                                  ar * aphi_q, ar * aq, aphi_q * max(aphi_r, ar)):
                    continue
                # multiplication square
                lhs = _chain(
                    backend.mu(mlo, mhi, alg_lo.mul(q, r), x_obj),
                    backend.delta(mlo, q, r, x_obj),
                )
                rhs = _chain(
                    backend.delta(mhi, space.phi(mlo, mhi, q), space.phi(mlo, mhi, r), x_obj),
                    backend.act_rel(mhi, space.phi(mlo, mhi, q), backend.mu(mlo, mhi, r, x_obj)),
                    backend.mu(mlo, mhi, q, backend.act_obj(mlo, r, x_obj)),
                )
                _square(report, "mu multiplication square", (mlo, mhi, q, r, size), lhs, rhs)
                # addition square
                if mode_lo.cont.contains(q) and mode_lo.cont.contains(r):
                    lhs = _chain(
                        backend.mu(mlo, mhi, alg_lo.add(q, r), x_obj),
                        backend.c_map(mlo, q, r, x_obj),
                    )
                    rhs = _chain(
                        backend.c_map(mhi, space.phi(mlo, mhi, q), space.phi(mlo, mhi, r), x_obj),
                        rel_tensor(backend.mu(mlo, mhi, q, x_obj), backend.mu(mlo, mhi, r, x_obj)),
                    )
                    _square(report, "mu addition square", (mlo, mhi, q, r, size), lhs, rhs)

    return report


def v_identity_check(backend: ModelBackend, mode: str, value: GradeValue,
                     x_obj: FinSetObj) -> bool:
    """The composite q (.) A ~ F(q (.) A) --(q . v_A)--> q (.) A is the identity,
    where v_A is the counit seen from a one-entry context."""
    space = backend.space
    alg = space.mode(mode).algebra
    one = Grade(alg.id, alg.one)
    v = Rel(
        FinSetObj(tuple((xs,) for xs in power_obj(x_obj, 1).elements)),
        x_obj,
        frozenset((((x,),), x) for x in x_obj.elements),
    )
    scaled = scalar_act(backend, mode, value, v, [(one, mode, x_obj)])
    qx = backend.act_obj(mode, value, x_obj)
    wrap = Rel(
        qx, scaled.dom,
        frozenset((xs, (xs,)) for xs in qx.elements),
    )
    return rel_compose(wrap, scaled).pairs == rel_id(qx).pairs


def iota_eps_inverse_check(backend: ModelBackend, mode: str) -> bool:
    """iota and eps on the unit object are mutually inverse."""
    alg = backend.space.mode(mode).algebra
    io = backend.iota(mode, alg.one)
    ep = backend.eps(mode, UNIT_OBJ)
    fwd = rel_compose(io, ep)
    bwd = rel_compose(ep, io)
    return fwd.pairs == rel_id(UNIT_OBJ).pairs and bwd.pairs == rel_id(io.cod).pairs
