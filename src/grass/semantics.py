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

The coherence validator proves each square once, at every object size,
on leaf maps read off the backend's Positions (`grass._leafmaps`); a
square it cannot prove is read as the interpretation's tables at each
size, composed by index and decoded to element pairs when it fails.
`grass.oracles` runs the same squares on the element-level relations, and
shares the one algebra of relations by index with the interpretation.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from operator import itemgetter, mul
from types import MappingProxyType

from ._leafmaps import block_swap, equal, expand, identity, juxtapose, leaves, repeat, substitute
from .derivation import Derivation, fold
from .errors import ConfigError, InputError, Report, ShapeError, SizeLimitError, Violation
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


def positions_rel(p: Positions, x_obj: FinSetObj, cod: FinSetObj | None = None,
                  regroup=tuple) -> Rel:
    """p from X^src to cod (default X^len(out)), element by element: each
    source tuple to its images, regrouped into the nesting of cod's
    elements, for X = x_obj."""
    dom = power_obj(x_obj, p.src)
    cod = power_obj(x_obj, len(p.out)) if cod is None else cod
    pick = p.pick
    if p.fresh:  # one image per value of the fresh coordinate
        pairs = ((xs, regroup(pick(xs + (x,)))) for xs in dom.elements for x in x_obj.elements)
    else:
        pairs = zip(dom.elements, map(regroup, map(pick, dom.elements)))
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
    cuts = [slice(i * width, (i + 1) * width) for i in range(count)]
    return itemgetter(*cuts) if len(cuts) > 1 else lambda xs: tuple(xs[cut] for cut in cuts)


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


@dataclass(frozen=True)
class ModelBackend:
    """Arity tables and base-type carriers over a validated mode space; the
    mappings passed in are copied and held read-only."""

    space: ModeSpace
    arities: Mapping[tuple[str, GradeValue], int] = field(default_factory=dict)
    base_carriers: Mapping[str, tuple] = field(default_factory=dict)
    nat_budget: int = 4

    def __post_init__(self):
        object.__setattr__(self, "arities", MappingProxyType(dict(self.arities)))
        object.__setattr__(self, "base_carriers", MappingProxyType(dict(self.base_carriers)))

    def arity(self, mode: str, value: GradeValue) -> int:
        key = (mode, value)
        if key in self.arities:
            return self.arities[key]
        return default_arity(self.space, mode, value)

    def act_obj(self, mode: str, value: GradeValue, x_obj: FinSetObj) -> FinSetObj:
        return power_obj(x_obj, self.arity(mode, value))

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
        return _chunker(k, a)(self.tau_positions(mode, value, k).pick(sum(entry, ())))

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


def interp_ctx(backend: ModelBackend, j: Judgment) -> FinSetObj:
    """The tensor of the per-entry objects, as flat tuples."""
    objs = [backend.act_obj(n, g.value, interp_type(backend, ty))
            for g, n, (_x, ty) in zip(j.rho, j.modes, j.ctx)]
    _guard(math.prod(max(len(o), 1) for o in objs))
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
#
# Both the interpretation and the coherence validator build every composite
# from three functions: `_Rows.compose` (f then g), `_Rows.product` (a tuple
# in mixed radix to a weighted sum of its factors' images: tensors, powers,
# swaps, exchanges, the structure maps of a context, and binding), and
# `encode`, the one reader of a `Rel` into rows.

_EMPTY = frozenset()


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


def encode(rel: Rel, dom_elements, rows: _Rows):
    """rel by index: the row of each of dom_elements, in that order, holds
    the positions in rel.cod of its images; an array when rel is a total
    function on them."""
    at, image = {y: i for i, y in enumerate(rel.cod.elements)}, dict(rel.pairs)
    if len(image) == len(rel.pairs) == len(dom_elements):
        return array("q", map(at.__getitem__, map(image.__getitem__, dom_elements)))
    sets = {x: set() for x in dom_elements}
    for x, y in rel.pairs:
        sets[x].add(at[y])
    return [rows.of(ys) for ys in sets.values()]


def _each(row):
    """The indices in a row."""
    return (row,) if row.__class__ is int else row


def _pack(rows):
    """Rows whose every entry is one index, as an array of 8-byte ints."""
    if rows.__class__ is array:
        return rows
    try:
        return array("q", rows)
    except TypeError:
        return rows


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

    def compose(self, f, g):
        """f then g: row c is g's row at f's one image, or the union of
        g's rows at f's images."""
        if f.__class__ is g.__class__ is array:
            return array("q", [g[y] for y in f])
        return _pack([g[y] if y.__class__ is int else self.of(z for v in y for z in _each(g[v]))
                      for y in f])

    def product(self, tables, weights):
        """The map from (x_1..x_k), numbered in mixed radix over the
        tables' lengths, to the sum of weights[i] * f_i(x_i), where f_i is
        tables[i]: the sum where there is one, else the row of the sums."""
        try:  # every row one index; a factor of one row adds the same to every sum
            sums, same = [0], 0
            for t, w in zip(tables, weights):
                if len(t) == 1:
                    same += t[0] * w
                else:
                    sums = [x + y * w for x in sums for y in t]
            return array("q", [x + same for x in sums] if same else sums)
        except TypeError:
            pass
        out = []
        for parts in itertools.product(*tables):
            try:
                out.append(sum(map(mul, parts, weights)))
            except TypeError:
                out.append(self.of(sum(map(mul, p, weights))
                                   for p in itertools.product(*map(_each, parts))))
        return _pack(out)


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
    interned = _Rows()
    rows = encode(t, tuple(itertools.product(*(o.elements for o in prem_objs))), interned)
    out = _scale_rows(backend, mode, value, rows, [(g, n) for g, n, _a_obj in entries],
                      [len(o) for o in prem_objs], len(t.cod), interned)
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


class ObjectSizes:
    """|[[A]]| for types and |[[Gamma]]| for context judgments, computed
    from an arity function (mode, grade value) -> int and a base-type
    size function name -> int, without enumerating any object.  A size is
    refused with SizeLimitError where `interp_type`/`interp_ctx` would
    refuse to build the object.  Type sizes are cached for the life of
    the instance."""

    def __init__(self, arity: Callable[[str, GradeValue], int], base_size: Callable[[str], int]):
        self.arity = arity
        self.base_size = base_size
        self.cache: dict = {}

    @classmethod
    def of(cls, backend: ModelBackend) -> ObjectSizes:
        """The sizes of `backend`'s objects: len(interp_type(backend, ty))
        and len(interp_ctx(backend, j))."""
        return cls(backend.arity, lambda name: len(_carrier(backend, name)))

    def size(self, ty: Type) -> int:
        """|[[ty]]|, the length of the object interp_type would build."""
        n = self.cache.get(ty)
        if n is not None:
            return n
        match ty:
            case TUnit(_):
                n = 1
            case TBase(name, _):
                n = self.base_size(name)
            case TTensor(left, right):
                n = self.size(left) * self.size(right)
                _guard(n)
            case TSum(left, right):
                n = self.size(left) + self.size(right)
            case TFun(arg, grade, body):
                n = fun_size(_power_size(self.size(arg), self.arity(mode_of(arg), grade.value)),
                             self.size(body))
            case TDrop(grade, _low, high, body):
                n = _power_size(self.size(body), self.arity(high, grade.value))
            case TRaise(_low, _high, body):
                n = self.size(body)
            case _:
                raise InputError(f"not a type: {ty!r}")
        self.cache[ty] = n
        return n

    def radices(self, j: Judgment) -> list[int]:
        """The sizes of the context entries' objects g (.) A."""
        return [_power_size(self.size(ty), self.arity(n, g.value))
                for g, n, (_x, ty) in zip(j.rho, j.modes, j.ctx)]

    def ctx_size(self, j: Judgment) -> int:
        """|[[j's context]]|, the product of its radices."""
        radices = self.radices(j)
        _guard(math.prod(max(r, 1) for r in radices))
        return math.prod(radices)


class _Interpretation:
    """The state of one interpretation call: object sizes and denotations,
    each computed once and shared by the derivations the call interprets
    (both sides of a `semantic_eq`, or a bundle and its substitution), which
    are checked on construction.  Nothing outlives the call.

    A node's denotation is its rows (see above); no object is enumerated,
    and only the denotations of nodes reached more than once are kept
    after their parent used them.  `check` refuses a derivation before any
    work when a node's context or type object, or the grade power of a
    scaled premise's, would exceed ELEMENT_LIMIT, so an oversized case
    fails fast and small and no rows list is longer than the limit."""

    def __init__(self, backend: ModelBackend, *derivations: Derivation):
        self.backend = backend
        sizes = ObjectSizes.of(backend)
        self.size, self.radices, self.ctx_size = sizes.size, sizes.radices, sizes.ctx_size
        self.rows = _Rows()
        self.seen: dict = {}  # id(node) -> node, for every checked node
        self.shared: set = set()  # ids of nodes reached more than once
        self.done: dict = {}  # id(shared node) -> rows
        for d in derivations:
            self.check(d)

    # -- sizes and objects ---------------------------------------------------

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

    def bind(self, body: list, n_body: int, width: int, values: list) -> list:
        """Rows that bind the last `width`-element entry of a body, whose
        other entries have n_body elements, to the values of a scrutinee:
        row (cb, cs) is the union of the body rows at cb * width + v over v
        in values[cs]."""
        return self.rows.compose(self.rows.product([range(n_body), values], (width, 1)), body)

    def rel(self, d: Derivation) -> list:
        """The rows of d's denotation; d and its premises must be checked."""
        return fold(d, self._node, self.done)

    def _node(self, d: Derivation, premises: list) -> list:
        # packed, since a node's rows stay alive while its siblings are folded
        rows = _pack(self._rule(d, premises))
        if id(d) in self.shared:
            self.done[id(d)] = rows
        return rows

    def _rule(self, d: Derivation, premises: list) -> list:
        be = self.backend
        R = self.rows
        j = d.conclusion
        rule = d.rule
        t = premises[0] if premises else None

        if rule == "var":
            return array("q", be.eps_positions(j.mode).table(self.size(j.ty), [1]))

        if rule == "weak":
            # t tensor w, where w sends every element of the new entry to the
            # one element of I: by index the unitor is the identity
            table = be.w_positions(j.modes[-1]).table(self.size(j.ctx[-1][1]), ())
            return R.product([t, table], (1, 1))

        if rule == "sub":
            prem = d.premises[0].conclusion
            tables = []
            for rl, rh, n, (_x, ty) in zip(prem.rho, j.rho, j.modes, j.ctx):
                p = be.preorder_positions(n, rl.value, rh.value)
                size = self.size(ty)
                tables.append(p.table(size, _weights(size, len(p.out))))
            return R.compose(R.product(tables, _strides(self.radices(prem))), t)

        if rule == "cont":
            prem = d.premises[0].conclusion
            radices = self.radices(prem)
            size = self.size(j.ctx[-1][1])
            p = be.c_positions(j.modes[-1], prem.rho[-2].value, prem.rho[-1].value)
            # the split's two entries come last, so the index of the pair is
            # the index of its flattening
            tables = [*map(range, radices[:-2]), p.table(size, _weights(size, len(p.out)))]
            return R.compose(R.product(tables, [*_strides(radices)[:-2], 1]), t)

        if rule == "exchange":
            strides = _strides(self.radices(d.premises[0].conclusion))
            # conclusion slot i holds premise slot perm[i], at that slot's stride
            weights = [strides[i] for i in d.payload[0]]
            return R.compose(R.product([*map(range, self.radices(j))], weights), t)

        if rule == "unitI":
            return [0]

        if rule == "unitE":
            scaled = self.scaled(j.mode, d.payload[0], premises[1], d.premises[1].conclusion)
            # q (.) I has the one element 0: bind a one-element entry to it
            return self.bind(t, len(t), 1, [0 if 0 in _each(row) else _EMPTY for row in scaled])

        if rule == "arrowI":
            prem = d.premises[0].conclusion
            x = self.radices(prem)[-1]
            if not x:  # the one function out of an empty set, from every context element
                return [0] * self.ctx_size(j)
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
            return list(functions())

        if rule == "arrowE":
            fn, arg = d.premises
            fun_ty = fn.conclusion.ty
            assert isinstance(fun_ty, TFun)
            m, q = mode_of(fun_ty.arg), fun_ty.grade.value
            y = self.size(fun_ty.body)
            weights = _weights(y, _power_size(self.size(fun_ty.arg), be.arity(m, q)))
            scaled = self.scaled(m, q, premises[1], arg.conclusion)
            return [(rf // weights[ra]) % y if rf.__class__ is ra.__class__ is int else
                    R.of((h // weights[i]) % y for h in _each(rf) for i in _each(ra))
                    for rf in t for ra in scaled]

        if rule == "pairI":
            rl, rr = premises
            return R.product([rl, rr], (self.size(d.premises[1].conclusion.ty), 1))

        if rule == "pairE":
            body, scrut = d.premises
            prem = body.conclusion
            mode, qval = prem.modes[-1], prem.rho[-1].value
            a = be.arity(mode, qval)
            na, nb = self.size(prem.ctx[-2][1]), self.size(prem.ctx[-1][1])
            *rest, n1, n2 = self.radices(prem)
            # tau's inverse: a pairs to an a-tuple of A and one of B, by index
            split = R.product([*map(range, [na, nb] * a)],
                              _transpose(2, a).place_values(_strides([na] * a + [nb] * a)))
            scaled = R.compose(self.scaled(mode, qval, premises[1], scrut.conclusion), split)
            return self.bind(t, math.prod(rest), n1 * n2, scaled)

        if rule in ("sumIL", "raiseI", "raiseE"):
            return t

        if rule == "sumIR":
            shift = self.size(j.ty.left)
            return R.compose(t, range(shift, shift + self.size(j.ty.right)))

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
                            for row in self.scaled(mode, qval, premises[2], scrut.conclusion)])
            widths = (self.radices(prem)[-1], self.radices(right.conclusion)[-1])
            n_body = math.prod(self.radices(prem)[:-1])
            return [premises[bs & 1][cb * widths[bs & 1] + (bs >> 1)] if bs.__class__ is int else
                    R.of(y for b in bs for y in _each(premises[b & 1][cb * widths[b & 1] + (b >> 1)]))
                    for cb in range(n_body) for bs in scaled]

        if rule == "dropI":
            prem = d.premises[0].conclusion
            return self.scaled(prem.mode, d.payload[0], t, prem)

        if rule == "dropE":
            *rest, width = self.radices(d.premises[0].conclusion)
            return self.bind(t, math.prod(rest), width, premises[1])

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
    run = _Interpretation(backend, d)
    j = d.conclusion
    return _decode(run.rel(d), interp_ctx(backend, j), interp_type(backend, j.ty))


def semantic_eq(backend: ModelBackend, d1: Derivation, d2: Derivation) -> bool:
    run = _Interpretation(backend, d1, d2)
    if not run.same_objects(d1.conclusion, d2.conclusion):
        raise ShapeError("semantic_eq: the two derivations have different signatures")
    return run.rel(d1) == run.rel(d2)


def subst_comp_check(backend: ModelBackend, bundle: SubstitutionBundle) -> bool:
    """Interpretation of a substitution equals the composite with the
    tensor of the scaled replacement interpretations."""
    out = subst_simultaneous(bundle, backend.space)
    run = _Interpretation(backend, out, bundle.target, *bundle.replacements)
    lhs = run.rel(out)

    tj = bundle.target.conclusion
    scaled = [run.scaled(n, g.value, run.rel(rep), rep.conclusion)
              for rep, g, n in zip(bundle.replacements, tj.rho, tj.modes)]
    return lhs == run.rows.compose(run.rows.product(scaled, _strides(run.radices(tj))),
                                   run.rel(bundle.target))


# ---------------------------------------------------------------------------
# Coherence validation
#
# A square's objects are named by shapes: the test object of n elements is
# n, A (x) B is (A, B), A^k is (A,) * k and the unit is ().  `_elements`
# enumerates a shape as tensor_obj and power_obj do, so shapes name equal
# objects when equal or both empty.  Indices are mixed-radix, as in the
# interpretation, so associators and unitors are identities by index.

_SIZE_CAP = 4096


class _Table:
    """A map between two shapes, as rows or a leaf map, and the most leaves
    of an object of a map read to build it; equal only to itself."""

    __slots__ = ("dom", "cod", "rows", "reads")

    def __init__(self, dom, cod, rows, reads=0):
        self.dom, self.cod, self.rows, self.reads = dom, cod, rows, reads


def _size(shape) -> int:
    return shape if shape.__class__ is int else math.prod(map(_size, shape))


def _same(a, b) -> bool:
    """Whether two shapes name equal objects."""
    return a == b or _size(a) == 0 == _size(b)


def _elements(shape) -> tuple:
    if shape.__class__ is int:  # the test object of that size
        return tuple(f"e{i}" for i in range(shape))
    return tuple(itertools.product(*map(_elements, shape)))


def _once(method):
    """A `_Coherence` method memoized per call; the memo keeps its argument tables alive."""
    def once(self, *args):
        key = (method, *args)
        if (out := self.memo.get(key)) is None:
            out = self.memo[key] = method(self, *args)
        return out
    return once


def _positions(backend: ModelBackend, family: str, args: tuple) -> Positions:
    """The Positions of backend.family(*args, ...), refused with ShapeError
    unless each output copies a source coordinate or the fresh one, and for
    tau a coordinate of the factor whose slot it fills."""
    if family == "tau_pair":
        a, p = backend.arity(*args), backend.tau_positions(*args, 2)
        ok = p.src == len(p.out) == 2 * a and all(k // a == j % 2 for j, k in enumerate(p.out))
    else:
        p = getattr(backend, family.split("_")[0] + "_positions")(*args)  # c_map: c_positions
        ok = all(0 <= k <= p.src for k in p.out)
    if not ok:
        raise ShapeError(f"{family} positions at {args!r} are not a map between its objects: {p!r}")
    return p


def _read_positions(backend: ModelBackend, family: str, args: tuple, sizes: tuple, rows: _Rows):
    """The rows of backend.family(*args, *objects of those sizes) off its Positions: the
    table at that size, or for tau the factors' digits at its place values."""
    p = _positions(backend, family, args)
    if family == "tau_pair":
        a, (nx, ny) = p.src // 2, sizes
        return rows.product([*map(range, [nx] * a + [ny] * a)], p.place_values(_strides([nx, ny] * a)))
    n = sizes[0] if sizes else 1  # iota's object is the unit
    return _pack([y if y.__class__ is int else rows.of(y) for y in p.table(n, _weights(n, len(p.out)))])


class _Coherence:
    """One validator call: each structure map read from the backend by
    `source` once per (family, mode, grades, object sizes), as rows by
    element position, or, proving, as the leaf map of its Positions when
    `source` reads those (else None); nothing outlives the call."""

    def __init__(self, backend: ModelBackend, source, proving: bool = False):
        self.backend, self.source, self.proving = backend, source, proving
        self.rows = _Rows()
        self.read, self.memo = {}, {}  # rows by map and sizes; tables by method and arguments
        self.found: list[Violation] = []

    @_once
    def arity(self, mode: str, value: GradeValue) -> int:
        return self.backend.arity(mode, value)

    # -- the backend's maps, read once --------------------------------------

    def _map(self, family: str, args: tuple, objs: tuple, dom, cod) -> _Table:
        """backend.family(*args, *objs), between dom and cod."""
        if self.proving:
            p = _positions(self.backend, family, args) if self.source is _read_positions else None
            return _Table(dom, cod, p and expand(objs, p, dom, cod), max(leaves(dom), leaves(cod)))
        sizes = tuple(map(_size, objs))
        key = (family, *args, *sizes)
        rows = self.read.get(key)
        if rows is None:
            _guard(max(_size(dom), _size(cod)))
            rows = self.read[key] = self.source(self.backend, family, args, sizes, self.rows)
        return _Table(dom, cod, rows)

    @_once
    def eps(self, m: str, x) -> _Table:
        return self._map("eps", (m,), (x,), (x,), x)

    @_once
    def delta(self, m: str, r: GradeValue, q: GradeValue, x) -> _Table:
        a, alg = partial(self.arity, m), self.backend.space.mode(m).algebra
        return self._map("delta", (m, r, q), (x,), (x,) * a(alg.mul(r, q)), ((x,) * a(q),) * a(r))

    @_once
    def tau(self, m: str, q: GradeValue, x, y) -> _Table:
        a = self.arity(m, q)
        return self._map("tau_pair", (m, q), (x, y), ((x,) * a, (y,) * a), ((x, y),) * a)

    @_once
    def iota(self, m: str, q: GradeValue) -> _Table:
        return self._map("iota", (m, q), (), (), ((),) * self.arity(m, q))

    @_once
    def c(self, m: str, r: GradeValue, q: GradeValue, x) -> _Table:
        a, alg = partial(self.arity, m), self.backend.space.mode(m).algebra
        return self._map("c_map", (m, r, q), (x,), (x,) * a(alg.add(r, q)),
                         ((x,) * a(r), (x,) * a(q)))

    @_once
    def w(self, m: str, x) -> _Table:
        zero = self.backend.space.mode(m).algebra.zero
        return self._map("w_map", (m,), (x,), (x,) * self.arity(m, zero), ())

    @_once
    def mu(self, low: str, high: str, q: GradeValue, x) -> _Table:
        phi_q = self.backend.space.phi(low, high, q)
        return self._map("mu", (low, high, q), (x,), (x,) * self.arity(high, phi_q),
                         (x,) * self.arity(low, q))

    # -- composites by index ------------------------------------------------

    @_once
    def iso(self, dom, cod=None) -> _Table:
        """Identity by index, dom to cod (default dom): an identity, associator or unitor."""
        cod = dom if cod is None else cod
        return _Table(dom, cod, identity(leaves(dom)) if self.proving
                      else array("q", range(_size(dom))))

    @_once
    def swap(self, a, b) -> _Table:
        return _Table((a, b), (b, a), block_swap(leaves(a), leaves(b)) if self.proving
                      else self.rows.product([range(_size(a)), range(_size(b))], (1, _size(a))))

    def compose(self, path: list[_Table]) -> _Table:
        """The tables of a path composed, first to last; the validator's
        paths meet at equal shapes by construction."""
        rows, compose = path[0].rows, substitute if self.proving else self.rows.compose
        for t in path[1:]:
            rows = compose(rows, t.rows)
        return _Table(path[0].dom, path[-1].cod, rows, max(t.reads for t in path))

    def tensor(self, f: _Table, g: _Table) -> _Table:
        rows = (juxtapose(f.rows, g.rows) if self.proving
                else self.rows.product([f.rows, g.rows], (_size(g.cod), 1)))
        return _Table((f.dom, g.dom), (f.cod, g.cod), rows, max(f.reads, g.reads))

    @_once
    def power(self, f: _Table, k: int) -> _Table:
        """f^k, the functorial action of a tupling mode."""
        rows = (repeat(f.rows, k) if self.proving
                else self.rows.product([f.rows] * k, _strides([_size(f.cod)] * k)))
        return _Table((f.dom,) * k, (f.cod,) * k, rows, f.reads)

    def square(self, name: str, witness: tuple, lhs: list[_Table], rhs: list[_Table]) -> None:
        """Note a violation unless the two paths compose to the same map."""
        lhs, rhs = self.compose(lhs), self.compose(rhs)
        if not (_same(lhs.dom, rhs.dom) and _same(lhs.cod, rhs.cod)):
            self.found.append(Violation(name, witness, "signature mismatch"))
        elif lhs.rows != rhs.rows:
            lp, rp = (_decode(t.rows, FinSetObj(_elements(t.dom)), FinSetObj(_elements(t.cod))).pairs
                      for t in (lhs, rhs))
            diff = min(map(repr, lp ^ rp), default="?")
            self.found.append(Violation(name, witness, f"differs at {diff}"))


def _fits_size(base: int, *exponents: int) -> bool:
    return all(max(base, 1) ** e <= _SIZE_CAP for e in exponents)


def model_coherence_validate(backend: ModelBackend, modes: list[str] | None = None,
                             max_size: int = 3, budget: int | None = None) -> Report:
    """Enumerate every coherence diagram over the given modes, all grades
    (naturals truncated to the budget) and objects up to the size bound,
    with each structure map read off the backend's Positions.  A square
    proven on leaf maps holds at every object size and builds no table.

    Instances whose intermediate objects blow past an element cap, or that
    read a map over the element limit, are skipped; the cap only bites on
    large naturals grades.
    """
    return coherence_report(backend, _read_positions, modes, max_size, budget)


def coherence_report(backend: ModelBackend, source, modes=None, max_size=3, budget=None) -> Report:
    """`model_coherence_validate` with each structure map read by source(backend,
    family, args, sizes, rows): family names the backend's element-level method.
    Each square's instance, its name and witness but the object size, is first
    proven on leaf maps, which only the Positions reader gives."""
    co, proof = _Coherence(backend, source), _Coherence(backend, source, proving=True)
    found, unproven = co.found, {}  # (name, key) -> None if proven, else the most leaves it reads
    space = backend.space
    modes = list(space.modes) if modes is None else modes
    budget = backend.nat_budget if budget is None else budget
    sizes = range(max_size + 1)  # the shape of a test object is its size

    def square(name: str, key: tuple, x: int, paths) -> None:
        """Check square `name` at witness (*key, x), whose two paths
        paths(c) builds with c's maps: once per key on leaf maps, else by
        index at x unless a map it reads is over the element limit."""
        if (bound := unproven.get((name, key), False)) is False:
            lhs, rhs = map(proof.compose, paths(proof))
            proven = (lhs.dom, lhs.cod) == (rhs.dom, rhs.cod) and equal(lhs.rows, rhs.rows)
            bound = unproven[name, key] = None if proven else max(lhs.reads, rhs.reads)
        if bound is not None and x ** bound <= ELEMENT_LIMIT:
            co.square(name, (*key, x), *paths(co))

    lawless = set()  # modes whose arities break a law
    for m in modes:
        mode = space.mode(m)
        alg = mode.algebra
        grades = list(alg.elements(budget))
        conts = [g for g in grades if mode.cont.contains(g)]
        a = partial(co.arity, m)

        reported = len(found)
        if a(alg.one) != 1:
            found.append(Violation("arity-of-one", (m,), f"a(1) = {a(alg.one)}"))
        else:
            if alg.zero != alg.one and a(alg.zero) != 0:
                found.append(Violation("arity-of-zero", (m,), f"a(0) = {a(alg.zero)}"))
            for q, r in itertools.product(grades, repeat=2):
                if a(alg.mul(q, r)) != a(q) * a(r):
                    found.append(Violation("arity-multiplicative", (m, q, r)))
        if len(found) > reported:  # the structure maps need lawful arities
            lawless.add(m)
            continue
        # iota is an isomorphism onto a singleton power
        for q in grades:
            if (n := _count(co.iota(m, q).rows)) != 1:
                found.append(Violation("iota-iso", (m, q), f"{n} pairs"))

        for x in sizes:
            # counit laws for delta/epsilon
            for q in grades:
                if not _fits_size(x, a(q)):
                    continue
                qx = (x,) * a(q)
                square("delta then eps is the identity", (m, q), x, lambda c: (
                    [c.delta(m, alg.one, q, x), c.eps(m, qx)], [c.iso(qx)]))
                square("delta then q (.) eps is the identity", (m, q), x, lambda c: (
                    [c.delta(m, q, alg.one, x), c.power(c.eps(m, x), a(q))], [c.iso(qx)]))
                # tau unit law: (iota (x) id) then tau then q (.) unitor == unitor
                square("tau unit law", (m, q), x, lambda c: (
                    [c.tensor(c.iota(m, q), c.iso(qx)), c.tau(m, q, (), x),
                     c.power(c.iso(((), x), x), a(q))], [c.iso(((), qx), qx)]))
                # tau symmetry: tau then q (.) swap == swap then tau
                square("tau symmetry", (m, q), x, lambda c: (
                    [c.tau(m, q, x, x), c.power(c.swap(x, x), a(q))],
                    [c.swap(qx, qx), c.tau(m, q, x, x)]))
                # tau associativity
                if _fits_size(x, 3 * a(q)):
                    square("tau associativity", (m, q), x, lambda c: (
                        [c.tensor(c.tau(m, q, x, x), c.iso(qx)), c.tau(m, q, (x, x), x),
                         c.power(c.iso(((x, x), x), (x, (x, x))), a(q))],
                        [c.iso(((qx, qx), qx), (qx, (qx, qx))), c.tensor(c.iso(qx), c.tau(m, q, x, x)),
                         c.tau(m, q, x, (x, x))]))

            # delta coassociativity
            for q, r, s in itertools.product(grades, repeat=3):
                if not _fits_size(x, a(q) * a(r) * a(s), a(q) * a(r), a(r) * a(s)):
                    continue
                sx = (x,) * a(s)
                square("delta coassociativity", (m, q, r, s), x, lambda c: (
                    [c.delta(m, alg.mul(q, r), s, x), c.power(c.iso(sx), a(alg.mul(q, r))),
                     c.delta(m, q, r, sx)],
                    [c.delta(m, q, alg.mul(r, s), x), c.power(c.delta(m, r, s, x), a(q))]))

            # graded-comonad coherence: c against delta/tau (both squares)
            for q in grades:
                for r1, r2 in itertools.product(conts, repeat=2):
                    if not _fits_size(x, a(q) * (a(r1) + a(r2)), a(r1) + a(r2),
                                      a(q) * a(r1), a(q) * a(r2)):
                        continue
                    square("c then delta tensor delta then tau", (m, q, r1, r2), x, lambda c: (
                        [c.c(m, alg.mul(q, r1), alg.mul(q, r2), x),
                         c.tensor(c.delta(m, q, r1, x), c.delta(m, q, r2, x)),
                         c.tau(m, q, (x,) * a(r1), (x,) * a(r2))],
                        [c.delta(m, q, alg.add(r1, r2), x), c.power(c.c(m, r1, r2, x), a(q))]))
                    square("c against delta on the right factor", (m, q, r1, r2), x, lambda c: (
                        [c.c(m, alg.mul(r1, q), alg.mul(r2, q), x),
                         c.tensor(c.delta(m, r1, q, x), c.delta(m, r2, q, x))],
                        [c.delta(m, alg.add(r1, r2), q, x), c.c(m, r1, r2, (x,) * a(q))]))

            # c coassociativity
            for r1, r2, r3 in itertools.product(conts, repeat=3):
                if not _fits_size(x, a(r1) + a(r2) + a(r3)):
                    continue
                o1, o2, o3 = ((x,) * a(r) for r in (r1, r2, r3))
                square("c coassociativity", (m, r1, r2, r3), x, lambda c: (
                    [c.c(m, alg.add(r1, r2), r3, x), c.tensor(c.c(m, r1, r2, x), c.iso(o3)),
                     c.iso(((o1, o2), o3), (o1, (o2, o3)))],
                    [c.c(m, r1, alg.add(r2, r3), x), c.tensor(c.iso(o1), c.c(m, r2, r3, x))]))

            if mode.weak:
                zero = alg.zero
                for r in grades:
                    if not _fits_size(x, max(a(r), 1)):
                        continue
                    rx = (x,) * a(r)
                    square("w after delta at zero times r", (m, r), x, lambda c: (
                        [c.delta(m, zero, r, x), c.w(m, rx)], [c.w(m, x)]))
                    square("w then iota against delta at r times zero", (m, r), x, lambda c: (
                        [c.delta(m, r, zero, x), c.power(c.w(m, x), a(r))],
                        [c.w(m, x), c.iota(m, r)]))
                    # counit laws of (c, w)
                    if r in conts:
                        square("w counit on the left of c", (m, r), x, lambda c: (
                            [c.c(m, zero, r, x), c.tensor(c.w(m, x), c.iso(rx)), c.iso(((), rx), rx)],
                            [c.iso(rx)]))
                        square("w counit on the right of c", (m, r), x, lambda c: (
                            [c.c(m, r, zero, x), c.tensor(c.iso(rx), c.w(m, x)), c.iso((rx, ()), rx)],
                            [c.iso(rx)]))

    # mu coherence across every comparable pair (the lineator is mu here)
    for (mlo, mhi) in sorted(space.order_pairs):
        if mlo not in modes or mhi not in modes or {mlo, mhi} & lawless:
            continue
        mode_lo = space.mode(mlo)
        alg_lo = mode_lo.algebra
        grades_lo = list(alg_lo.elements(budget))
        phi = partial(space.phi, mlo, mhi)
        for x in sizes:
            for r in grades_lo:
                if not _fits_size(x, max(co.arity(mlo, r), co.arity(mhi, phi(r)))):
                    continue
                if r == alg_lo.one:
                    square("mu unit square", (mlo, mhi), x, lambda c: (
                        [c.mu(mlo, mhi, r, x), c.eps(mlo, x)], [c.eps(mhi, x)]))
                if mode_lo.weak and r == alg_lo.zero:
                    square("mu zero square", (mlo, mhi), x, lambda c: (
                        [c.mu(mlo, mhi, r, x), c.w(mlo, x)], [c.w(mhi, x)]))
            for q, r in itertools.product(grades_lo, repeat=2):
                aq, ar = co.arity(mlo, q), co.arity(mlo, r)
                aphi_q, aphi_r = co.arity(mhi, phi(q)), co.arity(mhi, phi(r))
                if not _fits_size(x, aq * ar, aphi_q * aphi_r,
                                  ar * aphi_q, ar * aq, aphi_q * max(aphi_r, ar)):
                    continue
                square("mu multiplication square", (mlo, mhi, q, r), x, lambda c: (
                    [c.mu(mlo, mhi, alg_lo.mul(q, r), x), c.delta(mlo, q, r, x)],
                    [c.delta(mhi, phi(q), phi(r), x), c.power(c.mu(mlo, mhi, r, x), aphi_q),
                     c.mu(mlo, mhi, q, (x,) * ar)]))
                if mode_lo.cont.contains(q) and mode_lo.cont.contains(r):
                    square("mu addition square", (mlo, mhi, q, r), x, lambda c: (
                        [c.mu(mlo, mhi, alg_lo.add(q, r), x), c.c(mlo, q, r, x)],
                        [c.c(mhi, phi(q), phi(r), x),
                         c.tensor(c.mu(mlo, mhi, q, x), c.mu(mlo, mhi, r, x))]))

    return Report(tuple(found))


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
