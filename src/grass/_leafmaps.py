"""Leaf maps: structure maps read on their positions, free of any object size.

A shape of the coherence validator holds copies of one test object X, its
leaves: X is one leaf, X^k is k leaves and the unit none.  A map that acts
on positions alone is, between shapes of s and m leaves, a triple
(s, out, fresh): output leaf j copies source leaf out[j] if out[j] >= 0,
else fresh variable -1 - out[j], one of `fresh` variables that range over
X; some may go uncopied.  With tuples flattened, as the validator numbers
a shape's elements, it denotes at a carrier X the pairs (u, v) of
X^s x X^m for which some f in X^fresh gives v_j = u[out_j] or f[-1 - out_j],
and `table` writes that relation by index at one carrier size.  The
identity on n leaves is (n, range(n), 0), and a range out marks it and no
other map; every other out is a list, for a call builds and drops
thousands and CPython keeps up to 2000 dropped tuples of each length below
20 for reuse (+1.2 MB peak RSS on the `coherence` benchmark when they were
tuples).  Most maps of a square are identities, so `substitute`,
`juxtapose`, `repeat` and `equal` short-circuit on them by the unit laws;
each short-circuit returns, element for element, the triple the list path
builds, and a range is immutable, so nothing is cached or shared.

Soundness.  At every carrier each function below denotes the relation
that composing the maps' index tables builds: composition substitutes,
since the middle tuple is fixed by the source and f's fresh values;
tensor and power juxtapose, their variables apart; identities,
associators and unitors are identities on leaves, and swaps permute
blocks; `table` sums an image's digits at their place values, an uncopied
fresh variable's being 0.  Two `equal` leaf maps denote equal relations at
every carrier size: their outputs agree up to the names of the fresh
variables, and uncopied variables only add the condition that X is not
empty.  That condition matters only at |X| = 0 between shapes without
leaves, where the domain and codomain are not empty, and `equal` compares
it whenever the source has no leaves.  So a square whose sides are
`equal` between equal shapes holds at every object size, not only at
those a table samples: parametricity for maps that act on positions
(Reynolds, "Types, Abstraction and Parametric Polymorphism", IFIP 1983;
Wadler, "Theorems for free!", FPCA 1989).
"""

from __future__ import annotations

import itertools
from array import array


def leaves(shape) -> int:
    """The number of test objects in a shape: an int, or a tuple of shapes."""
    return 1 if shape.__class__ is int else sum(map(leaves, shape))


def expand(objs, p):
    """The leaf map of positions p (a `Positions`) whose source coordinates
    are shared evenly by objs in turn (tau's are a(q) of each factor, the
    other maps' of one object; none is the unit), and whose fresh
    coordinate ranges over objs[0]."""
    widths = [*map(leaves, objs)] or [0]
    if p.is_identity:
        return identity(sum(widths) * (p.src // len(widths)))
    starts = [0, *itertools.accumulate(w for w in widths for _ in range(p.src // len(widths)))]
    blocks = [*map(range, starts, starts[1:]), range(-1, -1 - widths[0], -1)]
    out = [i for k in p.out for i in blocks[k]]
    fresh = widths[0] if len(starts) - 1 in p.out else 0
    return starts[-1], out, fresh


def identity(n: int):
    """The identity on n leaves."""
    return n, range(n), 0


def block_swap(a: int, b: int):
    """(A, B) -> (B, A) for shapes of a and b leaves."""
    return a + b, [*range(a, a + b), *range(a)], 0


def substitute(f, g):
    """f then g: each output of g copies f's output at its source leaf, or
    names a fresh variable of g, numbered after f's."""
    fo, k = f[1], f[2]
    if g[1].__class__ is range:
        return f
    if fo.__class__ is range:
        return g
    return f[0], [fo[j] if j >= 0 else j - k for j in g[1]], k + g[2]


def juxtapose(f, g):
    """f (x) g: g's source leaves after f's, its fresh variables after f's."""
    s, k = f[0], f[2]
    if f[1].__class__ is g[1].__class__ is range:
        return identity(s + g[0])
    return s + g[0], [*f[1], *(j + s if j >= 0 else j - k for j in g[1])], k + g[2]


def repeat(f, k: int):
    """f^k, k copies of f side by side."""
    if f[1].__class__ is range:
        return identity(f[0] * k)
    out = (0, [], 0)
    for _ in range(k):
        out = juxtapose(out, f)
    return out


def _key(f):
    """f's outputs with the fresh variables renumbered in order of first
    use, and whether a fresh variable goes unused out of no leaves."""
    s, out, fresh = f
    names: dict = {}
    out = [j if j >= 0 else names.setdefault(j, -1 - len(names)) for j in out]
    return s, out, s == 0 and len(names) < fresh


def equal(f, g) -> bool:
    """Whether f and g denote equal relations at every carrier."""
    if f[1].__class__ is g[1].__class__ is range:
        return f[0] == g[0]
    return _key(f) == _key(g)


def table(f, n: int):
    """f by index at |X| = n: row i holds the images of the i-th source tuple,
    tuples numbered in mixed radix with the first leaf most significant; an
    array('q') of them if each row has one image, else a list of frozensets."""
    s, out, fresh = f
    place = [0] * (s + fresh)  # of each source leaf, then of each fresh variable
    for j, k in enumerate(reversed(out)):
        place[k if k >= 0 else s - 1 - k] += n ** j
    digits = [[d * w for d in range(n)] for w in place]
    rows = [*map(sum, itertools.product(*digits[:s]))]
    offsets = {*map(sum, itertools.product(*digits[s:]))}
    if len(offsets) != 1 and rows:
        return [frozenset(i + o for o in offsets) for i in rows]
    return array("q", [i + o for i in rows for o in offsets])
