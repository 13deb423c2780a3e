"""Leaf maps: structure maps read on their positions, free of any object size.

A shape of the coherence validator holds copies of one test object X, its
leaves: X is one leaf, X^k is k leaves and the unit none.  A map that acts
on positions alone is, between shapes of s and m leaves, a triple
(s, out, fresh): output leaf j copies source leaf out[j] if out[j] >= 0,
else fresh variable -1 - out[j], one of `fresh` variables that range over
X; some may go uncopied.  With tuples flattened, as the validator numbers
a shape's elements, it denotes at a carrier X the pairs (u, v) of
X^s x X^m for which some f in X^fresh gives v_j = u[out_j] or f[-1 - out_j].
None stands for a map this algebra cannot read, and propagates.  out is a
list: a call builds and drops thousands, and CPython keeps up to 2000
dropped tuples of each length below 20 for reuse (+1.2 MB peak RSS on the
`coherence` benchmark when they were tuples).

Soundness.  At every carrier each function below denotes the relation the
validator's index tables build: composition substitutes, since the middle
tuple is fixed by the source and f's fresh values; tensor and power
juxtapose, their variables apart; identities, associators and unitors are
identities on leaves, and swaps permute blocks.  Two `equal` leaf maps
denote equal relations at every carrier size: their outputs agree up to
the names of the fresh variables, and uncopied variables only add the
condition that X is not empty.  That condition matters only at |X| = 0
between shapes without leaves, where the domain and codomain are not
empty, and `equal` compares it whenever the source has no leaves.  So a
square whose sides are `equal` between equal shapes holds at every object
size, not only at those the tables sample: parametricity for maps that act
on positions (Reynolds, "Types, Abstraction and Parametric Polymorphism",
IFIP 1983; Wadler, "Theorems for free!", FPCA 1989).
"""

from __future__ import annotations

import itertools


def leaves(shape) -> int:
    """The number of test objects in a shape: an int, or a tuple of shapes."""
    return 1 if shape.__class__ is int else sum(map(leaves, shape))


def expand(objs, p, dom, cod):
    """The leaf map from dom to cod of positions p (a `Positions`) whose
    source coordinates are shared evenly by objs in turn (tau's are a(q) of
    each factor, the other maps' of one object; none is the unit), and
    whose fresh coordinate ranges over objs[0]; None where the leaves of
    the source or the outputs are not dom's or cod's, whose sizes the
    tables' tensors and powers weigh the map's digits by."""
    widths = [*map(leaves, objs)] or [0]
    starts = [0, *itertools.accumulate(w for w in widths for _ in range(p.src // len(widths)))]
    blocks = [*map(range, starts, starts[1:]), range(-1, -1 - widths[0], -1)]
    out = [i for k in p.out for i in blocks[k]]
    fresh = widths[0] if len(starts) - 1 in p.out else 0
    return (starts[-1], out, fresh) if (starts[-1], len(out)) == (leaves(dom), leaves(cod)) else None


def identity(n: int):
    """The identity on n leaves."""
    return n, [*range(n)], 0


def block_swap(a: int, b: int):
    """(A, B) -> (B, A) for shapes of a and b leaves."""
    return a + b, [*range(a, a + b), *range(a)], 0


def substitute(f, g):
    """f then g: each output of g copies f's output at its source leaf, or
    names a fresh variable of g, numbered after f's."""
    if f is None or g is None or g[0] != len(f[1]):
        return None
    fo, k = f[1], f[2]
    return f[0], [fo[j] if j >= 0 else j - k for j in g[1]], k + g[2]


def juxtapose(f, g):
    """f (x) g: g's source leaves after f's, its fresh variables after f's."""
    if f is None or g is None:
        return None
    s, k = f[0], f[2]
    return s + g[0], f[1] + [j + s if j >= 0 else j - k for j in g[1]], k + g[2]


def repeat(f, k: int):
    """f^k, k copies of f side by side."""
    if f is None:
        return None
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
    """Whether f and g are read and denote equal relations at every carrier."""
    return f is not None and g is not None and _key(f) == _key(g)
