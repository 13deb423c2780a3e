"""Independent reference implementations used to cross-check the main paths.

These deliberately use different representations from the rest of the
package: terms become locally-nameless trees (bound variables as indices,
free variables as names), where substitution is plain grafting, ideal closure
intersects all ideals, and coherence reads maps built element by element.
"""

from __future__ import annotations

import itertools

from .errors import InputError, Report
from .grades import GradeAlgebra, ideal_check
from .semantics import FinSetObj, ModelBackend, coherence_report, encode
from .syntax import (
    App,
    Case,
    DropTm,
    Inl,
    Inr,
    Lam,
    LetDrop,
    LetPair,
    LetStar,
    Pair,
    RaiseTm,
    Star,
    Term,
    UnraiseTm,
    Var,
)

# ---------------------------------------------------------------------------
# Locally-nameless terms: tuples ("bound", i) | ("free", x) | (head, ...)


def to_locally_nameless(t: Term, env: tuple[str, ...] = ()):
    match t:
        case Var(x):
            for i, name in enumerate(reversed(env)):
                if name == x:
                    return ("bound", i)
            return ("free", x)
        case Lam(x, body):
            return ("lam", to_locally_nameless(body, env + (x,)))
        case App(fn, arg):
            return ("app", to_locally_nameless(fn, env), to_locally_nameless(arg, env))
        case Star(m):
            return ("star", m)
        case LetStar(q, s, b):
            return ("let*", q, to_locally_nameless(s, env), to_locally_nameless(b, env))
        case Pair(a, b):
            return ("pair", to_locally_nameless(a, env), to_locally_nameless(b, env))
        case LetPair(q, x1, x2, s, b):
            return ("letp", q, to_locally_nameless(s, env),
                    to_locally_nameless(b, env + (x1, x2)))
        case Inl(b):
            return ("inl", to_locally_nameless(b, env))
        case Inr(b):
            return ("inr", to_locally_nameless(b, env))
        case Case(q, s, x1, t1, x2, t2):
            return ("case", q, to_locally_nameless(s, env),
                    to_locally_nameless(t1, env + (x1,)),
                    to_locally_nameless(t2, env + (x2,)))
        case DropTm(q, low, high, b):
            return ("drop", q, low, high, to_locally_nameless(b, env))
        case LetDrop(q, low, high, x, s, b):
            return ("letd", q, low, high, to_locally_nameless(s, env),
                    to_locally_nameless(b, env + (x,)))
        case RaiseTm(low, high, b):
            return ("raise", low, high, to_locally_nameless(b, env))
        case UnraiseTm(low, high, b):
            return ("unraise", low, high, to_locally_nameless(b, env))
    raise InputError(f"not a term: {t!r}")


def ln_subst(t, mapping: dict):
    """Simultaneous grafting for free names; no shifting is ever needed
    because bound variables are indices and grafts are closed w.r.t. them."""
    head = t[0]
    if head == "free":
        return mapping.get(t[1], t)
    if head in ("bound", "star"):
        return t
    return (head,) + tuple(
        ln_subst(part, mapping) if isinstance(part, tuple) else part for part in t[1:]
    )


def ln_eq(t1: Term, t2: Term) -> bool:
    return to_locally_nameless(t1) == to_locally_nameless(t2)


def term_subst_oracle(t: Term, mapping: dict[str, Term]) -> "tuple":
    """[e_i/x_i]t as a locally-nameless tree, by grafting."""
    return ln_subst(to_locally_nameless(t), {x: to_locally_nameless(e) for x, e in mapping.items()})


# ---------------------------------------------------------------------------
# Term-level beta evaluation (independent of derivations)


# head -> {position of a part: number of binders that part sits under}
_BINDERS = {"lam": {1: 1}, "letp": {3: 2}, "case": {3: 1, 4: 1}, "letd": {5: 1}}


def _map_bound(t, leaf, depth: int = 0):
    """Replace every ("bound", i) of t with leaf(i, depth), where depth
    counts the binders of t around that occurrence."""
    head = t[0]
    if head == "bound":
        return leaf(t[1], depth)
    if head in ("free", "star"):
        return t
    under = _BINDERS.get(head, {})
    return (head,) + tuple(
        _map_bound(part, leaf, depth + under.get(n, 0)) if isinstance(part, tuple) else part
        for n, part in enumerate(t[1:], start=1)
    )


def _instantiate(body, grafts):
    """Open the binders just outside `body`: index j of them (0 innermost)
    becomes grafts[j], shifted past the binders of `body` it lands under,
    and indices past them drop by len(grafts)."""
    k = len(grafts)

    def shift(graft, by):
        return _map_bound(graft, lambda i, depth: ("bound", i + by if i >= depth else i))

    def leaf(i, depth):
        if i < depth:
            return ("bound", i)
        if i - depth < k:
            return shift(grafts[i - depth], depth)
        return ("bound", i - k)

    return _map_bound(body, leaf)


def ln_beta_step(t):
    """Leftmost-outermost beta step on a locally-nameless term, or None."""
    head = t[0]
    if head == "app" and t[1][0] == "lam":
        return _instantiate(t[1][1], [t[2]])
    if head == "let*" and t[2][0] == "star":
        return t[3]
    if head == "letp" and t[2][0] == "pair":
        # the later binder is index 0, the earlier index 1
        return _instantiate(t[3], [t[2][2], t[2][1]])
    if head == "case" and t[2][0] in ("inl", "inr"):
        branch = t[3] if t[2][0] == "inl" else t[4]
        return _instantiate(branch, [t[2][1]])
    if head == "letd" and t[4][0] == "drop":
        return _instantiate(t[5], [t[4][4]])
    if head == "unraise" and t[3][0] == "raise":
        return t[3][3]
    if head in ("bound", "free", "star"):
        return None
    for i, part in enumerate(t[1:], start=1):
        if isinstance(part, tuple):
            stepped = ln_beta_step(part)
            if stepped is not None:
                return t[:i] + (stepped,) + t[i + 1:]
    return None


def ln_normalize(t, fuel: int):
    steps = 0
    while steps < fuel:
        nxt = ln_beta_step(t)
        if nxt is None:
            return t, steps
        t = nxt
        steps += 1
    return t, steps


# ---------------------------------------------------------------------------
# Brute-force ideal closure


def brute_force_ideal_closure(alg: GradeAlgebra, subset) -> frozenset:
    """Intersection of every ideal containing the subset; exponential in
    the carrier, usable only on the small built-ins."""
    if alg.kind != "finite":
        raise InputError("brute force closure needs a finite carrier")
    subset = frozenset(subset)
    best = None
    for size in range(len(alg.carrier) + 1):
        for cand in itertools.combinations(alg.carrier, size):
            cand_set = frozenset(cand)
            if not subset <= cand_set:
                continue
            if not ideal_check(alg, cand_set):
                continue
            best = cand_set if best is None else best & cand_set
    return best


# ---------------------------------------------------------------------------
# Coherence on element-level relations


def coherence_by_elements(backend: ModelBackend, modes=None, max_size=3, budget=None) -> Report:
    """`model_coherence_validate` with every structure map read through the backend's
    element-level relations: the brute-force reference, which also sees damaged elements."""
    return coherence_report(backend, read_elements, modes, max_size, budget)


def read_elements(backend, family: str, args: tuple, sizes: tuple, rows):
    """The rows of backend.family(*args, *test objects e0..e{n-1} of those sizes)."""
    rel = getattr(backend, family)(*args, *(FinSetObj(tuple(f"e{i}" for i in range(n))) for n in sizes))
    return encode(rel, rel.dom.elements, rows)
