"""Reference beta normalization on locally-nameless terms.

Terms come from `grass.oracles.to_locally_nameless`: ("bound", i),
("free", x), ("star", m) and (head, part, ...).  Unlike
`grass.oracles.ln_normalize`, contraction here also renumbers the indices
that point past the opened binders, so a redex under a binder whose body
mentions an outer bound variable keeps that variable.  Example:
(let-pair x y s (let-pair u v (pair a b) (f y))) reduces to
(let-pair x y s (f y)); the oracle leaves y's index at 2 (one pair binder
too many) instead of 0.  The benchmark takes normal forms from this module
and counts the inputs on which the oracle disagrees.
"""

from __future__ import annotations

# head -> {part position: binders the part sits under}
_BINDERS = {"lam": {1: 1}, "letp": {3: 2}, "case": {3: 1, 4: 1}, "letd": {5: 1}}


def _map_bound(t, leaf, depth: int = 0):
    head = t[0]
    if head == "bound":
        return leaf(t[1], depth)
    if head in ("free", "star"):
        return t
    binders = _BINDERS.get(head, {})
    return (head,) + tuple(
        _map_bound(part, leaf, depth + binders.get(i, 0)) if isinstance(part, tuple) else part
        for i, part in enumerate(t[1:], start=1)
    )


def _shift(t, by: int):
    return _map_bound(t, lambda i, depth: ("bound", i + by if i >= depth else i))


def _instantiate(body, values):
    """Replace index j of an opened body with values[j]; indices past the
    opened binders drop by len(values)."""
    k = len(values)

    def leaf(i, depth):
        if i < depth:
            return ("bound", i)
        if i - depth < k:
            return _shift(values[i - depth], depth)
        return ("bound", i - k)

    return _map_bound(body, leaf)


def ln_step(t):
    """One leftmost-outermost beta step, or None in normal form."""
    head = t[0]
    if head == "app" and t[1][0] == "lam":
        return _instantiate(t[1][1], [t[2]])
    if head == "let*" and t[2][0] == "star":
        return t[3]
    if head == "letp" and t[2][0] == "pair":
        return _instantiate(t[3], [t[2][2], t[2][1]])
    if head == "case" and t[2][0] in ("inl", "inr"):
        return _instantiate(t[3] if t[2][0] == "inl" else t[4], [t[2][1]])
    if head == "letd" and t[4][0] == "drop":
        return _instantiate(t[5], [t[4][4]])
    if head == "unraise" and t[3][0] == "raise":
        return t[3][3]
    if head in ("bound", "free", "star"):
        return None
    for i, part in enumerate(t[1:], start=1):
        if isinstance(part, tuple):
            stepped = ln_step(part)
            if stepped is not None:
                return t[:i] + (stepped,) + t[i + 1:]
    return None


def ln_normal_form(t, fuel: int = 100_000):
    """(normal form, steps taken); raises ValueError when fuel runs out."""
    for steps in range(fuel):
        nxt = ln_step(t)
        if nxt is None:
            return t, steps
        t = nxt
    raise ValueError("reference normalization ran out of fuel")
