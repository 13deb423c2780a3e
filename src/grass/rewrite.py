"""Substitution on derivations, beta reduction, eta expansion, preservation.

`subst_simultaneous` is the constructive substitution algorithm: a
structural recursion over the target derivation that rebuilds each rule
around the substituted premises, duplicating a replacement at contraction
nodes and re-weakening whole replacement contexts at weakening nodes.

`beta_step` contracts the leftmost-outermost redex.  A redex is an
eliminator whose scrutinee ends in the matching introduction, possibly
through interleaved weak/sub/cont/exchange nodes; those are pushed below
the eliminator first, one per loop step, and re-applied around the
contracted result, so every step corresponds to one proof case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivation import (
    RULES,
    Derivation,
    check_derivation,
    mk_arrowE,
    mk_arrowI,
    mk_cont,
    mk_dropE,
    mk_dropI,
    mk_pairE,
    mk_pairI,
    mk_raiseE,
    mk_raiseI,
    mk_sub,
    mk_sumE,
    mk_sumIL,
    mk_sumIR,
    mk_unitE,
    mk_unitI,
    mk_var,
    mk_weak,
    move_to_end,
    rebuild,
    reorder,
)
from .errors import InputError
from .modespace import ModeSpace, scale_vector
from .syntax import (
    DropTm,
    Inl,
    Inr,
    Lam,
    Pair,
    RaiseTm,
    Star,
    TDrop,
    TFun,
    TRaise,
    TSum,
    TTensor,
    TUnit,
    free_vars,
    fresh_name,
)

# ---------------------------------------------------------------------------
# Derivation-level renaming of context variables


def all_names(d: Derivation) -> set[str]:
    names: set[str] = set()
    for node in d.walk():
        names.update(node.conclusion.names())
        names.update(free_vars(node.conclusion.term))
    return names


def rename_ctx_vars(space: ModeSpace, d: Derivation, mapping: dict[str, str]) -> Derivation:
    """Rename free context variables throughout a derivation.

    Target names must be fresh for the whole tree; occurrences of a key
    below the node where a different variable reuses that name are left
    alone by restricting the mapping to each premise's context.
    """
    live = {k: v for k, v in mapping.items() if k in d.conclusion.names()}
    if not live:
        return d
    premises = []
    for p in d.premises:
        sub = {k: v for k, v in live.items() if k in p.conclusion.names()}
        if d.rule == "cont":
            # the contracted variable may reuse the conclusion name
            z = d.payload[0]
            x1, x2 = p.conclusion.ctx[-2][0], p.conclusion.ctx[-1][0]
            if z in live:
                for x in (x1, x2):
                    if x == z:
                        sub[x] = live[z]
        premises.append(rename_ctx_vars(space, p, sub))
    payload = tuple(live.get(x, x) if kind == "name" else x
                    for kind, x in zip(RULES[d.rule][2], d.payload))
    return rebuild(space, d.rule, premises, payload)


def _freshen_last_bound(space: ModeSpace, body: Derivation, count: int,
                        avoid: set[str]) -> Derivation:
    """Rename the last `count` context entries of `body` when they clash."""
    names = body.conclusion.names()
    mapping = {}
    pool = set(avoid) | set(names)
    for x in names[-count:]:
        if x in avoid:
            x2 = fresh_name(pool | all_names(body), x)
            mapping[x] = x2
            pool.add(x2)
    if not mapping:
        return body
    return rename_ctx_vars(space, body, mapping)


# ---------------------------------------------------------------------------
# Simultaneous substitution


@dataclass(frozen=True)
class SubstitutionBundle:
    """A target derivation plus one replacement per context entry."""

    target: Derivation
    replacements: tuple[Derivation, ...]


def bundle_validate(b: SubstitutionBundle) -> None:
    c = b.target.conclusion
    if len(b.replacements) != len(c.ctx):
        raise InputError("bundle needs one replacement per context entry")
    seen: set[str] = set()
    for i, (rep, (name, ty), mode) in enumerate(zip(b.replacements, c.ctx, c.modes)):
        rc = rep.conclusion
        if rc.ty != ty:
            raise InputError(f"replacement {i} ({name}): type mismatch")
        if rc.mode != mode:
            raise InputError(f"replacement {i} ({name}): judged at {rc.mode}, expected {mode}")
        for x in rc.names():
            if x in seen:
                raise InputError(f"replacement contexts share the variable {x!r}")
            seen.add(x)


def subst_simultaneous(b: SubstitutionBundle, space: ModeSpace) -> Derivation:
    """Substitute every context variable of the target at once.

    The result concludes
    ``r1.s1, ..., rk.sk | N1..Nk (.) D1..Dk |- [e_i/x_i]t : T``.
    """
    bundle_validate(b)
    return _subst(space, b.target, tuple(b.replacements))


def _blocks(reps: tuple[Derivation, ...]) -> tuple[str, ...]:
    """The replacement contexts' names, block after block."""
    return tuple(x for r in reps for x in r.conclusion.names())


def _subst(space: ModeSpace, d: Derivation, reps: tuple[Derivation, ...]) -> Derivation:
    c = d.conclusion
    rule = d.rule

    if rule == "var":
        return reps[0]
    if rule == "unitI":
        return d

    if rule == "weak":
        out = _subst(space, d.premises[0], reps[:-1])
        for name, ty in reps[-1].conclusion.ctx:
            out = mk_weak(space, out, name, ty)
        return out

    if rule == "cont":
        premise = d.premises[0]
        rep = reps[-1]
        avoid = set()
        for r in reps:
            avoid |= all_names(r)
        avoid |= all_names(d)
        copy_map = {}
        for x in rep.conclusion.names():
            x2 = fresh_name(avoid, x + "_c")
            copy_map[x] = x2
            avoid.add(x2)
        rep2 = rename_ctx_vars(space, rep, copy_map)
        out = _subst(space, premise, reps[:-1] + (rep, rep2))
        # contract each duplicated entry back onto the original name
        for name in rep.conclusion.names():
            out = mk_cont(space, move_to_end(space, out, name, copy_map[name]), name)
        return reorder(space, out, _blocks(reps))

    if rule == "sub":
        inner = _subst(space, d.premises[0], reps)
        values = []
        for g, n, rep in zip(c.rho, c.modes, reps):
            scaled = scale_vector(g, n, rep.conclusion.rho, rep.conclusion.modes, space)
            values.extend(s.value for s in scaled)
        return mk_sub(space, inner, tuple(values))

    if rule == "exchange":
        # conclusion entry i is premise entry perm[i]
        premise_reps = [None] * len(reps)
        for rep, p in zip(reps, d.payload[0]):
            premise_reps[p] = rep
        inner = _subst(space, d.premises[0], tuple(premise_reps))
        return reorder(space, inner, _blocks(reps))

    if rule not in RULES:
        raise InputError(f"substitution does not handle rule {rule!r}")
    # every other rule: each premise takes the next block of replacements,
    # then its bound entries (RULES), freshened and replaced by themselves;
    # all premises are freshened before any is substituted into
    binds = RULES[rule][1]
    premises = d.premises
    if any(binds):
        avoid = {x for r in reps for x in r.conclusion.names()}
        premises = [_freshen_last_bound(space, p, b, avoid) if b else p
                    for p, b in zip(premises, binds)]
    out = []
    start = 0
    for i, (p, b) in enumerate(zip(premises, binds)):
        if i == 1 and rule == "sumE":
            start = 0  # the two branches share one block
        stop = start + len(p.conclusion.ctx) - b
        p_reps = reps[start:stop]
        if b:
            p_reps += tuple(mk_var(space, x, ty) for x, ty in p.conclusion.ctx[-b:])
        out.append(_subst(space, p, p_reps))
        start = stop
    return rebuild(space, rule, out, d.payload)


# ---------------------------------------------------------------------------
# Beta reduction

_SCRUT_INDEX = {"arrowE": 0, "unitE": 1, "pairE": 1, "sumE": 2, "dropE": 1, "raiseE": 0}
_MATCHING_TERM = {
    "arrowE": Lam, "unitE": Star, "pairE": Pair, "sumE": (Inl, Inr),
    "dropE": DropTm, "raiseE": RaiseTm,
}


def _is_redex(d: Derivation) -> bool:
    idx = _SCRUT_INDEX.get(d.rule)
    if idx is None:
        return False
    term = d.premises[idx].conclusion.term
    want = _MATCHING_TERM[d.rule]
    return isinstance(term, want)


def replace_at(space: ModeSpace, d: Derivation, path: tuple[int, ...], new: Derivation) -> Derivation:
    """d with the node at `path` replaced by `new`, each node above it rebuilt."""
    spine = [d]
    for i in path[:-1]:
        spine.append(spine[-1].premises[i])
    for i in reversed(path):
        node = spine.pop()
        new = rebuild(space, node.rule, node.premises[:i] + (new,) + node.premises[i + 1:], node.payload)
    return new


def beta_step(d: Derivation, space: ModeSpace):
    """Contract the leftmost-outermost redex; None when in normal form.

    Returns (derivation, path) where path is the premise-index path of the
    eliminator that was contracted.  The conclusion judgment is unchanged
    apart from the term.
    """
    for path, node in d.find(_is_redex):
        return replace_at(space, d, path, _contract(space, node)), path
    return None


def _graft(space: ModeSpace, body: Derivation, args) -> Derivation:
    """Substitute args for the last len(args) context entries of body and
    each other entry for itself."""
    avoid = {x for a in args for x in a.conclusion.names()}
    body = _freshen_last_bound(space, body, len(args), avoid)
    ids = tuple(mk_var(space, x, ty) for x, ty in body.conclusion.ctx[:-len(args)])
    return _subst(space, body, ids + args)


def _contract(space: ModeSpace, d: Derivation) -> Derivation:
    """One beta contraction at the root eliminator, pushing structural
    nodes on the scrutinee side below the eliminator first: each is peeled
    off in turn, the introduction is contracted, and the peeled nodes are
    re-applied around the result, innermost first."""
    peeled = []  # (eliminator, structural node, the premise it was peeled to)
    while (scrut := d.premises[_SCRUT_INDEX[d.rule]]).rule in ("sub", "exchange", "weak", "cont"):
        premise = scrut.premises[0]
        if scrut.rule == "cont":
            # the un-contracted names must not clash with the other premises'
            # variables, which may reuse a name contracted away inside scrut
            clash = set(d.conclusion.names()) - set(scrut.conclusion.names())
            premise = _freshen_last_bound(space, premise, 2, clash)
        peeled.append((d, scrut, premise))
        d = replace_at(space, d, (_SCRUT_INDEX[d.rule],), premise)
    out = _contract_intro(space, d)
    for elim, node, premise in reversed(peeled):
        if node.rule == "sub":
            out = mk_sub(space, out, tuple(g.value for g in elim.conclusion.rho))
            continue
        # re-apply the structural node, then exchange the context back into
        # the eliminator's order
        if node.rule == "weak":
            out = mk_weak(space, out, *node.payload)
        elif node.rule == "cont":
            out = move_to_end(space, out, *premise.conclusion.names()[-2:])
            out = mk_cont(space, out, node.payload[0])
        out = reorder(space, out, elim.conclusion.names())
    return out


def _contract_intro(space: ModeSpace, d: Derivation) -> Derivation:
    """The contraction of eliminator d against its scrutinee's introduction."""
    scrut = d.premises[_SCRUT_INDEX[d.rule]]
    rule = scrut.rule
    if d.rule == "arrowE" and rule == "arrowI":
        return _graft(space, scrut.premises[0], d.premises[1:])
    if d.rule == "unitE" and rule == "unitI":
        return d.premises[0]
    if d.rule == "raiseE" and rule == "raiseI":
        return scrut.premises[0]
    if d.rule == "sumE" and rule in ("sumIL", "sumIR"):
        return _graft(space, d.premises[rule == "sumIR"], scrut.premises)
    if (d.rule, rule) in (("pairE", "pairI"), ("dropE", "dropI")):
        return _graft(space, d.premises[0], scrut.premises)

    raise InputError(f"no contraction for {d.rule} against {rule}")


# ---------------------------------------------------------------------------
# Eta expansion

_ETA_FOR_TYPE = {
    TUnit: "unit", TTensor: "pair", TFun: "arrow", TSum: "sum",
    TRaise: "raise", TDrop: "drop",
}


def eta_rule_for(d: Derivation) -> str | None:
    return _ETA_FOR_TYPE.get(type(d.conclusion.ty))


def eta_expand(d: Derivation, rule: str, space: ModeSpace) -> Derivation:
    """Expand the conclusion term at its type's canonical shape.

    The conclusion judgment is unchanged apart from the term.
    """
    c = d.conclusion
    ty = c.ty
    expected = eta_rule_for(d)
    if rule not in _ETA_FOR_TYPE.values():
        raise InputError(f"unknown eta rule {rule!r}")
    if expected != rule:
        raise InputError(f"eta-{rule} does not apply to a conclusion of type {type(ty).__name__}")
    avoid = set(c.names()) | free_vars(c.term)

    if rule == "unit":
        alg = space.mode(c.mode).algebra
        return mk_unitE(space, alg.one, mk_unitI(space, c.mode), d)

    if rule == "pair":
        assert isinstance(ty, TTensor)
        x1 = fresh_name(avoid, "x1")
        x2 = fresh_name(avoid | {x1}, "x2")
        body = mk_pairI(space, mk_var(space, x1, ty.left), mk_var(space, x2, ty.right))
        return mk_pairE(space, body, d)

    if rule == "arrow":
        assert isinstance(ty, TFun)
        x = fresh_name(avoid, "x")
        inner = mk_arrowE(space, d, mk_var(space, x, ty.arg))
        return mk_arrowI(space, inner)

    if rule == "sum":
        assert isinstance(ty, TSum)
        x1 = fresh_name(avoid, "x1")
        x2 = fresh_name(avoid | {x1}, "x2")
        left = mk_sumIL(space, mk_var(space, x1, ty.left), ty.right)
        right = mk_sumIR(space, mk_var(space, x2, ty.right), ty.left)
        return mk_sumE(space, left, right, d)

    if rule == "raise":
        assert isinstance(ty, TRaise)
        return mk_raiseI(space, mk_raiseE(space, d), ty.high)

    assert isinstance(ty, TDrop)
    z = fresh_name(avoid, "z")
    body = mk_dropI(space, mk_var(space, z, ty.body), ty.grade.value, ty.low)
    return mk_dropE(space, body, d)


# ---------------------------------------------------------------------------
# Preservation and normalization


def preservation_check(before: Derivation, after: Derivation) -> bool:
    """Conclusions agree in grade vector, modes, context, mode, and type."""
    return before.conclusion.shape() == after.conclusion.shape()


def normalize(d: Derivation, fuel: int, space: ModeSpace):
    """Apply beta steps until normal or out of fuel.

    Returns (derivation, steps_taken, normal?).  `d` and every reduct are
    checked by check_derivation, which costs only their unsealed nodes (none
    in a reduct of a sealed tree); every reduct is preservation-checked.
    """
    check_derivation(d, space)
    steps = 0
    current = d
    while steps < fuel:
        step = beta_step(current, space)
        if step is None:
            return current, steps, True
        nxt, _path = step
        if not preservation_check(current, nxt):
            raise InputError("beta step changed the conclusion judgment")
        check_derivation(nxt, space)
        current = nxt
        steps += 1
    return current, steps, next(current.find(_is_redex), None) is None


def all_single_steps(d: Derivation, space: ModeSpace) -> list[tuple[Derivation, tuple]]:
    """Every one-step reduct of d with its redex path, one per redex
    position (any order, not just leftmost-outermost), in preorder."""
    return [(replace_at(space, d, path, _contract(space, node)), path)
            for path, node in d.find(_is_redex)]
