"""Explicit derivation trees, rule constructors, the checker, and elaboration.

The `mk_*` rule constructors validate all side conditions and compute the
conclusion; over premises sealed with their `ModeSpace` they seal the node
with it, so a sealed node's whole subtree is valid there.  Any other node is
unsealed (`Derivation(...)`, `replace`, copy, pickle, or over an unsealed
premise); `check_derivation` checks only those, and seals each that passes.

Contexts are ordered; exchange is an explicit node carrying a permutation.
Contraction acts on the last two context entries, as in the rule itself;
callers arrange entries with exchanges first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CheckError, ElaborationError, InputError
from .grades import Grade, GradeValue
from .modespace import (
    ModeSpace,
    add_grades,
    independence_check,
    scale_vector,
    vector_leq,
)
from .syntax import (
    App,
    Case,
    Context,
    DropTm,
    Inl,
    Inr,
    Judgment,
    Lam,
    LetDrop,
    LetPair,
    LetStar,
    Pair,
    RaiseTm,
    Star,
    TDrop,
    TFun,
    TRaise,
    TSum,
    TTensor,
    TUnit,
    Term,
    Type,
    UnraiseTm,
    Var,
    alpha_eq,
    free_vars,
    fresh_name,
    mode_of,
    subst,
    type_wf,
)

@dataclass(frozen=True, slots=True)
class Derivation:
    rule: str
    premises: tuple["Derivation", ...]
    payload: tuple
    conclusion: Judgment
    _seal: ModeSpace | None = field(default=None, init=False, compare=False, repr=False)

    def __reduce__(self):  # copy, deepcopy and pickle rebuild an unsealed node
        return Derivation, (self.rule, self.premises, self.payload, self.conclusion)

    def __eq__(self, other):
        """The generated comparison at any depth; a pair of nodes is compared once."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo, seen = [(self, other)], set()
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if (a.rule, a.payload, a.conclusion, len(a.premises)) != \
                    (b.rule, b.payload, b.conclusion, len(b.premises)):
                return False
            seen.add((id(a), id(b)))
            todo += zip(a.premises, b.premises)
        return True

    def __hash__(self):
        """The generated hash((rule, premises, payload, conclusion)) at any
        depth: a premise's hash, computed first and once, stands in for it."""
        done: dict = {}
        def step(node, hashes):
            h = done[id(node)] = hash((node.rule, tuple(map(_Hashed, hashes)), node.payload,
                                       node.conclusion))
            return h
        return fold(self, step, done)

    def walk(self):
        """Every node in preorder, premises left to right, at any depth."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.premises))

    def find(self, pred):
        """Each node satisfying `pred`, with its premise-index path, in preorder, at any depth."""
        if pred(self):
            yield (), self
        spine, path = [self], [-1]  # the nodes from the root down, and the premise taken below each
        while spine:
            i = path[-1] = path[-1] + 1
            if i == len(spine[-1].premises):
                spine.pop()
                path.pop()
                continue
            node = spine[-1].premises[i]
            if pred(node):
                yield tuple(path), node
            spine.append(node)
            path.append(-1)


class _Hashed(int):
    """A hash that hashes to itself: in a tuple it stands in for its value."""
    __hash__ = int.__index__


def fold(d, step, done: dict | None = None, children=None):
    """Fold a tree bottom up on an explicit stack, at any depth: a node's value is
    `step(node, values)` over its premises' values, folded left to right, each
    before its node.  A node whose id is in `done` is not descended into: its
    value is `done[id(node)]` (`fold` only reads `done`).  `children(node)`
    gives the nodes below `node`, by default its premises."""
    values: list = []  # values of folded subtrees not yet taken by their parent
    todo = [d]  # a None has below it a node and where its premises' values begin
    while todo:
        node = todo.pop()
        if node is None:
            start = todo.pop()
            args = values[start:]
            del values[start:]
            values.append(step(todo.pop(), args))
        elif done and id(node) in done:
            values.append(done[id(node)])
        else:
            todo += (node, len(values), None)
            todo += (node.premises if children is None else children(node))[::-1]
    return values[0]


def _fail(rule: str, condition: str):
    raise CheckError(rule, condition)


def _finish(rule: str, premises, payload, j: Judgment, space: ModeSpace) -> Derivation:
    if not independence_check(j.modes, j.mode, space):
        _fail(rule, f"independence fails: some context mode is not above {j.mode}")
    d = Derivation(rule, tuple(premises), tuple(payload), j)
    object.__setattr__(d, "_seal", space if all(p._seal is space for p in d.premises) else None)
    return d


def _disjoint(rule: str, *ctxs: Context):
    seen: set[str] = set()
    for ctx in ctxs:
        for name, _ in ctx:
            if name in seen:
                _fail(rule, f"contexts share the variable {name!r}")
            seen.add(name)


# ---------------------------------------------------------------------------
# Rule constructors


def mk_var(space: ModeSpace, name: str, ty: Type) -> Derivation:
    m = mode_of(ty)
    if not type_wf(ty, m, space):
        _fail("var", f"type not well-formed at mode {m}")
    one = space.mode(m).algebra.one
    j = Judgment((Grade(space.mode(m).algebra.id, one),), (m,), ((name, ty),), m, Var(name), ty)
    return _finish("var", (), (name, ty), j, space)


def mk_weak(space: ModeSpace, premise: Derivation, name: str, ty: Type) -> Derivation:
    c = premise.conclusion
    n = mode_of(ty)
    if not space.mode(n).weak:
        _fail("weak", f"Weak({n}) is false")
    if not space.leq(c.mode, n):
        _fail("weak", f"judgment mode {c.mode} <= {n} fails")
    if not type_wf(ty, n, space):
        _fail("weak", f"type not well-formed at mode {n}")
    # no test of name against the term's free variables: every rule keeps those among
    # its conclusion's context names, and check_derivation validates a premise first
    if name in c.names():
        _fail("weak", f"variable {name!r} already in the context")
    zero = space.mode(n).algebra
    j = Judgment(
        c.rho + (Grade(zero.id, zero.zero),), c.modes + (n,), c.ctx + ((name, ty),),
        c.mode, c.term, c.ty,
    )
    return _finish("weak", (premise,), (name, ty), j, space)


def mk_cont(space: ModeSpace, premise: Derivation, zname: str) -> Derivation:
    c = premise.conclusion
    if len(c.ctx) < 2:
        _fail("cont", "needs at least two context entries")
    (x1, ty1), (x2, ty2) = c.ctx[-2], c.ctx[-1]
    n1, n2 = c.modes[-2], c.modes[-1]
    r1, r2 = c.rho[-2], c.rho[-1]
    if ty1 != ty2:
        _fail("cont", f"contracted entries {x1!r}, {x2!r} differ in type")
    if n1 != n2:
        _fail("cont", f"contracted entries {x1!r}, {x2!r} differ in mode")
    ideal = space.mode(n1).cont
    if not ideal.contains(r1.value):
        _fail("cont", f"grade {r1.value!r} of {x1!r} not in Cont({n1})")
    if not ideal.contains(r2.value):
        _fail("cont", f"grade {r2.value!r} of {x2!r} not in Cont({n1})")
    if zname in {x for x, _ in c.ctx[:-2]}:
        _fail("cont", f"contraction target {zname!r} already in the context")
    term = subst(c.term, {x1: Var(zname), x2: Var(zname)})
    j = Judgment(
        c.rho[:-2] + (add_grades(r1, r2, space),), c.modes[:-2] + (n1,),
        c.ctx[:-2] + ((zname, ty1),), c.mode, term, c.ty,
    )
    return _finish("cont", (premise,), (zname,), j, space)


def mk_sub(space: ModeSpace, premise: Derivation, values: tuple[GradeValue, ...]) -> Derivation:
    c = premise.conclusion
    if len(values) != len(c.rho):
        _fail("sub", "grade vector length mismatch")
    new_rho = tuple(Grade(space.mode(n).algebra.id, v) for v, n in zip(values, c.modes))
    if not vector_leq(c.rho, new_rho, c.modes, space):
        _fail("sub", "premise grade vector is not <= the conclusion vector")
    j = Judgment(new_rho, c.modes, c.ctx, c.mode, c.term, c.ty)
    return _finish("sub", (premise,), (tuple(values),), j, space)


def mk_exchange(space: ModeSpace, premise: Derivation, perm: tuple[int, ...]) -> Derivation:
    c = premise.conclusion
    if sorted(perm) != list(range(len(c.ctx))):
        _fail("exchange", f"{perm} is not a permutation of 0..{len(c.ctx) - 1}")
    j = Judgment(
        tuple(c.rho[i] for i in perm), tuple(c.modes[i] for i in perm),
        tuple(c.ctx[i] for i in perm), c.mode, c.term, c.ty,
    )
    return _finish("exchange", (premise,), (tuple(perm),), j, space)


def mk_unitI(space: ModeSpace, mode: str) -> Derivation:
    space.mode(mode)
    j = Judgment((), (), (), mode, Star(mode), TUnit(mode))
    return _finish("unitI", (), (mode,), j, space)


def mk_unitE(space: ModeSpace, qval: GradeValue, body: Derivation, scrut: Derivation) -> Derivation:
    cb, cs = body.conclusion, scrut.conclusion
    if cs.ty != TUnit(cb.mode) or cs.mode != cb.mode:
        _fail("unitE", f"scrutinee must have type I at the judgment mode {cb.mode}")
    alg = space.mode(cb.mode).algebra
    if not alg.contains(qval):
        _fail("unitE", f"grade {qval!r} outside the algebra of mode {cb.mode}")
    _disjoint("unitE", cb.ctx, cs.ctx)
    q = Grade(alg.id, qval)
    scaled = scale_vector(q, cb.mode, cs.rho, cs.modes, space)
    j = Judgment(
        cb.rho + scaled, cb.modes + cs.modes, cb.ctx + cs.ctx, cb.mode,
        LetStar(qval, cs.term, cb.term), cb.ty,
    )
    return _finish("unitE", (body, scrut), (qval,), j, space)


def mk_arrowI(space: ModeSpace, premise: Derivation) -> Derivation:
    c = premise.conclusion
    if not c.ctx:
        _fail("arrowI", "premise context is empty; nothing to bind")
    (x, arg_ty) = c.ctx[-1]
    fun_ty = TFun(arg_ty, c.rho[-1], c.ty)
    if not type_wf(fun_ty, c.mode, space):
        _fail("arrowI", f"arrow type not well-formed at mode {c.mode} (needs {c.mode} <= {c.modes[-1]})")
    j = Judgment(c.rho[:-1], c.modes[:-1], c.ctx[:-1], c.mode, Lam(x, c.term), fun_ty)
    return _finish("arrowI", (premise,), (), j, space)


def mk_arrowE(space: ModeSpace, fn: Derivation, arg: Derivation) -> Derivation:
    cf, ca = fn.conclusion, arg.conclusion
    if not isinstance(cf.ty, TFun):
        _fail("arrowE", "function premise does not have an arrow type")
    arg_mode = mode_of(cf.ty.arg)
    if ca.mode != arg_mode:
        _fail("arrowE", f"argument judged at {ca.mode}, expected {arg_mode}")
    if ca.ty != cf.ty.arg:
        _fail("arrowE", "argument type does not match the arrow's domain")
    _disjoint("arrowE", cf.ctx, ca.ctx)
    scaled = scale_vector(cf.ty.grade, arg_mode, ca.rho, ca.modes, space)
    j = Judgment(
        cf.rho + scaled, cf.modes + ca.modes, cf.ctx + ca.ctx, cf.mode,
        App(cf.term, ca.term), cf.ty.body,
    )
    return _finish("arrowE", (fn, arg), (), j, space)


def mk_pairI(space: ModeSpace, left: Derivation, right: Derivation) -> Derivation:
    cl, cr = left.conclusion, right.conclusion
    if cl.mode != cr.mode:
        _fail("pairI", f"components at different modes {cl.mode} != {cr.mode}")
    _disjoint("pairI", cl.ctx, cr.ctx)
    j = Judgment(
        cl.rho + cr.rho, cl.modes + cr.modes, cl.ctx + cr.ctx, cl.mode,
        Pair(cl.term, cr.term), TTensor(cl.ty, cr.ty),
    )
    return _finish("pairI", (left, right), (), j, space)


def mk_pairE(space: ModeSpace, body: Derivation, scrut: Derivation) -> Derivation:
    cb, cs = body.conclusion, scrut.conclusion
    if len(cb.ctx) < 2:
        _fail("pairE", "body context must end with the two bound components")
    (x1, ty1), (x2, ty2) = cb.ctx[-2], cb.ctx[-1]
    n1, n2 = cb.modes[-2], cb.modes[-1]
    q1, q2 = cb.rho[-2], cb.rho[-1]
    if n1 != n2:
        _fail("pairE", "bound components must share a mode")
    if q1 != q2:
        _fail("pairE", f"bound components must share one grade, got {q1.value!r} and {q2.value!r}")
    if cs.ty != TTensor(ty1, ty2):
        _fail("pairE", "scrutinee type does not match the bound components")
    if cs.mode != n1:
        _fail("pairE", f"scrutinee judged at {cs.mode}, expected {n1}")
    _disjoint("pairE", cb.ctx[:-2], cs.ctx)
    scaled = scale_vector(q1, n1, cs.rho, cs.modes, space)
    j = Judgment(
        cb.rho[:-2] + scaled, cb.modes[:-2] + cs.modes, cb.ctx[:-2] + cs.ctx, cb.mode,
        LetPair(q1.value, x1, x2, cs.term, cb.term), cb.ty,
    )
    return _finish("pairE", (body, scrut), (), j, space)


def mk_sumIL(space: ModeSpace, premise: Derivation, other: Type) -> Derivation:
    c = premise.conclusion
    if not type_wf(other, c.mode, space):
        _fail("sumIL", f"right summand not well-formed at mode {c.mode}")
    j = Judgment(c.rho, c.modes, c.ctx, c.mode, Inl(c.term), TSum(c.ty, other))
    return _finish("sumIL", (premise,), (other,), j, space)


def mk_sumIR(space: ModeSpace, premise: Derivation, other: Type) -> Derivation:
    c = premise.conclusion
    if not type_wf(other, c.mode, space):
        _fail("sumIR", f"left summand not well-formed at mode {c.mode}")
    j = Judgment(c.rho, c.modes, c.ctx, c.mode, Inr(c.term), TSum(other, c.ty))
    return _finish("sumIR", (premise,), (other,), j, space)


def mk_sumE(space: ModeSpace, left: Derivation, right: Derivation, scrut: Derivation) -> Derivation:
    c1, c2, cs = left.conclusion, right.conclusion, scrut.conclusion
    if not c1.ctx or not c2.ctx:
        _fail("sumE", "branch contexts must end with the bound variable")
    if c1.mode != c2.mode or c1.ty != c2.ty:
        _fail("sumE", "branches must agree on judgment mode and type")
    if (c1.rho[:-1], c1.modes[:-1], c1.ctx[:-1]) != (c2.rho[:-1], c2.modes[:-1], c2.ctx[:-1]):
        _fail("sumE", "branches must share the context apart from the bound variable")
    (y1, ty1), (y2, ty2) = c1.ctx[-1], c2.ctx[-1]
    n = c1.modes[-1]
    if c2.modes[-1] != n:
        _fail("sumE", "bound variables must share a mode")
    q1, q2 = c1.rho[-1], c2.rho[-1]
    if q1 != q2:
        _fail("sumE", f"bound variables must share one grade, got {q1.value!r} and {q2.value!r}")
    if cs.ty != TSum(ty1, ty2):
        _fail("sumE", "scrutinee type does not match the branches")
    if cs.mode != n:
        _fail("sumE", f"scrutinee judged at {cs.mode}, expected {n}")
    alg = space.mode(n).algebra
    if not alg.leq(alg.one, q1.value):
        _fail("sumE", f"case grade must satisfy 1 <= q, got {q1.value!r}")
    _disjoint("sumE", c1.ctx[:-1], cs.ctx)
    scaled = scale_vector(q1, n, cs.rho, cs.modes, space)
    j = Judgment(
        c1.rho[:-1] + scaled, c1.modes[:-1] + cs.modes, c1.ctx[:-1] + cs.ctx, c1.mode,
        Case(q1.value, cs.term, y1, c1.term, y2, c2.term), c1.ty,
    )
    return _finish("sumE", (left, right, scrut), (), j, space)


def mk_dropI(space: ModeSpace, premise: Derivation, qval: GradeValue, low: str) -> Derivation:
    c = premise.conclusion
    m = c.mode
    alg = space.mode(m).algebra
    if not alg.contains(qval):
        _fail("dropI", f"grade {qval!r} outside the algebra of mode {m}")
    if not space.leq(low, m):
        _fail("dropI", f"mode {low} <= {m} fails")
    q = Grade(alg.id, qval)
    ty = TDrop(q, low, m, c.ty)
    j = Judgment(
        scale_vector(q, m, c.rho, c.modes, space), c.modes, c.ctx, low,
        DropTm(qval, low, m, c.term), ty,
    )
    return _finish("dropI", (premise,), (qval, low), j, space)


def mk_dropE(space: ModeSpace, body: Derivation, scrut: Derivation) -> Derivation:
    cb, cs = body.conclusion, scrut.conclusion
    if not cb.ctx:
        _fail("dropE", "body context must end with the bound variable")
    (y, ty_bound) = cb.ctx[-1]
    m = cb.modes[-1]
    q = cb.rho[-1]
    if not isinstance(cs.ty, TDrop):
        _fail("dropE", "scrutinee does not have a drop type")
    if cs.ty.high != m or cs.ty.body != ty_bound:
        _fail("dropE", "scrutinee's drop type does not match the bound variable")
    if cs.ty.grade != q:
        _fail("dropE", f"bound grade {q.value!r} differs from the type's {cs.ty.grade.value!r}")
    n = cs.ty.low
    if cs.mode != n:
        _fail("dropE", f"scrutinee judged at {cs.mode}, expected {n}")
    if not space.leq(cb.mode, n):
        _fail("dropE", f"mode {cb.mode} <= {n} fails")
    _disjoint("dropE", cb.ctx[:-1], cs.ctx)
    j = Judgment(
        cb.rho[:-1] + cs.rho, cb.modes[:-1] + cs.modes, cb.ctx[:-1] + cs.ctx, cb.mode,
        LetDrop(q.value, n, m, y, cs.term, cb.term), cb.ty,
    )
    return _finish("dropE", (body, scrut), (), j, space)


def mk_raiseI(space: ModeSpace, premise: Derivation, high: str) -> Derivation:
    c = premise.conclusion
    if not space.leq(c.mode, high):
        _fail("raiseI", f"mode {c.mode} <= {high} fails")
    if not independence_check(c.modes, high, space):
        _fail("raiseI", f"independence fails: {high} must be below every context mode")
    ty = TRaise(c.mode, high, c.ty)
    j = Judgment(c.rho, c.modes, c.ctx, high, RaiseTm(c.mode, high, c.term), ty)
    return _finish("raiseI", (premise,), (high,), j, space)


def mk_raiseE(space: ModeSpace, premise: Derivation) -> Derivation:
    c = premise.conclusion
    if not isinstance(c.ty, TRaise):
        _fail("raiseE", "premise does not have a raise type")
    if c.mode != c.ty.high:
        _fail("raiseE", f"premise judged at {c.mode}, expected {c.ty.high}")
    j = Judgment(
        c.rho, c.modes, c.ctx, c.ty.low,
        UnraiseTm(c.ty.low, c.ty.high, c.term), c.ty.body,
    )
    return _finish("raiseE", (premise,), (), j, space)


# rule: (constructor, bound entries per premise, payload kinds).  The constructor
# is called as build(space, *premises, *payload).  Each premise's bound count is
# how many trailing entries of its context the rule binds in the term and drops;
# outside weak/cont/sub/exchange the conclusion context is the rest, in premise
# order, with sumE's branches sharing one block.  Payload kinds: "name" (a context
# variable), "mode", "type", "grade", "grades" (a vector), "perm" (a permutation).
RULES = {
    "var": (mk_var, (), ("name", "type")),
    "weak": (mk_weak, (0,), ("name", "type")),
    "cont": (mk_cont, (0,), ("name",)),
    "sub": (mk_sub, (0,), ("grades",)),
    "exchange": (mk_exchange, (0,), ("perm",)),
    "unitI": (mk_unitI, (), ("mode",)),
    "unitE": (lambda sp, body, scrut, q: mk_unitE(sp, q, body, scrut), (0, 0), ("grade",)),
    "arrowI": (mk_arrowI, (1,), ()),
    "arrowE": (mk_arrowE, (0, 0), ()),
    "pairI": (mk_pairI, (0, 0), ()),
    "pairE": (mk_pairE, (2, 0), ()),
    "sumIL": (mk_sumIL, (0,), ("type",)),
    "sumIR": (mk_sumIR, (0,), ("type",)),
    "sumE": (mk_sumE, (1, 1, 0), ()),
    "dropI": (mk_dropI, (0,), ("grade", "mode")),
    "dropE": (mk_dropE, (1, 0), ()),
    "raiseI": (mk_raiseI, (0,), ("mode",)),
    "raiseE": (mk_raiseE, (0,), ()),
}


def rebuild(space: ModeSpace, rule: str, premises, payload) -> Derivation:
    try:
        build, binds, kinds = RULES[rule]
    except KeyError:
        raise CheckError(rule, "unknown rule") from None
    if len(premises) != len(binds) or len(payload) != len(kinds):
        _fail(rule, f"expects {len(binds)} premises and {len(kinds)} payload items")
    return build(space, *premises, *payload)


def check_derivation(d: Derivation, space: ModeSpace) -> Judgment:
    """Validate every side condition in the tree; returns the conclusion.

    Checks only the nodes not sealed with `space`, each once, and seals each
    that passes: O(1) on a tree `mk_*` built in `space`, O(unsealed nodes) on
    any.  Deterministic; a violation raises a CheckError naming the rule, the
    condition, and the node position.
    """
    def check(node: Derivation, _premises) -> None:
        nonlocal failed
        if node._seal is space:  # a shared subtree, passed where it was met first
            return
        failed = node  # until it passes
        c = node.conclusion
        r = rebuild(space, node.rule, node.premises, node.payload).conclusion
        if (c.rho, c.modes, c.ctx, c.mode, c.ty) != (r.rho, r.modes, r.ctx, r.mode, r.ty):
            _fail(node.rule, "stored conclusion does not match the rule application")
        if not alpha_eq(c.term, r.term):
            _fail(node.rule, "stored conclusion term does not match the rule application")
        object.__setattr__(node, "_seal", space)

    failed = d
    try:
        fold(d, check, children=lambda node: [p for p in node.premises if p._seal is not space])
    except CheckError as e:
        # a node is checked at its first place in preorder
        path, _ = next(d.find(lambda n: n is failed))
        raise CheckError(e.rule, e.condition, path) from None
    return d.conclusion


# ---------------------------------------------------------------------------
# Structural moves: substitution, beta reduction, elaboration and generation
# arrange contexts only through these


def reorder(space: ModeSpace, d: Derivation, names: tuple[str, ...]) -> Derivation:
    """Exchange the conclusion context into the given name order; `d`
    itself when it is already in that order."""
    current = d.conclusion.names()
    if current == names:
        return d
    if sorted(current) != sorted(names):
        raise InputError(f"cannot reorder {current} into {names}")
    at = {x: i for i, x in enumerate(current)}
    return mk_exchange(space, d, tuple(map(at.__getitem__, names)))


def move_to_end(space: ModeSpace, d: Derivation, *names: str) -> Derivation:
    """Exchange the named entries (one, or a pair about to be contracted)
    to the end of the context, in the given order."""
    rest = tuple(x for x in d.conclusion.names() if x not in names)
    return reorder(space, d, rest + names)


def lift_last(space: ModeSpace, d: Derivation, target: GradeValue) -> Derivation:
    """Raise the final entry's grade to `target` with a one-entry subsumption."""
    c = d.conclusion
    have = c.rho[-1].value
    if have == target:
        return d
    if not space.mode(c.modes[-1]).algebra.leq(have, target):
        raise ElaborationError(
            f"variable {c.ctx[-1][0]!r} is used at grade {have!r}, "
            f"which is not <= the required grade {target!r}"
        )
    return mk_sub(space, d, tuple(g.value for g in c.rho[:-1]) + (target,))


# ---------------------------------------------------------------------------
# Elaboration: best-effort, syntax-directed


def _weaken_in(space: ModeSpace, d: Derivation, name: str, ty: Type) -> Derivation:
    n = mode_of(ty)
    if not space.mode(n).weak:
        raise ElaborationError(f"unused variable {name!r} needs Weak({n}), which is false")
    if not space.leq(d.conclusion.mode, n):
        raise ElaborationError(f"cannot weaken {name!r}: {d.conclusion.mode} <= {n} fails")
    return mk_weak(space, d, name, ty)


def _bind_last(space: ModeSpace, d: Derivation, name: str, ty: Type, target: GradeValue) -> Derivation:
    """Arrange `name` (weakening it in if unused) last, at exactly `target`."""
    if name in d.conclusion.names():
        d = move_to_end(space, d, name)
    else:
        d = _weaken_in(space, d, name, ty)
    return lift_last(space, d, target)


def _merge(space: ModeSpace, combine, left: Derivation, right_term: Term,
           want: Type | None, mode: str, env: dict[str, Type], env_names: list[str],
           exclude: frozenset[str] = frozenset()) -> Derivation:
    """Elaborate the right subterm against `want` at `mode`, renaming shared
    variables apart, apply the two-premise rule, contract the shared
    variables back together, and put the context in environment order.

    `exclude` lists bound names of the left premise, which are consumed by
    the rule and never contracted.
    """
    shared = sorted((set(left.conclusion.names()) & free_vars(right_term)) - exclude)
    renaming: dict[str, str] = {}
    avoid = set(env_names) | set(left.conclusion.names()) | free_vars(right_term)
    term2 = right_term
    for x in shared:
        renaming[x] = x2 = fresh_name(avoid, x + "_dup")
        avoid.add(x2)
        term2 = subst(term2, {x: Var(x2)})
    env2 = {**env, **{new: env[old] for old, new in renaming.items()}}
    right = _elab(space, term2, want, mode, env2, env_names + list(renaming.values()))
    d = combine(left, right)
    for x in shared:
        d = move_to_end(space, d, x, renaming[x])
        d = _lift_into_cont(space, d, x)
        d = mk_cont(space, d, x)
    present = d.conclusion.names()
    desired = tuple(y for y in env_names if y in present)
    return reorder(space, d, desired + tuple(y for y in present if y not in desired))


def _lift_into_cont(space: ModeSpace, d: Derivation, x: str) -> Derivation:
    """Raise the last two grades into the contraction ideal by subsumption
    where the preorder allows; a variable whose use cannot reach the ideal
    is not contractible."""
    c = d.conclusion
    n = c.modes[-1]
    alg = space.mode(n).algebra
    ideal = space.mode(n).cont
    targets = []
    for g in (c.rho[-2], c.rho[-1]):
        if ideal.contains(g.value):
            targets.append(g.value)
            continue
        candidates = [v for v in alg.elements() if ideal.contains(v) and alg.leq(g.value, v)]
        if not candidates:
            raise ElaborationError(
                f"variable {x!r} occurs in both halves with grades "
                f"({c.rho[-2].value!r}, {c.rho[-1].value!r}) not in Cont({n})"
            )
        targets.append(candidates[0])
    if tuple(targets) != (c.rho[-2].value, c.rho[-1].value):
        d = mk_sub(space, d, tuple(g.value for g in c.rho[:-2]) + tuple(targets))
    return d


def elaborate(j: Judgment, space: ModeSpace) -> Derivation:
    """Best-effort search for a derivation concluding exactly `j`.

    Failure reports the first unsatisfiable obligation; it is not a proof
    of untypability.
    """
    if not type_wf(j.ty, j.mode, space):
        raise ElaborationError(f"goal type not well-formed at mode {j.mode}")
    if not independence_check(j.modes, j.mode, space):
        raise ElaborationError("goal judgment violates independence")
    env = {x: ty for x, ty in j.ctx}
    d = _elab(space, j.term, j.ty, j.mode, env, list(env))

    # Weaken in the unused entries, then match j's order and grades.
    for name, ty in j.ctx:
        if name not in d.conclusion.names():
            d = _weaken_in(space, d, name, ty)
    d = reorder(space, d, j.names())
    if d.conclusion.rho != j.rho:
        if not vector_leq(d.conclusion.rho, j.rho, j.modes, space):
            bad = next(
                (x, have.value, want.value)
                for (x, _), have, want, n in zip(j.ctx, d.conclusion.rho, j.rho, j.modes)
                if not space.mode(n).algebra.leq(have.value, want.value)
            )
            raise ElaborationError(
                f"variable {bad[0]!r}: synthesized grade {bad[1]!r} is not <= requested {bad[2]!r}"
            )
        d = mk_sub(space, d, tuple(g.value for g in j.rho))
    assert d.conclusion == j or alpha_eq(d.conclusion.term, j.term)
    return d


def _elab(space: ModeSpace, term: Term, expected: Type | None, mode: str,
          env: dict[str, Type], env_names: list[str]) -> Derivation:
    """Bidirectional elaboration: synthesize when `expected` is None, check
    otherwise.  Checked constructors push the ascription inward; everything
    else synthesizes and compares."""
    match term:
        case Lam(x, body):
            if not isinstance(expected, TFun):
                raise ElaborationError("lambda needs an arrow ascription")
            env2 = {**env, x: expected.arg}
            d = _elab(space, body, expected.body, mode, env2, env_names + [x])
            d = _bind_last(space, d, x, expected.arg, expected.grade.value)
            return mk_arrowI(space, d)
        case Inl(body):
            if not isinstance(expected, TSum):
                raise ElaborationError("inl needs a sum ascription")
            d = _elab(space, body, expected.left, mode, env, env_names)
            return mk_sumIL(space, d, expected.right)
        case Inr(body):
            if not isinstance(expected, TSum):
                raise ElaborationError("inr needs a sum ascription")
            d = _elab(space, body, expected.right, mode, env, env_names)
            return mk_sumIR(space, d, expected.left)
        case Var(x):
            if x not in env:
                raise ElaborationError(f"unbound variable {x!r}")
            ty = env[x]
            if mode_of(ty) != mode:
                raise ElaborationError(f"variable {x!r} lives at mode {mode_of(ty)}, not {mode}")
            return _check_expected(mk_var(space, x, ty), expected)
        case Star(m):
            if m != mode:
                raise ElaborationError(f"unit term at mode {m}, judged at {mode}")
            return _check_expected(mk_unitI(space, m), expected)
        case Pair(left, right):
            want_l = expected.left if isinstance(expected, TTensor) else None
            want_r = expected.right if isinstance(expected, TTensor) else None
            if expected is not None and not isinstance(expected, TTensor):
                raise ElaborationError("pair against a non-tensor ascription")
            d_left = _elab(space, left, want_l, mode, env, env_names)
            return _merge(space, lambda l, r: mk_pairI(space, l, r), d_left, right,
                          want_r, mode, env, env_names)
        case App(fn, arg):
            d_fn = _elab(space, fn, None, mode, env, env_names)
            fun_ty = d_fn.conclusion.ty
            if not isinstance(fun_ty, TFun):
                raise ElaborationError("application head does not have an arrow type")
            out = _merge(space, lambda l, r: mk_arrowE(space, l, r), d_fn, arg,
                         fun_ty.arg, mode_of(fun_ty.arg), env, env_names)
            return _check_expected(out, expected)
        case LetStar(q, scrutinee, body):
            d_body = _elab(space, body, expected, mode, env, env_names)
            return _merge(space, lambda l, r: mk_unitE(space, q, l, r), d_body, scrutinee,
                          TUnit(mode), mode, env, env_names)
        case LetPair(q, x1, x2, scrutinee, body):
            d_scrut = _elab(space, scrutinee, None, mode, env, env_names)
            pair_ty = d_scrut.conclusion.ty
            if not isinstance(pair_ty, TTensor):
                raise ElaborationError("pair-let scrutinee does not have a tensor type")
            n = d_scrut.conclusion.mode
            env2 = {**env, x1: pair_ty.left, x2: pair_ty.right}
            d_body = _elab(space, body, expected, mode, env2, env_names + [x1, x2])
            d_body = _bind_last(space, d_body, x1, pair_ty.left, q)
            d_body = _bind_last(space, d_body, x2, pair_ty.right, q)
            d_body = move_to_end(space, d_body, x1, x2)
            return _merge(space, lambda l, r: mk_pairE(space, l, r), d_body, scrutinee,
                          pair_ty, n, env, env_names, exclude=frozenset({x1, x2}))
        case Case(q, scrutinee, x1, t1, x2, t2):
            d_scrut = _elab(space, scrutinee, None, mode, env, env_names)
            sum_ty = d_scrut.conclusion.ty
            if not isinstance(sum_ty, TSum):
                raise ElaborationError("case scrutinee does not have a sum type")
            n = d_scrut.conclusion.mode
            d1 = _elab(space, t1, expected, mode, {**env, x1: sum_ty.left}, env_names + [x1])
            d1 = _bind_last(space, d1, x1, sum_ty.left, q)
            d2 = _elab(
                space, t2, d1.conclusion.ty, mode, {**env, x2: sum_ty.right}, env_names + [x2]
            )
            d2 = _bind_last(space, d2, x2, sum_ty.right, q)
            d1, d2 = _align_branches(space, d1, d2, x1, x2, env, env_names)
            return _merge(space, lambda l, r: mk_sumE(space, l, d2, r), d1, scrutinee,
                          sum_ty, n, env, env_names, exclude=frozenset({x1}))
        case DropTm(q, low, high, body):
            if low != mode:
                raise ElaborationError(f"drop term at mode {low}, judged at {mode}")
            want = None
            if expected is not None:
                if (not isinstance(expected, TDrop)
                        or (expected.grade.value, expected.low, expected.high) != (q, low, high)):
                    raise ElaborationError("drop term against a mismatched ascription")
                want = expected.body
            d = _elab(space, body, want, high, env, env_names)
            return mk_dropI(space, d, q, low)
        case LetDrop(q, low, high, x, scrutinee, body):
            d_scrut = _elab(space, scrutinee, None, low, env, env_names)
            drop_ty = d_scrut.conclusion.ty
            if not isinstance(drop_ty, TDrop):
                raise ElaborationError("drop-let scrutinee does not have a drop type")
            if (drop_ty.grade.value, drop_ty.low, drop_ty.high) != (q, low, high):
                raise ElaborationError("drop-let annotation does not match the scrutinee type")
            env2 = {**env, x: drop_ty.body}
            d_body = _elab(space, body, expected, mode, env2, env_names + [x])
            d_body = _bind_last(space, d_body, x, drop_ty.body, q)
            return _merge(space, lambda l, r: mk_dropE(space, l, r), d_body, scrutinee,
                          drop_ty, low, env, env_names, exclude=frozenset({x}))
        case RaiseTm(low, high, body):
            if high != mode:
                raise ElaborationError(f"raise term at mode {high}, judged at {mode}")
            want = None
            if expected is not None:
                if not isinstance(expected, TRaise) or (expected.low, expected.high) != (low, high):
                    raise ElaborationError("raise term against a mismatched ascription")
                want = expected.body
            d = _elab(space, body, want, low, env, env_names)
            return mk_raiseI(space, d, high)
        case UnraiseTm(low, high, body):
            want = TRaise(low, high, expected) if expected is not None else None
            d = _elab(space, body, want, high, env, env_names)
            ty = d.conclusion.ty
            if not isinstance(ty, TRaise) or (ty.low, ty.high) != (low, high):
                raise ElaborationError("unraise body does not have the matching raise type")
            return mk_raiseE(space, d)
    raise ElaborationError(f"unsupported term {term!r}")


def _check_expected(d: Derivation, expected: Type | None) -> Derivation:
    if expected is not None and d.conclusion.ty != expected:
        raise ElaborationError(
            f"synthesized type {d.conclusion.ty} differs from the ascription {expected}"
        )
    return d


def _align_branches(space, d1, d2, x1, x2, env, env_names):
    """Give both case branches the same shared context and grades."""
    shared1 = tuple(x for x in d1.conclusion.names() if x != x1)
    shared2 = tuple(x for x in d2.conclusion.names() if x != x2)
    for x in shared1:
        if x not in shared2:
            ty = env[x]
            d2 = _bind_last(space, d2, x, ty, space.mode(mode_of(ty)).algebra.zero)
            d2 = move_to_end(space, d2, x2)
    for x in shared2:
        if x not in shared1:
            ty = env[x]
            d1 = _bind_last(space, d1, x, ty, space.mode(mode_of(ty)).algebra.zero)
            d1 = move_to_end(space, d1, x1)
    order = tuple(x for x in env_names if x in d1.conclusion.names() and x != x1)
    d1 = reorder(space, d1, order + (x1,))
    d2 = reorder(space, d2, order + (x2,))
    rho1, rho2 = d1.conclusion.rho[:-1], d2.conclusion.rho[:-1]
    if rho1 != rho2:
        out1, out2 = [], []
        for g1, g2, n in zip(rho1, rho2, d1.conclusion.modes[:-1]):
            alg = space.mode(n).algebra
            if g1 == g2:
                out1.append(g1.value), out2.append(g2.value)
            elif alg.leq(g1.value, g2.value):
                out1.append(g2.value), out2.append(g2.value)
            elif alg.leq(g2.value, g1.value):
                out1.append(g1.value), out2.append(g1.value)
            else:
                raise ElaborationError(
                    f"case branches use a variable at incomparable grades {g1.value!r}, {g2.value!r}"
                )
        d1 = mk_sub(space, d1, tuple(out1) + (d1.conclusion.rho[-1].value,))
        d2 = mk_sub(space, d2, tuple(out2) + (d2.conclusion.rho[-1].value,))
    return d1, d2
