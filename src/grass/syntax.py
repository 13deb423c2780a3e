"""Object-language types and terms, well-formedness, and term utilities.

Types are hash-consed: one object per distinct type value, so they compare
by identity, and `mode_of` reads the root mode each stores.  `type_wf`'s
answers are memoized per `ModeSpace`, in its `wf_memo`.

Binders are named; alpha-equivalence is the term equality used everywhere.
`TERMS` is the binding signature of the term formers: free variables,
capture-avoiding simultaneous substitution and alpha-equivalence are each
one traversal over it, tested against a de Bruijn conversion in `oracles`.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass

from .errors import InputError
from .grades import Grade, GradeValue
from .modespace import ModeSpace

# ---------------------------------------------------------------------------
# Types


class _HashConsed(type):
    """Metaclass of the type formers: one object per distinct type value, found
    in the weak-valued `_TYPES` by former, fields and each field's class (a
    grade's, its value's: `1` and `True` stay apart).  So types compare by
    identity, and each stores its root mode, read from its children once."""

    def __call__(cls, *args, **kwargs):
        if kwargs:
            rest = cls.__match_args__[len(args):]
            if kwargs.keys() != set(rest):
                return super().__call__(*args, **kwargs)  # raises the dataclass's TypeError
            args += tuple(kwargs[f] for f in rest)
        key = (cls, *args, *[type(getattr(f, "value", f)) for f in args])
        ty = _TYPES.get(key)
        if ty is None:
            with _BUILD:  # two threads building one value get one object
                ty = _TYPES.get(key)
                if ty is None:
                    ty = super().__call__(*args)
                    object.__setattr__(ty, "_mode", _root_mode(ty))
                    _TYPES[key] = ty
        return ty


_TYPES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_BUILD = threading.Lock()


@dataclass(frozen=True, eq=False)
class Type(metaclass=_HashConsed):
    __slots__ = ("_mode", "__weakref__")

    def __reduce__(self):  # pickle and copy rebuild through the table
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __deepcopy__(self, memo):
        return self


@dataclass(frozen=True, eq=False, slots=True)
class TUnit(Type):
    mode: str


@dataclass(frozen=True, eq=False, slots=True)
class TBase(Type):
    name: str
    mode: str


@dataclass(frozen=True, eq=False, slots=True)
class TTensor(Type):
    left: Type
    right: Type


@dataclass(frozen=True, eq=False, slots=True)
class TSum(Type):
    left: Type
    right: Type


@dataclass(frozen=True, eq=False, slots=True)
class TFun(Type):
    # argument used at `grade`, drawn from the argument type's mode
    arg: Type
    grade: Grade
    body: Type


@dataclass(frozen=True, eq=False, slots=True)
class TDrop(Type):
    grade: Grade
    low: str   # the mode the type lives at
    high: str  # the mode of the wrapped type
    body: Type


@dataclass(frozen=True, eq=False, slots=True)
class TRaise(Type):
    low: str   # the mode of the wrapped type
    high: str  # the mode the type lives at
    body: Type


def _root_mode(ty: Type) -> str | None:
    match ty:
        case TUnit(mode) | TBase(_, mode) | TDrop(_, mode, _, _) | TRaise(_, mode, _):
            return mode
        case TTensor(part, _) | TSum(part, _) | TFun(_, _, part):
            return getattr(part, "_mode", None)
    return None


def mode_of(ty: Type) -> str:
    """The unique mode a type belongs to, read off its root annotation."""
    if (mode := getattr(ty, "_mode", None)) is None:
        raise InputError(f"not a type: {ty!r}")
    return mode


def type_wf(ty: Type, m: str, space: ModeSpace) -> bool:
    """Derivability of `ty` as a type of mode m, memoized on the space."""
    if not isinstance(ty, Type):
        raise InputError(f"not a type: {ty!r}")
    memo = space.wf_memo
    ok = memo.get((ty, m))
    if ok is None:
        ok = memo[ty, m] = _type_wf(ty, m, space)
    return ok


def _type_wf(ty: Type, m: str, space: ModeSpace) -> bool:
    match ty:
        case TUnit(mode):
            return mode == m and m in space.modes
        case TBase(name, mode):
            declared = space.base_types.get(name)
            if declared is None:
                raise InputError(f"unknown base type {name!r}")
            return declared == mode == m
        case TTensor(left, right) | TSum(left, right):
            return type_wf(left, m, space) and type_wf(right, m, space)
        case TFun(arg, grade, body):
            arg_mode = mode_of(arg)
            return (
                space.leq(m, arg_mode)
                and grade.algebra == space.mode(arg_mode).algebra.id
                and space.mode(arg_mode).algebra.contains(grade.value)
                and type_wf(arg, arg_mode, space)
                and type_wf(body, m, space)
            )
        case TDrop(grade, low, high, body):
            return (
                low == m
                and space.leq(low, high)
                and grade.algebra == space.mode(high).algebra.id
                and space.mode(high).algebra.contains(grade.value)
                and type_wf(body, high, space)
            )
        case TRaise(low, high, body):
            return high == m and space.leq(low, high) and type_wf(body, low, space)
    raise InputError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Lam(Term):
    name: str
    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Star(Term):
    mode: str


@dataclass(frozen=True, slots=True)
class LetStar(Term):
    grade: GradeValue
    scrutinee: Term
    body: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class LetPair(Term):
    grade: GradeValue
    left_name: str
    right_name: str
    scrutinee: Term
    body: Term


@dataclass(frozen=True, slots=True)
class Inl(Term):
    body: Term


@dataclass(frozen=True, slots=True)
class Inr(Term):
    body: Term


@dataclass(frozen=True, slots=True)
class Case(Term):
    grade: GradeValue
    scrutinee: Term
    left_name: str
    left_body: Term
    right_name: str
    right_body: Term


@dataclass(frozen=True, slots=True)
class DropTm(Term):
    grade: GradeValue
    low: str
    high: str
    body: Term


@dataclass(frozen=True, slots=True)
class LetDrop(Term):
    grade: GradeValue
    low: str
    high: str
    name: str
    scrutinee: Term
    body: Term


@dataclass(frozen=True, slots=True)
class RaiseTm(Term):
    low: str
    high: str
    body: Term


@dataclass(frozen=True, slots=True)
class UnraiseTm(Term):
    low: str
    high: str
    body: Term


# ---------------------------------------------------------------------------
# The binding signature of the term formers

# Every term former but Var, with the kinds of its fields in declaration
# order: "name" is a binder, "grade" and "mode" are data, and a tuple is a
# subterm, listing the indices of the binder fields in scope there (of two
# equal ones, the later binds).  free_vars, subst, alpha_eq and sexpr read it.
TERMS: dict[type, tuple] = {
    Lam: ("name", (0,)),
    App: ((), ()),
    Star: ("mode",),
    LetStar: ("grade", (), ()),
    Pair: ((), ()),
    LetPair: ("grade", "name", "name", (), (1, 2)),
    Inl: ((),),
    Inr: ((),),
    Case: ("grade", (), "name", (2,), "name", (4,)),
    DropTm: ("grade", "mode", "mode", ()),
    LetDrop: ("grade", "mode", "mode", "name", (), (3,)),
    RaiseTm: ("mode", "mode", ()),
    UnraiseTm: ("mode", "mode", ()),
}


def _layout(cls: type):
    """The former's fields, its data fields, its subterm fields under no
    binder, and its other subterm fields, each with the binders in scope."""
    sig = list(zip(cls.__match_args__, TERMS[cls]))
    return (cls.__match_args__,
            tuple(n for n, k in sig if k in ("grade", "mode")),
            tuple(n for n, k in sig if k == ()),
            tuple((n, tuple(sig[i][0] for i in k)) for n, k in sig if isinstance(k, tuple) and k))


_LAYOUT = {cls: _layout(cls) for cls in TERMS}


def free_vars(t: Term) -> frozenset[str]:
    if type(t) is Var:
        return frozenset({t.name})
    layout = _LAYOUT.get(type(t))
    if layout is None:
        raise InputError(f"not a term: {t!r}")
    _, _, free, bound = layout
    out = frozenset().union(*[free_vars(getattr(t, x)) for x in free])
    for x, scope in bound:
        out |= free_vars(getattr(t, x)).difference([getattr(t, b) for b in scope])
    return out


_FRESH = itertools.count()


def fresh_name(avoid: frozenset[str] | set[str], stem: str = "v") -> str:
    stem = stem.rstrip("0123456789'") or "v"
    if stem not in avoid:
        return stem
    for _ in range(10_000):
        candidate = f"{stem}{next(_FRESH)}"
        if candidate not in avoid:
            return candidate
    raise InputError("could not generate a fresh name")


def subst(t: Term, mapping: dict[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution.  Fresh names are drawn
    for the binders in field order, after the subterms under no binder are
    substituted and before the subterms under a binder are."""
    mapping = {x: e for x, e in mapping.items() if e != Var(x)}
    if not mapping:
        return t
    avoid = set().union(*(free_vars(e) for e in mapping.values())) | set(mapping)

    def go(t: Term) -> Term:
        cls = type(t)
        if cls is Var:
            return mapping.get(t.name, t)
        layout = _LAYOUT.get(cls)
        if layout is None:
            raise InputError(f"not a term: {t!r}")
        names, _, free, bound = layout
        f = {n: getattr(t, n) for n in names}
        for x in free:
            f[x] = go(f[x])
        for x, scope in bound:
            _freshen_binders(f, x, scope, avoid)
        for x, _ in bound:
            f[x] = go(f[x])
        return cls(**f)

    return go(t)


def _freshen_binders(f: dict, x: str, scope: tuple[str, ...], avoid: set[str]) -> None:
    """Rename each binder of the subterm f[x] that could capture, be substituted or clash."""
    names = [f[b] for b in scope]
    for j, name in enumerate(names):
        others = names[:j] + names[j + 1:]
        if name in avoid or name in others:
            names[j] = fresh_name(avoid.union(others, free_vars(f[x])), name)
            if name not in names[j + 1:]:  # else a later binder binds it
                f[x] = subst(f[x], {name: Var(names[j])})
    f.update(zip(scope, names))


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Equality up to consistent renaming of bound variables."""

    def go(a: Term, b: Term, env1: dict[str, int], env2: dict[str, int], depth: int) -> bool:
        # one term object under equal binder environments: no need to descend
        if a is b and env1 == env2:
            return True
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Var:
            bx, by = env1.get(a.name), env2.get(b.name)
            if bx is None and by is None:
                return a.name == b.name
            return bx == by
        layout = _LAYOUT.get(cls)
        if layout is None:
            return False
        _, data, free, bound = layout
        for x in data:
            if getattr(a, x) != getattr(b, x):
                return False
        for x in free:
            if not go(getattr(a, x), getattr(b, x), env1, env2, depth):
                return False
        for x, scope in bound:
            e1, e2 = dict(env1), dict(env2)
            for d, binder in enumerate(scope, depth):
                e1[getattr(a, binder)] = e2[getattr(b, binder)] = d
            if not go(getattr(a, x), getattr(b, x), e1, e2, depth + len(scope)):
                return False
        return True

    return go(t1, t2, {}, {}, 0)


# ---------------------------------------------------------------------------
# Contexts and judgments

ContextEntry = tuple[str, Type]
Context = tuple[ContextEntry, ...]


@dataclass(frozen=True, slots=True)
class Judgment:
    """rho | M (.) Gamma |-_mode term : ty"""

    rho: tuple[Grade, ...]
    modes: tuple[str, ...]
    ctx: Context
    mode: str
    term: Term
    ty: Type

    def __post_init__(self):
        if not (len(self.rho) == len(self.modes) == len(self.ctx)):
            raise InputError("judgment vectors and context must have equal length")
        names = [x for x, _ in self.ctx]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate context variables: {names}")

    def names(self) -> tuple[str, ...]:
        return tuple(x for x, _ in self.ctx)

    def shape(self):
        """Everything but the term: what type preservation must keep fixed."""
        return (self.rho, self.modes, self.ctx, self.mode, self.ty)
