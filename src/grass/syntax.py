"""Object-language types and terms, well-formedness, and term utilities.

Binders are named; alpha-equivalence is the term equality used everywhere.
Capture-avoiding simultaneous substitution lives here so the rewrite
machinery and its independent oracle can share one implementation surface
while being tested against a de Bruijn conversion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .grades import Grade, GradeValue
from .modespace import ModeSpace

# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Type:
    pass


@dataclass(frozen=True)
class TUnit(Type):
    mode: str


@dataclass(frozen=True)
class TBase(Type):
    name: str
    mode: str


@dataclass(frozen=True)
class TTensor(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class TSum(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class TFun(Type):
    # argument used at `grade`, drawn from the argument type's mode
    arg: Type
    grade: Grade
    body: Type


@dataclass(frozen=True)
class TDrop(Type):
    grade: Grade
    low: str   # the mode the type lives at
    high: str  # the mode of the wrapped type
    body: Type


@dataclass(frozen=True)
class TRaise(Type):
    low: str   # the mode of the wrapped type
    high: str  # the mode the type lives at
    body: Type


def mode_of(ty: Type) -> str:
    """The unique mode a type belongs to, read off its root annotation."""
    match ty:
        case TUnit(mode) | TBase(_, mode):
            return mode
        case TTensor(left, _) | TSum(left, _):
            return mode_of(left)
        case TFun(_, _, body):
            return mode_of(body)
        case TDrop(_, low, _, _):
            return low
        case TRaise(_, high, _):
            return high
    raise InputError(f"not a type: {ty!r}")


def type_wf(ty: Type, m: str, space: ModeSpace) -> bool:
    """Derivability of `ty` as a type of mode m."""
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


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Lam(Term):
    name: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Star(Term):
    mode: str


@dataclass(frozen=True)
class LetStar(Term):
    grade: GradeValue
    scrutinee: Term
    body: Term


@dataclass(frozen=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class LetPair(Term):
    grade: GradeValue
    left_name: str
    right_name: str
    scrutinee: Term
    body: Term


@dataclass(frozen=True)
class Inl(Term):
    body: Term


@dataclass(frozen=True)
class Inr(Term):
    body: Term


@dataclass(frozen=True)
class Case(Term):
    grade: GradeValue
    scrutinee: Term
    left_name: str
    left_body: Term
    right_name: str
    right_body: Term


@dataclass(frozen=True)
class DropTm(Term):
    grade: GradeValue
    low: str
    high: str
    body: Term


@dataclass(frozen=True)
class LetDrop(Term):
    grade: GradeValue
    low: str
    high: str
    name: str
    scrutinee: Term
    body: Term


@dataclass(frozen=True)
class RaiseTm(Term):
    low: str
    high: str
    body: Term


@dataclass(frozen=True)
class UnraiseTm(Term):
    low: str
    high: str
    body: Term


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(x):
            return frozenset({x})
        case Lam(x, body):
            return free_vars(body) - {x}
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case Star():
            return frozenset()
        case LetStar(_, scrutinee, body):
            return free_vars(scrutinee) | free_vars(body)
        case Pair(left, right):
            return free_vars(left) | free_vars(right)
        case LetPair(_, x1, x2, scrutinee, body):
            return free_vars(scrutinee) | (free_vars(body) - {x1, x2})
        case Inl(body) | Inr(body):
            return free_vars(body)
        case Case(_, scrutinee, x1, t1, x2, t2):
            return free_vars(scrutinee) | (free_vars(t1) - {x1}) | (free_vars(t2) - {x2})
        case DropTm(_, _, _, body):
            return free_vars(body)
        case LetDrop(_, _, _, x, scrutinee, body):
            return free_vars(scrutinee) | (free_vars(body) - {x})
        case RaiseTm(_, _, body) | UnraiseTm(_, _, body):
            return free_vars(body)
    raise InputError(f"not a term: {t!r}")


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
    """Capture-avoiding simultaneous substitution."""
    mapping = {x: e for x, e in mapping.items() if e != Var(x)}
    if not mapping:
        return t
    avoid = set().union(*(free_vars(e) for e in mapping.values())) | set(mapping)

    def go(t: Term, mapping: dict[str, Term]) -> Term:
        match t:
            case Var(x):
                return mapping.get(x, t)
            case Lam(x, body):
                x2, body = _freshen_binder(x, body, mapping, avoid)
                return Lam(x2, go(body, mapping))
            case App(fn, arg):
                return App(go(fn, mapping), go(arg, mapping))
            case Star():
                return t
            case LetStar(q, scrutinee, body):
                return LetStar(q, go(scrutinee, mapping), go(body, mapping))
            case Pair(left, right):
                return Pair(go(left, mapping), go(right, mapping))
            case LetPair(q, x1, x2, scrutinee, body):
                scrutinee = go(scrutinee, mapping)
                y1, body = _freshen_binder(x1, body, mapping, avoid | {x2})
                y2, body = _freshen_binder(x2, body, mapping, avoid | {y1})
                return LetPair(q, y1, y2, scrutinee, go(body, mapping))
            case Inl(body):
                return Inl(go(body, mapping))
            case Inr(body):
                return Inr(go(body, mapping))
            case Case(q, scrutinee, x1, t1, x2, t2):
                scrutinee = go(scrutinee, mapping)
                y1, t1 = _freshen_binder(x1, t1, mapping, avoid)
                y2, t2 = _freshen_binder(x2, t2, mapping, avoid)
                return Case(q, scrutinee, y1, go(t1, mapping), y2, go(t2, mapping))
            case DropTm(q, low, high, body):
                return DropTm(q, low, high, go(body, mapping))
            case LetDrop(q, low, high, x, scrutinee, body):
                scrutinee = go(scrutinee, mapping)
                y, body = _freshen_binder(x, body, mapping, avoid)
                return LetDrop(q, low, high, y, scrutinee, go(body, mapping))
            case RaiseTm(low, high, body):
                return RaiseTm(low, high, go(body, mapping))
            case UnraiseTm(low, high, body):
                return UnraiseTm(low, high, go(body, mapping))
        raise InputError(f"not a term: {t!r}")

    return go(t, mapping)


def _freshen_binder(x: str, body: Term, mapping: dict[str, Term], avoid: set[str]):
    """Rename a binder when it would capture or be substituted."""
    needs_rename = x in avoid
    if not needs_rename:
        return x, body
    x2 = fresh_name(avoid | free_vars(body), x)
    return x2, subst(body, {x: Var(x2)})


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Equality up to consistent renaming of bound variables."""

    def go(a: Term, b: Term, env1: dict[str, int], env2: dict[str, int], depth: int) -> bool:
        # one term object under equal binder environments: no need to descend
        if a is b and env1 == env2:
            return True
        if type(a) is not type(b):
            return False
        match a, b:
            case Var(x), Var(y):
                bx, by = env1.get(x), env2.get(y)
                if bx is None and by is None:
                    return x == y
                return bx == by
            case Lam(x, body_a), Lam(y, body_b):
                return go(body_a, body_b, {**env1, x: depth}, {**env2, y: depth}, depth + 1)
            case App(f1, a1), App(f2, a2):
                return go(f1, f2, env1, env2, depth) and go(a1, a2, env1, env2, depth)
            case Star(m1), Star(m2):
                return m1 == m2
            case LetStar(q1, s1, b1), LetStar(q2, s2, b2):
                return q1 == q2 and go(s1, s2, env1, env2, depth) and go(b1, b2, env1, env2, depth)
            case Pair(l1, r1), Pair(l2, r2):
                return go(l1, l2, env1, env2, depth) and go(r1, r2, env1, env2, depth)
            case LetPair(q1, x1, y1, s1, b1), LetPair(q2, x2, y2, s2, b2):
                if q1 != q2 or not go(s1, s2, env1, env2, depth):
                    return False
                e1 = {**env1, x1: depth, y1: depth + 1}
                e2 = {**env2, x2: depth, y2: depth + 1}
                return go(b1, b2, e1, e2, depth + 2)
            case Inl(b1), Inl(b2):
                return go(b1, b2, env1, env2, depth)
            case Inr(b1), Inr(b2):
                return go(b1, b2, env1, env2, depth)
            case Case(q1, s1, x1, l1, y1, r1), Case(q2, s2, x2, l2, y2, r2):
                if q1 != q2 or not go(s1, s2, env1, env2, depth):
                    return False
                if not go(l1, l2, {**env1, x1: depth}, {**env2, x2: depth}, depth + 1):
                    return False
                return go(r1, r2, {**env1, y1: depth}, {**env2, y2: depth}, depth + 1)
            case DropTm(q1, lo1, hi1, b1), DropTm(q2, lo2, hi2, b2):
                return (q1, lo1, hi1) == (q2, lo2, hi2) and go(b1, b2, env1, env2, depth)
            case LetDrop(q1, lo1, hi1, x1, s1, b1), LetDrop(q2, lo2, hi2, x2, s2, b2):
                if (q1, lo1, hi1) != (q2, lo2, hi2) or not go(s1, s2, env1, env2, depth):
                    return False
                return go(b1, b2, {**env1, x1: depth}, {**env2, x2: depth}, depth + 1)
            case RaiseTm(lo1, hi1, b1), RaiseTm(lo2, hi2, b2):
                return (lo1, hi1) == (lo2, hi2) and go(b1, b2, env1, env2, depth)
            case UnraiseTm(lo1, hi1, b1), UnraiseTm(lo2, hi2, b2):
                return (lo1, hi1) == (lo2, hi2) and go(b1, b2, env1, env2, depth)
        return False

    return go(t1, t2, {}, {}, 0)


# ---------------------------------------------------------------------------
# Contexts and judgments

ContextEntry = tuple[str, Type]
Context = tuple[ContextEntry, ...]


@dataclass(frozen=True)
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
