"""S-expression serialization for types, terms, and derivations.

The derivation form is canonical: ``(rule payload... premises...)`` with
conclusions recomputed on parse, so a parsed tree is valid by
construction.  Annotated heads follow the surface spellings
``I@m``, ``-o{q:m}``, ``down{q,n<=m}``, ``up{m<=n}``, ``let*@q`` and so on.

Input nested more than MAX_DEPTH parentheses deep, or too deep for the
recursive tree readers, raises NestingError (a ParseError) with the
message "input nested too deeply", never RecursionError.
"""

from __future__ import annotations

import re

from .derivation import Derivation, rebuild
from .errors import NestingError, ParseError
from .grades import Grade, GradeValue
from .modespace import ModeSpace
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
    TBase,
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
    mode_of,
)

_TOKEN = re.compile(r"""\(|\)|[^\s()]+""")


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text)


MAX_DEPTH = 1000


def read_sexpr(text: str):
    """One s-expression as nested lists of atom strings."""
    stack: list[list] = [[]]  # the open lists, outermost first
    for tok in tokenize(text):
        if len(stack) == 1 and stack[0]:
            raise ParseError("trailing tokens after expression")
        if tok == "(":
            if len(stack) > MAX_DEPTH:
                raise NestingError("input nested too deeply")
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ParseError("unexpected closing parenthesis")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise ParseError("missing closing parenthesis")
    if not stack[0]:
        raise ParseError("unexpected end of input")
    return stack[0][0]


def grade_value(atom: str) -> GradeValue:
    try:
        return int(atom)
    except ValueError:
        return atom


def show_grade(value: GradeValue) -> str:
    return str(value)


# ---------------------------------------------------------------------------
# Types

_FUN_HEAD = re.compile(r"^-o\{(?P<q>[^:{}]+):(?P<m>[^:{}]+)\}$")
_DROP_HEAD = re.compile(r"^down\{(?P<q>[^,{}]+),(?P<n>[^<{}]+)<=(?P<m>[^{}]+)\}$")
_RAISE_HEAD = re.compile(r"^up\{(?P<m>[^<{}]+)<=(?P<n>[^{}]+)\}$")
_UNIT_ATOM = re.compile(r"^I@(?P<m>\S+)$")
_STAR_ATOM = re.compile(r"^\*@(?P<m>\S+)$")


def type_to_sexpr(ty: Type) -> str:
    match ty:
        case TUnit(m):
            return f"I@{m}"
        case TBase(name, _m):
            return name
        case TTensor(a, b):
            return f"(* {type_to_sexpr(a)} {type_to_sexpr(b)})"
        case TSum(a, b):
            return f"(+ {type_to_sexpr(a)} {type_to_sexpr(b)})"
        case TFun(a, g, b):
            return f"(-o{{{show_grade(g.value)}:{mode_of(a)}}} {type_to_sexpr(a)} {type_to_sexpr(b)})"
        case TDrop(g, low, high, a):
            return f"(down{{{show_grade(g.value)},{low}<={high}}} {type_to_sexpr(a)})"
        case TRaise(low, high, a):
            return f"(up{{{low}<={high}}} {type_to_sexpr(a)})"
    raise ParseError(f"not a type: {ty!r}")


def type_from_tree(tree, space: ModeSpace) -> Type:
    if isinstance(tree, str):
        m = _UNIT_ATOM.match(tree)
        if m:
            return TUnit(m.group("m"))
        if tree in space.base_types:
            return TBase(tree, space.base_types[tree])
        raise ParseError(f"unknown type atom {tree!r}")
    if not tree:
        raise ParseError("empty type expression")
    head = tree[0]
    if head == "*":
        _arity_check(tree, 3)
        return TTensor(type_from_tree(tree[1], space), type_from_tree(tree[2], space))
    if head == "+":
        _arity_check(tree, 3)
        return TSum(type_from_tree(tree[1], space), type_from_tree(tree[2], space))
    m = _FUN_HEAD.match(head) if isinstance(head, str) else None
    if m:
        _arity_check(tree, 3)
        arg = type_from_tree(tree[1], space)
        arg_mode = m.group("m")
        alg = space.mode(arg_mode).algebra
        return TFun(arg, Grade(alg.id, grade_value(m.group("q"))),
                    type_from_tree(tree[2], space))
    m = _DROP_HEAD.match(head) if isinstance(head, str) else None
    if m:
        _arity_check(tree, 2)
        high = m.group("m")
        alg = space.mode(high).algebra
        return TDrop(Grade(alg.id, grade_value(m.group("q"))), m.group("n"), high,
                     type_from_tree(tree[1], space))
    m = _RAISE_HEAD.match(head) if isinstance(head, str) else None
    if m:
        _arity_check(tree, 2)
        return TRaise(m.group("m"), m.group("n"), type_from_tree(tree[1], space))
    raise ParseError(f"unknown type form {head!r}")


def _arity_check(tree, n):
    if len(tree) != n:
        raise ParseError(f"form {tree[0]!r} expects {n - 1} arguments")


# ---------------------------------------------------------------------------
# Terms

_LETSTAR_HEAD = re.compile(r"^let\*@(?P<q>\S+)$")
_LETPAIR_HEAD = re.compile(r"^let-pair@(?P<q>\S+)$")
_CASE_HEAD = re.compile(r"^case@(?P<q>\S+)$")
_DROPTM_HEAD = re.compile(r"^drop@(?P<q>[^{]+)\{(?P<n>[^<{}]+)<=(?P<m>[^{}]+)\}$")
_LETDROP_HEAD = re.compile(r"^let-drop@(?P<q>[^{]+)\{(?P<n>[^<{}]+)<=(?P<m>[^{}]+)\}$")
_RAISETM_HEAD = re.compile(r"^raise\{(?P<m>[^<{}]+)<=(?P<n>[^{}]+)\}$")
_UNRAISE_HEAD = re.compile(r"^unraise\{(?P<m>[^<{}]+)<=(?P<n>[^{}]+)\}$")


def term_to_sexpr(t: Term) -> str:
    match t:
        case Var(x):
            return x
        case Lam(x, body):
            return f"(lam {x} {term_to_sexpr(body)})"
        case App(fn, arg):
            return f"(app {term_to_sexpr(fn)} {term_to_sexpr(arg)})"
        case Star(m):
            return f"*@{m}"
        case LetStar(q, s, b):
            return f"(let*@{show_grade(q)} {term_to_sexpr(s)} {term_to_sexpr(b)})"
        case Pair(a, b):
            return f"(pair {term_to_sexpr(a)} {term_to_sexpr(b)})"
        case LetPair(q, x1, x2, s, b):
            return f"(let-pair@{show_grade(q)} {x1} {x2} {term_to_sexpr(s)} {term_to_sexpr(b)})"
        case Inl(b):
            return f"(inl {term_to_sexpr(b)})"
        case Inr(b):
            return f"(inr {term_to_sexpr(b)})"
        case Case(q, s, x1, t1, x2, t2):
            return (f"(case@{show_grade(q)} {term_to_sexpr(s)} "
                    f"({x1} {term_to_sexpr(t1)}) ({x2} {term_to_sexpr(t2)}))")
        case DropTm(q, low, high, b):
            return f"(drop@{show_grade(q)}{{{low}<={high}}} {term_to_sexpr(b)})"
        case LetDrop(q, low, high, x, s, b):
            return (f"(let-drop@{show_grade(q)}{{{low}<={high}}} {x} "
                    f"{term_to_sexpr(s)} {term_to_sexpr(b)})")
        case RaiseTm(low, high, b):
            return f"(raise{{{low}<={high}}} {term_to_sexpr(b)})"
        case UnraiseTm(low, high, b):
            return f"(unraise{{{low}<={high}}} {term_to_sexpr(b)})"
    raise ParseError(f"not a term: {t!r}")


def term_from_tree(tree) -> Term:
    if isinstance(tree, str):
        m = _STAR_ATOM.match(tree)
        if m:
            return Star(m.group("m"))
        return Var(tree)
    if not tree:
        raise ParseError("empty term expression")
    head = tree[0]
    if not isinstance(head, str):
        raise ParseError("term form must start with an atom")
    if head == "lam":
        _arity_check(tree, 3)
        return Lam(_atom(tree[1]), term_from_tree(tree[2]))
    if head == "app":
        _arity_check(tree, 3)
        return App(term_from_tree(tree[1]), term_from_tree(tree[2]))
    if head == "pair":
        _arity_check(tree, 3)
        return Pair(term_from_tree(tree[1]), term_from_tree(tree[2]))
    if head == "inl":
        _arity_check(tree, 2)
        return Inl(term_from_tree(tree[1]))
    if head == "inr":
        _arity_check(tree, 2)
        return Inr(term_from_tree(tree[1]))
    m = _LETSTAR_HEAD.match(head)
    if m:
        _arity_check(tree, 3)
        return LetStar(grade_value(m.group("q")), term_from_tree(tree[1]), term_from_tree(tree[2]))
    m = _LETPAIR_HEAD.match(head)
    if m:
        _arity_check(tree, 5)
        return LetPair(grade_value(m.group("q")), _atom(tree[1]), _atom(tree[2]),
                       term_from_tree(tree[3]), term_from_tree(tree[4]))
    m = _CASE_HEAD.match(head)
    if m:
        _arity_check(tree, 4)
        b1, b2 = tree[2], tree[3]
        if not (isinstance(b1, list) and len(b1) == 2 and isinstance(b2, list) and len(b2) == 2):
            raise ParseError("case branches must look like (x body)")
        return Case(grade_value(m.group("q")), term_from_tree(tree[1]),
                    _atom(b1[0]), term_from_tree(b1[1]), _atom(b2[0]), term_from_tree(b2[1]))
    m = _DROPTM_HEAD.match(head)
    if m:
        _arity_check(tree, 2)
        return DropTm(grade_value(m.group("q")), m.group("n"), m.group("m"),
                      term_from_tree(tree[1]))
    m = _LETDROP_HEAD.match(head)
    if m:
        _arity_check(tree, 4)
        return LetDrop(grade_value(m.group("q")), m.group("n"), m.group("m"),
                       _atom(tree[1]), term_from_tree(tree[2]), term_from_tree(tree[3]))
    m = _RAISETM_HEAD.match(head)
    if m:
        _arity_check(tree, 2)
        return RaiseTm(m.group("m"), m.group("n"), term_from_tree(tree[1]))
    m = _UNRAISE_HEAD.match(head)
    if m:
        _arity_check(tree, 2)
        return UnraiseTm(m.group("m"), m.group("n"), term_from_tree(tree[1]))
    raise ParseError(f"unknown term form {head!r}")


def _atom(tree) -> str:
    if not isinstance(tree, str):
        raise ParseError(f"expected an atom, got {tree!r}")
    return tree


# ---------------------------------------------------------------------------
# Derivations: (rule payload... premises...)


def derivation_to_sexpr(d: Derivation) -> str:
    ps = " ".join(derivation_to_sexpr(p) for p in d.premises)
    pay = _payload_to_sexpr(d)
    inner = " ".join(x for x in (d.rule, pay, ps) if x)
    return f"({inner})"


def _payload_to_sexpr(d: Derivation) -> str:
    r = d.rule
    if r in ("var", "weak"):
        return f"{d.payload[0]} {type_to_sexpr(d.payload[1])}"
    if r == "cont":
        return d.payload[0]
    if r == "sub":
        return "(" + " ".join(show_grade(v) for v in d.payload[0]) + ")"
    if r == "exchange":
        return "(" + " ".join(str(i) for i in d.payload[0]) + ")"
    if r in ("unitI", "raiseI"):
        return d.payload[0]
    if r == "unitE":
        return show_grade(d.payload[0])
    if r in ("sumIL", "sumIR"):
        return type_to_sexpr(d.payload[0])
    if r == "dropI":
        return f"{show_grade(d.payload[0])} {d.payload[1]}"
    return ""


_N_PAYLOAD = {
    "var": 2, "weak": 2, "cont": 1, "sub": 1, "exchange": 1, "unitI": 1,
    "unitE": 1, "arrowI": 0, "arrowE": 0, "pairI": 0, "pairE": 0,
    "sumIL": 1, "sumIR": 1, "sumE": 0, "dropI": 2, "dropE": 0,
    "raiseI": 1, "raiseE": 0,
}


def derivation_from_tree(tree, space: ModeSpace) -> Derivation:
    if not isinstance(tree, list) or not tree or not isinstance(tree[0], str):
        raise ParseError("derivation must be a (rule ...) form")
    rule = tree[0]
    if rule not in _N_PAYLOAD:
        raise ParseError(f"unknown rule {rule!r}")
    np = _N_PAYLOAD[rule]
    raw_payload, raw_premises = tree[1:1 + np], tree[1 + np:]
    if len(raw_payload) != np:
        raise ParseError(f"rule {rule} expects {np} payload items")
    premises = tuple(derivation_from_tree(p, space) for p in raw_premises)
    payload: tuple
    if rule in ("var", "weak"):
        payload = (_atom(raw_payload[0]), type_from_tree(raw_payload[1], space))
    elif rule == "cont":
        payload = (_atom(raw_payload[0]),)
    elif rule == "sub":
        payload = (tuple(grade_value(_atom(v)) for v in raw_payload[0]),)
    elif rule == "exchange":
        payload = (tuple(int(_atom(v)) for v in raw_payload[0]),)
    elif rule in ("unitI", "raiseI"):
        payload = (_atom(raw_payload[0]),)
    elif rule == "unitE":
        payload = (grade_value(_atom(raw_payload[0])),)
    elif rule in ("sumIL", "sumIR"):
        payload = (type_from_tree(raw_payload[0], space),)
    elif rule == "dropI":
        payload = (grade_value(_atom(raw_payload[0])), _atom(raw_payload[1]))
    else:
        payload = ()
    return rebuild(space, rule, premises, payload)


def _from_text(build, text: str, *args):
    """build(tree, *args) for the tree of the text; running out of stack
    in the recursive build is a NestingError."""
    tree = read_sexpr(text)
    try:
        return build(tree, *args)
    except RecursionError:
        raise NestingError("input nested too deeply") from None


def derivation_from_sexpr(text: str, space: ModeSpace) -> Derivation:
    return _from_text(derivation_from_tree, text, space)


def term_from_sexpr(text: str) -> Term:
    return _from_text(term_from_tree, text)


def type_from_sexpr(text: str, space: ModeSpace) -> Type:
    return _from_text(type_from_tree, text, space)


# ---------------------------------------------------------------------------
# Judgment rendering


def show_judgment(j) -> str:
    rho = ", ".join(show_grade(g.value) for g in j.rho)
    modes = ", ".join(j.modes)
    ctx = ", ".join(f"{x}:{type_to_sexpr(ty)}" for x, ty in j.ctx)
    return f"{rho or '.'} | {modes or '.'} (.) {ctx or '.'} |-{j.mode} {term_to_sexpr(j.term)} : {type_to_sexpr(j.ty)}"
