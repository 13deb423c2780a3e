"""S-expression serialization for types, terms, and derivations.

The derivation form is canonical: ``(rule payload... premises...)`` with
conclusions recomputed on parse, so a parsed tree is valid by
construction.  Annotated heads follow the surface spellings
``I@m``, ``-o{q:m}``, ``down{q,n<=m}``, ``up{m<=n}``, ``let*@q`` and so on.

Input nested more than MAX_DEPTH parentheses deep, or too deep for the
recursive type and term readers, raises NestingError (a ParseError) with
the message "input nested too deeply", never RecursionError.
"""

from __future__ import annotations

import re

from .derivation import RULES, Derivation, fold, rebuild
from .errors import NestingError, ParseError
from .grades import Grade, GradeValue
from .modespace import ModeSpace
from .syntax import (
    TERMS,
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
_NATURAL = re.compile(r"0|[1-9][0-9]*")
# group 1 is `natural`'s spelling; the rest is every other one int() accepts
_NUMBER = re.compile(r"(0|[1-9][0-9]*)|\s*[+-]?\d+(?:_\d+)*\s*")


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


def natural(atom, what: str) -> int:
    """An unsigned decimal atom: ASCII digits with no leading zero, or 0."""
    if not (isinstance(atom, str) and _NATURAL.fullmatch(atom)):
        raise ParseError(f"expected {what}, got {atom!r}")
    return int(atom)


def grade_value(atom: str) -> GradeValue:
    """A number is an integer grade only when spelled as `natural` reads it;
    an atom `int` would not read names a grade."""
    number = _NUMBER.fullmatch(atom)
    if number is None:
        return atom
    if number[1] is None:
        natural(atom, "a grade")  # raises: a number spelled another way
    return int(atom)


def show_grade(value: GradeValue) -> str:
    return str(value)


# ---------------------------------------------------------------------------
# Types

_FUN_HEAD = re.compile(r"^-o\{(?P<q>[^:{}]+):(?P<m>[^:{}]+)\}$")
_DROP_HEAD = re.compile(r"^down\{(?P<q>[^,{}]+),(?P<n>[^<{}]+)<=(?P<m>[^{}]+)\}$")
_RAISE_HEAD = re.compile(r"^up\{(?P<m>[^<{}]+)<=(?P<n>[^{}]+)\}$")
_UNIT_ATOM = re.compile(r"^I@(?P<m>\S+)$")


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
# Field kinds and terms


def _atom(tree) -> str:
    if not isinstance(tree, str):
        raise ParseError(f"expected an atom, got {tree!r}")
    return tree


def _list(tree) -> list:
    if not isinstance(tree, list):
        raise ParseError(f"expected a list, got {tree!r}")
    return tree


# one writer and one reader per field kind of derivation.RULES and syntax.TERMS
_WRITE = {
    "name": str,
    "mode": str,
    "type": type_to_sexpr,
    "grade": show_grade,
    "grades": lambda vs: "(" + " ".join(map(show_grade, vs)) + ")",
    "perm": lambda perm: "(" + " ".join(map(str, perm)) + ")",
}
_READ = {  # a term field (name, mode or grade) is read with no mode space
    "name": lambda tree, space=None: _atom(tree),
    "mode": lambda tree, space=None: _atom(tree),
    "type": type_from_tree,
    "grade": lambda tree, space=None: grade_value(_atom(tree)),
    "grades": lambda tree, space: tuple(grade_value(_atom(v)) for v in _list(tree)),
    "perm": lambda tree, space: tuple(natural(v, "a context position") for v in _list(tree)),
}

# former -> (head spelling, head pattern).  Every former declares its grade
# and mode fields first; the head carries them, one "{}" and one pattern
# group each, in order, and a head with no fields is its own pattern.  The
# binders and subterms follow, a case grouping each branch as (x body);
# Star, with no binder or subterm, is an atom.
_SPELLINGS = {
    Lam: ("lam", None),
    App: ("app", None),
    Star: ("*@{}", r"^\*@(?P<m>\S+)$"),
    LetStar: ("let*@{}", r"^let\*@(?P<q>\S+)$"),
    Pair: ("pair", None),
    LetPair: ("let-pair@{}", r"^let-pair@(?P<q>\S+)$"),
    Inl: ("inl", None),
    Inr: ("inr", None),
    Case: ("case@{}", r"^case@(?P<q>\S+)$"),
    DropTm: ("drop@{}{{{}<={}}}", r"^drop@(?P<q>[^{]+)\{(?P<n>[^<{}]+)<=(?P<m>[^{}]+)\}$"),
    LetDrop: ("let-drop@{}{{{}<={}}}", r"^let-drop@(?P<q>[^{]+)\{(?P<n>[^<{}]+)<=(?P<m>[^{}]+)\}$"),
    RaiseTm: ("raise{{{}<={}}}", r"^raise\{(?P<m>[^<{}]+)<=(?P<n>[^{}]+)\}$"),
    UnraiseTm: ("unraise{{{}<={}}}", r"^unraise\{(?P<m>[^<{}]+)<=(?P<n>[^{}]+)\}$"),
}
_PLAIN_HEADS = {head: cls for cls, (head, pattern) in _SPELLINGS.items() if pattern is None}
_HEAD_PATTERNS = {cls: re.compile(pattern) for cls, (_, pattern) in _SPELLINGS.items() if pattern}
_STAR_ATOM = _HEAD_PATTERNS.pop(Star)  # the one former read from an atom


def term_to_sexpr(t: Term) -> str:
    cls = type(t)
    if cls is Var:
        return t.name
    if cls not in _SPELLINGS:
        raise ParseError(f"not a term: {t!r}")
    n_head, writers, _ = _CODEC[cls]
    parts = [w(getattr(t, n)) for w, n in zip(writers, cls.__match_args__)]
    parts[:n_head] = [_SPELLINGS[cls][0].format(*parts[:n_head])]
    if len(parts) == 1:
        return parts[0]
    if cls is Case:
        parts[2:] = [f"({parts[2]} {parts[3]})", f"({parts[4]} {parts[5]})"]
    return "(" + " ".join(parts) + ")"


def term_from_tree(tree) -> Term:
    if isinstance(tree, str):
        m = _STAR_ATOM.match(tree)
        return Star(m.group("m")) if m else Var(tree)
    if not tree:
        raise ParseError("empty term expression")
    head, args = tree[0], tree[1:]
    if not isinstance(head, str):
        raise ParseError("term form must start with an atom")
    cls = _PLAIN_HEADS.get(head)
    if cls is None:
        for cls, pattern in _HEAD_PATTERNS.items():
            m = pattern.match(head)
            if m:
                args[:0] = m.groups()
                break
        else:
            raise ParseError(f"unknown term form {head!r}")
    n_head, _, readers = _CODEC[cls]
    _arity_check(tree, 4 if cls is Case else 1 + len(readers) - n_head)
    if cls is Case:
        b1, b2 = args[2:]
        if not (isinstance(b1, list) and len(b1) == 2 and isinstance(b2, list) and len(b2) == 2):
            raise ParseError("case branches must look like (x body)")
        args[2:] = [*b1, *b2]
    return cls(*[r(a) for r, a in zip(readers, args)])


# former -> (number of head fields, writer and reader of each field in
# declaration order); a grade or mode is read from its head pattern group, a
# name from its atom
_CODEC = {
    cls: (sum(k in ("grade", "mode") for k in kinds),
          tuple(term_to_sexpr if isinstance(k, tuple) else _WRITE[k] for k in kinds),
          tuple(term_from_tree if isinstance(k, tuple) else _READ[k] for k in kinds))
    for cls, kinds in TERMS.items()
}


# ---------------------------------------------------------------------------
# Derivations: (rule payload... premises...)


def _write(d: Derivation, premises: list[str]) -> str:
    if d.rule not in RULES:
        raise ParseError(f"not a derivation rule: {d.rule!r}")
    payload = [_WRITE[k](x) for k, x in zip(RULES[d.rule][2], d.payload)]
    return "(" + " ".join([d.rule, *payload, *premises]) + ")"


def derivation_to_sexpr(d: Derivation) -> str:
    return fold(d, _write)


def _premise_trees(tree) -> list:
    """The premise trees of a (rule payload... premises...) form."""
    if not isinstance(tree, list) or not tree or not isinstance(tree[0], str):
        raise ParseError("derivation must be a (rule ...) form")
    if tree[0] not in RULES:
        raise ParseError(f"unknown rule {tree[0]!r}")
    np = len(RULES[tree[0]][2])
    if len(tree) <= np:
        raise ParseError(f"rule {tree[0]} expects {np} payload items")
    return tree[1 + np:]


def _from_text(build, text: str, *args):
    """build(tree, *args) for the tree of the text; running out of stack
    in the recursive type and term readers is a NestingError."""
    tree = read_sexpr(text)
    try:
        return build(tree, *args)
    except RecursionError:
        raise NestingError("input nested too deeply") from None


def derivation_from_sexpr(text: str, space: ModeSpace) -> Derivation:
    def read(tree, premises: list[Derivation]) -> Derivation:
        payload = tuple([_READ[k](t, space) for k, t in zip(RULES[tree[0]][2], tree[1:])])
        return rebuild(space, tree[0], tuple(premises), payload)
    return _from_text(lambda tree: fold(tree, read, children=_premise_trees), text)


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
