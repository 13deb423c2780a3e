"""S-expression serialization for types, terms, and derivations.

The derivation form is canonical: ``(rule payload... premises...)`` with
conclusions recomputed on parse, so a parsed tree is valid by
construction.  Annotated heads follow the surface spellings
``I@m``, ``-o{q:m}``, ``down{q,n<=m}``, ``up{m<=n}``, ``let*@q`` and so on.

Each reader is one shift-reduce pass over the tokens, `_parse`, so none
recurses on the input's depth: a form is reduced at its ``)``, a type or
term through its former and a rule through `rebuild`.  The depth bounds
are two constants: input nested more than MAX_DEPTH parentheses deep, a
type or term more than MAX_FORM_DEPTH forms deep, or a RecursionError in
`rebuild` raises NestingError (a ParseError) "input nested too deeply".

At a fault, a nesting fault is reported first, then the item counts of
the forms still open, outermost first; a fault in a rule's payload waits
for the rule's ``)``.  So the fault reported is the first of a depth-first
walk: a form's head and item count on the way down, a rule's payload and
`rebuild` on the way up.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import islice

from .derivation import RULES, Derivation, fold, rebuild
from .errors import GrassError, NestingError, ParseError
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

MAX_DEPTH = 1000  # parentheses
# Forms in one type or term: type_wf and the writers recurse on a type's
# depth, and the recursive type reader this pass replaced stopped near 990.
MAX_FORM_DEPTH = 900

_OPEN_SPACE = re.compile(r"\(\s+")
_NATURAL = re.compile(r"0|[1-9][0-9]*")
# group 1 is `natural`'s spelling; the rest is every other one int() accepts
_NUMBER = re.compile(r"(0|[1-9][0-9]*)|\s*[+-]?\d+(?:_\d+)*\s*")


def _tokens(text: str) -> list[str]:
    """")", atoms, and each "(" joined to the atom after it, its head: a bare
    "(" opens a form that is empty or starts with a form."""
    return _OPEN_SPACE.sub("(", text).replace("(", " (").replace(")", " ) ").split()


def _scan(toks: list[str]) -> dict[int, list[int]]:
    """By the index of each "(", the indices of the items after its head and
    of its ")".  A nesting fault is raised as `read_sexpr` meets it."""
    items: dict[int, list[int]] = {}
    opens: list[int] = []
    for j, tok in enumerate(toks):
        if j and not opens:
            raise ParseError("trailing tokens after expression")
        if opens:
            items[opens[-1]].append(j)
        if tok == ")":
            if not opens:
                raise ParseError("unexpected closing parenthesis")
            opens.pop()
        elif tok[0] == "(":
            if len(opens) >= MAX_DEPTH:
                raise NestingError("input nested too deeply")
            opens.append(j)
            items[j] = []
    if opens or not toks:
        raise ParseError("missing closing parenthesis" if opens else "unexpected end of input")
    return items


def _lists(toks: list[str], i: int):
    """The item at toks[i] as nested lists of atom strings."""
    stack: list[list] = [[]]  # the open lists, outermost first
    for tok in toks[i:]:
        if tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        elif tok[0] == "(":
            stack.append([tok[1:]] if tok[1:] else [])
        else:
            stack[-1].append(tok)
        if len(stack) == 1:
            return stack[0][0]
    return stack[-1]  # unclosed: its nesting fault is reported instead


def read_sexpr(text: str):
    """One s-expression as nested lists of atom strings."""
    toks = _tokens(text)
    _scan(toks)
    return _lists(toks, 0)


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


def _atom(item) -> str:
    if not isinstance(item, str):
        raise ParseError(f"expected an atom, got {item!r}")
    return item


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


def _type_atom(atom: str, space: ModeSpace) -> Type:
    m = _UNIT_ATOM.match(atom)
    if m:
        return TUnit(m.group("m"))
    if atom in space.base_types:
        return TBase(atom, space.base_types[atom])
    raise ParseError(f"unknown type atom {atom!r}")


# A form is (former, head fields, kinds of its items and then None, head):
# its former takes the head fields and then the items.  A rule's form has no
# former, and its payload kinds are followed by "rule", a premise's kind.
def _type_form(tok: str, i: int, toks: list[str], space: ModeSpace) -> tuple:
    """The form the type token toks[i] == tok opens.  A fault in its mode or
    grade takes the place of the kind of the item it is met before."""
    head = tok[1:]
    if head == "*" or head == "+":
        return TTensor if head == "*" else TSum, (), ("type", "type", None), head
    m = _FUN_HEAD.match(head) or _DROP_HEAD.match(head) or _RAISE_HEAD.match(head)
    if m is None:
        raise ParseError("empty type expression" if not head and toks[i + 1:i + 2] == [")"]
                         else f"unknown type form {head or _lists(toks, i + 1)!r}")
    if m.re is _RAISE_HEAD:
        return TRaise, (m["m"], m["n"]), ("type", None), head
    try:
        grade = Grade(space.mode(m["m"]).algebra.id, grade_value(m["q"]))
    except GrassError as fault:  # met after a -o form's argument, before a down form's item,
        return _closing, (), ("type", fault, None) if m.re is _FUN_HEAD else (fault, None), head  # so never built
    if m.re is _FUN_HEAD:
        return lambda a, b: TFun(a, grade, b), (), ("type", "type", None), head
    return TDrop, (grade, m["n"], m["m"]), ("type", None), head


# ---------------------------------------------------------------------------
# Terms

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

# one writer per field kind of derivation.RULES and syntax.TERMS
_WRITE = {
    "name": str,
    "mode": str,
    "type": type_to_sexpr,
    "grade": show_grade,
    "grades": lambda vs: "(" + " ".join(map(show_grade, vs)) + ")",
    "perm": lambda perm: "(" + " ".join(map(str, perm)) + ")",
}


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


# former -> (number of head fields, writer of each field in declaration order,
# kinds of the items after the head and then None)
_CODEC = {
    cls: (sum(k in ("grade", "mode") for k in kinds),
          tuple(term_to_sexpr if isinstance(k, tuple) else _WRITE[k] for k in kinds),
          ("term", "branch", "branch", None) if cls is Case else
          (*("term" if isinstance(k, tuple) else k for k in kinds if k not in ("grade", "mode")), None))
    for cls, kinds in TERMS.items()
}
_BRANCH = (lambda x, body: (x, body), (), ("name", "term", None), None)
_BRANCHES = "case branches must look like (x body)"


def _term_form(tok: str, i: int, toks: list[str]) -> tuple:
    """The form the term token toks[i] == tok opens.  A fault in its grade
    takes the place of its first item's kind."""
    head = tok[1:]
    if not head:
        raise ParseError("empty term expression" if toks[i + 1:i + 2] == [")"]
                         else "term form must start with an atom")
    cls, groups = _PLAIN_HEADS.get(head), ()
    if cls is None:
        for cls, pattern in _HEAD_PATTERNS.items():
            if m := pattern.match(head):
                groups = m.groups()
                break
        else:
            raise ParseError(f"unknown term form {head!r}")
    kinds = _CODEC[cls][2]
    try:
        fields = tuple(grade_value(g) if k == "grade" else g for k, g in zip(TERMS[cls], groups))
    except GrassError as fault:
        return _closing, (), (fault, *kinds[1:]), head
    if cls is Case:
        return lambda s, b1, b2: Case(*fields, s, *b1, *b2), (), kinds, head
    return cls, fields, kinds, head


# ---------------------------------------------------------------------------
# Derivations: (rule payload... premises...)


def _write(d: Derivation, premises: list[str]) -> str:
    if d.rule not in RULES:
        raise ParseError(f"not a derivation rule: {d.rule!r}")
    payload = [_WRITE[k](x) for k, x in zip(RULES[d.rule][2], d.payload)]
    return "(" + " ".join([d.rule, *payload, *premises]) + ")"


def derivation_to_sexpr(d: Derivation) -> str:
    return fold(d, _write)


_RULE_FORMS = {"(" + rule: (None, (rule, len(kinds)), (*("name" if k == "mode" else k for k in kinds), "rule"), rule)
               for rule, (_build, _binds, kinds) in RULES.items()}
_LISTS = {"grades": lambda v: grade_value(_atom(v)), "perm": lambda v: natural(v, "a context position")}


def _closing(*_):
    """The former of the text's root form and of a form with a faulty head:
    it is called only at a ")" past the end of the text."""
    raise ParseError("unexpected closing parenthesis")


def _misplaced(want, form: tuple, tok: str, i: int, toks: list[str]) -> GrassError:
    """The fault of toks[i] == tok where `form` wants an item of kind `want`:
    None past its last item, or a fault of its head."""
    if isinstance(want, GrassError):
        return want
    if want is None or tok == ")":
        n, head = len(form[2]) - 1, form[3]
        return ParseError(f"rule {head} expects {n} payload items" if head in RULES
                          else f"form {head!r} expects {n} arguments" if head else _BRANCHES)
    if want == "rule":
        return ParseError(f"unknown rule {tok[1:]!r}" if tok[0] == "(" and tok[1:]
                          else "derivation must be a (rule ...) form")
    if want in _LISTS:
        return ParseError(f"expected a list, got {tok!r}")
    if want == "branch":
        return ParseError(_BRANCHES)
    return ParseError(f"expected an atom, got {_lists(toks, i)!r}")


def _open_fault(form: tuple, j: int, toks: list[str], items: dict) -> GrassError | None:
    """The fault in the item count of the open type or term form at toks[j],
    or in the shape of a case's branches."""
    count = len(items[j]) - 1 + (form[3] is None and len(toks[j]) > 1)  # a branch's head is its name
    if count != len(form[2]) - 1:
        return _misplaced(None, form, ")", j, toks)
    if "branch" in form[2] and any(toks[b][0] != "(" or len(items[b]) + (len(toks[b]) > 1) != 3
                                   for b in items[j][1:3]):
        return ParseError(_BRANCHES)
    return None


def _parse(text: str, want: str, space: ModeSpace | None = None):
    """The rule, type or term (`want`) that is all of `text`."""
    toks = _tokens(text)
    if text.count("(") > MAX_DEPTH:
        _scan(toks)  # deep nesting is refused before anything is built
    memo: dict = {}  # type atoms and forms by token
    faults: dict = {}  # by the "(" index of an open rule, its first payload fault
    stack: list[tuple] = []  # per open form, the one it is in: form, items so far, "(" index
    form, args, at = (_closing, (), (want, None), None), [], -1  # the text is the root's one item
    limit = MAX_FORM_DEPTH  # the stack's length at a type or term form
    it = enumerate(toks)
    while True:
        try:
            for i, tok in it:
                if tok == ")":
                    if want is None:
                        value = form[0](*form[1], *args)
                    elif want != "rule" or form[0] is not None:
                        raise _misplaced(want, form, tok, i, toks)
                    elif faults and at in faults:
                        raise faults[at]
                    else:
                        rule, n = form[1]
                        value = rebuild(space, rule, args[n:], args[:n])
                    form, args, at = stack.pop()
                    args.append(value)
                    want = form[2][len(args)] if len(args) < len(form[2]) else "rule"
                elif tok[0] == "(":
                    if want == "rule":
                        new = _RULE_FORMS.get(tok)
                        if new is None:
                            raise _misplaced(want, form, tok, i, toks)
                        limit = len(stack) + 1 + MAX_FORM_DEPTH
                    elif want == "type":
                        new = memo.get(tok) or memo.setdefault(tok, _type_form(tok, i, toks, space))
                    elif want == "term":
                        new = _term_form(tok, i, toks)
                    elif want == "branch":
                        new = _BRANCH
                    elif want in _LISTS:
                        read = _LISTS[want]
                        values = [read(tok[1:])] if tok[1:] else []
                        for i, tok in it:
                            if tok == ")":
                                break
                            values.append(read(_lists(toks, i) if tok[0] == "(" else tok))
                        args.append(tuple(values))
                        want = form[2][len(args)]
                        continue
                    else:
                        raise _misplaced(want, form, tok, i, toks)
                    if len(stack) >= limit:
                        raise NestingError("input nested too deeply")
                    stack.append((form, args, at))
                    form, args, at = new, [tok[1:]] if new is _BRANCH and tok[1:] else [], i
                    want = new[2][len(args)]
                else:
                    if want == "type":
                        value = memo.get(tok) or memo.setdefault(tok, _type_atom(tok, space))
                    elif want == "name":
                        value = tok
                    elif want == "term":
                        value = Star(m["m"]) if (m := _STAR_ATOM.match(tok)) else Var(tok)
                    elif want == "grade":
                        value = grade_value(tok)
                    else:
                        raise _misplaced(want, form, tok, i, toks)
                    args.append(value)
                    want = form[2][len(args)]
            if stack or want is not None:
                raise ParseError("missing closing parenthesis")
            return args[0]
        except (GrassError, RecursionError) as e:
            items = _scan(toks)  # a nesting fault comes first
            if isinstance(e, RecursionError):
                raise NestingError("input nested too deeply") from None
            frames = [*stack, (form, args, at)][1:]
            rule = max((k for k, (f, _a, _j) in enumerate(frames) if f[3] in RULES), default=-1)
            for f, _a, j in frames[rule + 1:]:
                if fault := _open_fault(f, j, toks, items):
                    e = fault
                    break
            form, args, at = frames[rule] if rule >= 0 else (None, (), -1)
            if rule < 0 or len(args) >= form[1][1] or i == items[at][-1]:  # not in the rule's payload
                raise e from None
            del stack[rule + 1:]
            faults.setdefault(at, e)
            start = items[at][len(args)]  # skip the rest of the payload item
            deque(islice(it, (items[start][-1] if toks[start][0] == "(" else start) - i), 0)
            args.append(None)
            want = form[2][len(args)]


def derivation_from_sexpr(text: str, space: ModeSpace) -> Derivation:
    return _parse(text, "rule", space)


def term_from_sexpr(text: str) -> Term:
    return _parse(text, "term")


def type_from_sexpr(text: str, space: ModeSpace) -> Type:
    return _parse(text, "type", space)


# ---------------------------------------------------------------------------
# Judgment rendering


def show_judgment(j) -> str:
    rho = ", ".join(show_grade(g.value) for g in j.rho)
    modes = ", ".join(j.modes)
    ctx = ", ".join(f"{x}:{type_to_sexpr(ty)}" for x, ty in j.ctx)
    return f"{rho or '.'} | {modes or '.'} (.) {ctx or '.'} |-{j.mode} {term_to_sexpr(j.term)} : {type_to_sexpr(j.ty)}"
