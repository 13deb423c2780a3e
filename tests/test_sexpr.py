import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grass.derivation import RULES, check_derivation
from grass.errors import CheckError, GrassError, InputError, NestingError, ParseError
from grass.gen import Gen
from grass.grades import Grade
from grass.oracles import to_locally_nameless
from grass.presets import system
from grass.sexpr import (
    derivation_from_sexpr,
    derivation_to_sexpr,
    show_judgment,
    term_from_sexpr,
    term_to_sexpr,
    type_from_sexpr,
    type_to_sexpr,
)
from grass.syntax import (
    TERMS,
    Case,
    DropTm,
    Inl,
    Lam,
    LetDrop,
    TBase,
    TDrop,
    TFun,
    TRaise,
    TTensor,
    TUnit,
    Var,
)


@pytest.fixture(scope="module")
def space():
    return system("LfhU")[0]


def test_type_round_trips(space):
    types = [
        TUnit("L"),
        TBase("P", "L"),
        TTensor(TBase("P", "L"), TUnit("L")),
        TFun(TBase("H", "fh"), Grade("none-one-tons", "w"), TUnit("fh")),
        TDrop(Grade("top", "t"), "L", "U", TRaise("L", "U", TBase("P", "L"))),
    ]
    for ty in types:
        assert type_from_sexpr(type_to_sexpr(ty), space) == ty


def test_term_round_trips():
    terms = [
        Var("x"),
        Lam("x", Case(1, Var("x"), "a", Inl(Var("a")), "b", Var("b"))),
        LetDrop("w", "L", "fh", "y", Var("s"), DropTm("w", "L", "fh", Var("y"))),
    ]
    for t in terms:
        assert term_from_sexpr(term_to_sexpr(t)) == t


def test_derivation_round_trips_on_corpus(space):
    gen = Gen(space=space, rng=random.Random(41))
    for _ in range(60):
        d = gen.gen_derivation(4)
        text = derivation_to_sexpr(d)
        back = derivation_from_sexpr(text, space)
        assert back.conclusion == d.conclusion
        assert derivation_to_sexpr(back) == text
        check_derivation(back, space)


def test_parse_errors(space):
    with pytest.raises(ParseError):
        term_from_sexpr("(lam x")
    with pytest.raises(ParseError):
        type_from_sexpr("(bogus P Q)", space)
    with pytest.raises(ParseError):
        derivation_from_sexpr("(var)", space)


def test_show_judgment_is_readable(space):
    from grass.derivation import mk_var

    d = mk_var(space, "x", TBase("P", "L"))
    text = show_judgment(d.conclusion)
    assert "|-L" in text and "x:P" in text


DEEP = 10 ** 4


@pytest.mark.parametrize("parse, text", [
    ("read_sexpr", "(" * DEEP + "x" + ")" * DEEP),
    ("type_from_sexpr", "(* " * DEEP + "P" + " P)" * DEEP),
    ("term_from_sexpr", "(lam x " * DEEP + "x" + ")" * DEEP),
    ("derivation_from_sexpr", "(exchange (0) " * DEEP + "(var x P)" + ")" * DEEP),
])
def test_deep_input_is_a_parse_error(space, parse, text):
    import grass.sexpr

    fn = getattr(grass.sexpr, parse)
    args = (text, space) if parse in ("type_from_sexpr", "derivation_from_sexpr") else (text,)
    with pytest.raises(ParseError, match="input nested too deeply"):
        fn(*args)


def test_recursion_in_the_tree_readers_is_a_parse_error(space):
    # within read_sexpr's bound, but one Python frame a level is past the
    # default recursion limit for the recursive type reader
    from grass.sexpr import MAX_DEPTH

    depth = MAX_DEPTH - 1
    with pytest.raises(ParseError, match="input nested too deeply"):
        type_from_sexpr("(* " * depth + "P" + " P)" * depth, space)


def test_derivations_read_back_up_to_max_depth(space):
    from grass.sexpr import MAX_DEPTH

    depth = MAX_DEPTH - 10  # each exchange's permutation nests one level more
    text = "(exchange (1 0) " * depth + "(pairI (var x P) (var y P))" + ")" * depth
    d = derivation_from_sexpr(text, space)
    assert len(list(d.walk())) == depth + 3
    assert derivation_to_sexpr(d) == text  # so the writer's output reads back to d
    check_derivation(d, space)


def test_deep_program_item_reports_its_line(space):
    from grass.cli import parse_program_text

    text = "type ok = P\n\ntype deep = " + "(* " * DEEP + "P" + " P)" * DEEP + "\n"
    with pytest.raises(ParseError, match=r"^line 3: input nested too deeply$"):
        parse_program_text(text, space)


def test_round_trip_corpus_covers_every_rule(space):
    gen = Gen(space=space, rng=random.Random(41))
    seen = {node.rule for _ in range(60) for node in gen.gen_derivation(4).walk()}
    assert seen == set(RULES)


def _render(tree) -> str:
    return tree if isinstance(tree, str) else "(" + " ".join(map(_render, tree)) + ")"


def _edit(tree, op: str, where: int, atom: str):
    """The tree with one list element, chosen by `where`, deleted, doubled,
    replaced by `atom`, wrapped in a list, or spliced into its parent."""
    slots = []

    def walk(t):
        for i, x in enumerate(t):
            slots.append((t, i))
            if isinstance(x, list):
                walk(x)

    walk(tree)
    if not slots:
        return tree
    parent, i = slots[where % len(slots)]
    x = parent[i]
    parent[i:i + 1] = {"drop": [], "dup": [x, x], "atom": [atom], "wrap": [[x]],
                       "splice": x if isinstance(x, list) else [x]}[op]
    return tree


_ATOMS = st.sampled_from(sorted(RULES) + [
    "x", "y", "z", "0", "1", "10", "t", "w", "P", "Q", "H", "L", "U", "fh", "I@L", "I@fh",
])


@given(st.integers(0, 10 ** 6),
       st.lists(st.tuples(st.sampled_from(["drop", "dup", "atom", "wrap", "splice"]),
                          st.integers(0, 10 ** 6), _ATOMS), max_size=3))
@settings(max_examples=300, deadline=None)
def test_program_parser_raises_only_grass_errors(space, seed, edits):
    """Generated derivations, some edited into malformed ones, parse or
    raise a GrassError; what parses round-trips."""
    from grass.cli import parse_program_text
    from grass.sexpr import read_sexpr

    d = Gen(space=space, rng=random.Random(seed)).gen_derivation(3)
    tree = read_sexpr(derivation_to_sexpr(d))
    for op, where, atom in edits:
        tree = _edit(tree, op, where, atom)
    try:
        items = parse_program_text(f"derivation d = {_render(tree)}\n", space)
    except GrassError:
        return
    d = items["d"].payload
    assert derivation_from_sexpr(derivation_to_sexpr(d), space) == d


@pytest.mark.parametrize("grade", [2, "t", 0, 12, "w", "w2", "x1", "²"])
def test_every_term_former_round_trips(grade):
    values = {"name": "y", "grade": grade, "mode": "L"}
    for cls, kinds in TERMS.items():
        t = cls(*(Var("x") if isinstance(k, tuple) else values[k] for k in kinds))
        assert term_from_sexpr(term_to_sexpr(t)) == t, cls
        to_locally_nameless(t)


@pytest.mark.parametrize("atom", ["1_0", "01", "+1", "١", "-1"])
def test_a_number_has_one_spelling(atom):
    lu = system("LU")[0]
    with pytest.raises(ParseError, match="expected a grade"):
        derivation_from_sexpr(f"(unitE {atom} (unitI L) (unitI L))", lu)
    with pytest.raises(ParseError, match="expected a grade"):
        term_from_sexpr(f"(let*@{atom} x y)")
    with pytest.raises(ParseError, match="expected a context position"):
        derivation_from_sexpr(f"(exchange ({atom} 0) (pairI (var x P) (var y P)))", lu)
    assert derivation_to_sexpr(derivation_from_sexpr("(unitE 10 (unitI L) (unitI L))", lu)) \
        == "(unitE 10 (unitI L) (unitI L))"


# Every refusal of the four readers, with its exact message.  An input with
# two faults pins the order they are reported in: nesting faults first, then,
# depth first, a form's rule and item count on the way down and its payloads
# and rebuild on the way up.
REFUSALS = [
    # nesting
    ("read_sexpr", "", ParseError, "unexpected end of input"),
    ("read_sexpr", ")", ParseError, "unexpected closing parenthesis"),
    ("read_sexpr", "(a", ParseError, "missing closing parenthesis"),
    ("read_sexpr", "a )", ParseError, "trailing tokens after expression"),
    ("read_sexpr", "(a) (b", ParseError, "trailing tokens after expression"),
    ("read_sexpr", "(" * 1001 + ")" * 1001, NestingError, "input nested too deeply"),
    # types
    ("type", "R", ParseError, "unknown type atom 'R'"),
    ("type", "()", ParseError, "empty type expression"),
    ("type", "(bogus P Q)", ParseError, "unknown type form 'bogus'"),
    ("type", "(P)", ParseError, "unknown type form 'P'"),
    ("type", "((* P P) P)", ParseError, "unknown type form ['*', 'P', 'P']"),
    ("type", "(+ P P P)", ParseError, "form '+' expects 2 arguments"),
    ("type", "(-o{1:L} P)", ParseError, "form '-o{1:L}' expects 2 arguments"),
    ("type", "(down{t,L<=U} P P)", ParseError, "form 'down{t,L<=U}' expects 1 arguments"),
    ("type", "(up{L<=U})", ParseError, "form 'up{L<=U}' expects 1 arguments"),
    ("type", "(down{t,L<=Z} P)", InputError, "unknown mode 'Z'"),
    ("type", "(-o{01:L} P P)", ParseError, "expected a grade, got '01'"),
    ("type", "(* bogus)", ParseError, "form '*' expects 2 arguments"),
    ("type", "(* (+ P) bogus)", ParseError, "form '+' expects 2 arguments"),
    ("type", "(* (* P bogus) bogus2)", ParseError, "unknown type atom 'bogus'"),
    ("type", "(-o{1:Z} bogus P)", ParseError, "unknown type atom 'bogus'"),
    ("type", "(-o{1:Z} P bogus)", InputError, "unknown mode 'Z'"),
    ("type", "(down{t,L<=Z} bogus)", InputError, "unknown mode 'Z'"),
    ("type", "(* P bogus", ParseError, "missing closing parenthesis"),
    # terms
    ("term", "()", ParseError, "empty term expression"),
    ("term", "((x) y)", ParseError, "term form must start with an atom"),
    ("term", "(*@L)", ParseError, "unknown term form '*@L'"),
    ("term", "(app x y z)", ParseError, "form 'app' expects 2 arguments"),
    ("term", "(lam (x) (bogus))", ParseError, "expected an atom, got ['x']"),
    ("term", "(case@1 s x (y y))", ParseError, "case branches must look like (x body)"),
    ("term", "(case@1 s (x x x) (y y))", ParseError, "case branches must look like (x body)"),
    ("term", "(case@1 s ((x) x) (y y))", ParseError, "expected an atom, got ['x']"),
    ("term", "(let*@01 x y)", ParseError, "expected a grade, got '01'"),
    ("term", "(let*@01 x)", ParseError, "form 'let*@01' expects 2 arguments"),
    ("term", "(app (bogus) (lam x))", ParseError, "unknown term form 'bogus'"),
    ("term", "(case@01 s (x) (y y))", ParseError, "case branches must look like (x body)"),
    # derivations
    ("derivation", "x", ParseError, "derivation must be a (rule ...) form"),
    ("derivation", "((var) x)", ParseError, "derivation must be a (rule ...) form"),
    ("derivation", "(var x)", ParseError, "rule var expects 2 payload items"),
    ("derivation", "(var (x) P)", ParseError, "expected an atom, got ['x']"),
    ("derivation", "(unitE (1) (unitI L) (unitI L))", ParseError, "expected an atom, got ['1']"),
    ("derivation", "(sub x (var x P))", ParseError, "expected a list, got 'x'"),
    ("derivation", "(sub ((1)) (var x P))", ParseError, "expected an atom, got ['1']"),
    ("derivation", "(sub (01) (var x P))", ParseError, "expected a grade, got '01'"),
    ("derivation", "(exchange (01) (var x P))", ParseError,
     "expected a context position, got '01'"),
    ("derivation", "(exchange ((0)) (var x P))", ParseError,
     "expected a context position, got ['0']"),
    ("derivation", "(var x P (var y P))", CheckError,
     "var at []: expects 0 premises and 2 payload items"),
    ("derivation", "(var x (-o{1:Z} P P))", InputError, "unknown mode 'Z'"),
    ("derivation", "(var x " + "(+ P " * 500 + "P" + ")" * 500 + ")", NestingError,
     "input nested too deeply"),  # the recursion is in rebuild
    ("derivation", "(bogus x", ParseError, "missing closing parenthesis"),
    ("derivation", "(bogus) )", ParseError, "trailing tokens after expression"),
    ("derivation", "(weak x bogus (bogus2))", ParseError, "unknown rule 'bogus2'"),
    ("derivation", "(weak x bogus (var y bogus2))", ParseError, "unknown type atom 'bogus2'"),
    ("derivation", "(weak x (* bogus) y)", ParseError, "derivation must be a (rule ...) form"),
    ("derivation", "(exchange (0 01) (weak (x) bogus (var y P)))", ParseError,
     "expected an atom, got ['x']"),
]


@pytest.mark.parametrize("reader, text, error, message", REFUSALS)
def test_refusals_are_pinned(space, reader, text, error, message):
    import grass.sexpr

    read = {"read_sexpr": grass.sexpr.read_sexpr,
            "type": lambda t: type_from_sexpr(t, space),
            "term": term_from_sexpr,
            "derivation": lambda t: derivation_from_sexpr(t, space)}[reader]
    with pytest.raises(GrassError) as caught:
        read(text)
    assert (type(caught.value), str(caught.value)) == (error, message)


def test_the_readers_do_not_recurse():
    """Under a recursion limit of 150, a type and a term 500 forms deep read,
    and their depth is counted on an explicit stack."""
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"""
import sys
sys.path.insert(0, {src!r})
from grass.presets import system
from grass.sexpr import term_from_sexpr, type_from_sexpr
from grass.syntax import Lam, TTensor
space = system("LfhU")[0]
sys.setrecursionlimit(150)
ty = type_from_sexpr("(* " * 500 + "P" + " P)" * 500, space)
tm = term_from_sexpr("(lam x " * 500 + "x" + ")" * 500)
depth = 0
while isinstance(ty, TTensor):
    ty, depth = ty.left, depth + 1
assert depth == 500, depth
depth = 0
while isinstance(tm, Lam):
    tm, depth = tm.body, depth + 1
assert depth == 500, depth
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "ok", out.stderr
