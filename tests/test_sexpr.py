import random

import pytest

from grass.derivation import check_derivation
from grass.errors import ParseError
from grass.gen import Gen
from grass.grades import Grade
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


def test_deep_program_item_reports_its_line(space):
    from grass.cli import parse_program_text

    text = "type ok = P\n\ntype deep = " + "(* " * DEEP + "P" + " P)" * DEEP + "\n"
    with pytest.raises(ParseError, match=r"^line 3: input nested too deeply$"):
        parse_program_text(text, space)
