import subprocess
import sys
from pathlib import Path

import pytest

from grass.cli import main, parse_modes_text, parse_program_text
from grass.modespace import modespace_validate

ROOT = Path(__file__).resolve().parent.parent

LNL = """
[algebra natd]
builtin = nat-discrete
[algebra top]
builtin = top
[mode L]
algebra = natd
cont = @zero-only
weak = false
[mode U]
algebra = top
cont = t
weak = true
[order]
L <= U
[morphism L U]
map = to-top
[backend]
budget = 4
arity U t = 1
[base P L]
carrier = a b
"""

FH = """
[algebra noe]
builtin = none-one-tons
[mode fh]
algebra = noe
cont = 0 w
weak = true
[backend]
arity fh w = 1
[base H fh]
carrier = h1 h2
"""


def test_parse_modes_text():
    space, backend = parse_modes_text(LNL)
    assert set(space.modes) == {"L", "U"}
    assert space.leq("L", "U") and not space.leq("U", "L")
    assert modespace_validate(space).ok()
    assert backend is not None and backend.base_carriers["P"] == ("a", "b")


def test_parse_custom_finite_algebra():
    text = """
[algebra two]
carrier = 0 1
zero = 0
one = 1
add 0 0 = 0
add 0 1 = 1
add 1 0 = 1
add 1 1 = 1
mul 0 0 = 0
mul 0 1 = 0
mul 1 0 = 0
mul 1 1 = 1
order = 0<=1
[mode A]
algebra = two
cont = 0
weak = true
"""
    space, _ = parse_modes_text(text)
    assert modespace_validate(space).ok()


def test_parse_program(tmp_path):
    space, _ = parse_modes_text(LNL)
    items = parse_program_text(
        """
# a comment
term idP : (-o{1:L} P P) = (lam x x)
derivation ax = (var x P)
type unitL = I@L
""",
        space,
    )
    assert set(items) == {"idP", "ax", "unitL"}
    assert items["ax"].payload.conclusion.mode == "L"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cmd_check_accept_and_reject(tmp_path, capsys):
    modes = _write(tmp_path, "m.modes", LNL)
    good = _write(tmp_path, "good.prog", "term idP : (-o{1:L} P P) = (lam x x)\n")
    assert main(["check", modes, good]) == 0
    out = capsys.readouterr().out
    assert "idP" in out and "|-L" in out

    bad = _write(tmp_path, "bad.prog",
                 "term dup : (-o{1:L} P (* P P)) = (lam x (pair x x))\n")
    assert main(["check", modes, bad]) == 1
    assert "Cont" in capsys.readouterr().out


def test_cmd_check_filehandle(tmp_path, capsys):
    modes = _write(tmp_path, "fh.modes", FH)
    prog = _write(
        tmp_path, "fh.prog",
        "term dupW : (-o{w:fh} H (* H H)) = (lam h (pair h h))\n"
        "term dup1 : (-o{1:fh} H (* H H)) = (lam h (pair h h))\n",
    )
    assert main(["check", modes, prog, "dupW"]) == 0
    capsys.readouterr()
    assert main(["check", modes, prog, "dup1"]) == 1
    assert "grade" in capsys.readouterr().out


def test_cmd_check_empty_program(tmp_path):
    modes = _write(tmp_path, "m.modes", LNL)
    empty = _write(tmp_path, "empty.prog", "# nothing here\n")
    assert main(["check", modes, empty]) == 0


def test_cmd_normalize(tmp_path, capsys):
    modes = _write(tmp_path, "m.modes", LNL)
    prog = _write(tmp_path, "p.prog",
                  "derivation red = (arrowE (arrowI (var x P)) (var y P))\n")
    assert main(["normalize", modes, prog, "red", "--fuel", "5"]) == 0
    out = capsys.readouterr().out
    assert "red: y" in out and "steps: 1" in out


def test_cmd_interp_var_prints_bijection(tmp_path, capsys):
    modes = _write(tmp_path, "m.modes", LNL)
    prog = _write(tmp_path, "p.prog", "derivation ax = (var x P)\n")
    assert main(["interp", modes, prog, "ax"]) == 0
    out = capsys.readouterr().out
    assert "(2 pairs)" in out


def test_cmd_modes_validate(tmp_path, capsys):
    modes = _write(tmp_path, "m.modes", FH)
    assert main(["modes-validate", modes, "--max-size", "2"]) == 0
    broken = _write(tmp_path, "broken.modes", FH.replace("map = to-top", ""))
    # removing nothing keeps it valid; instead drop the morphism section of LNL
    broken = _write(tmp_path, "broken2.modes",
                    LNL.replace("[morphism L U]\nmap = to-top\n", ""))
    assert main(["modes-validate", broken, "--max-size", "1"]) == 1
    assert "missing-morphism" in capsys.readouterr().out


NATS = """
[algebra nat]
builtin = nat-usual
[mode N]
algebra = nat
cont = @{cont}
weak = true
[backend]
budget = 4
arity N {grade} = {arity}
"""


@pytest.mark.parametrize("cont, grade, arity", [("zero-only", 7, 3), ("all", 5, 7)])
def test_a_declared_arity_above_the_budget_is_checked(tmp_path, capsys, cont, grade, arity):
    # with the laws over the enumerated grades alone, the first reads "ok" and the
    # second ends in an error out of delta's positions
    modes = _write(tmp_path, "n.modes", NATS.format(cont=cont, grade=grade, arity=arity))
    assert main(["modes-validate", modes]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"arity-multiplicative witness=('N', {q}, {r})"
                     for q, r in [(2, grade), (3, grade), (4, grade), (grade, 2), (grade, 3),
                                  (grade, 4), (grade, grade)]]


TABLE_OVER_NATURALS = """
[algebra nat]
builtin = nat-usual
[mode N]
algebra = nat
cont = @all
weak = true
[mode M]
algebra = nat
cont = @all
weak = true
[order]
N <= M
[morphism N M]
map = 0 -> 0, 1 -> 1, 2 -> 2
"""


def test_a_table_morphism_over_the_naturals_is_reported_not_applied(tmp_path, capsys):
    # the composition-coherence loop used to apply the table at grade 3, which it
    # has no image for, after the morphism check had reported it
    modes = _write(tmp_path, "t.modes", TABLE_OVER_NATURALS)
    assert main(["modes-validate", modes]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "morphism-N->M-map-kind naturals sources require a named map"]


def test_a_table_morphism_missing_an_image_is_reported(tmp_path, capsys):
    # modes-validate used to end in "error: morphism fh->U: no image for 'w'"
    text = (ROOT / "systems" / "allmodes.modes").read_text()
    assert text.count("map = 0 -> t, 1 -> t, w -> t\n") == 1
    modes = _write(tmp_path, "a.modes", text.replace("map = 0 -> t, 1 -> t, w -> t\n", "map = 0 -> t, 1 -> t\n"))
    assert main(["modes-validate", modes]) == 1
    assert capsys.readouterr().out == "morphism-fh->U-image-defined witness=('w',)\n"


def test_a_table_morphism_off_its_carrier_is_reported_not_composed(tmp_path, capsys):
    # modes-validate used to end in "error: morphism fh->fh: no image for 2"
    text = (ROOT / "systems" / "filehandle.modes").read_text()
    modes = _write(tmp_path, "f.modes", text + "[morphism fh fh]\nmap = 0 -> 0, 1 -> 2, w -> w\n")
    assert main(["modes-validate", modes]) == 1
    assert capsys.readouterr() == ("morphism-fh->fh-image-in-carrier witness=(1, 2)\n"
                                   "identity-coherence witness=('fh', 1) phi_(fh,fh) is not the identity\n", "")



def test_no_validate_skips_the_mode_system_check(tmp_path, capsys):
    # U's identity sent elsewhere fails validation, which --no-validate skips
    text = (ROOT / "systems" / "lnl.modes").read_text()
    modes = _write(tmp_path, "u.modes", text + "\n[morphism U U]\nmap = t -> 0\n")
    prog = str(ROOT / "systems" / "demo.prog")
    assert main(["check", modes, prog]) == 1
    assert capsys.readouterr().err.startswith("error: mode system failed validation:\n")
    assert main(["check", modes, prog, "--no-validate"]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == ["idP", "boxedId"]


TWO = """
[algebra two]
carrier = 0 1
order = 0<=1
add 0 0 = 0
add 0 1 = 1
add 1 0 = 1
add 1 1 = 1
mul 0 1 = 0
mul 1 0 = 0
mul 1 1 = 1
[mode T]
algebra = two
cont = 0
weak = true
"""
TWO_BASE = TWO + "[backend]\nbudget = 2\n[base P T]\ncarrier = a b\n"
TWO_ADD = TWO.replace("add 1 0 = 1\n", "").replace("mul 0 1 = 0\n", "mul 0 0 = 0\nmul 0 1 = 0\n")
# the table to top fails no law; checked, it would raise out of the missing mul 0 0
TWO_OUT = TWO + """[algebra top]
builtin = top
[mode U]
algebra = top
cont = t
weak = true
[order]
T <= U
[morphism T U]
map = 0 -> t, 1 -> t
"""


@pytest.mark.parametrize("text, violation", [
    (TWO, "algebra-two-mul-defined witness=(0, 0)"),
    (TWO_BASE, "algebra-two-mul-defined witness=(0, 0)"),
    (TWO_ADD, "algebra-two-add-defined witness=(1, 0)"),
    (TWO_OUT, "algebra-two-mul-defined witness=(0, 0)"),
], ids=["no-base", "base", "partial-add", "outgoing-morphism"])
def test_a_partial_table_is_reported_and_refused_up_front(tmp_path, capsys, text, violation):
    # modes-validate used to end in "error: algebra two: mul table missing (0, 0)",
    # raised out of the law check of the identity at (T, T)
    space, _backend = parse_modes_text(text)
    assert modespace_validate(space).render() == violation
    modes = _write(tmp_path, "two.modes", text)
    assert main(["modes-validate", modes]) == 1
    assert capsys.readouterr() == (violation + "\n", "")
    prog = _write(tmp_path, "p.prog", "term u : Unit = unit\n")
    assert main(["check", modes, prog]) == 1
    assert capsys.readouterr() == ("", f"error: mode system failed validation:\n{violation}\n")


def test_parse_error_exit_code(tmp_path):
    modes = _write(tmp_path, "m.modes", LNL)
    bad = _write(tmp_path, "bad.prog", "term broken : (-o{1:L} P P = (lam x x)\n")
    assert main(["check", modes, bad]) == 2


def test_cmd_oracle_deterministic(tmp_path):
    modes = _write(tmp_path, "m.modes", LNL)
    cmd = [sys.executable, "-m", "grass.cli", "oracle", modes,
           "--seed", "1", "--count", "15"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    r2 = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    assert r1.returncode == 0, r1.stdout + r1.stderr
    assert r1.stdout == r2.stdout


def test_importing_the_cli_leaves_the_oracle_suites_out():
    # only `grass oracle` needs the suites, the generator and the oracles
    code = ("import sys; sys.path.insert(0, 'src'); import grass.cli; "
            "print(sorted(m for m in ('grass.suites', 'grass.gen', 'grass.oracles') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_shipped_mode_files_validate():
    for name in ("lnl.modes", "filehandle.modes", "allmodes.modes"):
        path = str(ROOT / "systems" / name)
        assert main(["modes-validate", path, "--max-size", "2"]) == 0


def test_oracle_seed1_count100_on_lnl_is_clean(capsys):
    path = str(ROOT / "systems" / "lnl.modes")
    assert main(["oracle", path, "--seed", "1", "--count", "100"]) == 0
    assert "total failures: 0" in capsys.readouterr().out


def test_grass_budget_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GRASS_BUDGET", "3")
    modes = _write(tmp_path, "m.modes", LNL)
    prog = _write(tmp_path, "p.prog", "derivation ax = (var x P)\n")
    assert main(["check", modes, prog]) == 0


def test_grass_budget_env_var_must_be_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRASS_BUDGET", "abc")
    modes = _write(tmp_path, "m.modes", LNL)
    prog = _write(tmp_path, "p.prog", "derivation ax = (var x P)\n")
    assert main(["check", modes, prog]) == 2
    captured = capsys.readouterr()
    assert "GRASS_BUDGET must be an integer, got 'abc'" in captured.err
    assert captured.out == ""


def test_oracle_count_zero_runs_no_cases(capsys):
    path = str(ROOT / "systems" / "lnl.modes")
    assert main(["oracle", path, "--seed", "1", "--count", "0"]) == 0
    heads = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert len(heads) == 4
    assert all(" cases=0 " in line for line in heads)


@pytest.mark.parametrize("command, env", [
    ("modes-validate lnl.modes --max-size -1", None),
    ("modes-validate lnl.modes --budget -3", None),
    ("check lnl.modes demo.prog", "-2"),
    ("oracle lnl.modes --count -4", None),
    ("oracle lnl.modes --max-depth -1", None),
    ("normalize lnl.modes norm.prog redex --fuel -1", None),
])
def test_a_negative_number_is_a_usage_error(monkeypatch, capsys, command, env):
    if env is not None:
        monkeypatch.setenv("GRASS_BUDGET", env)
    words = command.split()
    argv = [str(ROOT / "systems" / w) if "." in w else w for w in words]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert f"got {env or words[-1]!r}" in captured.err
    assert captured.out == ""


def test_deeply_nested_input_is_a_clean_error(tmp_path, capsys):
    depth = 5000
    prog = _write(tmp_path, "deep.prog", "type deep = " + "(* " * depth + "P" + " P)" * depth + "\n")
    assert main(["check", str(ROOT / "systems" / "lnl.modes"), prog]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: input nested too deeply\n"
    assert "Traceback" not in captured.out + captured.err


def test_deep_derivation_item_checks(tmp_path, capsys):
    depth = 900
    text = "(exchange (1 0) " * depth + "(pairI (var x P) (var y P))" + ")" * depth
    prog = _write(tmp_path, "deep.prog", f"derivation deep = {text}\n")
    assert main(["check", str(ROOT / "systems" / "lnl.modes"), prog]) == 0
    assert capsys.readouterr().out.startswith("deep: ")


def test_shipped_demo_program_checks():
    modes = str(ROOT / "systems" / "lnl.modes")
    prog = str(ROOT / "systems" / "demo.prog")
    assert main(["check", modes, prog]) == 0


@pytest.mark.parametrize("command", ["check", "normalize", "interp"])
def test_unknown_item_is_a_usage_error(command, capsys):
    modes, prog = str(ROOT / "systems" / "lnl.modes"), str(ROOT / "systems" / "demo.prog")
    assert main([command, modes, prog, "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: no item named 'nosuch'\n"
    assert captured.out == ""


@pytest.mark.parametrize("text", [
    "(arrowI)",
    "(pairI (unitI L))",
    "(exchange (0 x) (var x P))",
    "(exchange 10 (pairI (var x P) (var y P)))",
    "(sub 11 (pairI (var x P) (var y P)))",
    "(var x P (var y P))",
    "(unitI L (var y P))",
])
def test_malformed_derivation_is_a_parse_error(tmp_path, capsys, text):
    from grass.errors import GrassError
    from grass.sexpr import derivation_from_sexpr

    with pytest.raises(GrassError):
        derivation_from_sexpr(text, parse_modes_text(LNL)[0])
    modes = _write(tmp_path, "m.modes", LNL)
    prog = _write(tmp_path, "p.prog", f"type ok = P\nderivation bad = {text}\n")
    assert main(["check", modes, prog]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 2: ")


@pytest.mark.parametrize("atom", ["1_0", "01", "+1", "١"])
def test_a_grade_spelled_oddly_is_a_parse_error(tmp_path, capsys, atom):
    modes = _write(tmp_path, "m.modes", LNL)
    prog = _write(tmp_path, "p.prog", f"type ok = P\nderivation d = (unitE {atom} (unitI L) (unitI L))\n")
    assert main(["check", modes, prog]) == 2
    assert capsys.readouterr().err == f"parse error: line 2: expected a grade, got {atom!r}\n"


@pytest.mark.parametrize("old, new, message", [
    ("arity U t = 1", "arity U t = -1", "line 20: expected an arity, got '-1'"),
    ("budget = 4", "budget = -2", "line 19: expected a budget, got '-2'"),
    ("arity U t = 1", "arity U t = 01", "line 20: expected an arity, got '01'"),
])
def test_backend_numbers_are_unsigned_decimals(tmp_path, capsys, old, new, message):
    modes = _write(tmp_path, "m.modes", LNL.replace(old, new))
    assert main(["modes-validate", modes]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


@pytest.mark.parametrize("old, new, message", [
    # a repeated header would drop the section before it, whatever kind it is
    ("builtin = top", "builtin = top\n[algebra top]", "line 6: repeated section header '[algebra top]'"),
    ("carrier = a b", "carrier = a b\n[algebra natd]\nbuiltin = nat-discrete",
     "line 23: repeated section header '[algebra natd]'"),
    ("carrier = a b", "carrier = a b\n[mode L]", "line 23: repeated section header '[mode L]'"),
    ("carrier = a b", "carrier = a b\n[morphism L U]", "line 23: repeated section header '[morphism L U]'"),
    ("carrier = a b", "carrier = a b\n[backend]", "line 23: repeated section header '[backend]'"),
    ("carrier = a b", "carrier = a b\n[base P L]", "line 23: repeated section header '[base P L]'"),
    ("carrier = a b", "carrier = a b\n[base P U]", "line 23: repeated section header '[base P U]'"),
    # a weak flag spelled otherwise than true/yes/1 or false/no/0
    ("weak = false", "weak = flase", "line 9: weak is true, yes, 1, false, no or 0, got 'flase'"),
    ("weak = false", "weak =", "line 9: weak is true, yes, 1, false, no or 0, got ''"),
    # an empty key is a declaration like any other unknown one
    ("builtin = top", "builtin = top\n= 1", "line 6: unknown algebra declaration ''"),
    ("budget = 4", "budget = 4\n= 1", "line 20: unknown backend declaration ''"),
])
def test_a_mode_file_line_that_would_be_misread_is_a_parse_error(tmp_path, capsys, old, new, message):
    modes = _write(tmp_path, "m.modes", LNL.replace(old, new))
    assert main(["modes-validate", modes]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_weak_flags_and_order_sections_that_parse():
    for spelled, weak in (("TRUE", True), ("Yes", True), ("1", True), ("False", False), ("no", False),
                          ("0", False)):
        space, _backend = parse_modes_text(LNL.replace("weak = false", f"weak = {spelled}"))
        assert space.mode("L").weak is weak, spelled
    # [order] may repeat: its lines only add pairs
    once = parse_modes_text(LNL)[0]
    twice = parse_modes_text(LNL.replace("L <= U", "") + "[order]\nL <= U\n[order]\n")[0]
    assert twice.order_pairs == once.order_pairs and ("L", "U") in once.order_pairs


def test_non_multiplicative_arity_is_reported(tmp_path, capsys):
    modes = _write(tmp_path, "m.modes", LNL.replace("arity U t = 1", "arity U t = 1\narity L 2 = 3"))
    assert main(["modes-validate", modes]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "arity-multiplicative witness=('L', 2, 2)" in out
    assert all(line.startswith("arity-multiplicative witness=('L', ") for line in out)


@pytest.mark.parametrize("after, repeat", [
    ("builtin = nat-discrete", "builtin = top"),
    ("weak = false", "weak = true"),
    ("map = to-top", "map = identity"),
    ("budget = 4", "budget = 1"),
    ("carrier = a b", "carrier = a"),
])
def test_a_key_given_twice_in_a_section_is_a_parse_error(tmp_path, capsys, after, repeat):
    lines = (ROOT / "systems" / "lnl.modes").read_text().splitlines()
    at = lines.index(after) + 1
    lines.insert(at, repeat)
    modes = _write(tmp_path, "twice.modes", "\n".join(lines) + "\n")
    assert main(["modes-validate", modes]) == 2
    key = repeat.split("=")[0].strip()
    assert capsys.readouterr().err == f"parse error: line {at + 1}: repeated key {key!r}\n"


def test_a_named_algebra_order_given_twice_is_a_parse_error(tmp_path, capsys):
    lines = (ROOT / "systems" / "lnl.modes").read_text().splitlines()
    at = lines.index("builtin = nat-discrete") + 1
    lines[at:at] = ["order = usual", "order = opposite"]
    modes = _write(tmp_path, "orders.modes", "\n".join(lines) + "\n")
    assert main(["modes-validate", modes]) == 2
    assert capsys.readouterr().err == f"parse error: line {at + 2}: repeated key 'order'\n"
    pairs = TWO.replace("order = 0<=1\n", "order = 0<=1\norder = 0<=0 1<=1\n")
    assert parse_modes_text(pairs)[0] == parse_modes_text(TWO)[0]  # order pairs still accumulate


def test_an_order_line_with_two_bounds_is_a_parse_error(tmp_path, capsys):
    text = (ROOT / "systems" / "lnl.modes").read_text().replace("L <= U\n", "L <= U <= L\n")
    modes = _write(tmp_path, "chain.modes", text)
    assert main(["modes-validate", modes]) == 2
    assert capsys.readouterr().err.startswith(
        "parse error: line 19: order lines look like `m <= n`, got 'L <= U <= L'")
