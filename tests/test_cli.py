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


def test_deeply_nested_input_is_a_clean_error(tmp_path, capsys):
    depth = 5000
    prog = _write(tmp_path, "deep.prog", "type deep = " + "(* " * depth + "P" + " P)" * depth + "\n")
    assert main(["check", str(ROOT / "systems" / "lnl.modes"), prog]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: input nested too deeply\n"
    assert "Traceback" not in captured.out + captured.err


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
