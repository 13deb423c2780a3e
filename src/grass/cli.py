"""Batch front end: mode-system declarations, program files, and commands.

Exit codes: 0 success, 1 check/validation failure, 2 usage or parse error
or input nested too deeply.  The enumeration budget defaults to 8 and can
be overridden with the GRASS_BUDGET environment variable; a value that is
not an integer is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .derivation import Derivation, check_derivation, elaborate
from .errors import GrassError, NestingError, ParseError, UsageError
from .grades import (
    DEFAULT_BUDGET,
    GradeAlgebra,
    Ideal,
    Mode,
    ModeMorphism,
    NAT_IDEALS,
    builtin_algebra,
    order_closure,
)
from .modespace import ModeSpace, modespace_validate
from .rewrite import normalize
from .semantics import ModelBackend, interp_derivation, model_coherence_validate
from .sexpr import (
    derivation_from_sexpr,
    grade_value,
    show_judgment,
    term_from_sexpr,
    term_to_sexpr,
    type_from_sexpr,
)
from .suites import (
    preservation_suite,
    semantic_suite,
    subst_comp_suite,
    substitution_suite,
)
from .syntax import Judgment, mode_of


def _budget() -> int:
    raw = os.environ.get("GRASS_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"GRASS_BUDGET must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# Mode-system declaration files


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_modes_text(text: str):
    """Parse a declaration file into (ModeSpace, ModelBackend | None)."""
    algebras: dict[str, GradeAlgebra] = {}
    raw_algebras: dict[str, dict] = {}
    modes: dict[str, dict] = {}
    order: set[tuple[str, str]] = set()
    morphisms: dict[tuple[str, str], ModeMorphism] = {}
    backend_decl: dict | None = None
    bases: dict[str, str] = {}
    base_carriers: dict[str, tuple] = {}

    section: tuple | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            words = line[1:-1].split()
            if not words:
                raise ParseError("empty section header", lineno)
            kind = words[0]
            if kind == "algebra" and len(words) == 2:
                section = ("algebra", words[1])
                raw_algebras[words[1]] = {"add": {}, "mul": {}, "order": set()}
            elif kind == "mode" and len(words) == 2:
                section = ("mode", words[1])
                modes[words[1]] = {}
            elif kind == "order" and len(words) == 1:
                section = ("order",)
            elif kind == "morphism" and len(words) == 3:
                section = ("morphism", words[1], words[2])
                morphisms[(words[1], words[2])] = None
            elif kind == "backend" and len(words) == 1:
                section = ("backend",)
                backend_decl = {"arities": {}, "budget": 4}
            elif kind == "base" and len(words) == 3:
                section = ("base", words[1], words[2])
                bases[words[1]] = words[2]
            else:
                raise ParseError(f"bad section header {line!r}", lineno)
            continue
        if section is None:
            raise ParseError(f"declaration outside any section: {line!r}", lineno)
        try:
            _parse_decl_line(section, line, raw_algebras, modes, order, morphisms,
                             backend_decl, base_carriers)
        except ParseError:
            raise
        except Exception as e:  # noqa: BLE001 - surface as a parse error with position
            raise ParseError(f"{e}", lineno) from None

    for name, decl in raw_algebras.items():
        algebras[name] = _build_algebra(name, decl)

    built_modes: dict[str, Mode] = {}
    for name, decl in modes.items():
        alg_name = decl.get("algebra")
        if alg_name is None:
            raise ParseError(f"mode {name}: missing algebra")
        alg = algebras.get(alg_name)
        if alg is None:
            alg = builtin_algebra(alg_name)
            algebras[alg_name] = alg
        cont = decl.get("cont")
        if cont is None:
            raise ParseError(f"mode {name}: missing cont")
        if isinstance(cont, str):
            ideal = Ideal(alg.id, nat_predicate=cont)
        else:
            ideal = Ideal(alg.id, members=frozenset(cont))
        built_modes[name] = Mode(name, alg, ideal, decl.get("weak", False))

    built_morphisms = {}
    for (a, b), decl in morphisms.items():
        if decl is None:
            raise ParseError(f"morphism {a}->{b}: missing map")
        built_morphisms[(a, b)] = decl

    space = ModeSpace(modes=built_modes, order_pairs=frozenset(order),
                      morphisms=built_morphisms, base_types=bases)
    backend = None
    if backend_decl is not None:
        backend = ModelBackend(
            space=space,
            arities=backend_decl["arities"],
            base_carriers=base_carriers,
            nat_budget=backend_decl["budget"],
        )
    elif base_carriers:
        backend = ModelBackend(space=space, base_carriers=base_carriers)
    return space, backend


def _parse_decl_line(section, line, raw_algebras, modes, order, morphisms,
                     backend_decl, base_carriers):
    kind = section[0]
    if kind == "algebra":
        decl = raw_algebras[section[1]]
        if "=" not in line:
            raise ValueError(f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key_parts = key.split()
        value = value.strip()
        if key_parts[0] in ("add", "mul") and len(key_parts) == 3:
            table = decl[key_parts[0]]
            table[(grade_value(key_parts[1]), grade_value(key_parts[2]))] = grade_value(value)
        elif key_parts == ["builtin"]:
            decl["builtin"] = value
        elif key_parts == ["carrier"]:
            decl["carrier"] = tuple(grade_value(v) for v in value.split())
        elif key_parts == ["zero"]:
            decl["zero"] = grade_value(value)
        elif key_parts == ["one"]:
            decl["one"] = grade_value(value)
        elif key_parts == ["order"]:
            if value in ("usual", "opposite", "discrete"):
                decl["nat_order"] = value
            else:
                for pair in value.split():
                    lo, _, hi = pair.partition("<=")
                    decl["order"].add((grade_value(lo), grade_value(hi)))
        else:
            raise ValueError(f"unknown algebra declaration {key.strip()!r}")
        return
    if kind == "mode":
        decl = modes[section[1]]
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "algebra":
            decl["algebra"] = value
        elif key == "cont":
            if value.startswith("@"):
                pred = value[1:]
                if pred not in NAT_IDEALS:
                    raise ValueError(f"unknown ideal predicate {value!r}")
                decl["cont"] = pred
            else:
                decl["cont"] = [grade_value(v) for v in value.split()]
        elif key == "weak":
            decl["weak"] = value.lower() in ("true", "yes", "1")
        else:
            raise ValueError(f"unknown mode declaration {key!r}")
        return
    if kind == "order":
        lo, sep, hi = line.partition("<=")
        if not sep:
            raise ValueError(f"order lines look like `m <= n`, got {line!r}")
        order.add((lo.strip(), hi.strip()))
        return
    if kind == "morphism":
        src, dst = section[1], section[2]
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key != "map":
            raise ValueError(f"unknown morphism declaration {key!r}")
        if "->" in value:
            table = {}
            for entry in value.split(","):
                a, _, b = entry.partition("->")
                table[grade_value(a.strip())] = grade_value(b.strip())
            morphisms[(src, dst)] = ModeMorphism(src, dst, table=table)
        else:
            morphisms[(src, dst)] = ModeMorphism(src, dst, named=value)
        return
    if kind == "backend":
        key, _, value = line.partition("=")
        key_parts = key.split()
        value = value.strip()
        if key_parts[0] == "arity" and len(key_parts) == 3:
            backend_decl["arities"][(key_parts[1], grade_value(key_parts[2]))] = int(value)
        elif key_parts == ["budget"]:
            backend_decl["budget"] = int(value)
        else:
            raise ValueError(f"unknown backend declaration {key.strip()!r}")
        return
    if kind == "base":
        key, _, value = line.partition("=")
        if key.strip() != "carrier":
            raise ValueError(f"unknown base declaration {key.strip()!r}")
        base_carriers[section[1]] = tuple(value.split())
        return
    raise ValueError(f"unhandled section {kind!r}")


def _build_algebra(name: str, decl: dict) -> GradeAlgebra:
    if "builtin" in decl:
        base = builtin_algebra(decl["builtin"])
        return GradeAlgebra(
            id=name, kind=base.kind, carrier=base.carrier, zero=base.zero, one=base.one,
            add_table=base.add_table, mul_table=base.mul_table,
            order=base.order, nat_order=decl.get("nat_order", base.nat_order),
        )
    if "nat_order" in decl and "carrier" not in decl:
        return GradeAlgebra(id=name, kind="nat", nat_order=decl["nat_order"])
    carrier = decl.get("carrier")
    if carrier is None:
        raise ParseError(f"algebra {name}: no carrier and no builtin")
    return GradeAlgebra(
        id=name, kind="finite", carrier=carrier,
        zero=decl.get("zero", 0), one=decl.get("one", 1),
        add_table=decl["add"], mul_table=decl["mul"],
        order=order_closure(decl["order"], carrier),
    )


def load_modes_file(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_modes_text(fh.read())


# ---------------------------------------------------------------------------
# Program files


class ProgramItem:
    def __init__(self, kind: str, name: str, payload):
        self.kind = kind
        self.name = name
        self.payload = payload


def parse_program_text(text: str, space: ModeSpace) -> dict[str, ProgramItem]:
    items: dict[str, ProgramItem] = {}
    logical: list[tuple[int, str]] = []
    buffer = ""
    start = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        starts_item = line.split(None, 1)[0] in ("type", "term", "derivation")
        if starts_item:
            if buffer:
                logical.append((start, buffer))
            buffer, start = line, lineno
        elif buffer:
            buffer += " " + line
        else:
            raise ParseError(f"items start with type/term/derivation, got {line!r}", lineno)
    if buffer:
        logical.append((start, buffer))
    for start, buffer in logical:
        if buffer.count("(") != buffer.count(")"):
            raise ParseError("unbalanced parentheses in item", start)

    for lineno, item in logical:
        words = item.split(None, 2)
        if len(words) < 3:
            raise ParseError(f"items look like `kind name ...`, got {item!r}", lineno)
        kind, name, rest = words
        if name in items:
            raise ParseError(f"duplicate item name {name!r}", lineno)
        try:
            if kind == "type":
                _expect_eq(rest, lineno)
                items[name] = ProgramItem("type", name, type_from_sexpr(rest[2:], space))
            elif kind == "term":
                if not rest.startswith(":"):
                    raise ParseError("term items look like `term name : TYPE = TERM`", lineno)
                ty_text, _, tm_text = _split_top(rest[1:], "=")
                ty = type_from_sexpr(ty_text, space)
                tm = term_from_sexpr(tm_text)
                items[name] = ProgramItem("term", name, (tm, ty))
            elif kind == "derivation":
                _expect_eq(rest, lineno)
                items[name] = ProgramItem(
                    "derivation", name, derivation_from_sexpr(rest[2:], space))
            else:
                raise ParseError(f"unknown item kind {kind!r}", lineno)
        except ParseError as e:
            if e.line is None:
                raise type(e)(str(e), lineno) from None
            raise
        except GrassError as e:
            raise ParseError(f"{name}: {e}", lineno) from None
    return items


def _expect_eq(rest: str, lineno: int) -> None:
    if not rest.startswith("="):
        raise ParseError("expected `= ...`", lineno)


def _split_top(text: str, sep: str):
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            return text[:i].strip(), sep, text[i + 1:].strip()
    raise ParseError(f"missing top-level {sep!r}")


def load_program_file(path: str, space: ModeSpace) -> dict[str, ProgramItem]:
    with open(path, encoding="utf-8") as fh:
        return parse_program_text(fh.read(), space)


def _item_derivation(item: ProgramItem, space: ModeSpace) -> Derivation:
    if item.kind == "derivation":
        return item.payload
    if item.kind == "term":
        tm, ty = item.payload
        j = Judgment((), (), (), mode_of(ty), tm, ty)
        return elaborate(j, space)
    raise GrassError(f"item {item.name} is a type, not a checkable item")


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    space, _backend = load_modes_file(args.modes)
    _validate_space(space, args)
    items = load_program_file(args.program, space)
    failed = False
    for name in items if args.item is None else [args.item]:
        item = _lookup(items, name)
        if item.kind == "type":
            print(f"{name}: type ok")
            continue
        try:
            d = _item_derivation(item, space)
            check_derivation(d, space)
            print(f"{name}: {show_judgment(d.conclusion)}")
        except GrassError as e:
            print(f"{name}: FAIL {e}")
            failed = True
    return 1 if failed else 0


def cmd_normalize(args) -> int:
    space, _backend = load_modes_file(args.modes)
    _validate_space(space, args)
    items = load_program_file(args.program, space)
    d = _item_derivation(_lookup(items, args.item), space)
    out, steps, is_normal = normalize(d, args.fuel, space)
    status = "normal" if is_normal else "fuel exhausted"
    print(f"{args.item}: {term_to_sexpr(out.conclusion.term)}")
    print(f"steps: {steps} ({status})")
    return 0


def cmd_interp(args) -> int:
    space, backend = load_modes_file(args.modes)
    _validate_space(space, args)
    if backend is None:
        print("no backend declared in the modes file", file=sys.stderr)
        return 2
    items = load_program_file(args.program, space)
    d = _item_derivation(_lookup(items, args.item), space)
    rel = interp_derivation(backend, d)
    for a, b in sorted(rel.pairs, key=repr):
        print(f"{a!r} ~ {b!r}")
    print(f"({len(rel.pairs)} pairs)")
    return 0


def cmd_modes_validate(args) -> int:
    space, backend = load_modes_file(args.modes)
    report = modespace_validate(space, args.budget)
    if report.ok() and backend is not None:
        co = model_coherence_validate(backend, max_size=args.max_size, budget=backend.nat_budget)
        report.violations.extend(co.violations)
    if report.ok():
        print("ok: no violations")
        return 0
    print(report.render())
    return 1


def cmd_oracle(args) -> int:
    space, backend = load_modes_file(args.modes)
    _validate_space(space, args)
    # the smaller suites run at least one case, unless none was asked for
    sub_count = max(1, args.count // 2) if args.count > 0 else 0
    comp_count = max(1, args.count // 3) if args.count > 0 else 0
    results = [
        preservation_suite(space, args.seed, args.count, args.max_depth),
        substitution_suite(space, args.seed + 1, sub_count, min(args.max_depth, 4)),
    ]
    if backend is not None:
        results.append(semantic_suite(backend, args.seed + 2, args.count, args.max_depth))
        results.append(subst_comp_suite(backend, args.seed + 3, comp_count))
    failures = 0
    for r in results:
        print(r.render())
        failures += len(r.failures)
    print(f"total failures: {failures}")
    return 1 if failures else 0


def _validate_space(space: ModeSpace, args) -> None:
    if getattr(args, "no_validate", False):
        return
    report = modespace_validate(space, _budget())
    if not report.ok():
        raise GrassError("mode system failed validation:\n" + report.render())


def _lookup(items: dict[str, ProgramItem], name: str) -> ProgramItem:
    try:
        return items[name]
    except KeyError:
        raise UsageError(f"no item named {name!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grass", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, program=True, item_opt=True):
        p.add_argument("modes", help="mode-system declaration file")
        if program:
            p.add_argument("program", help="program file")
        if item_opt:
            p.add_argument("item", nargs="?", default=None, help="item name (default: all)")
        p.add_argument("--no-validate", action="store_true",
                       help="skip eager mode-system validation")

    p = sub.add_parser("check", help="check derivations and elaborate terms")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("normalize", help="beta-normalize one item")
    common(p, item_opt=False)
    p.add_argument("item")
    p.add_argument("--fuel", type=int, default=64)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("interp", help="print an item's denotation")
    common(p, item_opt=False)
    p.add_argument("item")
    p.set_defaults(fn=cmd_interp)

    p = sub.add_parser("modes-validate", help="validate a mode system and its backend")
    p.add_argument("modes")
    p.add_argument("--budget", type=int, default=_budget())
    p.add_argument("--max-size", type=int, default=3)
    p.set_defaults(fn=cmd_modes_validate)

    p = sub.add_parser("oracle", help="run the generated oracle suites")
    p.add_argument("modes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=5)
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (NestingError, RecursionError):
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"no such file: {e.filename}", file=sys.stderr)
        return 2
    except GrassError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
