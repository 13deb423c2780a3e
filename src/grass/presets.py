"""Stock modes and mode systems used by the test suites and the CLI.

U, R, A, L are the intuitionistic / relevant / affine / linear modes; fh
is the file-handle mode over the none-one-tons semiring.
"""

from __future__ import annotations

from .errors import ConfigError
from .grades import Ideal, Mode, ModeMorphism, builtin_algebra, order_closure
from .modespace import ModeSpace

_TOP = builtin_algebra("top")
_BOOL = builtin_algebra("bool")
_NAT_DISCRETE = builtin_algebra("nat-discrete")
_NONE_ONE_TONS = builtin_algebra("none-one-tons")


def mode_U() -> Mode:
    return Mode("U", _TOP, Ideal("top", members=frozenset({"t"})), weak=True)


def mode_R() -> Mode:
    return Mode("R", _TOP, Ideal("top", members=frozenset({"t"})), weak=False)


def mode_A() -> Mode:
    return Mode("A", _BOOL, Ideal("bool", members=frozenset({0})), weak=True)


def mode_L() -> Mode:
    return Mode("L", _NAT_DISCRETE, Ideal("nat-discrete", nat_predicate="zero-only"), weak=False)


def mode_fh() -> Mode:
    return Mode("fh", _NONE_ONE_TONS, Ideal("none-one-tons", members=frozenset({0, "w"})), weak=True)


MODE_FACTORIES = {"U": mode_U, "R": mode_R, "A": mode_A, "L": mode_L, "fh": mode_fh}

_MORPHISMS = {
    ("L", "U"): ModeMorphism("L", "U", named="to-top"),
    ("L", "A"): ModeMorphism("L", "A", named="clamp-01"),
    ("L", "fh"): ModeMorphism("L", "fh", named="clamp-01w"),
    ("fh", "U"): ModeMorphism("fh", "U", table={0: "t", 1: "t", "w": "t"}),
    ("A", "U"): ModeMorphism("A", "U", table={0: "t", 1: "t"}),
    ("R", "U"): ModeMorphism("R", "U", table={"t": "t"}),
}


def standard_space(
    mode_ids: tuple[str, ...],
    order: tuple[tuple[str, str], ...] = (),
    base_types: dict[str, str] | None = None,
) -> ModeSpace:
    """Assemble a mode space from the stock modes with the stock morphisms."""
    modes = {m: MODE_FACTORIES[m]() for m in mode_ids}
    pairs = order_closure(order, mode_ids)
    morphisms = {}
    for a, b in pairs:
        if a == b:
            continue
        if (a, b) not in _MORPHISMS:
            raise ConfigError(f"no stock morphism for {a} <= {b}")
        morphisms[(a, b)] = _MORPHISMS[(a, b)]
    return ModeSpace(modes=modes, order_pairs=pairs, morphisms=morphisms,
                     base_types=base_types or {})


_SYSTEMS = {
    "L": ((("L"),), ()),
    "U": ((("U"),), ()),
    "R": ((("R"),), ()),
    "A": ((("A"),), ()),
    "fh": ((("fh"),), ()),
    "LU": (("L", "U"), (("L", "U"),)),
    "LA": (("L", "A"), (("L", "A"),)),
    "LfhU": (("L", "fh", "U"), (("L", "fh"), ("fh", "U"))),
    "all": (("U", "R", "A", "L", "fh"),
            (("L", "U"), ("L", "A"), ("L", "fh"), ("fh", "U"), ("A", "U"), ("R", "U"))),
}

_BASES = {"L": ("P", ("a", "b")), "U": ("Q", ("c", "d")), "R": ("S", ("s1", "s2")),
          "A": ("B", ("b1", "b2")), "fh": ("H", ("h1", "h2"))}


def system(name: str):
    """A stock mode system plus its relations backend, by short name."""
    from .semantics import ModelBackend

    mode_ids, order = _SYSTEMS[name]
    mode_ids = tuple(mode_ids) if isinstance(mode_ids, tuple) else (mode_ids,)
    bases = {}
    carriers = {}
    for m in mode_ids:
        base, carrier = _BASES[m]
        bases[base] = m
        carriers[base] = carrier
    space = standard_space(mode_ids, tuple(order), bases)
    backend = ModelBackend(space=space, base_carriers=carriers, nat_budget=4)
    return space, backend
