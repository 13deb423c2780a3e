"""The mode systems each workload loads before it runs.

`setup` is what `setup_s` times: load or assemble each system, validate
it with `modespace_validate` at the default budget, and build its
relations backend.  `api` supplies every grass entry point used here, so a
traced run can hand in wrapped versions.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

SYSTEMS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "systems")

# Stock systems the coherence workload draws from, plus the shipped files.
STOCK = ("L", "U", "R", "A", "fh", "LU", "LA", "LfhU", "all")
SHIPPED = {"allmodes": "allmodes.modes", "lnl": "lnl.modes", "filehandle": "filehandle.modes"}

# The backends of acceptance criteria 5 and 6: L <= U and fh, carriers of size <= 3.
SEMANTIC = {
    "LU": (("L", "U"), (("L", "U"),), {"P": "L", "Q": "U"}, {("U", "t"): 1},
           {"P": ("a", "b", "c"), "Q": ("c1", "c2")}),
    "fh": (("fh",), (), {"H": "fh", "K": "fh"}, {("fh", "w"): 1},
           {"H": ("h1", "h2", "h3"), "K": ("k1", "k2")}),
}


def plain_api() -> SimpleNamespace:
    """The grass entry points the benchmark calls, unwrapped."""
    from grass import cli, derivation, modespace, presets, rewrite, semantics, sexpr

    return SimpleNamespace(
        load_modes_file=cli.load_modes_file,
        system=presets.system,
        standard_space=presets.standard_space,
        ModelBackend=semantics.ModelBackend,
        modespace_validate=modespace.modespace_validate,
        derivation_from_sexpr=sexpr.derivation_from_sexpr,
        term_from_sexpr=sexpr.term_from_sexpr,
        type_from_sexpr=sexpr.type_from_sexpr,
        check_derivation=derivation.check_derivation,
        elaborate=derivation.elaborate,
        normalize=rewrite.normalize,
        semantic_eq=semantics.semantic_eq,
        subst_comp_check=semantics.subst_comp_check,
        model_coherence_validate=semantics.model_coherence_validate,
    )


def _loaded(api, name):
    return api.load_modes_file(os.path.join(SYSTEMS_DIR, SHIPPED[name]))


def _sources(workload: str, api):
    if workload == "check":
        return {"all": lambda: _loaded(api, "allmodes"), "LfhU": lambda: api.system("LfhU")}
    if workload == "normalize":
        return {"lnl": lambda: _loaded(api, "lnl")}
    if workload == "semantic":
        def semantic(name):
            modes, order, bases, arities, carriers = SEMANTIC[name]
            space = api.standard_space(modes, order, bases)
            return space, api.ModelBackend(space=space, arities=arities, base_carriers=carriers,
                                           nat_budget=4)
        return {name: (lambda name=name: semantic(name)) for name in SEMANTIC}
    if workload == "coherence":
        sources = {name: (lambda name=name: api.system(name)) for name in STOCK}
        sources.update({name: (lambda name=name: _loaded(api, name)) for name in SHIPPED})
        return sources
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, api) -> dict:
    """name -> (space, backend) for every system the workload uses."""
    out = {}
    for name, load in _sources(workload, api).items():
        space, backend = load()
        report = api.modespace_validate(space)
        if not report.ok():
            raise RuntimeError(f"mode system {name} failed validation:\n{report.render()}")
        backend = api.ModelBackend(space=space, arities=dict(backend.arities),
                                   base_carriers=dict(backend.base_carriers),
                                   nat_budget=backend.nat_budget)
        out[name] = (space, backend)
    return out
