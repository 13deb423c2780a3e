"""A relations backend with one structure-map family deliberately damaged.

Used by the mutation checks of the coherence validator: each corruption
must make `model_coherence_validate` report at least one violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from grass.semantics import ModelBackend, Rel

CORRUPTIONS = ("delta", "eps", "tau", "iota", "c", "w")


def _rotation(x_obj):
    xs = x_obj.elements
    return dict(zip(xs, xs[1:] + xs[:1]))


@dataclass(frozen=True)
class CorruptedBackend(ModelBackend):
    """`corrupt` names the damaged family, one of CORRUPTIONS."""

    corrupt: str = "delta"

    def eps(self, mode, x_obj):
        rel = super().eps(mode, x_obj)
        if self.corrupt != "eps" or len(x_obj) <= 1:
            return rel
        rot = _rotation(x_obj)
        return Rel(rel.dom, rel.cod, frozenset((xs, rot[x]) for xs, x in rel.pairs))

    def delta(self, mode, r, q, x_obj):
        rel = super().delta(mode, r, q, x_obj)
        if self.corrupt != "delta":
            return rel
        return Rel(rel.dom, rel.cod,
                   frozenset((xs, tuple(reversed(groups))) for xs, groups in rel.pairs))

    def tau_element(self, mode, value, entry):
        out = super().tau_element(mode, value, entry)
        return tuple(reversed(out)) if self.corrupt == "tau" else out

    def iota(self, mode, value):
        rel = super().iota(mode, value)
        return Rel(rel.dom, rel.cod, frozenset()) if self.corrupt == "iota" else rel

    def c_map(self, mode, r, q, x_obj):
        rel = super().c_map(mode, r, q, x_obj)
        if self.corrupt != "c":
            return rel
        rot = _rotation(x_obj)
        return Rel(rel.dom, rel.cod, frozenset(
            (xs, (tuple(rot[v] for v in left), right)) for xs, (left, right) in rel.pairs))

    def w_map(self, mode, x_obj):
        rel = super().w_map(mode, x_obj)
        return Rel(rel.dom, rel.cod, frozenset()) if self.corrupt == "w" else rel


def corrupted(backend: ModelBackend, which: str) -> CorruptedBackend:
    """A copy of `backend` whose `which` structure maps are damaged."""
    if which not in CORRUPTIONS:
        raise ValueError(f"unknown corruption {which!r}")
    return CorruptedBackend(space=backend.space, arities=backend.arities,
                            base_carriers=backend.base_carriers,
                            nat_budget=backend.nat_budget, corrupt=which)
