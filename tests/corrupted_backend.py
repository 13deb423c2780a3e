"""Relations backends with one structure-map family deliberately damaged.

Used by the mutation checks of the coherence validators.  A corruption in
CORRUPTIONS rotates or drops elements of an element-level relation, which
only `grass.oracles.coherence_by_elements` reads; one in
POSITION_CORRUPTIONS damages a map's `Positions`, which both validators
read, and `model_coherence_validate` must report it as the oracle does;
one in ILL_TYPED_CORRUPTIONS makes them no map between its objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from grass.semantics import ModelBackend, Positions, Rel

CORRUPTIONS = ("delta", "eps", "tau", "iota", "c", "w")
POSITION_CORRUPTIONS = ("delta", "c", "c-fresh", "tau")
# positions that are no map between their objects, which the validator refuses
ILL_TYPED_CORRUPTIONS = ("delta-overrun", "tau-untransposed")


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


@dataclass(frozen=True)
class PositionCorruptedBackend(ModelBackend):
    """`corrupt` names the family whose positions are damaged, one of
    POSITION_CORRUPTIONS or ILL_TYPED_CORRUPTIONS."""

    corrupt: str = "delta"

    def delta_positions(self, mode, r, q):
        p = super().delta_positions(mode, r, q)
        if self.corrupt == "delta-overrun" and p.out:  # the last output copies no coordinate
            return Positions(p.src, p.out[:-1] + (p.src + 1,))
        if self.corrupt != "delta":
            return p
        ar, aq = self.arity(mode, r), self.arity(mode, q)
        # the a(r) chunks of a(q) coordinates in reverse order
        return Positions(p.src, tuple(p.out[c * aq + j] for c in reversed(range(ar))
                                      for j in range(aq)))

    def c_positions(self, mode, r, q):
        p = super().c_positions(mode, r, q)
        ar = self.arity(mode, r)
        if self.corrupt == "c":  # the split's halves swapped: the source's last coordinates go left
            return Positions(p.src, p.out[ar:] + p.out[:ar])
        if self.corrupt == "c-fresh":  # the right half fresh, not copied
            return Positions(p.src, p.out[:ar] + (p.src,) * (len(p.out) - ar))
        return p

    def tau_positions(self, mode, value, k):
        if self.corrupt == "tau-untransposed":  # the identity: past a(q) = 1, slots of the wrong factor
            return Positions(k * self.arity(mode, value), tuple(range(k * self.arity(mode, value))))
        if self.corrupt != "tau":
            return super().tau_positions(mode, value, k)
        # tuple j pairs coordinate j of every factor but the last with the
        # last factor's coordinate a-1-j: the last factor is not transposed
        # in place.  (Leaving every factor untransposed mixes the factors'
        # coordinates, which no carriers of different sizes admit.)
        a = self.arity(mode, value)
        return Positions(k * a, tuple(i * a + (a - 1 - j if i == k - 1 else j)
                                      for j in range(a) for i in range(k)))


def corrupted(backend: ModelBackend, which: str, positions: bool = False) -> ModelBackend:
    """A copy of `backend` whose `which` structure maps are damaged, element
    by element or, with `positions`, in their positions."""
    cls, names = ((PositionCorruptedBackend, POSITION_CORRUPTIONS + ILL_TYPED_CORRUPTIONS)
                  if positions else (CorruptedBackend, CORRUPTIONS))
    if which not in names:
        raise ValueError(f"unknown corruption {which!r}")
    return cls(space=backend.space, arities=backend.arities, base_carriers=backend.base_carriers,
               nat_budget=backend.nat_budget, corrupt=which)
