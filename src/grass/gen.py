"""Seeded random generation of types, derivations, redexes, and bundles.

Generation is bottom-up through the rule constructors, so everything
produced is valid by construction.  Context variables come from a
per-session allocator, which keeps premise contexts disjoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, partial

from .derivation import (
    Derivation,
    lift_last,
    mk_arrowE,
    mk_arrowI,
    mk_cont,
    mk_dropE,
    mk_dropI,
    mk_exchange,
    mk_pairE,
    mk_pairI,
    mk_raiseE,
    mk_raiseI,
    mk_sub,
    mk_sumE,
    mk_sumIL,
    mk_sumIR,
    mk_unitE,
    mk_unitI,
    mk_var,
    mk_weak,
    move_to_end,
)
from .errors import GrassError, SizeLimitError
from .grades import Grade, GradeValue
from .modespace import ModeSpace
from .rewrite import SubstitutionBundle
from .semantics import ObjectSizes, default_arity
from .syntax import TBase, TDrop, TFun, TRaise, TSum, TTensor, TUnit, Type, mode_of


@dataclass
class Gen:
    """A seeded generator over one mode space."""

    space: ModeSpace
    rng: random.Random
    max_depth: int = 5
    max_obj_size: int = 600
    base_sizes: dict[str, int] = field(default_factory=dict)
    _counter: int = 0

    # -- small helpers ------------------------------------------------------

    def fresh(self) -> str:
        self._counter += 1
        return f"v{self._counter}"

    def grades_of(self, mode: str, small: bool = True) -> list[GradeValue]:
        alg = self.space.mode(mode).algebra
        if alg.kind == "nat":
            return [0, 1, 2] if small else [0, 1, 2, 3]
        return list(alg.carrier)

    def modes_at_least(self, mode: str) -> list[str]:
        return [n for n in self.space.modes if self.space.leq(mode, n)]

    def modes_at_most(self, mode: str) -> list[str]:
        return [n for n in self.space.modes if self.space.leq(n, mode)]

    def bases_at(self, mode: str) -> list[str]:
        return [b for b, m in self.space.base_types.items() if m == mode]

    # -- object-size accounting (keeps the semantic suites small) ----------

    @cached_property
    def sizes(self) -> ObjectSizes:
        """Object sizes at the default arities and `base_sizes` (2 elements
        for a base type not listed), kept for the life of the generator."""
        return ObjectSizes(partial(default_arity, self.space), lambda name: self.base_sizes.get(name, 2))

    def _fits(self, ty: Type) -> bool:
        """Whether |[[ty]]| <= max_obj_size under `sizes`."""
        try:
            return self.sizes.size(ty) <= self.max_obj_size
        except SizeLimitError:
            return False

    # -- types --------------------------------------------------------------

    def gen_type(self, mode: str, depth: int) -> Type:
        for _ in range(24):
            ty = self._try_type(mode, depth)
            if ty is not None and self._fits(ty):
                return ty
        bases = self.bases_at(mode)
        if bases:
            return TBase(self.rng.choice(bases), mode)
        return TUnit(mode)

    def _try_type(self, mode: str, depth: int) -> Type | None:
        rng = self.rng
        choices = ["unit", "base", "base", "tensor", "fun", "drop", "raise", "sum"]
        kind = rng.choice(choices if depth > 0 else ["unit", "base", "base"])
        if kind == "unit":
            return TUnit(mode)
        if kind == "base":
            bases = self.bases_at(mode)
            return TBase(rng.choice(bases), mode) if bases else None
        if kind == "tensor":
            return TTensor(self.gen_type(mode, depth - 1), self.gen_type(mode, depth - 1))
        if kind == "sum":
            return TSum(self.gen_type(mode, depth - 1), self.gen_type(mode, depth - 1))
        if kind == "fun":
            arg_mode = rng.choice(self.modes_at_least(mode))
            arg = self.gen_type(arg_mode, depth - 1)
            q = rng.choice(self.grades_of(arg_mode))
            return TFun(arg, Grade(self.space.mode(arg_mode).algebra.id, q),
                        self.gen_type(mode, depth - 1))
        if kind == "drop":
            high = rng.choice(self.modes_at_least(mode))
            q = rng.choice(self.grades_of(high))
            return TDrop(Grade(self.space.mode(high).algebra.id, q), mode, high,
                         self.gen_type(high, depth - 1))
        low = rng.choice(self.modes_at_most(mode))
        return TRaise(low, mode, self.gen_type(low, depth - 1))

    # -- derivations of a given type ----------------------------------------

    def gen_of_type(self, ty: Type, depth: int) -> Derivation:
        mode = mode_of(ty)
        for _ in range(24):
            try:
                d = self._try_of_type(ty, mode, depth)
            except GrassError:
                continue
            if d is not None:
                return self.maybe_wrap(d)
        return mk_var(self.space, self.fresh(), ty)

    def _try_of_type(self, ty: Type, mode: str, depth: int) -> Derivation | None:
        rng = self.rng
        moves = ["var", "intro"]
        if depth > 1:
            moves += ["elim", "elim"]
        move = rng.choice(moves)
        if move == "var" or depth <= 0:
            return mk_var(self.space, self.fresh(), ty)
        if move == "intro":
            return self._intro(ty, mode, depth)
        return self._elim(ty, mode, depth)

    def _intro(self, ty: Type, mode: str, depth: int) -> Derivation | None:
        rng = self.rng
        match ty:
            case TUnit(_):
                return mk_unitI(self.space, mode)
            case TTensor(a, b):
                return mk_pairI(self.space, self.gen_of_type(a, depth - 1),
                                self.gen_of_type(b, depth - 1))
            case TSum(a, b):
                if rng.random() < 0.5:
                    return mk_sumIL(self.space, self.gen_of_type(a, depth - 1), b)
                return mk_sumIR(self.space, self.gen_of_type(b, depth - 1), a)
            case TFun(a, g, b):
                body = self.gen_of_type(b, depth - 1)
                body = self._bind_fresh(body, a, g.value)
                return mk_arrowI(self.space, body)
            case TDrop(g, low, high, a):
                return mk_dropI(self.space, self.gen_of_type(a, depth - 1), g.value, low)
            case TRaise(low, high, a):
                prem = self.gen_of_type(a, depth - 1)
                return mk_raiseI(self.space, prem, high)
            case TBase(_, _):
                return None
        return None

    def _bind_fresh(self, body: Derivation, arg_ty: Type, target: GradeValue,
                    weak_only: bool = False) -> Derivation:
        """Arrange a final context entry of the argument type at exactly
        `target`: bind an existing use of that type when one can be lifted,
        otherwise weaken a fresh variable in."""
        space = self.space
        n = mode_of(arg_ty)
        alg = space.mode(n).algebra
        c = body.conclusion
        if not weak_only:
            usable = [
                i for i, ((_x, ty), m, g) in enumerate(zip(c.ctx, c.modes, c.rho))
                if ty == arg_ty and m == n and alg.leq(g.value, target)
            ]
            if usable and self.rng.random() < 0.8:
                i = self.rng.choice(usable)
                return lift_last(space, move_to_end(space, body, c.ctx[i][0]), target)
        if space.mode(n).weak and space.leq(c.mode, n):
            return lift_last(space, mk_weak(space, body, self.fresh(), arg_ty), target)
        raise GrassError("cannot bind a fresh variable at the target grade")

    def _elim(self, ty: Type, mode: str, depth: int) -> Derivation | None:
        rng = self.rng
        kind = rng.choice(["app", "unitE", "pairE", "dropE", "raiseE", "sumE"])
        space = self.space
        if kind == "app":
            arg_mode = rng.choice(self.modes_at_least(mode))
            arg_ty = self.gen_type(arg_mode, depth - 2)
            q = rng.choice(self.grades_of(arg_mode))
            fun_ty = TFun(arg_ty, Grade(space.mode(arg_mode).algebra.id, q), ty)
            if not self._fits(fun_ty):
                return None
            fn = self.gen_of_type(fun_ty, depth - 1)
            fn = self.maybe_wrap(fn)
            arg = self.gen_of_type(arg_ty, depth - 1)
            return mk_arrowE(space, fn, arg)
        if kind == "unitE":
            body = self.gen_of_type(ty, depth - 1)
            scrut = self.gen_of_type(TUnit(mode), depth - 1)
            scrut = self.maybe_wrap(scrut)
            q = rng.choice(self.grades_of(mode))
            return mk_unitE(space, q, body, scrut)
        if kind == "pairE":
            n = rng.choice(self.modes_at_least(mode))
            t1 = self.gen_type(n, depth - 2)
            t2 = self.gen_type(n, depth - 2)
            if not self._fits(TTensor(t1, t2)):
                return None
            q = rng.choice(self.grades_of(n))
            body = self.gen_of_type(ty, depth - 1)
            body = self._bind_fresh(body, t1, q)
            body = self._bind_fresh(body, t2, q)
            scrut = self.gen_of_type(TTensor(t1, t2), depth - 1)
            scrut = self.maybe_wrap(scrut)
            return mk_pairE(space, body, scrut)
        if kind == "sumE":
            n = rng.choice(self.modes_at_least(mode))
            alg = space.mode(n).algebra
            qs = [q for q in self.grades_of(n) if alg.leq(alg.one, q)]
            if not qs:
                return None
            q = rng.choice(qs)
            t1 = self.gen_type(n, depth - 2)
            t2 = self.gen_type(n, depth - 2)
            if not self._fits(TSum(t1, t2)):
                return None
            base = self.gen_of_type(ty, depth - 1)
            left = self._bind_fresh(base, t1, q, weak_only=True)
            right = self._bind_fresh(base, t2, q, weak_only=True)
            scrut = self.gen_of_type(TSum(t1, t2), depth - 1)
            scrut = self.maybe_wrap(scrut)
            return mk_sumE(space, left, right, scrut)
        if kind == "dropE":
            n = rng.choice(self.modes_at_least(mode))
            highs = self.modes_at_least(n)
            high = rng.choice(highs)
            q = rng.choice(self.grades_of(high))
            inner = self.gen_type(high, depth - 2)
            dty = TDrop(Grade(space.mode(high).algebra.id, q), n, high, inner)
            if not self._fits(dty):
                return None
            body = self.gen_of_type(ty, depth - 1)
            body = self._bind_fresh(body, inner, q)
            scrut = self.gen_of_type(dty, depth - 1)
            scrut = self.maybe_wrap(scrut)
            return mk_dropE(space, body, scrut)
        # raiseE
        highs = self.modes_at_least(mode)
        high = rng.choice(highs)
        rty = TRaise(mode, high, ty)
        scrut = self.gen_of_type(rty, depth - 1)
        scrut = self.maybe_wrap(scrut)
        return mk_raiseE(space, scrut)

    # -- structural wrapping --------------------------------------------------

    def maybe_wrap(self, d: Derivation) -> Derivation:
        for _ in range(2):
            if self.rng.random() < 0.35:
                d = self.wrap_structural(d)
        return d

    def wrap_structural(self, d: Derivation) -> Derivation:
        rng = self.rng
        space = self.space
        moves = rng.sample(["weak", "sub", "cont", "exchange"], 4)
        for move in moves:
            try:
                if move == "weak":
                    candidates = [
                        n for n in self.modes_at_least(d.conclusion.mode)
                        if space.mode(n).weak
                    ]
                    if not candidates:
                        continue
                    n = rng.choice(candidates)
                    ty = self.gen_type(n, 1)
                    return mk_weak(space, d, self.fresh(), ty)
                if move == "sub":
                    c = d.conclusion
                    if not c.rho:
                        continue
                    i = rng.randrange(len(c.rho))
                    alg = space.mode(c.modes[i]).algebra
                    ups = [g for g in self.grades_of(c.modes[i], small=False)
                           if alg.leq(c.rho[i].value, g) and g != c.rho[i].value]
                    if not ups:
                        continue
                    values = list(g.value for g in c.rho)
                    values[i] = rng.choice(ups)
                    return mk_sub(space, d, tuple(values))
                if move == "cont":
                    c = d.conclusion
                    pairs = [
                        (i, k)
                        for i in range(len(c.ctx))
                        for k in range(i + 1, len(c.ctx))
                        if c.ctx[i][1] == c.ctx[k][1] and c.modes[i] == c.modes[k]
                        and space.mode(c.modes[i]).cont.contains(c.rho[i].value)
                        and space.mode(c.modes[i]).cont.contains(c.rho[k].value)
                    ]
                    if not pairs:
                        continue
                    i, k = rng.choice(pairs)
                    x, y = c.ctx[i][0], c.ctx[k][0]
                    return mk_cont(space, move_to_end(space, d, x, y), x)
                if move == "exchange":
                    c = d.conclusion
                    if len(c.ctx) < 2:
                        continue
                    perm = list(range(len(c.ctx)))
                    rng.shuffle(perm)
                    return mk_exchange(space, d, tuple(perm))
            except GrassError:
                continue
        return d

    # -- whole corpora ---------------------------------------------------------

    def gen_derivation(self, depth: int | None = None) -> Derivation:
        depth = self.max_depth if depth is None else depth
        mode = self.rng.choice(list(self.space.modes))
        ty = self.gen_type(mode, depth - 1)
        return self.gen_of_type(ty, depth)

    def gen_bundle(self, depth: int | None = None) -> SubstitutionBundle:
        depth = self.max_depth if depth is None else depth
        target = self.gen_derivation(depth)
        reps = []
        for (x, ty), n in zip(target.conclusion.ctx, target.conclusion.modes):
            reps.append(self.gen_of_type(ty, max(1, depth - 2)))
        return SubstitutionBundle(target, tuple(reps))
