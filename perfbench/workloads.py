"""The four workloads: seeded inputs, the timed call, and the known answers.

Inputs come in blocks of fixed composition (kinds, strata, systems), so a
run that stops at a block boundary sees the same mix whatever the seed;
the seed draws everything inside the strata.  Known answers come only from
construction (generated derivations check, corrupted copies reject), from
`grass.oracles.to_locally_nameless` plus the reference normalizer in
`reference.py`, or from the paper's theorems (beta/eta and substitution
preserve denotations; clean backends are coherent).
"""

from __future__ import annotations

import dataclasses
import random
import statistics
from dataclasses import dataclass, field

from grass.derivation import Derivation, check_derivation, mk_arrowE, mk_arrowI, mk_var
from grass.errors import CheckError, ElaborationError, GrassError, SizeLimitError
from grass.gen import Gen
from grass.oracles import ln_normalize, to_locally_nameless
from grass.rewrite import beta_step, eta_expand, eta_rule_for, subst_simultaneous
from grass.sexpr import (
    derivation_to_sexpr,
    grade_value,
    show_grade,
    show_judgment,
    term_to_sexpr,
    type_to_sexpr,
)
from grass.syntax import (
    Judgment,
    TBase,
    TDrop,
    TFun,
    TRaise,
    TSum,
    TTensor,
    TUnit,
    alpha_eq,
    mode_of,
)

from reference import ln_normal_form, ln_step

# Size limit of the oracle suites: context and type objects above it are skipped.
MAX_OBJ = 400
MAX_SCALED = 5_000
DEEP_CHAIN = 25


@dataclass
class Item:
    """One timed call: its inputs, the known answer, the canonical text of
    the inputs (for the inputs digest) and the input properties that the
    shape summary reports."""

    kind: str
    system: str
    inputs: tuple
    known: object
    key: str
    shape: dict = field(default_factory=dict)


@dataclass
class Verdict:
    ok: bool
    tag: str = ""  # "declined" elaboration, "unequal" denotations, "skipped" as too large
    note: str = ""


def tree_size(d: Derivation) -> tuple[int, int]:
    """(nodes, depth) of a derivation tree."""
    nodes, depth, stack = 0, 0, [(d, 1)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        depth = max(depth, level)
        stack.extend((p, level + 1) for p in node.premises)
    return nodes, depth


def _exception_note(e: BaseException) -> str:
    return f"raised {type(e).__name__}: {e}"[:300]


class Workload:
    name = ""
    why = ""
    blocks_per_s = 1.0  # at the seed commit; sizes the input pool
    max_pool_blocks: int | None = None  # cycle a smaller pool when inputs are cheap to reuse

    def generate(self, seed: int, systems: dict, n_blocks: int) -> list[list[Item]]:
        raise NotImplementedError

    def run(self, item: Item, systems: dict, api):
        raise NotImplementedError

    def verify(self, item: Item, out, systems: dict) -> Verdict:
        raise NotImplementedError

    def render(self, item: Item, out) -> str:
        """Canonical text of an output, for the output digest."""
        if isinstance(out, BaseException):
            return _exception_note(out)
        return repr(out)

    def correct(self, verdicts: list[Verdict]) -> bool:
        return all(v.ok for v in verdicts)

    def notes(self, items: list[Item], verdicts: list[Verdict]) -> list[str]:
        """Workload-specific lines for the run summary."""
        return []


# ---------------------------------------------------------------------------
# check: parse + check, elaborate, reject corrupted copies


class CheckWorkload(Workload):
    name = "check"
    why = ("grass check path: many small parsed derivations; parser, checker, elaborator and "
           "alpha_eq do all the work, rewrite and semantics none")
    blocks_per_s = 120.0
    # Inputs are text that each item parses afresh, so cycling a pool hands
    # the program no object it has seen before.  8000 distinct items keep
    # the 90th percentile within a few percent from seed to seed.
    max_pool_blocks = 400
    KINDS = ("check",) * 12 + ("elaborate",) * 4 + ("reject",) * 4

    def generate(self, seed, systems, n_blocks):
        rng = random.Random(seed)
        gens = {name: Gen(space=space, rng=random.Random(rng.getrandbits(64)), max_depth=5)
                for name, (space, _b) in sorted(systems.items())}
        blocks = []
        for _ in range(n_blocks):
            slots = [(name, depth) for name in gens for depth in range(1, 6)] * 2
            kinds = list(self.KINDS)
            rng.shuffle(slots)
            rng.shuffle(kinds)
            blocks.append([self._item(gens[name], name, depth, kind, rng)
                           for (name, depth), kind in zip(slots, kinds)])
        return blocks

    def _item(self, gen: Gen, system: str, depth: int, kind: str, rng) -> Item:
        while True:
            d = gen.gen_derivation(depth)
            c = d.conclusion
            nodes, levels = tree_size(d)
            shape = {"nodes": nodes, "depth": levels}
            text = derivation_to_sexpr(d)
            if kind == "check":
                return Item(kind, system, (text,), c, f"check {system} {text}", shape)
            if kind == "elaborate":
                ctx = tuple((x, type_to_sexpr(ty), n, show_grade(g.value))
                            for (x, ty), n, g in zip(c.ctx, c.modes, c.rho))
                inputs = (term_to_sexpr(c.term), type_to_sexpr(c.ty), c.mode, ctx)
                return Item(kind, system, inputs, c, f"elaborate {system} {inputs!r}", shape)
            # reject: change one grade of the stored conclusion to another grade
            choices = [(i, v) for i, (n, g) in enumerate(zip(c.modes, c.rho))
                       for v in gen.grades_of(n, small=False) if v != g.value]
            if choices:
                i, v = rng.choice(choices)
                key = f"reject {system} {i} {v!r} {text}"
                return Item(kind, system, (text, i, v), c, key, shape)

    def run(self, item, systems, api):
        space = systems[item.system][0]
        if item.kind == "elaborate":
            term, ty, mode, ctx = item.inputs
            j = Judgment(
                tuple(space.grade(n, grade_value(g)) for _x, _t, n, g in ctx),
                tuple(n for _x, _t, n, _g in ctx),
                tuple((x, api.type_from_sexpr(t, space)) for x, t, _n, _g in ctx),
                mode, api.term_from_sexpr(term), api.type_from_sexpr(ty, space))
            return api.elaborate(j, space)
        d = api.derivation_from_sexpr(item.inputs[0], space)
        if item.kind == "reject":
            _text, i, value = item.inputs
            c = d.conclusion
            rho = c.rho[:i] + (dataclasses.replace(c.rho[i], value=value),) + c.rho[i + 1:]
            d = dataclasses.replace(d, conclusion=dataclasses.replace(c, rho=rho))
        return api.check_derivation(d, space)

    def verify(self, item, out, systems):
        want = item.known
        if item.kind == "check":
            if out == want:
                return Verdict(True)
            return Verdict(False, note=_exception_note(out) if isinstance(out, BaseException)
                           else "checked judgment differs from the generated one")
        if item.kind == "reject":
            if isinstance(out, CheckError):
                return Verdict(True)
            return Verdict(False, note=_exception_note(out) if isinstance(out, BaseException)
                           else "corrupted conclusion was accepted")
        if isinstance(out, ElaborationError):
            return Verdict(True, tag="declined")
        if not isinstance(out, Derivation):
            return Verdict(False, note=_exception_note(out))
        try:
            check_derivation(out, systems[item.system][0])
        except GrassError as e:
            return Verdict(False, note=f"elaborated derivation does not check: {e}")
        got = out.conclusion
        if got.shape() != want.shape() or not alpha_eq(got.term, want.term):
            return Verdict(False, note="elaborated derivation concludes a different judgment")
        return Verdict(True)

    def render(self, item, out):
        if isinstance(out, Judgment):
            return show_judgment(out)
        if isinstance(out, Derivation):
            return derivation_to_sexpr(out)
        return super().render(item, out)


# ---------------------------------------------------------------------------
# normalize: redex chains and generated derivations with redexes


class NormalizeWorkload(Workload):
    name = "normalize"
    why = ("normalize re-checks a mostly unchanged tree after every beta step; chains of "
           "depth 8-40 make the re-check cost visible, generated redexes keep rule variety")
    blocks_per_s = 2.0
    # Chain depths per block.  Fixed depths put the median in the middle of
    # the depth-16 chains (ranks 9-12 of 20, the redexes being cheapest) and
    # the 90th percentile in the middle of the depth-40 chains (ranks 17-20)
    # whatever the seed; normalize is cubic in depth, so drawn depths, or a
    # percentile on the edge of a depth, would move both by tens of percent.
    CHAIN_DEPTHS = (8, 8, 16, 16, 16, 16, 24, 24, 32, 32, 40, 40, 40, 40)
    REDEXES_PER_BLOCK = 6

    def generate(self, seed, systems, n_blocks):
        rng = random.Random(seed)
        (system, (space, _backend)), = systems.items()
        bases = sorted(space.base_types.items())
        gen = Gen(space=space, rng=random.Random(rng.getrandbits(64)), max_depth=5)
        blocks = []
        for _ in range(n_blocks):
            block = [self._chain(space, system, depth, rng.choice(bases))
                     for depth in self.CHAIN_DEPTHS]
            block += [self._redex(gen, system, rng) for _ in range(self.REDEXES_PER_BLOCK)]
            rng.shuffle(block)
            blocks.append(block)
        return blocks

    def _chain(self, space, system, depth, base):
        """(app (lam x1 x1) (app (lam x2 x2) ... y)) at one base type."""
        ty = TBase(*base)
        d = mk_var(space, "y", ty)
        for i in range(depth, 0, -1):
            d = mk_arrowE(space, mk_arrowI(space, mk_var(space, f"x{i}", ty)), d)
        return self._item("chain", system, d, depth)

    def _redex(self, gen, system, rng):
        while True:
            d = gen.gen_derivation(rng.randint(2, 5))
            if ln_step(to_locally_nameless(d.conclusion.term)) is not None:
                return self._item("redex", system, d, 0)

    def _item(self, kind, system, d, chain_depth):
        lt = to_locally_nameless(d.conclusion.term)
        nf, steps = ln_normal_form(lt)
        fuel = 2 * steps + 8
        nodes, levels = tree_size(d)
        shape = {"nodes": nodes, "depth": levels, "chain_depth": chain_depth,
                 "oracle_disagrees": ln_normalize(lt, fuel)[0] != nf}
        return Item(kind, system, (d, fuel), (nf, d.conclusion.shape()),
                    f"{kind} {fuel} {derivation_to_sexpr(d)}", shape)

    def run(self, item, systems, api):
        d, fuel = item.inputs
        return api.normalize(d, fuel, systems[item.system][0])

    def verify(self, item, out, systems):
        if isinstance(out, BaseException):
            return Verdict(False, note=_exception_note(out))
        nf, shape = item.known
        result, _steps, is_normal = out
        if not is_normal:
            return Verdict(False, note="fuel exhausted before the normal form")
        if result.conclusion.shape() != shape:
            return Verdict(False, note="normalization changed the judgment")
        if to_locally_nameless(result.conclusion.term) != nf:
            return Verdict(False, note="normal form differs from the reference")
        return Verdict(True)

    def render(self, item, out):
        if isinstance(out, tuple):
            result, steps, is_normal = out
            return f"{term_to_sexpr(result.conclusion.term)} {steps} {is_normal}"
        return super().render(item, out)

    def notes(self, items, verdicts):
        disagree = sum(it.shape["oracle_disagrees"] for it in items)
        return [f"grass.oracles.ln_normalize disagrees with the reference on {disagree} of "
                f"{len(items)} items"]


# ---------------------------------------------------------------------------
# semantic: beta/eta pairs and substitution bundles on the criteria 5/6 backends


def failure_class(backend, d: Derivation) -> str:
    """Why a pair may differ.  The README's backend limits: contraction whose arities do not add
    (a diagonal) and subsumption across grades of different arity (a
    projection); pairs involving sums are the flagged extension."""
    cls = "unclassified"
    for node in d.walk():
        if node.rule == "cont":
            prem, n = node.premises[0].conclusion, node.conclusion.modes[-1]
            parts = backend.arity(n, prem.rho[-2].value) + backend.arity(n, prem.rho[-1].value)
            if parts != backend.arity(n, node.conclusion.rho[-1].value):
                cls = "diagonal contraction"
                break
        if node.rule == "sub":
            prem = node.premises[0].conclusion
            if any(backend.arity(n, low.value) != backend.arity(n, high.value)
                   for low, high, n in zip(prem.rho, node.conclusion.rho, node.conclusion.modes)):
                cls = "projection subsumption"
                break
    if any(node.rule in ("sumIL", "sumIR", "sumE") or _mentions_sum(node.conclusion.ty)
           for node in d.walk()):
        cls += "; extension:sum"
    return cls


def _mentions_sum(ty) -> bool:
    return isinstance(ty, TSum) or any(
        _mentions_sum(getattr(ty, part)) for part in ("left", "right", "arg", "body")
        if hasattr(ty, part))


def type_size(backend, ty) -> int:
    """len(interp_type(backend, ty)), computed without building the object."""
    match ty:
        case TUnit(_):
            return 1
        case TBase(name, _):
            return len(backend.base_carriers[name])
        case TTensor(left, right):
            return type_size(backend, left) * type_size(backend, right)
        case TSum(left, right):
            return type_size(backend, left) + type_size(backend, right)
        case TFun(arg, grade, body):
            return (type_size(backend, arg) ** backend.arity(mode_of(arg), grade.value)
                    * type_size(backend, body))
        case TDrop(grade, _low, high, body):
            return type_size(backend, body) ** backend.arity(high, grade.value)
        case TRaise(_low, _high, body):
            return type_size(backend, body)
    raise TypeError(f"not a type: {ty!r}")


def ctx_size(backend, j: Judgment) -> int:
    """len(interp_ctx(backend, j)), computed without building the object."""
    size = 1
    for g, n, (_x, ty) in zip(j.rho, j.modes, j.ctx):
        size *= type_size(backend, ty) ** backend.arity(n, g.value)
    return size


# Scaled premises: rule -> (premise index, mode and grade of the scaling).
_SCALED = {
    "unitE": (1, lambda d: (d.conclusion.mode, d.payload[0])),
    "dropI": (0, lambda d: (d.premises[0].conclusion.mode, d.payload[0])),
    "arrowE": (1, lambda d: (mode_of(d.premises[0].conclusion.ty.arg),
                             d.premises[0].conclusion.ty.grade.value)),
    "pairE": (1, lambda d: (d.premises[0].conclusion.modes[-1],
                            d.premises[0].conclusion.rho[-1].value)),
    "sumE": (2, lambda d: (d.premises[0].conclusion.modes[-1],
                           d.premises[0].conclusion.rho[-1].value)),
}


def scaled_pairs(backend, j: Judgment, mode: str, value) -> int:
    """Upper bound on the pairs `scalar_act` enumerates for q . [[j]]."""
    return (ctx_size(backend, j) * type_size(backend, j.ty)) ** backend.arity(mode, value)


def copies_or_drops(backend, d: Derivation) -> bool:
    """Whether some rule of `d` scales a premise by a grade whose arity is
    not 1, so that the backend's action copies or drops the premise's
    value (a beta step then duplicates or discards it), or weakens in a
    mode whose zero grade has nonzero arity (U, where 0 = 1), which drops
    a value through a projection."""
    for node in d.walk():
        if node.rule == "weak":
            n = node.conclusion.modes[-1]
            if backend.arity(n, node.conclusion.rho[-1].value) != 0:
                return True
        if node.rule in _SCALED:
            _index, scaling = _SCALED[node.rule]
            if backend.arity(*scaling(node)) != 1:
                return True
    return False


def has_known_answer(backend, d: Derivation) -> bool:
    """Whether the soundness theorem fixes the answer for a beta pair
    whose derivation before the step is `d`; see `SemanticWorkload._pairs`."""
    return failure_class(backend, d) == "unclassified" and not copies_or_drops(backend, d)


def fits(backend, d: Derivation) -> bool:
    """The oracle suites skip a case whose context or type object exceeds
    MAX_OBJ at the root.  Here the limit holds at every node of every
    derivation an item interprets, and the relations scaled by a grade stay
    within MAX_SCALED pairs: inner contexts reach 9216 elements under a
    288-element root, a grade-2 scaling of a 384-pair relation takes 7 s,
    and a few such items took half of a run.  Under 20000 scaled pairs a
    9216-pair scaling still took 1.3 s and 9 MB; the one or two such items
    a run met moved its peak RSS by 2-13 MB from seed to seed."""
    for node in d.walk():
        c = node.conclusion
        if ctx_size(backend, c) > MAX_OBJ or type_size(backend, c.ty) > MAX_OBJ:
            return False
        if node.rule in _SCALED:
            index, scaling = _SCALED[node.rule]
            if scaled_pairs(backend, node.premises[index].conclusion, *scaling(node)) > MAX_SCALED:
                return False
    return True


class SemanticWorkload(Workload):
    name = "semantic"
    why = ("interpretation dominates: semantic_eq on seeded beta/eta pairs and subst_comp_check "
           "on bundles, L<=U and fh backends of criteria 5/6; beta pairs with no known answer "
           "are counted, not timed")
    blocks_per_s = 45.0
    CASES_PER_BLOCK = 3  # derivations per backend per block, as `grass oracle` draws 3 per bundle

    def generate(self, seed, systems, n_blocks):
        rng = random.Random(seed)
        gens = {}
        for name, (space, backend) in sorted(systems.items()):
            sizes = {b: len(c) for b, c in backend.base_carriers.items()}
            gens[name] = tuple(
                Gen(space=space, rng=random.Random(rng.getrandbits(64)), max_depth=depth,
                    max_obj_size=MAX_OBJ, base_sizes=sizes)
                for depth in (5, 3))
        blocks = []
        for _ in range(n_blocks):
            block = []
            for name, (pair_gen, bundle_gen) in gens.items():
                backend = systems[name][1]
                errors, unscored = [], []
                for _ in range(self.CASES_PER_BLOCK):
                    block += self._pairs(pair_gen, name, backend, errors, unscored)
                block.append(self._bundle(bundle_gen, name, backend))
                block[-1].shape["generation_errors"] = errors
                block[-1].shape["unscored_beta"] = len(unscored)
            blocks.append(block)
        return blocks

    def _pairs(self, gen, system, backend, errors: list, unscored: list):
        """The beta trace (fuel 12) and the eta expansion of one derivation.
        Like the oracle suite, a case whose rewriting raises yields no pair;
        the error is kept in `errors` and reported with the run.

        The soundness theorem gives the known answer (equal denotations)
        only where the backend interprets the derivation by natural maps.
        The README's "Backend limits" names where it does not: contraction
        into a diagonal and subsumption into a projection, which a beta
        step exposes when it duplicates or discards a value through them.
        Sums are an extension of the paper's calculus (the oracle suites
        tag them `[extension:sum]`), so its theorem does not cover them.
        A beta pair whose `before` has either class, a sum, a grade action
        that copies or drops a value, or a weakening through a projection
        (`has_known_answer`) has no known answer here, so it is appended to
        `unscored` and not timed; criterion 5 of the test suite keeps
        reporting such pairs.  Eta pairs and bundles keep every class: no
        eta pair or bundle has come out unequal on this backend."""
        skipped = 0
        space = backend.space
        while True:
            d = gen.gen_derivation(5)
            if not fits(backend, d):
                skipped += 1
                continue
            pairs, current = [], d
            try:
                for _ in range(12):
                    step = beta_step(current, space)
                    if step is None:
                        break
                    pairs.append(("beta", current, step[0]))
                    current = step[0]
                rule = eta_rule_for(d)
                if rule is not None:
                    pairs.append(("eta", d, eta_expand(d, rule, space)))
            except GrassError as e:
                errors.append(f"{system}: rewriting {derivation_to_sexpr(d)[:200]} raised {e!r}")
                return []
            if all(fits(backend, after) for _kind, _before, after in pairs):
                break
            skipped += 1
        items = []
        for kind, before, after in pairs:
            if kind == "beta" and not has_known_answer(backend, before):
                unscored.append(before)
                continue
            (n1, depth), (n2, _) = tree_size(before), tree_size(after)
            shape = {"nodes": n1 + n2, "depth": depth, "skipped": 0,
                     "ctx_elements": ctx_size(backend, before.conclusion)}
            key = f"{kind} {system} {derivation_to_sexpr(before)} {derivation_to_sexpr(after)}"
            items.append(Item(kind, system, (before, after), True, key, shape))
        if items:
            items[0].shape["skipped"] = skipped
        return items

    def _bundle(self, gen, system, backend):
        skipped = 0
        while True:
            bundle = gen.gen_bundle(3)
            target = bundle.target.conclusion
            if (all(fits(backend, d) for d in (bundle.target,) + bundle.replacements)
                    and all(scaled_pairs(backend, r.conclusion, n, g.value) <= MAX_SCALED
                            for r, n, g in zip(bundle.replacements, target.modes, target.rho))):
                out = subst_simultaneous(bundle, backend.space)
                if fits(backend, out):
                    break
            skipped += 1
        nodes = sum(tree_size(r)[0] for r in bundle.replacements) + tree_size(bundle.target)[0]
        shape = {"nodes": nodes, "depth": tree_size(bundle.target)[1],
                 "ctx_elements": ctx_size(backend, out.conclusion), "skipped": skipped}
        key = "bundle {} {} {}".format(system, derivation_to_sexpr(bundle.target),
                                       " ".join(map(derivation_to_sexpr, bundle.replacements)))
        return Item("bundle", system, (bundle,), True, key, shape)

    def run(self, item, systems, api):
        backend = systems[item.system][1]
        if item.kind == "bundle":
            return api.subst_comp_check(backend, item.inputs[0])
        return api.semantic_eq(backend, *item.inputs)

    def verify(self, item, out, systems):
        if out is True:
            return Verdict(True)
        if isinstance(out, SizeLimitError):  # the oracle suite's "skipped, too large"
            return Verdict(True, tag="skipped", note=_exception_note(out))
        if out is not False:
            return Verdict(False, note=_exception_note(out))
        backend = systems[item.system][1]
        d = item.inputs[0].target if item.kind == "bundle" else item.inputs[0]
        cls = failure_class(backend, d)
        return Verdict(False, tag="unequal",
                       note=f"{item.kind} pair not semantically equal [{cls}] on {item.system}")

    def notes(self, items, verdicts):
        skipped = sum(it.shape.get("skipped", 0) for it in items)
        late = sum(v.tag == "skipped" for v in verdicts)
        errors = [e for it in items for e in it.shape.get("generation_errors", ())]
        unscored = sum(it.shape.get("unscored_beta", 0) for it in items)
        return [f"skipped candidates (limits {MAX_OBJ} elements, {MAX_SCALED} scaled pairs): "
                f"{skipped}; items that raised SizeLimitError: {late}",
                f"beta pairs with no known answer (diagonal, projection, copying or dropping "
                f"action, or sums), counted and not timed: {unscored}",
                f"cases whose beta/eta rewriting raised while inputs were built: {len(errors)}"
                ] + [f"  {e}" for e in errors[:5]]


# ---------------------------------------------------------------------------
# coherence: modespace_validate + model_coherence_validate for one mode


class CoherenceWorkload(Workload):
    name = "coherence"
    why = ("grass modes-validate path with no derivations: relation primitives, structure maps and "
           "Rel construction; costs from 2 ms to 2.4 s, so the working set varies")
    blocks_per_s = 0.11
    # (mode, object size, naturals budget); the budget only matters for L.
    # Each sub-block holds the light cases twice, ("L", 3, 2) four times,
    # and one heavy case.  In a block of 148 the median (rank 74) falls in
    # a dense run of light cases at 10-14 ms (U and A at sizes 2-3, R at
    # size 3, L at size 1) and the 90th percentile (rank 134) in the middle
    # of the sixteen ("L", 3, 2) items (50-80 ms), below the four heavy
    # items (0.5-3 s).  Light cases appear twice so that a 20-second run,
    # which the heavy items limit to three or four blocks, times enough
    # items to fix its median.
    LIGHT = tuple((m, s, None) for m in ("U", "R", "A", "fh") for s in (1, 2, 3)) + (
        ("L", 1, 2), ("L", 1, 3), ("L", 1, 4), ("L", 2, 2), ("L", 3, 2), ("L", 3, 2))
    HEAVY = (("L", 2, 3), ("L", 3, 3), ("L", 2, 4), ("L", 3, 4))

    def generate(self, seed, systems, n_blocks):
        rng = random.Random(seed)
        owners = {}
        for name, (space, _b) in sorted(systems.items()):
            for m in space.modes:
                owners.setdefault(m, []).append(name)
        # Each case deals its systems from a shuffled deck of the stock
        # systems that have its mode, so it meets every one of them before
        # it meets one again: the system moves an item's cost by up to 45%
        # (L at size 3, budget 4: 2.0 s on lnl, 3.0 s on all), and drawing
        # it afresh moved the percentiles that fall on a case from run to run.
        decks = {}
        blocks = []
        for _ in range(n_blocks):
            # one heavy L case per sub-block, each heavy case once per block
            heavy = list(self.HEAVY)
            rng.shuffle(heavy)
            block = []
            for h in heavy:
                sub = list(self.LIGHT) * 2 + [h]
                rng.shuffle(sub)
                for case in sub:
                    m, size, budget = case
                    budget = rng.randint(2, 4) if budget is None else budget
                    decks[case] = decks.get(case) or rng.sample(owners[m], len(owners[m]))
                    system = decks[case].pop()
                    shape = {"mode": m, "size": size, "budget": budget}
                    key = f"coherence {system} {m} {size} {budget}"
                    block.append(Item("coherence", system, (m, size, budget), None, key, shape))
            blocks.append(block)
        return blocks

    def run(self, item, systems, api):
        space, backend = systems[item.system]
        m, size, budget = item.inputs
        laws = api.modespace_validate(space)
        return laws, api.model_coherence_validate(backend, modes=[m], max_size=size, budget=budget)

    def verify(self, item, out, systems):
        if isinstance(out, BaseException):
            return Verdict(False, note=_exception_note(out))
        laws, coherence = out
        if laws.ok() and coherence.ok():
            return Verdict(True)
        found = (laws.violations + coherence.violations)[0].render()
        return Verdict(False, note=f"violations on a clean backend, first: {found}")

    def render(self, item, out):
        if isinstance(out, tuple):
            return f"{out[0].render()} | {out[1].render()}"
        return super().render(item, out)

    def notes(self, items, verdicts):
        modes, budgets = {}, {}
        for it in items:
            modes[it.shape["mode"]] = modes.get(it.shape["mode"], 0) + 1
            if it.shape["mode"] == "L":
                budgets[it.shape["budget"]] = budgets.get(it.shape["budget"], 0) + 1
        return [f"mode mix {modes}; naturals budget mix on L {dict(sorted(budgets.items()))}"]


def shape_metrics(items) -> dict:
    """Input properties that ROADMAP optimisations depend on."""
    def mean(key, keep=lambda it: True):
        xs = [it.shape[key] for it in items if key in it.shape and keep(it)]
        return statistics.fmean(xs) if xs else 0.0

    n = max(len(items), 1)
    chains = [it for it in items if it.kind == "chain"]
    return {
        "shape.nodes_mean": (mean("nodes"), "nodes/item"),
        "shape.depth_mean": (mean("depth"), "levels"),
        "shape.chain_depth_mean": (mean("chain_depth", lambda it: it.kind == "chain"), "levels"),
        "shape.deep_chain_share": (sum(it.shape["chain_depth"] >= DEEP_CHAIN for it in chains) / n,
                                   "ratio"),
        "shape.ctx_elements_mean": (mean("ctx_elements"), "elements"),
        "shape.nat_mode_share": (sum(it.shape.get("mode") == "L" for it in items) / n, "ratio"),
        "shape.budget_mean": (mean("budget"), "grades"),
    }


WORKLOADS = {w.name: w for w in (CheckWorkload(), NormalizeWorkload(), SemanticWorkload(),
                                 CoherenceWorkload())}
