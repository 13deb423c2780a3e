import collections
import dataclasses
import hashlib
import itertools
import random
from pathlib import Path

import pytest

from grass.derivation import (
    check_derivation,
    mk_arrowE,
    mk_arrowI,
    mk_pairI,
    mk_sub,
    mk_var,
)
from grass.errors import ConfigError, GrassError, ShapeError, SizeLimitError
from grass.gen import Gen
from grass.grades import Grade
from grass.oracles import coherence_by_elements
from grass.presets import system
from grass.rewrite import SubstitutionBundle, beta_step
from grass.sexpr import derivation_from_sexpr, type_from_sexpr
from grass.semantics import (
    FinSetObj,
    ModelBackend,
    Rel,
    UNIT_OBJ,
    _entry_positions,
    _Interpretation,
    interp_ctx,
    interp_derivation,
    interp_type,
    iota_eps_inverse_check,
    model_coherence_validate,
    power_obj,
    rel_compose,
    rel_id,
    rel_tensor,
    scalar_act,
    semantic_eq,
    subst_comp_check,
    tensor_obj,
    v_identity_check,
)
from grass.syntax import Judgment, TBase, TFun, TTensor, TUnit, Var

from corrupted_backend import CORRUPTIONS, corrupted
from test_acceptance import _semantic_backends

P = TBase("P", "L")
Q = TBase("Q", "U")
CORPUS = Path(__file__).parent / "data" / "interp_corpus.txt"


@pytest.fixture(scope="module")
def lu():
    return system("LU")


# -- relational algebra ---------------------------------------------------------


def _all_rels(x_obj, y_obj):
    pairs = [(a, b) for a in x_obj.elements for b in y_obj.elements]
    for size in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, size):
            yield Rel(x_obj, y_obj, frozenset(chosen))


def test_identity_laws():
    x = FinSetObj(("a", "b", "c"))
    y = FinSetObj((0, 1))
    for f in itertools.islice(_all_rels(x, y), 40):
        assert rel_compose(rel_id(x), f).pairs == f.pairs
        assert rel_compose(f, rel_id(y)).pairs == f.pairs


def test_tensor_of_identities():
    x, y = FinSetObj(("a", "b")), FinSetObj((0,))
    assert rel_tensor(rel_id(x), rel_id(y)).pairs == rel_id(tensor_obj(x, y)).pairs


def test_compose_signature_mismatch():
    x, y = FinSetObj(("a",)), FinSetObj(("b",))
    with pytest.raises(ShapeError):
        rel_compose(rel_id(x), rel_id(y))


# -- actions ----------------------------------------------------------------------


def test_action_sizes(lu):
    _space, be = lu
    x = FinSetObj(("a", "b"))
    assert be.act_obj("L", 1, x).elements == (("a",), ("b",))
    assert be.act_obj("L", 0, x) == power_obj(x, 0)
    assert len(be.act_obj("L", 2, x)) == 4

    # delta regroups a 6-tuple into 2 triples, bijectively
    d = be.delta("L", 2, 3, x)
    assert len(d.pairs) == len(d.dom) == 2 ** 6
    assert len({b for _a, b in d.pairs}) == len(d.pairs)


def test_eps_is_untupling(lu):
    _space, be = lu
    x = FinSetObj(("a", "b"))
    assert be.eps("L", x).pairs == frozenset(((e,), e) for e in ("a", "b"))


def test_interp_type_sizes(lu):
    _space, be = lu
    assert interp_type(be, TUnit("L")) == UNIT_OBJ
    # |A -o{2:L} B| = |B|^(|A|^2): the total functions A^2 -> B, |A| = |B| = 2
    fn = TFun(P, Grade("nat-discrete", 2), P)
    assert len(interp_type(be, fn)) == 2 ** (2 ** 2)
    assert len(interp_type(be, TTensor(P, P))) == 4


def test_oversized_function_space_is_refused(lu):
    # |P -o{2:L} P| = 3^9 = 19683 functions, so a function type over it has
    # 3^19683 elements: refused with SizeLimitError, whose message must not
    # spell that number out
    from grass.errors import SizeLimitError

    space, be = lu
    big = ModelBackend(space=space, base_carriers={"P": ("a", "b", "c")})
    inner = TFun(P, Grade("nat-discrete", 2), P)
    assert len(interp_type(big, inner)) == 3 ** 9
    with pytest.raises(SizeLimitError, match=r"2\^19683"):
        interp_type(big, TFun(inner, Grade("nat-discrete", 1), P))
    f = mk_var(space, "f", TFun(inner, Grade("nat-discrete", 1), P))
    with pytest.raises(SizeLimitError):
        semantic_eq(big, f, f)


def test_interp_ctx_sizes(lu):
    space, be = lu
    j = Judgment((), (), (), "L", Var("x"), P)  # placeholder for the empty context
    assert len(interp_ctx(be, j)) == 1
    j1 = Judgment((Grade("nat-discrete", 1),), ("L",), (("x", P),), "L", Var("x"), P)
    assert len(interp_ctx(be, j1)) == 2
    j2 = Judgment(
        (Grade("nat-discrete", 2), Grade("nat-discrete", 0)), ("L", "L"),
        (("x", P), ("y", P)), "L", Var("x"), P)
    assert len(interp_ctx(be, j2)) == 4


# -- scalar action ------------------------------------------------------------------


def test_scalar_act_at_one_is_conjugation(lu):
    space, be = lu
    x = interp_type(be, P)
    one = Grade("nat-discrete", 1)
    v = Rel(
        FinSetObj(tuple((e,) for e in power_obj(x, 1).elements)), x,
        frozenset(((("a",),), "a") for _ in (0,)) | frozenset(((("b",),), "b") for _ in (0,)),
    )
    scaled = scalar_act(be, "L", 1, v, [(one, "L", x)])
    assert scaled.pairs == frozenset(((("a",),), ("a",)) for _ in (0,)) | \
        frozenset(((("b",),), ("b",)) for _ in (0,))


def test_scalar_act_empty_context(lu):
    space, be = lu
    x = interp_type(be, P)
    t = Rel(UNIT_OBJ, x, frozenset({((), "a")}))
    scaled = scalar_act(be, "L", 2, t, [])
    assert scaled.pairs == frozenset({((), ("a", "a"))})


def test_scalar_act_doubling_identity(lu):
    space, be = lu
    x = interp_type(be, P)
    one = Grade("nat-discrete", 1)
    v = Rel(
        FinSetObj(tuple((e,) for e in power_obj(x, 1).elements)), x,
        frozenset((((e,),), e) for e in x.elements),
    )
    scaled = scalar_act(be, "L", 2, v, [(one, "L", x)])
    # the doubling relation, element by element
    expected = frozenset(
        (((a, b),), (a, b)) for a in x.elements for b in x.elements
    )
    assert scaled.pairs == expected


# -- interpretation of derivations -----------------------------------------------


def test_var_is_a_bijection(lu):
    space, be = lu
    r = interp_derivation(be, mk_var(space, "x", P))
    assert r.pairs == {((("a",),), "a"), ((("b",),), "b")}


def test_pairI_of_vars(lu):
    space, be = lu
    d = mk_pairI(space, mk_var(space, "x", P), mk_var(space, "y", P))
    r = interp_derivation(be, d)
    assert len(r.pairs) == 4
    for (gx, gy), (a, b) in r.pairs:
        assert gx == (a,) and gy == (b,)


def test_beta_redex_semantics(lu):
    space, be = lu
    app = mk_arrowE(space, mk_arrowI(space, mk_var(space, "x", P)), mk_var(space, "y", P))
    out, _ = beta_step(app, space)
    assert semantic_eq(be, app, out)


def test_semantic_eq_reflexive_and_shape_checked(lu):
    space, be = lu
    d = mk_var(space, "x", P)
    assert semantic_eq(be, d, d)
    with pytest.raises(ShapeError):
        semantic_eq(be, d, mk_var(space, "q", Q))


def test_sub_with_projection_probe(lu):
    # Var vs Var-then-Sub whose action is a proper projection: a known
    # non-theorem in this backend; record the outcome, never assert it.
    space, be = system("fh")
    H = TBase("H", "fh")
    plain = mk_var(space, "x", H)
    bumped = mk_sub(space, plain, ("w",))
    r1 = interp_derivation(be, plain)
    r2 = interp_derivation(be, bumped)
    # both are honest relations; equality is not claimed by the theory
    assert len(r1.pairs) == 2 and len(r2.pairs) == 2


def test_subst_comp_identity_and_var(lu):
    space, be = lu
    target = mk_var(space, "x", P)
    rep = mk_arrowE(space, mk_arrowI(space, mk_var(space, "z", P)), mk_var(space, "y", P))
    assert subst_comp_check(be, SubstitutionBundle(target, (rep,)))
    d = mk_pairI(space, mk_var(space, "x", P), mk_var(space, "y", P))
    reps = tuple(mk_var(space, n + "0", ty) for n, ty in d.conclusion.ctx)
    assert subst_comp_check(be, SubstitutionBundle(d, reps))


# -- coherence ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def all_backend():
    return system("all")[1]


def test_coherence_clean(all_backend):
    report = model_coherence_validate(all_backend, max_size=3)
    assert report.ok(), report.render()


@pytest.mark.parametrize("which", CORRUPTIONS)
def test_coherence_mutations_detected(element_reports, which):
    # coherence_by_elements(corrupted(system("all")[1], which), max_size=3, budget=4)
    assert not element_reports[which].ok()


def test_v_identity_and_unit_inverses(all_backend):
    be = all_backend
    x = FinSetObj(("a", "b"))
    for m in be.space.modes:
        for q in be.space.mode(m).algebra.elements(3):
            assert v_identity_check(be, m, q, x)
        assert iota_eps_inverse_check(be, m)


def test_beta_pair_redex_semantics(lu):
    space, be = lu
    from grass.derivation import mk_pairE

    # let@1 (x1, x2) = (a, b) in (x1, x2)  ~beta~>  (a, b)
    body = mk_pairI(space, mk_var(space, "x1", P), mk_var(space, "x2", P))
    scrut = mk_pairI(space, mk_var(space, "a", P), mk_var(space, "b", P))
    red = mk_pairE(space, body, scrut)
    out, _ = beta_step(red, space)
    assert semantic_eq(be, red, out)


def test_interp_drop_type_is_the_action(lu):
    _space, be = lu
    from grass.syntax import TDrop

    ty = TDrop(Grade("nat-discrete", 2), "L", "L", P)
    assert interp_type(be, ty) == be.act_obj("L", 2, interp_type(be, P))


def test_known_backend_limit_diagonal_contraction(lu):
    # Duplicating a lambda through an unrestricted-mode contraction: c is a
    # diagonal there, natural only at deterministic total maps.  With
    # function types denoting total function spaces, `lam x x` denotes one
    # function value, so the step preserves the denotation exactly.  Pin the
    # minimal instance and its classification; the step itself stays
    # well-typed and judgment-preserving.
    from grass.derivation import mk_cont
    from grass.rewrite import preservation_check
    from grass.suites import _nonnatural_structure

    space, be = lu
    fn_ty = TFun(Q, Grade("top", "t"), Q)
    pair = mk_pairI(space, mk_var(space, "f1", fn_ty), mk_var(space, "f2", fn_ty))
    lam = mk_arrowI(space, mk_cont(space, pair, "f"))
    arg = mk_arrowI(space, mk_var(space, "xq", Q))  # lam x x
    red = mk_arrowE(space, lam, arg)
    out, _ = beta_step(red, space)
    assert preservation_check(red, out)
    check_derivation(out, space)
    assert semantic_eq(be, red, out)  # the diagonal commutes with a function value
    assert _nonnatural_structure(be, red) == "diagonal contraction"
    # duplicating a deterministic value is still exactly sound
    red_var = mk_arrowE(space, lam, mk_var(space, "g", fn_ty))
    out_var, _ = beta_step(red_var, space)
    assert semantic_eq(be, red_var, out_var)


def test_eta_is_always_semantically_sound(lu):
    # eta expansion uses only regrouping maps, which are honest natural
    # transformations here, so its soundness has no backend caveat
    import random

    from grass.rewrite import eta_expand, eta_rule_for

    space, be = lu
    gen = Gen(space=space, rng=random.Random(77), max_obj_size=200,
              base_sizes={"P": 2, "Q": 2})
    sizes = be.sizes
    checked = 0
    for _ in range(120):
        d = gen.gen_derivation(4)
        rule = eta_rule_for(d)
        if rule is None:
            continue
        try:
            if sizes.ctx_size(d.conclusion) > 200:
                continue
        except SizeLimitError:
            continue
        assert semantic_eq(be, d, eta_expand(d, rule, space))
        checked += 1
    assert checked >= 40


def test_gen_admits_types_by_their_interpretation_size():
    # a function type has |B|^(|A|^a(q)) elements: 2^(4^2) here, far past
    # the default bound of 600, and past the element limit
    space, be = system("LU")
    big = type_from_sexpr("(-o{2:L} (* P P) (* P P))", space)
    assert not Gen(space=space, rng=random.Random(0))._fits(big)
    with pytest.raises(SizeLimitError):
        be.sizes.size(big)
    for (_name, be), seed in zip(_semantic_backends(), (301, 302)):
        sizes = be.sizes
        gen = Gen(space=be.space, rng=random.Random(seed), max_obj_size=400,
                  base_sizes={b: len(c) for b, c in be.base_carriers.items()})
        for mode in be.space.modes:
            for _ in range(60):
                ty = gen.gen_type(mode, 3)
                assert sizes.size(ty) == len(interp_type(be, ty)) <= 400, ty


def test_validator_rejects_incoherent_tupling_backends():
    # naturals with the all-except-one ideal: contraction grades of arity
    # two and more make the two c/delta squares demand conflicting splits
    # of the same power object, so no tupling backend is coherent there;
    # the validator must say so rather than pass silently
    from grass.grades import Ideal, Mode, builtin_algebra
    from grass.modespace import ModeSpace

    nat = builtin_algebra("nat-usual")
    space = ModeSpace(
        modes={"N": Mode("N", nat, Ideal("nat-usual", nat_predicate="all-except-one"), True)},
    )
    be = ModelBackend(space=space, nat_budget=3)
    report = model_coherence_validate(be, max_size=2, budget=3)
    assert not report.ok()
    assert any("c then delta" in v.law for v in report.violations)


def test_coherence_reports_each_violation_once():
    report = coherence_by_elements(corrupted(system("LU")[1], "iota"), max_size=1)
    lines = report.render().splitlines()
    assert "iota-iso witness=('U', 't') 0 pairs" in lines
    assert len(lines) == len(set(lines))


def test_suites_count_the_cases_their_root_filter_skips(monkeypatch):
    import grass.suites as suites

    # the filter runs before any interpretation, so the counts need none
    monkeypatch.setattr(suites, "semantic_eq", lambda *args: True)
    monkeypatch.setattr(suites, "subst_comp_check", lambda *args: True)
    backends = _semantic_backends()
    semantic = [suites.semantic_suite(be, seed=seed, count=240, max_depth=5).notes[-1]
                for (_name, be), seed in zip(backends, (301, 302))]
    assert semantic == [f"skipped {n} of 240 generated cases: an object over 400 elements"
                        for n in (73, 15)]
    comp = [suites.subst_comp_suite(be, seed=seed, count=90, max_depth=3).notes[-1]
            for (_name, be), seed in zip(backends, (401, 402))]
    assert comp == [f"skipped {n} of 90 generated cases: an object over 400 elements"
                    for n in (11, 1)]


def test_reports_are_immutable():
    report = coherence_by_elements(corrupted(system("LU")[1], "iota"), max_size=1)
    assert isinstance(report.violations, tuple) and report.violations
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.violations = ()


def test_mode_space_and_backend_are_immutable():
    be = system("LU")[1]
    for value, name in ((be, "nat_budget"), (be, "arities"), (be.space, "modes")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
    with pytest.raises(TypeError):
        be.arities[("U", "t")] = 2
    with pytest.raises(TypeError):
        be.space.modes["X"] = be.space.mode("L")


def test_arity_law_failures_are_reported_not_raised():
    space, be = system("LU")
    lawless = ModelBackend(space=space, arities={**be.arities, ("L", 2): 3},
                           base_carriers=be.base_carriers)
    report = model_coherence_validate(lawless, max_size=2)
    assert {v.law for v in report.violations} == {"arity-multiplicative"}
    assert all(v.witness[0] == "L" for v in report.violations)


def _corpus():
    """The pinned corpus: (backend, expected digest, derivation text) a line."""
    backends = dict(_semantic_backends())
    lines = [line for line in CORPUS.read_text().splitlines() if not line.startswith("#")]
    return [(backends[name], want, text) for name, want, text in (l.split("\t") for l in lines)]


def test_interpretation_matches_the_pinned_corpus():
    # every denotation of a seeded corpus over criterion 5's backends, by
    # digest, so a rewrite of the interpretation keeps it byte for byte
    corpus = _corpus()
    assert len(corpus) == 120
    for be, want, text in corpus:
        d = derivation_from_sexpr(text, be.space)
        try:
            pairs = interp_derivation(be, d).pairs
            got = hashlib.sha256(repr(sorted(map(repr, pairs))).encode()).hexdigest()
        except GrassError as e:
            got = f"{type(e).__name__}: {e}"
        assert got == want, text


def test_the_corpus_reads_each_structural_rule_as_identity_and_as_a_map(monkeypatch):
    # so the pinned digests guard both of weak, exchange, sub and cont's ways: their
    # premise's rows returned where the map of contexts is the identity by index, else
    # the rows read through it; weak at fh, where a(0) = 0, and at U, where 0 = 1 and
    # a(0) = 1, so w projects and is the identity only on one-element types
    import grass.semantics as semantics

    taken = collections.Counter()
    rule = semantics._Interpretation._rule

    def counted(self, d, premises):
        out = rule(self, d, premises)
        if d.rule in ("weak", "exchange", "sub", "cont"):
            mode = d.conclusion.modes[-1] if d.rule == "weak" else None
            taken[d.rule, mode, out is premises[0]] += 1
        return out

    monkeypatch.setattr(semantics._Interpretation, "_rule", counted)
    for be, _want, text in _corpus():
        try:
            interp_derivation(be, derivation_from_sexpr(text, be.space))
        except GrassError:
            pass
    for key in [("exchange", None), ("sub", None), ("cont", None), ("weak", "U")]:
        assert taken[(*key, True)] and taken[(*key, False)], key
    assert taken["weak", "fh", True] and not taken["weak", "fh", False]


# -- what a backend keeps -------------------------------------------------------


MEMOS = ("positions_memo", "table_memo", "entry_memo")


def _memos(be):
    """A copy of everything the backend keeps: its memos and its sizes' cache."""
    return {name: dict(getattr(be, name)) for name in MEMOS} | {"sizes": dict(be.sizes.cache)}


def _interpreted(be, text):
    """The denotation of a derivation text on be, or the refusal's class and text."""
    try:
        return interp_derivation(be, derivation_from_sexpr(text, be.space))
    except GrassError as e:
        return f"{type(e).__name__}: {e}"


def _corpus_lines():
    return [line.split("\t") for line in CORPUS.read_text().splitlines() if not line.startswith("#")]


def test_the_backend_memos_never_change_a_denotation():
    # the corpus on one backend per system, then in reverse order on new ones, then
    # on a fresh backend per call: each order fills the memos differently
    lines = _corpus_lines()
    forward = dict(_semantic_backends())
    want = [_interpreted(forward[name], text) for name, _digest, text in lines]
    reverse = dict(_semantic_backends())
    assert [_interpreted(reverse[name], text) for name, _digest, text in reversed(lines)][::-1] == want
    assert [_interpreted(dict(_semantic_backends())[name], text) for name, _digest, text in lines] == want
    assert sum(isinstance(out, str) for out in want) < len(want) / 2


def test_a_second_pass_adds_no_memo_entry():
    lines = _corpus_lines()
    backends = dict(_semantic_backends())
    for name, _digest, text in lines:
        _interpreted(backends[name], text)
    kept = {name: _memos(be) for name, be in backends.items()}
    assert all(memos["table_memo"] and memos["entry_memo"] for memos in kept.values())
    for name, _digest, text in lines:
        _interpreted(backends[name], text)
    assert {name: _memos(be) for name, be in backends.items()} == kept


def test_backends_over_one_space_keep_their_own_sizes():
    # used in turn, each backend sizes every object by its own carriers, and the
    # one with the corpus's carriers still gives the pinned denotations
    pinned = dict(_semantic_backends())["LU"]
    small = ModelBackend(space=pinned.space, arities=pinned.arities,
                         base_carriers={"P": ("a", "b"), "Q": ("c",)})
    assert small.sizes is not pinned.sizes
    for name, want, text in _corpus_lines():
        if name != "LU":
            continue
        for be in (small, pinned):
            d = derivation_from_sexpr(text, be.space)
            for node in d.walk():
                j = node.conclusion
                assert be.sizes.size(j.ty) == len(interp_type(be, j.ty))
                assert be.sizes.ctx_size(j) == len(interp_ctx(be, j))
        rel = _interpreted(pinned, text)
        assert hashlib.sha256(repr(sorted(map(repr, rel.pairs))).encode()).hexdigest() == want


def test_a_read_that_raises_keeps_nothing():
    space, be = system("LU")
    # an oversized type: its size, and a derivation over it, are refused
    big = type_from_sexpr("(-o{2:L} (* P P) (* P P))", space)
    before = _memos(be)
    for _ in range(2):
        with pytest.raises(SizeLimitError):
            be.sizes.size(big)
        with pytest.raises(SizeLimitError):
            interp_derivation(be, mk_arrowI(space, mk_var(space, "x", big)))
    assert not any(big in (key if isinstance(key, tuple) else (key,)) for key in be.sizes.cache)
    assert {name: _memos(be)[name] for name in MEMOS} == {name: before[name] for name in MEMOS}
    # a mu read that raises: every scaled node of the corpus is refused, each time
    refused = collections.Counter()
    for name, _digest, text in _corpus_lines():
        if name == "LU":
            bad = corrupted(be, "mu-extra-output", positions=True)
            first = _interpreted(bad, text)
            assert _interpreted(bad, text) == first
            refused[isinstance(first, str) and first.startswith("ShapeError")] += 1
            assert not bad.entry_memo and not any(key[0] == "mu" for key in bad.positions_memo)
    assert refused[True] > 20


def test_each_entry_map_is_kept_by_its_grade():
    # delta is read at each entry's own grade: arities multiplicative at (2, 1) but
    # not at (2, 2) refuse an entry of grade 2 however often one of grade 1 was read
    space, be = system("LU")
    lawless = ModelBackend(space=space, arities={**be.arities, ("L", 4): 5},
                           base_carriers=be.base_carriers)
    x = interp_type(lawless, P)
    for _ in range(2):
        for g in (1, 2):
            obj = lawless.act_obj("L", g, x)
            t = Rel(FinSetObj(tuple((e,) for e in obj.elements)), obj,
                    frozenset(((e,), e) for e in obj.elements))
            entry = [(Grade("nat-discrete", g), "L", x)]
            if g == 1:
                assert len(scalar_act(lawless, "L", 2, t, entry).pairs) == len(obj) ** 2
            else:
                with pytest.raises(ConfigError):
                    scalar_act(lawless, "L", 2, t, entry)
    assert list(lawless.entry_memo) == [("L", 2, 1, "L")]


def _hash(value):
    """hash(value), or the error hashing it raises."""
    try:
        return hash(value)
    except TypeError as e:
        return str(e)


def test_a_used_backend_equals_a_fresh_one():
    # the memos are not fields: not compared, hashed or shown
    used, fresh = (dict(_semantic_backends())["LU"] for _ in range(2))
    for name, _digest, text in _corpus_lines():
        if name == "LU":
            _interpreted(used, text)
    assert used.table_memo and used.entry_memo and used.sizes.cache
    assert used == fresh and repr(used) == repr(fresh) and _hash(used) == _hash(fresh)
    assert not {f.name for f in dataclasses.fields(used)} & {*MEMOS, "sizes"}


def test_an_interpretation_call_leaves_only_backend_facts_on_the_backend():
    # contexts and denotations live on the call: the backend gains no attribute and
    # keeps every value it had, and each memo entry is what a fresh backend computes
    space, be = system("LU")
    before = dict(vars(be))
    gen = Gen(space=space, rng=random.Random(5), max_obj_size=400, base_sizes={"P": 2, "Q": 2})
    for _ in range(20):
        d = gen.gen_derivation(4)
        try:
            interp_derivation(be, d)
            semantic_eq(be, d, d)
            subst_comp_check(be, gen.gen_bundle(3))
        except SizeLimitError:
            pass
    assert vars(be).keys() == before.keys()
    assert all(vars(be)[name] is value for name, value in before.items())
    clean = system("LU")[1]
    assert be.positions_memo and all(clean.positions(*key) == p
                                     for key, p in be.positions_memo.items())
    assert be.table_memo and all(_Interpretation(clean).table(*key) == t
                                 for key, t in be.table_memo.items())
    assert be.entry_memo and all(
        _entry_positions(clean, mode, q, Grade(space.mode(n).algebra.id, g), n) == p
        for (mode, q, g, n), p in be.entry_memo.items())
    assert be.sizes.cache and all(
        (clean.sizes.radix(*key) if isinstance(key, tuple) else clean.sizes.size(key)) == n
        for key, n in be.sizes.cache.items())
