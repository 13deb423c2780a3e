import copy
import dataclasses
import gc
import pickle
import random
import sys
import threading
import weakref
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grass import syntax
from grass.errors import InputError
from grass.gen import Gen
from grass.grades import Grade
from grass.oracles import ln_eq, term_subst_oracle, to_locally_nameless
from grass.presets import standard_space, system
from grass.sexpr import type_from_sexpr, type_to_sexpr
from grass.syntax import (
    TERMS,
    App,
    Case,
    Inl,
    Inr,
    Lam,
    LetPair,
    Pair,
    Star,
    TBase,
    TDrop,
    TFun,
    TRaise,
    TSum,
    TTensor,
    TUnit,
    Term,
    Var,
    alpha_eq,
    free_vars,
    mode_of,
    subst,
    type_wf,
)

P = TBase("P", "L")
Q = TBase("Q", "U")


@pytest.fixture(scope="module")
def space():
    return system("LU")[0]


# -- well-formed types ---------------------------------------------------------


def test_unit_wf(space):
    assert type_wf(TUnit("L"), "L", space)
    assert not type_wf(TUnit("L"), "U", space)


def test_box_encoding_wf(space):
    # the graded modality: a drop around a raise, landing back at L
    box = TDrop(Grade("top", "t"), "L", "U", TRaise("L", "U", P))
    assert type_wf(box, "L", space)


def test_fun_result_mode_must_match(space):
    # a U-to-U function checked at L fails: the result mode is the arrow's mode
    fn = TFun(Q, Grade("top", "t"), Q)
    assert type_wf(fn, "U", space)
    assert not type_wf(fn, "L", space)


def test_fun_requires_independence(space):
    # argument at L, result at U needs U <= L, which fails
    fn = TFun(P, Grade("nat-discrete", 1), Q)
    assert not type_wf(fn, "U", space)


def test_unknown_base_raises(space):
    # on every call: a raising call leaves nothing in the space's memo, neither False
    for ty in [TBase("nope", "L")] * 2 + [TTensor(P, TBase("nope", "L"))] * 2:
        with pytest.raises(InputError):
            type_wf(ty, "L", space)
        assert (ty, "L") not in space.wf_memo


def test_type_wf_answers_are_per_space():
    # one base type name declared at two modes: each space keeps its own answer
    at_l = standard_space(("L", "U"), (("L", "U"),), {"B": "L"})
    at_u = standard_space(("L", "U"), (("L", "U"),), {"B": "U"})
    b_l, b_u = TBase("B", "L"), TBase("B", "U")
    for _ in range(2):
        assert type_wf(b_l, "L", at_l) and not type_wf(b_l, "L", at_u)
        assert type_wf(b_u, "U", at_u) and not type_wf(b_u, "U", at_l)


def test_types_have_a_unique_mode(space):
    gen = Gen(space=space, rng=random.Random(0))
    for _ in range(60):
        mode = gen.rng.choice(["L", "U"])
        ty = gen.gen_type(mode, 3)
        root = mode_of(ty)
        assert type_wf(ty, root, space)
        for m in space.modes:
            if m != root:
                assert not type_wf(ty, m, space)


# -- hash-consed types ----------------------------------------------------------


def test_equal_types_are_one_object_however_built(space):
    g = Grade("nat-discrete", 2)
    ty = TFun(TTensor(P, TUnit("L")), g, TDrop(Grade("top", "t"), "L", "U", TRaise("L", "U", P)))
    builds = [
        TFun(TTensor(P, TUnit("L")), Grade("nat-discrete", 2),
             TDrop(Grade("top", "t"), "L", "U", TRaise("L", "U", TBase("P", "L")))),
        TFun(arg=TTensor(right=TUnit(mode="L"), left=P), grade=g,
             body=TDrop(Grade("top", "t"), "L", high="U", body=TRaise(low="L", high="U", body=P))),
        dataclasses.replace(ty),
        dataclasses.replace(TFun(P, g, Q), arg=ty.arg, body=ty.body),
        copy.copy(ty),
        copy.deepcopy(ty),
        pickle.loads(pickle.dumps(ty)),
    ]
    assert all(b is ty for b in builds)
    gen = Gen(space=space, rng=random.Random(3))
    for _ in range(60):
        ty = gen.gen_type(gen.rng.choice(["L", "U"]), 3)
        assert type_from_sexpr(type_to_sexpr(ty), space) is ty


def test_fields_read_back_as_built():
    one, true = TFun(P, Grade("b", 1), Q), TFun(P, Grade("b", True), Q)
    assert one is not true
    assert type(one.grade.value) is int and type(true.grade.value) is bool
    assert (one.arg, one.body, true.arg, true.body) == (P, Q, P, Q)
    drop = TDrop(Grade("b", True), "L", "U", Q)
    assert [getattr(drop, f.name) for f in fields(drop)] == [Grade("b", True), "L", "U", Q]
    assert drop.grade.value is True and drop is not TDrop(Grade("b", 1), "L", "U", Q)
    with pytest.raises(FrozenInstanceError):
        drop.low = "U"


def test_a_type_nothing_references_leaves_the_table():
    def named():  # the tensor's key holds its base type, so this covers both
        return [k for k in list(syntax._TYPES.keys()) if k[:2] == (TBase, "only-here")]

    ty = TTensor(TBase("only-here", "L"), TUnit("L"))
    assert len(named()) == 1
    gone = weakref.ref(ty)
    del ty
    gc.collect()
    assert gone() is None and named() == []


def test_deep_types_hash_and_compare_without_recursion():
    def chain():
        ty = P
        for _ in range(10_000):
            ty = TTensor(ty, TUnit("L"))
        return ty

    a, b = chain(), chain()
    assert a is b and a == b and hash(a) == hash(b) and a != TTensor(a, TUnit("L"))
    assert mode_of(a) == "L"


def test_threads_building_one_value_get_one_object():
    built = [[] for _ in range(8)]

    def build(out):
        for i in range(200):
            out.append(TTensor(TBase(f"threaded{i}", "L"), TUnit("L")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(out[i] is built[0][i] for out in built for i in range(200))


# -- alpha equivalence ----------------------------------------------------------


def test_alpha_examples():
    assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))
    assert not alpha_eq(Lam("x", Lam("y", Var("x"))), Lam("y", Lam("x", Var("x"))))
    t1 = LetPair(1, "a", "b", Var("t"), Pair(Var("a"), Var("b")))
    t2 = LetPair(1, "u", "v", Var("t"), Pair(Var("u"), Var("v")))
    assert alpha_eq(t1, t2)
    t3 = LetPair(1, "u", "v", Var("t"), Pair(Var("v"), Var("u")))
    assert not alpha_eq(t1, t3)


def test_alpha_shared_subterm_under_swapped_binders():
    # one Var object in both terms, bound by different binders
    x = Var("x")
    assert not alpha_eq(Lam("x", Lam("y", x)), Lam("y", Lam("x", x)))
    body = Lam("y", x)
    assert alpha_eq(Lam("x", body), Lam("x", body))
    assert alpha_eq(Lam("x", body), Lam("z", Lam("y", Var("z"))))


def test_alpha_matches_de_bruijn_oracle(space):
    gen = Gen(space=space, rng=random.Random(3))
    terms = [gen.gen_derivation(4).conclusion.term for _ in range(80)]
    for a in terms:
        assert alpha_eq(a, a) and ln_eq(a, a)
    for a, b in zip(terms, terms[1:]):
        assert alpha_eq(a, b) == ln_eq(a, b)


def test_alpha_is_an_equivalence(space):
    gen = Gen(space=space, rng=random.Random(4))
    ts = [gen.gen_derivation(3).conclusion.term for _ in range(12)]
    for a in ts:
        assert alpha_eq(a, a)
    for a in ts:
        for b in ts:
            assert alpha_eq(a, b) == alpha_eq(b, a)
            for c in ts:
                if alpha_eq(a, b) and alpha_eq(b, c):
                    assert alpha_eq(a, c)


# -- free variables and substitution ---------------------------------------------


def test_free_vars_examples():
    assert free_vars(Var("x")) == {"x"}
    assert free_vars(Lam("x", Var("x"))) == set()
    case = Case(1, Var("z"), "y1", Var("y1"), "y2", Var("w"))
    assert free_vars(case) == {"z", "w"}


def test_subst_avoids_capture():
    # [y/x](\y. x) must not capture y
    t = Lam("y", Var("x"))
    out = subst(t, {"x": Var("y")})
    assert isinstance(out, Lam)
    assert out.name != "y"
    assert out.body == Var("y")
    assert to_locally_nameless(out) == term_subst_oracle(t, {"x": Var("y")})


def test_subst_respects_alpha(space):
    gen = Gen(space=space, rng=random.Random(5))
    for _ in range(40):
        d = gen.gen_derivation(3)
        t = d.conclusion.term
        names = sorted(free_vars(t))
        if not names:
            continue
        mapping = {names[0]: Pair(Star("L"), Var("fresh"))}
        got = subst(t, mapping)
        assert to_locally_nameless(got) == term_subst_oracle(t, mapping)


@given(st.sampled_from(["x", "y", "z"]), st.sampled_from(["x", "y", "z"]))
@settings(max_examples=30, deadline=None)
def test_identity_subst(a, b):
    t = Lam(a, App(Var(a), Var(b)))
    assert subst(t, {}) == t
    assert alpha_eq(subst(t, {b: Var(b)}), t)


# -- the binding signature against the de Bruijn oracle ----------------------------


def test_every_term_former_has_a_binding_signature():
    formers = {c for c in vars(syntax).values()
               if isinstance(c, type) and issubclass(c, Term) and c is not Term}
    assert formers == set(TERMS) | {Var}


# every atom field of a raw term draws from the same three names, so that
# binders collide with each other and with free variables
ATOMS = st.sampled_from(["x", "y", "z"])


def _raw_term(children):
    return st.one_of([
        st.builds(cls, *(children if isinstance(k, tuple) else ATOMS for k in kinds))
        for cls, kinds in TERMS.items()
    ])


RAW_TERMS = st.recursive(st.builds(Var, ATOMS), _raw_term, max_leaves=8)


def _ln_free(ln) -> set:
    if ln[0] == "free":
        return {ln[1]}
    return set().union(*(_ln_free(p) for p in ln[1:] if isinstance(p, tuple)))


def _rename_bound(t, draw, env=None):
    """t with every binder renamed to a drawn name, capture or not."""
    env = env or {}
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    kinds = TERMS[type(t)]
    old = [getattr(t, f.name) for f in fields(t)]
    new = [draw() if k == "name" else v for k, v in zip(kinds, old)]
    for i, k in enumerate(kinds):
        if isinstance(k, tuple):
            inner = dict(env)
            inner.update((old[b], new[b]) for b in k)
            new[i] = _rename_bound(old[i], draw, inner)
    return type(t)(*new)


@given(RAW_TERMS, st.dictionaries(ATOMS, RAW_TERMS, max_size=2), st.data())
@settings(max_examples=200, deadline=None)
def test_binding_signature_matches_de_bruijn(t, mapping, data):
    assert to_locally_nameless(subst(t, mapping)) == term_subst_oracle(t, mapping)
    assert free_vars(t) == _ln_free(to_locally_nameless(t))
    renamed = _rename_bound(t, lambda: data.draw(ATOMS))
    assert alpha_eq(t, renamed) == ln_eq(t, renamed)


def test_subst_under_a_repeated_binder():
    t = LetPair(1, "x", "x", Var("s"), Var("x"))
    out = subst(t, {"s": Var("u")})
    assert to_locally_nameless(out) == term_subst_oracle(t, {"s": Var("u")})
    assert out.body == Var(out.right_name)
