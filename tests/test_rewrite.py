import random
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from grass.derivation import (
    Derivation,
    check_derivation,
    fold,
    mk_arrowE,
    mk_arrowI,
    mk_cont,
    mk_dropE,
    mk_dropI,
    mk_exchange,
    mk_pairI,
    mk_sub,
    mk_sumIL,
    mk_unitE,
    mk_unitI,
    mk_var,
    mk_weak,
)
from grass.errors import CheckError, InputError
from grass.gen import Gen
from grass.grades import Grade
from grass.oracles import ln_normalize, term_subst_oracle, to_locally_nameless
from grass.presets import system
from grass.rewrite import (
    SubstitutionBundle,
    all_single_steps,
    beta_step,
    eta_expand,
    eta_rule_for,
    normalize,
    preservation_check,
    subst_simultaneous,
)
from grass.sexpr import derivation_from_sexpr
from grass.syntax import (
    App,
    DropTm,
    LetDrop,
    LetPair,
    LetStar,
    Lam,
    Pair,
    Star,
    TBase,
    TDrop,
    TFun,
    TRaise,
    TSum,
    TTensor,
    TUnit,
    Var,
    alpha_eq,
)

DATA = Path(__file__).parent / "data"
P = TBase("P", "L")
Q = TBase("Q", "U")


@pytest.fixture(scope="module")
def lu():
    return system("LU")[0]


@pytest.fixture(scope="module")
def fhs():
    return system("fh")[0]


# -- simultaneous substitution -----------------------------------------------


def test_subst_var_target_returns_replacement(lu):
    target = mk_var(lu, "x", P)
    rep = mk_arrowE(lu, mk_arrowI(lu, mk_var(lu, "z", P)), mk_var(lu, "y", P))
    out = subst_simultaneous(SubstitutionBundle(target, (rep,)), lu)
    assert out is rep


def test_identity_substitution(lu):
    gen = Gen(space=lu, rng=random.Random(21))
    for _ in range(30):
        d = gen.gen_derivation(4)
        reps = tuple(mk_var(lu, x, ty) for x, ty in d.conclusion.ctx)
        out = subst_simultaneous(SubstitutionBundle(d, reps), lu)
        assert out.conclusion.shape() == d.conclusion.shape()
        assert alpha_eq(out.conclusion.term, d.conclusion.term)
        check_derivation(out, lu)


def test_subst_through_contraction_duplicates_and_scales(lu):
    # target: z used twice via contraction at U; replacement uses one Q var
    pair = mk_pairI(lu, mk_var(lu, "z1", Q), mk_var(lu, "z2", Q))
    target = mk_cont(lu, pair, "z")
    rep = mk_var(lu, "a", Q)
    out = subst_simultaneous(SubstitutionBundle(target, (rep,)), lu)
    check_derivation(out, lu)
    # conclusion grade is (r1 + r2) . sigma entrywise: t + t = t at U
    assert tuple(g.value for g in out.conclusion.rho) == ("t",)
    expected = term_subst_oracle(target.conclusion.term, {"z": Var("a")})
    assert to_locally_nameless(out.conclusion.term) == expected


def test_subst_bundle_mismatch_is_an_input_error(lu):
    target = mk_var(lu, "x", P)
    with pytest.raises(InputError):
        subst_simultaneous(SubstitutionBundle(target, (mk_var(lu, "y", Q),)), lu)


# -- beta ---------------------------------------------------------------------


def test_beta_identity(lu):
    app = mk_arrowE(lu, mk_arrowI(lu, mk_var(lu, "x", P)), mk_var(lu, "y", P))
    out, path = beta_step(app, lu)
    assert out.conclusion.term == Var("y")
    assert path == ()
    assert preservation_check(app, out)


def test_beta_unit(lu):
    red = mk_unitE(lu, 1, mk_var(lu, "z", P), mk_unitI(lu, "L"))
    out, _ = beta_step(red, lu)
    assert out.conclusion.term == Var("z")
    assert preservation_check(red, out)


def test_beta_case_inl(lu):
    from grass.derivation import mk_sumE

    scrut = mk_sumIL(lu, mk_var(lu, "s", P), P)
    left = mk_var(lu, "y1", P)
    right = mk_var(lu, "y2", P)
    d = mk_sumE(lu, left, right, scrut)
    out, _ = beta_step(d, lu)
    assert out.conclusion.term == Var("s")
    # the conclusion vector is (rho, q . sigma) and stays fixed across the step
    assert tuple(g.value for g in out.conclusion.rho) == (1,)
    assert preservation_check(d, out)
    check_derivation(out, lu)


def test_beta_two_steps(lu):
    inner = mk_pairI(lu, mk_var(lu, "x", P), mk_var(lu, "y", P))
    lam2 = mk_arrowI(lu, mk_arrowI(lu, inner))
    app = mk_arrowE(lu, mk_arrowE(lu, lam2, mk_var(lu, "a", P)), mk_var(lu, "b", P))
    out, steps, normal = normalize(app, 10, lu)
    assert (steps, normal) == (2, True)
    assert alpha_eq(out.conclusion.term, Pair(Var("a"), Var("b")))


def test_beta_through_structural_rules(lu):
    # weak, sub and exchange interposed between constructor and eliminator
    lam = mk_arrowI(lu, mk_var(lu, "x", P))
    lam = mk_weak(lu, lam, "w1", Q)
    lam = mk_sub(lu, lam, ("t",))
    app = mk_arrowE(lu, lam, mk_var(lu, "y", P))
    out, _ = beta_step(app, lu)
    assert preservation_check(app, out)
    check_derivation(out, lu)
    assert alpha_eq(out.conclusion.term, Var("y"))


def test_beta_drop(lu):
    # let@1 drop y = drop@1 x in y
    dropped = mk_dropI(lu, mk_var(lu, "x", P), 1, "L")
    body = mk_var(lu, "y", P)
    red = mk_dropE(lu, body, dropped)
    out, _ = beta_step(red, lu)
    assert preservation_check(red, out)
    assert out.conclusion.term == Var("x")


def test_normalize_fuel_and_normal_form(lu):
    nf = mk_var(lu, "x", P)
    out, steps, normal = normalize(nf, 10, lu)
    assert (out, steps, normal) == (nf, 0, True)
    app = mk_arrowE(lu, mk_arrowI(lu, mk_var(lu, "x", P)), mk_var(lu, "y", P))
    out, steps, normal = normalize(app, 0, lu)
    assert (out, steps, normal) == (app, 0, False)


def test_normalization_matches_term_level_evaluator(lu):
    gen = Gen(space=lu, rng=random.Random(22))
    for _ in range(60):
        d = gen.gen_derivation(4)
        nf, steps, normal = normalize(d, 30, lu)
        if not normal:
            continue
        ln_nf, _ = ln_normalize(to_locally_nameless(d.conclusion.term), 90)
        assert to_locally_nameless(nf.conclusion.term) == ln_nf


@pytest.mark.parametrize("term, normal_form", [
    # (let-pair x y s (let-pair u v (pair a b) (f y))): y points past the
    # opened binders and must drop to index 0
    (LetPair(1, "x", "y", Var("s"),
             LetPair(1, "u", "v", Pair(Var("a"), Var("b")), App(Var("f"), Var("y")))),
     LetPair(1, "x", "y", Var("s"), App(Var("f"), Var("y")))),
    # (lam z (app (lam x (lam w x)) z)): the graft z lands under w
    (Lam("z", App(Lam("x", Lam("w", Var("x"))), Var("z"))),
     Lam("z", Lam("w", Var("z")))),
])
def test_ln_normalize_renumbers_indices_under_binders(term, normal_form):
    nf, steps = ln_normalize(to_locally_nameless(term), 10)
    assert (nf, steps) == (to_locally_nameless(normal_form), 1)


def _identity_chain(space, depth):
    """(app (lam x1 x1) (app (lam x2 x2) ... y)) at type P."""
    d = mk_var(space, "y", P)
    for i in range(depth, 0, -1):
        d = mk_arrowE(space, mk_arrowI(space, mk_var(space, f"x{i}", P)), d)
    return d


def test_normalize_out_of_fuel_contracts_only_the_steps_taken(lu, monkeypatch):
    import grass.rewrite as rewrite

    real = rewrite._contract
    calls = []

    def counting(space, d):
        calls.append(d)
        return real(space, d)

    monkeypatch.setattr(rewrite, "_contract", counting)
    _out, steps, normal = normalize(_identity_chain(lu, 3), 2, lu)
    assert (steps, normal) == (2, False)
    assert len(calls) == 2


def _with_term(d, term):
    """A copy of d whose stored conclusion claims another term."""
    return Derivation(d.rule, d.premises, d.payload, replace(d.conclusion, term=term))


def test_normalize_checks_the_nodes_of_d_that_survive(lu):
    # the first reduct of (app (lam x1 x1) arg) is arg itself, a node of d
    arg = _identity_chain(lu, 1)
    lying = _with_term(arg, Var("y"))
    d = mk_arrowE(lu, mk_arrowI(lu, mk_var(lu, "x0", P)), lying)
    with pytest.raises(CheckError, match="stored conclusion term"):
        normalize(d, 10, lu)


def test_normalize_checks_a_bad_node_among_checked_ones(lu, monkeypatch):
    # The second reduct is a new node over premises the first step's check
    # already passed; its stored term claims the normal form early.
    import grass.rewrite as rewrite

    real = rewrite.beta_step
    calls = []

    def corrupting(d, space):
        calls.append(d)
        out = real(d, space)
        if len(calls) == 2:
            reduct, path = out
            assert not isinstance(reduct.conclusion.term, Var)
            return _with_term(reduct, Var("y")), path
        return out

    monkeypatch.setattr(rewrite, "beta_step", corrupting)
    with pytest.raises(CheckError, match="stored conclusion term"):
        normalize(_identity_chain(lu, 3), 10, lu)
    assert len(calls) == 2


def _unsealed(d):
    """A copy of d in which no node is sealed, built at any depth."""
    return fold(d, lambda node, premises: Derivation(node.rule, tuple(premises), node.payload,
                                                     node.conclusion))


def test_normalize_checks_every_reduct_node_once(lu, monkeypatch):
    # every node of d and of each reduct is checked once: by the mk_* that built
    # it in lu, which sealed it, or else by check_derivation, which rebuilds each
    # unsealed node it is handed once and seals it, so no reduct needs a rebuild
    import grass.derivation as derivation
    import grass.rewrite as rewrite

    real_check, real_rebuild = rewrite.check_derivation, derivation.rebuild
    trees, rebuilt = [], []

    def top_level(d, space):
        trees.append(d)
        return real_check(d, space)

    def counting(space, rule, premises, payload):
        rebuilt.append(rule)
        return real_rebuild(space, rule, premises, payload)

    monkeypatch.setattr(rewrite, "check_derivation", top_level)
    monkeypatch.setattr(derivation, "rebuild", counting)
    gen = Gen(space=lu, rng=random.Random(22))
    inputs = [_identity_chain(lu, 6)] + [gen.gen_derivation(4) for _ in range(40)]
    total_steps = 0
    for d in inputs:
        for given in (d, _unsealed(d)):
            unsealed = {id(n) for n in given.walk() if n._seal is not lu}
            trees.clear()
            rebuilt.clear()
            _out, steps, _normal = normalize(given, 30, lu)
            assert len(trees) == steps + 1 and trees[0] is given
            assert all(n._seal is lu for tree in trees for n in tree.walk())
            assert len(rebuilt) == len(unsealed)
            total_steps += steps
    assert total_steps >= 40


def test_normalize_checker_work_grows_linearly_on_chains(lu, monkeypatch):
    import grass.derivation as derivation

    real = derivation.rebuild
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    def rebuilds(depth, copy=lambda d: d):
        d = copy(_identity_chain(lu, depth))
        calls[0] = 0
        monkeypatch.setattr(derivation, "rebuild", counting)
        try:
            out, steps, normal = normalize(d, depth + 1, lu)
        finally:
            monkeypatch.setattr(derivation, "rebuild", real)
        assert (out.conclusion.term, steps, normal) == (Var("y"), depth, True)
        return calls[0]

    assert rebuilds(80) == rebuilds(160) == 0
    small, large = rebuilds(80, _unsealed), rebuilds(160, _unsealed)
    assert small > 0
    assert large / small <= 2.5


# -- eta -----------------------------------------------------------------------


def test_eta_targets_are_the_stated_terms(lu):
    t = mk_var(lu, "t", TUnit("L"))
    assert eta_expand(t, "unit", lu).conclusion.term == LetStar(1, Var("t"), Star("L"))

    t = mk_var(lu, "t", TTensor(P, P))
    out = eta_expand(t, "pair", lu).conclusion.term
    assert isinstance(out, LetPair) and out.grade == 1
    assert out.body == Pair(Var(out.left_name), Var(out.right_name))

    fn = mk_var(lu, "t", TFun(P, Grade("nat-discrete", 2), P))
    out = eta_expand(fn, "arrow", lu).conclusion.term
    assert isinstance(out, Lam) and out.body == App(Var("t"), Var(out.name))

    t = mk_var(lu, "t", TRaise("L", "U", P))
    out = eta_expand(t, "raise", lu).conclusion.term
    assert out.low == "L" and out.high == "U"

    t = mk_var(lu, "t", TDrop(Grade("nat-discrete", 2), "L", "L", P))
    out = eta_expand(t, "drop", lu).conclusion.term
    assert isinstance(out, LetDrop) and out.grade == 2
    assert out.body == DropTm(2, "L", "L", Var(out.name))


def test_eta_rule_must_match_the_type(lu):
    t = mk_var(lu, "t", TUnit("L"))
    with pytest.raises(InputError):
        eta_expand(t, "pair", lu)
    assert eta_rule_for(t) == "unit"


def test_eta_preserves_judgment_on_corpus(lu):
    gen = Gen(space=lu, rng=random.Random(23))
    for _ in range(50):
        d = gen.gen_derivation(4)
        rule = eta_rule_for(d)
        if rule is None:
            continue
        e = eta_expand(d, rule, lu)
        assert preservation_check(d, e)
        check_derivation(e, lu)


# -- preservation and desk-scale confluence --------------------------------------


def test_preservation_check_examples(lu):
    d = mk_var(lu, "x", P)
    assert preservation_check(d, d)
    other = mk_var(lu, "x2", TUnit("L"))
    assert not preservation_check(d, other)


def test_confluence_at_desk_scale(lu, fhs):
    # sanity probe, reported rather than asserted
    mismatches = []
    for space, seed in ((lu, 31), (fhs, 32)):
        gen = Gen(space=space, rng=random.Random(seed))
        for i in range(40):
            d = gen.gen_derivation(4)
            nfs = set()
            stack = [(d, 0)]
            seen = 0
            while stack and seen < 60:
                cur, depth = stack.pop()
                seen += 1
                steps = all_single_steps(cur, space) if depth < 6 else []
                if not steps:
                    nf, _, done = normalize(cur, 20, space)
                    if done:
                        nfs.add(to_locally_nameless(nf.conclusion.term))
                    continue
                for reduct, _path in steps:
                    stack.append((reduct, depth + 1))
            if len(nfs) > 1:
                mismatches.append((space, i))
    if mismatches:
        warnings.warn(f"confluence probe found diverging normal forms: {mismatches}")


def test_beta_through_contraction_on_the_scrutinee(lu):
    # a contraction between the pair constructor and its eliminator:
    # let@t (a,b) = (z, z) in (b, a), with z duplicated at U via cont
    from grass.derivation import mk_pairE

    pair = mk_pairI(lu, mk_var(lu, "z1", Q), mk_var(lu, "z2", Q))
    scrut = mk_cont(lu, pair, "z")          # (z, z) with one context entry
    body = mk_pairI(lu, mk_var(lu, "b", Q), mk_var(lu, "a", Q))
    body = mk_exchange(lu, body, (1, 0))    # context (a, b), term (b, a)
    red = mk_pairE(lu, body, scrut)
    out, _ = beta_step(red, lu)
    assert preservation_check(red, out)
    check_derivation(out, lu)
    assert alpha_eq(out.conclusion.term, Pair(Var("z"), Var("z")))


def test_beta_through_weak_on_the_scrutinee(lu):
    from grass.derivation import mk_unitE

    scrut = mk_weak(lu, mk_unitI(lu, "L"), "pad", Q)
    red = mk_unitE(lu, 1, mk_var(lu, "t", P), scrut)
    out, _ = beta_step(red, lu)
    assert preservation_check(red, out)
    check_derivation(out, lu)
    assert out.conclusion.term == Var("t")


def test_subst_through_exchange_reorders_blocks(lu):
    # substitution through exchange (and cont) must land the replacement
    # contexts in the conclusion's block order Delta_1 .. Delta_k
    IL, IU = TUnit("L"), TUnit("U")
    base = mk_pairI(lu, mk_var(lu, "x", P), mk_var(lu, "u", IL))
    rep_u = mk_unitE(lu, 1, mk_unitI(lu, "L"), mk_var(lu, "s", IL))
    rep_x = mk_arrowE(lu, mk_arrowI(lu, mk_var(lu, "w1", P)), mk_var(lu, "w2", P))
    cases = [(mk_exchange(lu, base, (1, 0)), (rep_u, rep_x))]  # context (u, x)

    # every replacement has two entries
    def two(ty, a, b, mode="L", q=1):
        return mk_unitE(lu, q, mk_var(lu, a, ty), mk_var(lu, b, TUnit(mode)))

    three = mk_pairI(lu, mk_pairI(lu, mk_var(lu, "x", P), mk_var(lu, "y", P)),
                     mk_var(lu, "u", IL))
    cases.append((mk_exchange(lu, three, (2, 0, 1)),  # context (u, x, y)
                  (two(IL, "s1", "s2"), two(P, "a1", "a2"), two(P, "b1", "b2"))))
    # cont over an exchange, then an exchange over the cont
    dup = mk_pairI(lu, mk_pairI(lu, mk_var(lu, "z1", Q), mk_var(lu, "y", Q)),
                   mk_var(lu, "z2", Q))
    contracted = mk_cont(lu, mk_exchange(lu, dup, (1, 0, 2)), "z")  # context (y, z)
    rep_y, rep_z = two(Q, "a1", "a2", "U", "t"), two(Q, "q1", "q2", "U", "t")
    cases.append((contracted, (rep_y, rep_z)))
    cases.append((mk_exchange(lu, contracted, (1, 0)), (rep_z, rep_y)))

    for target, reps in cases:
        out = subst_simultaneous(SubstitutionBundle(target, reps), lu)
        check_derivation(out, lu)
        assert out.conclusion.names() == tuple(x for r in reps for x in r.conclusion.names())
        assert out.conclusion.shape()[3:] == target.conclusion.shape()[3:]


@pytest.mark.parametrize("seed, index", [(314, 72), (332, 167)])
def test_beta_steps_keep_contracted_names_apart(seed, index):
    # Pushing a contraction on the scrutinee below its eliminator exposes the
    # two contracted names; a name contracted away inside the scrutinee may
    # be reused by a variable of another premise and must be renamed.  These
    # generated derivations (criterion 5's L <= U backend sizes) used to
    # raise "contexts share the variable 'v833_c'" / "'v1837_c'".  They are
    # pinned as text: the generator no longer draws them.
    from grass.presets import standard_space

    space = standard_space(("L", "U"), (("L", "U"),), {"P": "L", "Q": "U"})
    pinned = {}
    for line in (DATA / "contracted_names.txt").read_text().splitlines():
        if not line.startswith("#"):
            s, i, text = line.split(" ", 2)
            pinned[int(s), int(i)] = text
    d = derivation_from_sexpr(pinned[seed, index], space)
    steps = 0
    current = d
    while steps < 12:
        step = beta_step(current, space)
        if step is None:
            break
        nxt = step[0]
        assert preservation_check(current, nxt)
        check_derivation(nxt, space)
        current = nxt
        steps += 1
    assert steps >= 2


def test_beta_through_a_deep_structural_chain(lu):
    # 1200 weak nodes between the eliminator and its introduction: more
    # than Python's default recursion limit of 1000 frames, and few enough
    # to stay quick, since every rebuilt node holds its whole context
    fn = mk_arrowI(lu, mk_var(lu, "x", P))
    for i in range(1200):
        fn = mk_weak(lu, fn, f"w{i}", Q)
    red = mk_arrowE(lu, fn, mk_var(lu, "y", P))
    out, path = beta_step(red, lu)
    assert path == ()
    assert check_derivation(out, lu) == replace(red.conclusion, term=Var("y"))
    del out
    out, steps, normal = normalize(red, 1, lu)
    assert (steps, normal, out.conclusion.term) == (1, True, Var("y"))
