import copy
import dataclasses
import itertools
import pickle
import random

import pytest

from grass.derivation import (
    Derivation,
    check_derivation,
    elaborate,
    fold,
    mk_arrowE,
    mk_arrowI,
    mk_cont,
    mk_dropI,
    mk_exchange,
    mk_pairI,
    mk_raiseI,
    mk_sub,
    mk_sumE,
    mk_sumIL,
    mk_sumIR,
    mk_unitE,
    mk_unitI,
    mk_var,
    mk_weak,
    reorder,
)
from grass.errors import CheckError, ElaborationError, InputError
from grass.gen import Gen
from grass.grades import Grade
from grass.presets import system
from grass.modespace import independence_check
from grass.rewrite import all_single_steps, beta_step, normalize
from grass.semantics import interp_derivation, semantic_eq
from grass.sexpr import derivation_to_sexpr, term_from_sexpr
from grass.syntax import (
    Judgment,
    Lam,
    Pair,
    Star,
    TBase,
    TFun,
    TSum,
    TTensor,
    TUnit,
    Var,
    alpha_eq,
    free_vars,
)

P = TBase("P", "L")
Q = TBase("Q", "U")
H = TBase("H", "fh")


@pytest.fixture(scope="module")
def lu():
    return system("LU")[0]


@pytest.fixture(scope="module")
def fhs():
    return system("fh")[0]


# -- checking -------------------------------------------------------------------


def test_var_axiom(lu):
    d = mk_var(lu, "x", P)
    j = check_derivation(d, lu)
    assert j.rho[0].value == 1 and j.modes == ("L",) and j.mode == "L"


def test_exchange_identity_is_noop(lu):
    d = mk_pairI(lu, mk_var(lu, "x", P), mk_var(lu, "y", P))
    e = mk_exchange(lu, d, (0, 1))
    assert e.conclusion == d.conclusion


def test_reorder_exchanges_only_into_a_permutation(lu):
    d = mk_pairI(lu, mk_var(lu, "x", P), mk_var(lu, "y", P))
    assert reorder(lu, d, ("x", "y")) is d
    swapped = reorder(lu, d, ("y", "x"))
    assert swapped.rule == "exchange" and swapped.payload == ((1, 0),)
    for names in (("x",), ("x", "z"), ("x", "y", "y")):
        with pytest.raises(InputError, match="cannot reorder"):
            reorder(lu, d, names)


def _exchange_chain(lu, depth):
    """`depth` exchanges over (pairI (var x P) (var y P)): the chain's
    nodes from the pair up, and the two leaves."""
    leaf_x, leaf_y = mk_var(lu, "x", P), mk_var(lu, "y", P)
    d = mk_pairI(lu, leaf_x, leaf_y)
    chain = [d]
    for _ in range(depth):
        d = mk_exchange(lu, d, (1, 0))
        chain.append(d)
    return chain, leaf_x, leaf_y


def test_walk_is_preorder_at_any_depth(lu):
    depth = 10_000
    chain, leaf_x, leaf_y = _exchange_chain(lu, depth)
    nodes = list(chain[-1].walk())
    assert len(nodes) == depth + 3
    assert all(a is b for a, b in zip(nodes, reversed(chain)))
    assert nodes[-2] is leaf_x and nodes[-1] is leaf_y


def test_every_traversal_returns_at_any_depth():
    space, backend = system("LU")
    depth = 10_000
    chain, _, _ = _exchange_chain(space, depth)
    d, pair = chain[-1], chain[0]
    assert check_derivation(d, space) == d.conclusion
    assert check_derivation(_unsealed(d), space) == d.conclusion
    assert beta_step(d, space) is None
    assert normalize(d, 8, space) == (d, 0, True)
    assert all_single_steps(d, space) == []
    assert derivation_to_sexpr(d) == "(exchange (1 0) " * depth + derivation_to_sexpr(pair) + ")" * depth
    # an even number of swaps is the identity on the pair's context
    assert interp_derivation(backend, d) == interp_derivation(backend, pair)
    assert semantic_eq(backend, d, d)
    bad = dataclasses.replace(pair, conclusion=dataclasses.replace(pair.conclusion, mode="U"))
    for node in chain[1:]:
        bad = dataclasses.replace(node, premises=(bad,))
    with pytest.raises(CheckError) as err:
        check_derivation(bad, space)
    assert err.value.position == (0,) * depth


def test_equality_and_hash_at_any_depth(lu):
    depth = 10_000
    d, again = _exchange_chain(lu, depth)[0][-1], _exchange_chain(lu, depth)[0][-1]
    assert d is not again
    assert d == again and not d != again
    assert hash(d) == hash(again)
    chain, _, _ = _exchange_chain(lu, depth)
    pair = chain[0]
    other = dataclasses.replace(pair, payload=("changed",))
    for node in chain[1:]:
        other = dataclasses.replace(node, premises=(other,))
    assert d != other and not d == other


@dataclasses.dataclass(frozen=True)
class _Plain:
    """A derivation's fields under the dataclass-generated __eq__ and __hash__."""

    rule: str
    premises: tuple
    payload: tuple
    conclusion: Judgment


def _plain(d):
    return _Plain(d.rule, tuple(map(_plain, d.premises)), d.payload, d.conclusion)


def test_equal_derivations_built_separately_hash_equal(lu):
    first = [Gen(space=lu, rng=random.Random(seed)).gen_derivation(5) for seed in range(40)]
    again = [Gen(space=lu, rng=random.Random(seed)).gen_derivation(5) for seed in range(40)]
    for d, e in zip(first, again):
        assert d is not e and d == e and hash(d) == hash(e)
    assert len(set(first) | set(again)) == len(set(map(_plain, first)))
    # the same answers as the generated methods
    for d in first:
        assert hash(d) == hash(_plain(d))
    for d, e in itertools.product(first[:12], again[:12]):
        assert (d == e) == (_plain(d) == _plain(e))
    # two separately built DAGs of 2^20 paths are compared and hashed node
    # by node: each conclusion is compared once and hashed once
    calls = []

    class Counted:
        def __eq__(self, other):
            calls.append("eq")
            return isinstance(other, Counted)

        def __hash__(self):
            calls.append("hash")
            return 0

    d = e = dataclasses.replace(first[0], premises=())
    for _ in range(20):
        d = dataclasses.replace(d, premises=(d, d), conclusion=Counted())
        e = dataclasses.replace(e, premises=(e, e), conclusion=Counted())
    assert d == e and hash(d) == hash(e)
    assert calls.count("eq") == 20 and calls.count("hash") == 40


def test_cont_needs_the_ideal(fhs):
    pair = mk_pairI(fhs, mk_var(fhs, "h1", H), mk_var(fhs, "h2", H))
    with pytest.raises(CheckError) as err:
        mk_cont(fhs, pair, "h")
    assert "Cont" in str(err.value)
    # lifting both to w first makes the contraction legal
    lifted = mk_sub(fhs, pair, ("w", "w"))
    d = mk_cont(fhs, lifted, "h")
    assert d.conclusion.rho[0].value == "w"
    check_derivation(d, fhs)


def test_weak_needs_the_flag(lu):
    d = mk_var(lu, "x", P)
    with pytest.raises(CheckError):
        mk_weak(lu, d, "y", P)  # Weak(L) is false
    ok = mk_weak(lu, d, "y", Q)  # Weak(U) is true and L <= U
    assert ok.conclusion.rho[-1].value == "t"


@pytest.mark.parametrize("name", ["L", "U", "R", "A", "fh", "LU", "LA", "LfhU", "all"])
def test_free_variables_stay_among_the_context_names(name):
    # why mk_weak tests a new name against the context alone: every node keeps
    # its term's free variables among its context's names
    space = system(name)[0]
    gen = Gen(space=space, rng=random.Random(21))
    for _ in range(60):
        for node in gen.gen_derivation(5).walk():
            c = node.conclusion
            assert free_vars(c.term) <= set(c.names()), derivation_to_sexpr(node)


def test_sub_needs_entrywise_leq(lu):
    d = mk_var(lu, "x", P)
    with pytest.raises(CheckError):
        mk_sub(lu, d, (0,))  # 1 <= 0 fails in the discrete order


def test_sumE_needs_one_below_the_grade(lu):
    scrut = mk_sumIL(lu, mk_var(lu, "s", P), P)
    left = mk_var(lu, "a", P)
    right = mk_var(lu, "b", P)
    # branch bound variables are graded 1 = the only grade with 1 <= q at L
    d = mk_sumE(lu, left, right, scrut)
    check_derivation(d, lu)
    assert d.conclusion.ty == P


def test_raiseI_needs_independence(lu):
    d = mk_var(lu, "x", P)  # context at mode L
    with pytest.raises(CheckError) as err:
        mk_raiseI(lu, d, "U")  # U must be below every context mode, but L < U
    assert "independence" in str(err.value)


def test_checker_reports_position(lu):
    good = mk_arrowI(lu, mk_var(lu, "x", P))
    bad = good.premises[0]
    tampered = type(bad)(bad.rule, bad.premises, ("x", Q), bad.conclusion)
    wrapped = type(good)(good.rule, (tampered,), good.payload, good.conclusion)
    with pytest.raises(CheckError) as err:
        check_derivation(wrapped, lu)
    assert err.value.position == (0,)


def test_checker_reports_the_path_of_a_corrupted_node(lu):
    rng = random.Random(5)
    gen = Gen(space=lu, rng=random.Random(6))
    for _ in range(60):
        d = gen.gen_derivation(4)
        path, new = rng.choice(list(d.find(lambda node: True)))
        c = new.conclusion
        new = dataclasses.replace(new, conclusion=dataclasses.replace(c, mode="L" if c.mode == "U" else "U"))
        spine = [d]
        for i in path[:-1]:
            spine.append(spine[-1].premises[i])
        for node, i in zip(reversed(spine), reversed(path)):
            new = dataclasses.replace(node, premises=node.premises[:i] + (new,) + node.premises[i + 1:])
        with pytest.raises(CheckError, match="stored conclusion does not match") as err:
            check_derivation(new, lu)
        assert err.value.position == path


def test_accepted_derivations_satisfy_independence(lu):
    gen = Gen(space=lu, rng=random.Random(11))
    for _ in range(50):
        d = gen.gen_derivation(4)
        check_derivation(d, lu)
        for node in d.walk():
            assert independence_check(node.conclusion.modes, node.conclusion.mode, lu)


def test_checker_is_deterministic(lu):
    gen = Gen(space=lu, rng=random.Random(12))
    for _ in range(20):
        d = gen.gen_derivation(4)
        assert check_derivation(d, lu) == check_derivation(d, lu) == d.conclusion


def _unsealed(d):
    """A copy of d in which no node is sealed, built at any depth."""
    return fold(d, lambda node, premises: Derivation(node.rule, tuple(premises), node.payload,
                                                     node.conclusion))


@pytest.fixture
def rebuilds(monkeypatch):
    """The rules check_derivation rebuilds, in order."""
    import grass.derivation as derivation

    rules = []
    real = derivation.rebuild

    def counting(space, rule, premises, payload):
        rules.append(rule)
        return real(space, rule, premises, payload)

    monkeypatch.setattr(derivation, "rebuild", counting)
    return rules


def test_checker_checks_a_shared_subtree_once(lu, rebuilds):
    unit = Derivation("unitI", (), ("L",), mk_unitI(lu, "L").conclusion)
    d = Derivation("pairI", (unit, unit), (), mk_pairI(lu, unit, unit).conclusion)
    assert check_derivation(d, lu) == d.conclusion
    assert rebuilds == ["unitI", "pairI"]


def test_checker_seals_only_nodes_that_passed(lu, rebuilds):
    good = _unsealed(mk_arrowI(lu, mk_var(lu, "x", P)))
    bad = good.premises[0]
    tampered = type(bad)(bad.rule, bad.premises, ("x", Q), bad.conclusion)
    wrapped = type(good)(good.rule, (tampered,), good.payload, good.conclusion)
    for _ in range(2):
        with pytest.raises(CheckError) as err:
            check_derivation(wrapped, lu)
        assert err.value.position == (0,)
        assert wrapped._seal is tampered._seal is good._seal is bad._seal is None
    assert rebuilds == ["var", "var"]
    assert check_derivation(good, lu) == good.conclusion
    assert good._seal is bad._seal is lu
    assert check_derivation(good, lu) == good.conclusion
    assert rebuilds == ["var", "var", "var", "arrowI"]


def _sample(space, seed=31, count=30):
    gen = Gen(space=space, rng=random.Random(seed))
    return [gen.gen_derivation(4) for _ in range(count)]


def test_a_tree_built_by_the_constructors_is_not_checked_again(lu, rebuilds):
    for d in _sample(lu):
        assert all(node._seal is lu for node in d.walk())
        assert check_derivation(d, lu) == d.conclusion
    assert rebuilds == []


def test_copy_deepcopy_and_pickle_drop_the_seal(lu, rebuilds):
    for d in _sample(lu):
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert twin == d and hash(twin) == hash(d) and twin is not d
            assert twin._seal is None
            new = {id(n) for n in twin.walk()} - {id(n) for n in d.walk()}
            rebuilds.clear()
            assert check_derivation(twin, lu) == d.conclusion
            assert len(rebuilds) == len(new) and twin._seal is lu
            rebuilds.clear()
            assert check_derivation(twin, lu) == d.conclusion
            assert rebuilds == []


def test_a_tree_is_fully_checked_in_an_equal_but_distinct_space(lu, rebuilds):
    other = system("LU")[0]
    assert other == lu and other is not lu
    for d in _sample(lu):
        rebuilds.clear()
        assert check_derivation(d, other) == d.conclusion
        assert len(rebuilds) == len({id(n) for n in d.walk()})
        assert all(node._seal is other for node in d.walk())


def test_a_node_over_an_unsealed_premise_is_unsealed(lu):
    x = mk_var(lu, "x", P)
    loose = Derivation(x.rule, x.premises, x.payload, x.conclusion)
    assert x._seal is lu and loose._seal is None
    assert mk_arrowI(lu, x)._seal is lu
    assert mk_arrowI(lu, loose)._seal is None
    assert mk_pairI(lu, mk_var(lu, "y", P), loose)._seal is None
    assert mk_arrowI(system("LU")[0], x)._seal is None
    assert dataclasses.replace(mk_arrowI(lu, x))._seal is None


def test_a_replaced_conclusion_is_rejected_with_its_path(lu):
    d = mk_pairI(lu, mk_arrowI(lu, mk_var(lu, "x", P)), mk_var(lu, "y", P))
    node = d.premises[0].premises[0]
    lying = dataclasses.replace(node, conclusion=dataclasses.replace(node.conclusion, ty=Q))
    inner = dataclasses.replace(d.premises[0], premises=(lying,))
    top = dataclasses.replace(d, premises=(inner, d.premises[1]))
    for _ in range(2):
        with pytest.raises(CheckError, match="stored conclusion does not match") as err:
            check_derivation(top, lu)
        assert (err.value.rule, err.value.position) == ("var", (0, 0))


def test_a_root_with_one_grade_changed_over_sealed_premises_is_rejected(lu, rebuilds):
    # the check workload's reject items: the root replaced, its premises as built
    rejected = 0
    for d in _sample(lu, seed=32):
        c = d.conclusion
        if "L" not in c.modes:
            continue
        i = c.modes.index("L")  # a grade of nat-discrete, where v + 1 is another
        rho = c.rho[:i] + (dataclasses.replace(c.rho[i], value=c.rho[i].value + 1),) + c.rho[i + 1:]
        bad = dataclasses.replace(d, conclusion=dataclasses.replace(c, rho=rho))
        assert all(p._seal is lu for p in bad.premises)
        rebuilds.clear()
        with pytest.raises(CheckError, match="stored conclusion does not match") as err:
            check_derivation(bad, lu)
        assert (err.value.rule, err.value.position, rebuilds) == (d.rule, (), [d.rule])
        rejected += 1
    assert rejected >= 10


# -- elaboration ------------------------------------------------------------------


def _closed(term, ty, mode):
    return Judgment((), (), (), mode, term, ty)


def test_elaborate_identity(lu):
    j = _closed(Lam("x", Var("x")), TFun(P, Grade("nat-discrete", 1), P), "L")
    d = elaborate(j, lu)
    assert d.conclusion == j
    check_derivation(d, lu)


def test_elaborate_duplication_by_mode(lu, fhs):
    dup_u = _closed(Lam("x", Pair(Var("x"), Var("x"))),
                    TFun(Q, Grade("top", "t"), TTensor(Q, Q)), "U")
    check_derivation(elaborate(dup_u, lu), lu)

    dup_l = _closed(Lam("x", Pair(Var("x"), Var("x"))),
                    TFun(P, Grade("nat-discrete", 1), TTensor(P, P)), "L")
    with pytest.raises(ElaborationError) as err:
        elaborate(dup_l, lu)
    assert "Cont" in str(err.value) or "contract" in str(err.value)


def test_elaborate_unused_variable_by_mode(lu):
    ok = _closed(Lam("x", Star("U")), TFun(Q, Grade("top", "t"), TUnit("U")), "U")
    check_derivation(elaborate(ok, lu), lu)
    bad = _closed(Lam("x", Star("L")), TFun(P, Grade("nat-discrete", 0), TUnit("L")), "L")
    with pytest.raises(ElaborationError) as err:
        elaborate(bad, lu)
    assert "Weak" in str(err.value)


def test_elaborate_soundness_on_generated_judgments(lu):
    # whenever elaboration succeeds on a generated conclusion, the result
    # checks and concludes exactly that judgment
    gen = Gen(space=lu, rng=random.Random(13))
    succeeded = 0
    for _ in range(120):
        d = gen.gen_derivation(4)
        j = d.conclusion
        try:
            e = elaborate(j, lu)
        except ElaborationError:
            continue
        succeeded += 1
        check_derivation(e, lu)
        assert e.conclusion.shape() == j.shape()
        assert alpha_eq(e.conclusion.term, j.term)
    assert succeeded >= 30


def _case_judgment(name: str, base: str, alg: str, grade):
    """s : B + B at grade 1, y and z : B at `grade`, each used by one branch of a case."""
    x = TBase(base, name)
    return Judgment((Grade(alg, 1), Grade(alg, grade), Grade(alg, grade)), (name,) * 3,
                    (("s", TSum(x, x)), ("y", x), ("z", x)), name,
                    term_from_sexpr("(case@1 s (x1 (pair x1 y)) (x2 (pair x2 z)))"), TTensor(x, x))


def test_elaborate_case_branches_share_a_context_at_joined_grades():
    # each branch weakens in the variable only the other uses, at grade 0, and
    # both are raised to the join of their grades, 0 <= 1 in the booleans
    space = system("A")[0]
    j = _case_judgment("A", "B", "bool", 1)
    d = elaborate(j, space)
    assert d.conclusion == j
    check_derivation(copy.deepcopy(d), space)
    # in fh's none-one-tons, 0 and 1 have no order, so a variable used at 1 in
    # one branch and weakened in at 0 in the other has no common grade
    with pytest.raises(ElaborationError, match="case branches use a variable at incomparable grades 1, 0"):
        elaborate(_case_judgment("fh", "H", "none-one-tons", 1), system("fh")[0])


def test_elaborate_open_judgment_with_requested_grades(lu):
    # x used once but requested at grade 2 in the discrete order: fails
    j = Judgment((Grade("nat-discrete", 2),), ("L",), (("x", P),), "L", Var("x"), P)
    with pytest.raises(ElaborationError):
        elaborate(j, lu)
    # grade 1 is exact
    j1 = Judgment((Grade("nat-discrete", 1),), ("L",), (("x", P),), "L", Var("x"), P)
    assert elaborate(j1, lu).conclusion == j1
