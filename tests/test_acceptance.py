"""Acceptance suite: one criterion per test, one pass/fail line each.

Every comparison is exact; the only tolerances are the stated wall-clock
budgets.  Criterion 5 asserts exact relation equality for every generated
beta and eta pair; see the README's "Backend limits" section for the two
structure-map families that are natural only because function types
denote function spaces.
"""

import itertools
import time

import pytest

from grass.derivation import check_derivation, elaborate
from grass.errors import ElaborationError
from grass.gen import Gen
from grass.grades import (
    Grade,
    Ideal,
    builtin_algebra,
    ideal_check,
    ideal_closure,
    algebra_axioms_check,
)
from grass.modespace import modespace_validate
from grass.oracles import brute_force_ideal_closure, coherence_by_elements
from grass.presets import standard_space, system
from grass.semantics import (
    FinSetObj,
    ModelBackend,
    iota_eps_inverse_check,
    model_coherence_validate,
    v_identity_check,
)
from grass.suites import (
    preservation_suite,
    semantic_suite,
    subst_comp_suite,
    substitution_suite,
)
from grass.syntax import Judgment, Lam, Pair, Star, TBase, TFun, TTensor, TUnit, Var

from corrupted_backend import CORRUPTIONS, corrupted


def _report(number: int, name: str, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} [{name}]: {status} ({elapsed:.1f}s / budget {budget:.0f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert elapsed < budget, f"criterion {number} exceeded its time budget"
    assert ok, line


# -- criterion 1: algebras, ideals, closure ------------------------------------


def test_criterion_1_algebra_and_ideal_suite():
    started = time.time()
    ok = True
    detail = []

    for name in ("nat-usual", "nat-opposite", "nat-discrete", "bool", "none-one-tons", "top"):
        if not algebra_axioms_check(builtin_algebra(name), budget=8).ok():
            ok = False
            detail.append(f"axioms fail for {name}")

    noe = builtin_algebra("none-one-tons")
    nat = builtin_algebra("nat-usual")
    checks = [
        ideal_check(noe, {0, "w"}),
        ideal_check(nat, Ideal("nat-usual", nat_predicate="all-except-one")),
    ]
    for name in ("bool", "none-one-tons", "top"):
        alg = builtin_algebra(name)
        checks.append(ideal_check(alg, {alg.zero}))
        checks.append(ideal_check(alg, set(alg.carrier)))
    if not all(checks):
        ok = False
        detail.append("a paper ideal was rejected")

    for name in ("bool", "none-one-tons", "top"):
        alg = builtin_algebra(name)
        for size in range(len(alg.carrier) + 1):
            for subset in itertools.combinations(alg.carrier, size):
                if ideal_closure(alg, subset) != brute_force_ideal_closure(alg, subset):
                    ok = False
                    detail.append(f"closure disagrees on {name} {subset}")

    _report(1, "algebra/ideal suite", ok, started, 5.0, "; ".join(detail))


# -- criterion 2: mode recovery ---------------------------------------------------


def _golden(space, term, ty, mode):
    j = Judgment((), (), (), mode, term, ty)
    try:
        d = elaborate(j, space)
        check_derivation(d, space)
        return True
    except ElaborationError:
        return False


def test_criterion_2_mode_recovery_corpus():
    started = time.time()
    space = system("all")[0]
    Q, S, B, P, H = (TBase(b, m) for b, m in
                     (("Q", "U"), ("S", "R"), ("B", "A"), ("P", "L"), ("H", "fh")))
    g = lambda alg, v: Grade(alg, v)
    dup = lambda ty, q: (Lam("x", Pair(Var("x"), Var("x"))), TFun(ty, q, TTensor(ty, ty)))
    drop_var = lambda ty, q, m: (Lam("x", Star(m)), TFun(ty, q, TUnit(m)))

    programs = [
        # duplication accepted in U and R
        ("dup-U", "U", dup(Q, g("top", "t")), True),
        ("dup-R", "R", dup(S, g("top", "t")), True),
        # grade-1 duplication rejected in L and A
        ("dup-L", "L", dup(P, g("nat-discrete", 1)), False),
        ("dup-A", "A", dup(B, g("bool", 1)), False),
        # unused variables accepted in U and A, rejected in R and L
        ("weak-U", "U", drop_var(Q, g("top", "t"), "U"), True),
        ("weak-A", "A", drop_var(B, g("bool", 1), "A"), True),
        ("weak-R", "R", drop_var(S, g("top", "t"), "R"), False),
        ("weak-L", "L", drop_var(P, g("nat-discrete", 0), "L"), False),
        # file handles: two w-graded handles contract, two 1-graded do not
        ("dup-fh-w", "fh", dup(H, g("none-one-tons", "w")), True),
        ("dup-fh-1", "fh", dup(H, g("none-one-tons", 1)), False),
    ]
    assert len(programs) == 10
    wrong = []
    for name, mode, (term, ty), expect in programs:
        got = _golden(space, term, ty, mode)
        if got != expect:
            wrong.append(f"{name}: expected {'accept' if expect else 'reject'}")
    _report(2, "mode-recovery corpus", not wrong, started, 1.0, "; ".join(wrong))


# -- criterion 3: preservation ------------------------------------------------------


def test_criterion_3_preservation_suite():
    started = time.time()
    failures = []
    total = 0
    for name, seed in (("L", 101), ("U", 102), ("LU", 103), ("LA", 104), ("LfhU", 105)):
        space = system(name)[0]
        res = preservation_suite(space, seed=seed, count=120, max_depth=5)
        total += res.cases
        failures.extend(f"{name}: {f}" for f in res.failures)
    ok = total >= 500 and not failures
    _report(3, "preservation suite", ok, started, 60.0,
            f"{total} derivations; " + "; ".join(failures[:4]))


# -- criterion 4: substitution theorem -----------------------------------------------


def test_criterion_4_substitution_suite():
    started = time.time()
    failures = []
    total = 0
    for name, seed in (("LU", 201), ("LfhU", 202)):
        space = system(name)[0]
        res = substitution_suite(space, seed=seed, count=160, max_depth=4)
        total += res.cases
        failures.extend(f"{name}: {f}" for f in res.failures)
    ok = total >= 300 and not failures
    _report(4, "substitution theorem suite", ok, started, 60.0,
            f"{total} bundles; " + "; ".join(failures[:4]))


# -- criterion 5: semantic soundness ---------------------------------------------------


def _semantic_backends():
    lu = standard_space(("L", "U"), (("L", "U"),), {"P": "L", "Q": "U"})
    lu_backend = ModelBackend(
        space=lu, arities={("U", "t"): 1},
        base_carriers={"P": ("a", "b", "c"), "Q": ("c1", "c2")}, nat_budget=4)
    fh = standard_space(("fh",), (), {"H": "fh", "K": "fh"})
    fh_backend = ModelBackend(
        space=fh, arities={("fh", "w"): 1},
        base_carriers={"H": ("h1", "h2", "h3"), "K": ("k1", "k2")}, nat_budget=4)
    return (("LU", lu_backend), ("fh", fh_backend))


def test_criterion_5_semantic_soundness_suite():
    started = time.time()
    failures = []
    total = 0
    extension_cases = 0
    for name, backend, seed in (
        (n, b, s) for (n, b), s in zip(_semantic_backends(), (301, 302))
    ):
        res = semantic_suite(backend, seed=seed, count=240, max_depth=5)
        total += res.cases
        extension_cases += sum("extension" in f for f in res.failures)
        failures.extend(f"{name}: {f}" for f in res.failures)
    ok = total >= 300 and not failures
    _report(5, "semantic soundness suite", ok, started, 300.0,
            f"{total} pairs; " + "; ".join(failures[:6]))


# -- criterion 6: lemma suites -----------------------------------------------------------


def test_criterion_6_lemma_suites():
    started = time.time()
    failures = []
    total = 0
    for (name, backend), seed in zip(_semantic_backends(), (401, 402)):
        res = subst_comp_suite(backend, seed=seed, count=90, max_depth=3)
        total += res.cases
        failures.extend(f"{name}: {f}" for f in res.failures)

    be = system("all")[1]
    for size in (0, 1, 2, 3):
        x = FinSetObj(tuple(f"e{i}" for i in range(size)))
        for m in be.space.modes:
            for q in be.space.mode(m).algebra.elements(3):
                if not v_identity_check(be, m, q, x):
                    failures.append(f"v identity fails at {m}, {q}, size {size}")
    for m in be.space.modes:
        if not iota_eps_inverse_check(be, m):
            failures.append(f"iota/eps not inverse at {m}")

    ok = total >= 100 and not failures
    _report(6, "lemma suites", ok, started, 120.0,
            f"{total} bundles; " + "; ".join(failures[:4]))


# -- criterion 7: coherence validation ------------------------------------------------------


def test_criterion_7_coherence_validation():
    started = time.time()
    backend = system("all")[1]
    report = model_coherence_validate(backend, max_size=3, budget=4)
    failures = [v.render() for v in report.violations]
    # the element-level reference decides the clean backend alike, and is
    # the one that reads the corruptions, which rotate elements
    if coherence_by_elements(backend, max_size=3, budget=4).render() != report.render():
        failures.append("the element-level validator disagrees on the clean backend")

    undetected = []
    for which in CORRUPTIONS:
        bad = corrupted(backend, which)
        if coherence_by_elements(bad, max_size=3, budget=4).ok():
            undetected.append(which)

    ok = not failures and not undetected
    detail = "; ".join(failures[:3])
    if undetected:
        detail += f" undetected mutations: {undetected}"
    _report(7, "coherence validation", ok, started, 120.0, detail)
