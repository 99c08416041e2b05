"""Structural property checks, bad-set cascade, and dependency components."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cnflab import (
    Clause,
    CnfFormula,
    GadgetSpec,
    RandomCnfSpec,
    check_clause_sizes,
    check_degree_one_property,
    check_edge_expansion,
    check_pairwise_intersection,
    dependency_components,
    gen_disjoint_family,
    gen_gadget,
    gen_random_cnf,
    identify_bad,
    modified_bad_sets,
)
from cnflab.structure import EMPTY_BAD_SETS, asymptotic_parameters

import naive
from util import F, pos, neg


STAR = F(7, pos(0, 1, 2), pos(0, 3, 4), pos(0, 5, 6))


def test_asymptotic_parameters_schedule():
    p = asymptotic_parameters(32)
    assert p["p_hd"] == 12 * 32**7
    assert p["eps_bd"] == pytest.approx(32 ** -0.2)
    assert p["zeta"] == pytest.approx(2 * 32 ** -0.2)
    assert p["beta"] == pytest.approx(1 - 32 ** -0.2)
    assert p["rho"] == pytest.approx(2.0 ** -32)
    assert p["eta"] == pytest.approx(32 ** -0.4)


def test_check_clause_sizes():
    f = gen_gadget(GadgetSpec(3, 2))
    assert check_clause_sizes(f, 3).verdict == "proved-pass"
    assert check_clause_sizes(f, 5).passed  # 3 >= 5-2
    bad = check_clause_sizes(f, 6)
    assert not bad.passed and bad.verdict == "fail"
    assert bad.witness == (0, 3)


def test_check_pairwise_intersection_gadget_k5():
    unrestricted = gen_gadget(GadgetSpec(5, 2))
    assert check_pairwise_intersection(unrestricted, 3).verdict == "proved-pass"
    restricted = gen_gadget(GadgetSpec(5, 2, restricted=True))
    res = check_pairwise_intersection(restricted, 3)
    assert not res.passed
    # the appended layer-1 clause shares k-1 = 4 with each layer-1 clause;
    # the lexicographically first violating pair is reported
    assert res.witness == (0, 5, 4)


def test_identify_bad_star_cascade():
    bad = identify_bad(STAR, p_hd=2, eps_bd=0.2, alpha=1.0)
    assert bad.v_bad == frozenset(range(7))
    assert bad.c_bad == frozenset({0, 1, 2})
    assert bad.trace == ((0, 1), (1, 1), (2, 1))


def test_identify_bad_empty_when_degrees_low():
    f = gen_disjoint_family(3, 9, "ib")
    assert identify_bad(f, p_hd=2, eps_bd=0.2, alpha=1.0) == EMPTY_BAD_SETS


def test_identify_bad_k_override():
    f = F(5, pos(0, 1, 2), pos(0, 3, 4))
    # deg(v0)=2 > 1: with the default k=3 the trigger 0.5*3 blocks the
    # cascade; with k=1 it absorbs both clauses
    quiet = identify_bad(f, p_hd=1, eps_bd=0.5, alpha=1.0)
    assert quiet.v_bad == frozenset({0}) and quiet.c_bad == frozenset()
    loud = identify_bad(f, p_hd=1, eps_bd=0.5, alpha=1.0, k=1)
    assert loud.c_bad == frozenset({0, 1})
    assert loud.v_bad == frozenset(range(5))


def test_identify_bad_fixed_point_property():
    for seed in range(5):
        f = gen_random_cnf(RandomCnfSpec(3, 12, 2.5, seed))
        bad = identify_bad(f, p_hd=2, eps_bd=0.4, alpha=2.5)
        trigger = 0.4 * f.params.k_max
        for i, c in enumerate(f.clauses):
            if c.tautology:
                continue
            overlap = sum(1 for v in c.vars if v in bad.v_bad)
            if i in bad.c_bad:
                assert set(c.vars) <= bad.v_bad
            else:
                assert overlap <= trigger


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_identify_bad_matches_rescan_oracle(data):
    # n <= 9 with repeated literals and tautologies; thresholds from 0 up, so
    # that cascades of several absorptions and ties between clauses occur
    n = data.draw(st.integers(1, 9))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())
    clauses = data.draw(st.lists(st.lists(literal, max_size=5), max_size=12))
    p_hd = data.draw(st.sampled_from([0, 0.5, 1, 2, Fraction(3, 2)]))
    eps_bd = data.draw(st.sampled_from([0, 0.2, 0.25, 0.5, Fraction(1, 3)]))
    k = data.draw(st.sampled_from([None, 1, 2, 3, 4]))
    f = F(n, *clauses)
    bad = identify_bad(f, p_hd, eps_bd, 1.0, k=k)
    expect_k = naive.k_max(clauses) if k is None else k
    v_bad, c_bad, trace = naive.identify_bad(n, clauses, p_hd, eps_bd, 1.0, expect_k)
    assert (bad.v_bad, bad.c_bad, bad.trace) == (v_bad, c_bad, tuple(trace))


def test_modified_bad_sets_augmentation():
    mod = modified_bad_sets(STAR, None, {5: True}, 0, identify_bad(STAR, 100, 0.5, 1.0))
    assert mod.v_bad == frozenset({0, 1, 2, 5})
    assert mod.c_bad == frozenset({0})
    assert mod.c_intersect == ()
    assert mod.c0 == 0
    # k = 3 < 32, so the intersection threshold exceeds the clause width
    assert mod.intersect_threshold > 3


def test_modified_bad_sets_intersection_with_small_k():
    f = F(6, pos(0, 1, 2), pos(3, 4, 5))
    cstar = Clause.from_literals(pos(0, 1, 5))
    mod = modified_bad_sets(f, cstar, {}, 1, identify_bad(f, 100, 0.5, 1.0, k=1), k=1)
    # threshold 2*1^0.8 = 2: clause 0 shares {0,1}
    assert mod.c_intersect == (0,)
    assert mod.c_bad == frozenset({0, 1})
    assert mod.v_bad == frozenset(range(6))
    assert not mod.intersect_bound_holds  # bound k^0.8 - 2 < 0 at k=1


def test_modified_bad_sets_validation():
    taut = Clause.from_literals([(0, False), (0, True)])
    f = CnfFormula(3, (taut, Clause.from_literals(pos(1, 2))))
    base = identify_bad(f, 1, 0.5, 1.0)
    with pytest.raises(ValueError, match="c0 must be a proper clause"):
        modified_bad_sets(f, None, {}, 0, base)
    with pytest.raises(ValueError, match="c0 must be unsatisfied"):
        modified_bad_sets(f, None, {1: True}, 1, base)
    g = F(3, pos(0, 1))
    base = identify_bad(g, 1, 0.5, 1.0)
    for prefix, v in (({7: True}, 7), ({-1: False}, -1), ({3: True}, 3)):
        with pytest.raises(ValueError,
                           match=r"prefix variable %d out of range \[0, 3\)" % v):
            modified_bad_sets(g, None, prefix, 0, base)
    g = F(3, pos(0, 1), neg(1) + pos(2))
    base = identify_bad(g, 1, 0.5, 1.0)
    for c0 in (-1, 2):
        with pytest.raises(ValueError, match=r"c0_index %d out of range \[0, 2\)" % c0):
            modified_bad_sets(g, None, {}, c0, base)


def test_degree_one_disjoint_vacuous():
    f = gen_disjoint_family(3, 9, "d1")
    check = check_degree_one_property(f, beta=1.0, size_limit=3)
    assert check.verdict == "proved-pass"
    assert check.explored == 0  # singleton components admit no size-2 subset


def test_degree_one_pass_and_fail():
    f = F(5, pos(0, 1, 2), pos(1, 2, 3))
    ok = check_degree_one_property(f, beta=1 / 3, size_limit=2)
    assert ok.passed and ok.verdict == "proved-pass"
    bad = check_degree_one_property(f, beta=0.5, size_limit=2)
    assert not bad.passed
    assert bad.witness == (0, 1)


def test_degree_one_budget_inconclusive():
    f = F(5, pos(0, 1, 2), pos(1, 2, 3))
    check = check_degree_one_property(f, beta=0.5, size_limit=2, budget=0)
    assert check.passed is None
    assert check.verdict == "inconclusive"
    with pytest.raises(ValueError):
        check_degree_one_property(f, beta=0.5, size_limit=1)


def test_edge_expansion_vacuous_and_proved():
    f = gen_disjoint_family(3, 9, "ee")
    vac = check_edge_expansion(f, rho=0.1, eta=0.5, B=2, ell_limit=3)
    assert vac.verdict == "proved-pass" and vac.explored == 0
    ok = check_edge_expansion(f, rho=1.0, eta=0.5, B=2, ell_limit=2)
    assert ok.passed and ok.verdict == "proved-pass"
    # a whole float B (the CLI flag's type) gives the same answer
    assert check_edge_expansion(f, rho=1.0, eta=0.5, B=2.0, ell_limit=2) == ok


@pytest.mark.parametrize("ell_limit", [0, -1, float("nan")])
def test_edge_expansion_rejects_an_ell_limit_below_one(ell_limit):
    # one clause and rho = 1 admit subsets of size 1, so no limit below
    # one may pass as "no admissible subset size"
    f = F(3, pos(0, 1))
    assert check_edge_expansion(f, rho=1, eta=0.5, B=1, ell_limit=1).explored == 1
    with pytest.raises(ValueError, match="ell_limit must be >= 1"):
        check_edge_expansion(f, rho=1, eta=0.5, B=1, ell_limit=ell_limit)


@pytest.mark.parametrize("B", [0, 1.5, float("nan"), float("inf")])
def test_edge_expansion_rejects_a_b_that_is_not_a_whole_number(B):
    with pytest.raises(ValueError, match="B must be a whole number >= 1"):
        check_edge_expansion(STAR, rho=1.0, eta=0.5, B=B, ell_limit=2)


def test_edge_expansion_failure_witness():
    f = F(3, pos(0, 1, 2), neg(0, 1, 2))
    res = check_edge_expansion(f, rho=1.0, eta=0.1, B=3, ell_limit=2)
    assert not res.passed
    indices, choice, union = res.witness
    assert indices == (0, 1)
    assert union == 3


def test_edge_expansion_heuristic_verdict():
    f = gen_disjoint_family(3, 9, "eh")
    res = check_edge_expansion(
        f, rho=1.0, eta=0.5, B=2, ell_limit=2, subset_budget=1
    )
    assert res.passed
    assert res.verdict == "heuristic-pass"


def test_dependency_components():
    assert dependency_components(gen_disjoint_family(3, 9, "dc")) == [
        (0,), (1,), (2,),
    ]
    assert dependency_components(gen_gadget(GadgetSpec(3, 2))) == [(0, 1, 2)]
    taut = Clause.from_literals([(0, False), (0, True)])
    f = CnfFormula(4, (taut, Clause.from_literals(pos(1, 2))))
    assert dependency_components(f) == [(1,)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=3)
    if n else st.just([]),
    max_size=8))))
def test_components_match_naive_union_find(case):
    # empty clauses, tautologies and repeats included; the property is
    # cached, and dependency_components reads it
    n, clauses = case
    f = F(n, *clauses)
    expect = naive.clause_components(clauses)
    assert [(list(vs), list(ix)) for vs, ix in f.components] == [
        (list(vs), list(ix)) for vs, ix in expect]
    assert f.components is f.components
    assert dependency_components(f) == [ix for _, ix in expect]
