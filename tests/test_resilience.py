"""Resilience threshold and local uniformity."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cnflab import (
    Clause,
    CnfFormula,
    GadgetSpec,
    RandomCnfSpec,
    UnsatisfiableError,
    check_local_uniformity,
    count_solutions,
    forbidden_pattern_prob,
    gen_disjoint_family,
    gen_gadget,
    gen_linear_cnf,
    gen_random_cnf,
    large_intersection_clauses,
    resilience_theta,
)

import naive
from util import F, pos, neg, to_naive


def test_theta_disjoint_families():
    rep = resilience_theta(gen_disjoint_family(3, 9, "t"), 3)
    assert rep.theta == Fraction(3, 49)
    assert rep.zero_set_size == 0
    assert rep.solution_count == 343
    rep2 = resilience_theta(gen_disjoint_family(2, 8, "t"), 2)
    assert rep2.theta == Fraction(1, 9)


def test_theta_builds_no_full_width_variable_masks():
    # the counts walk 2^16-bit rows: the peak is a few copies of the
    # 256 KB bitmap at n = 21, where 21 variable masks would add 5.5 MB
    formula = gen_disjoint_family(3, 21, "mem")
    tracemalloc.start()
    try:
        report = resilience_theta(formula, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.theta == Fraction(3, 49)
    assert peak < 2 * 1024 * 1024


def test_theta_restricted_gadget():
    rep = resilience_theta(gen_gadget(GadgetSpec(3, 2, restricted=True)), 3)
    assert rep.theta == Fraction(1, 22)
    assert rep.solution_count == 44


def test_theta_single_clause():
    rep = resilience_theta(F(2, pos(0, 1)), 2)
    # candidates are the other three patterns on (0,1), each with one hit
    assert rep.theta == Fraction(1, 3)
    assert rep.zero_set_size == 0
    assert rep.candidates == 3


def test_theta_argmin_attains_theta():
    f = gen_gadget(GadgetSpec(3, 2, restricted=True))
    rep = resilience_theta(f, 3)
    assert forbidden_pattern_prob(f, rep.argmin) == rep.theta
    own = {(c.vars, c.forbidden) for c in f.clauses}
    assert (rep.argmin.vars, rep.argmin.forbidden) not in own


def test_theta_validation():
    with pytest.raises(UnsatisfiableError):
        resilience_theta(F(1, pos(0), neg(0)), 1)
    with pytest.raises(ValueError):
        resilience_theta(F(2, pos(0, 1)), 3)


def test_theta_matches_naive_oracle():
    f = gen_random_cnf(RandomCnfSpec(2, 7, 1.2, "theta"))
    n, clauses = to_naive(f)
    expected, zeros, _, _ = naive.theta(n, clauses, 2)
    rep = resilience_theta(f, 2)
    assert rep.theta == expected
    assert rep.zero_set_size == zeros


@st.composite
def theta_cases(draw):
    """(formula, k): a satisfiable formula on n <= 6 variables whose clauses
    have any size, may repeat or be tautologies, or 2-3 copies of one such
    block on disjoint, interleaved variables plus free ones (n <= 8), so
    that equal minima fall in different components; k in {1, 2, 3} or n."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=6))
        literal = st.tuples(st.integers(0, n - 1), st.booleans())
        clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=n), max_size=7))
    else:
        m = draw(st.integers(min_value=1, max_value=3))
        copies = draw(st.integers(min_value=2, max_value=6 // m))
        n = m * copies + draw(st.integers(min_value=0, max_value=2))
        place = draw(st.permutations(range(n)))
        literal = st.tuples(st.integers(0, m - 1), st.booleans())
        block = draw(st.lists(st.lists(literal, min_size=1, max_size=m),
                              min_size=1, max_size=3))
        clauses = [[(place[j * m + v], neg) for v, neg in c]
                   for j in range(copies) for c in block]
    k = draw(st.sampled_from(sorted({w for w in (1, 2, 3) if w <= n} | {n})))
    formula = F(n, *clauses)
    assume(count_solutions(formula))
    return formula, k


@settings(max_examples=150, deadline=None)
@given(theta_cases())
def test_theta_report_matches_naive_oracle(case):
    # small formulas tie often, so the argmin checks the tie-break: the
    # first minimum by colex variable set, then ascending pattern
    formula, k = case
    n, clauses = to_naive(formula)
    expected, zeros, argmin, candidates = naive.theta(n, clauses, k)
    rep = resilience_theta(formula, k)
    assert rep.theta == expected
    assert rep.zero_set_size == zeros
    assert rep.candidates == candidates
    pattern = tuple(bool((rep.argmin.forbidden >> i) & 1) for i in range(k))
    assert (rep.argmin.vars, pattern) == argmin


def test_local_uniformity_linear_instance():
    f = gen_linear_cnf(7, 2, 25, "lu")
    rep = check_local_uniformity(f, 7)
    assert rep.condition_holds  # 2^7 >= 2e*2*7 and 7 >= 7
    assert rep.holds
    assert float(rep.max_marginal) <= 0.5 * math.exp(1 / 7)


def test_local_uniformity_condition_vs_bound():
    # unit clause forces a marginal of 1: bound violated at t=2,
    # and the hypothesis fails too
    rep = check_local_uniformity(F(1, pos(0)), 2)
    assert rep.max_marginal == 1
    assert not rep.holds
    assert not rep.condition_holds
    # a single 2-clause stays within the t=2 bound even off-regime
    rep2 = check_local_uniformity(F(2, pos(0, 1)), 2)
    assert rep2.max_marginal == Fraction(2, 3)
    assert rep2.holds
    assert not rep2.condition_holds


def test_local_uniformity_counts_low_side_too():
    # marginal 1/3 deviates as much as 2/3; the check is two-sided
    rep = check_local_uniformity(F(2, neg(0, 1)), 2)
    assert rep.max_marginal == Fraction(2, 3)


def test_local_uniformity_validation():
    with pytest.raises(ValueError):
        check_local_uniformity(F(2, pos(0, 1)), 0)
    with pytest.raises(UnsatisfiableError):
        check_local_uniformity(F(1, pos(0), neg(0)), 1)


def test_large_intersection_clauses():
    f = F(
        12,
        pos(0, 1, 2, 7, 8),
        pos(3, 8, 9, 10, 11),
        [(0, False), (0, True)],  # tautology is skipped
    )
    cstar = Clause.from_literals(pos(0, 1, 2, 3, 4))
    assert large_intersection_clauses(f, cstar, 2) == (0,)
    assert large_intersection_clauses(f, cstar, 1) == (0, 1)
    assert large_intersection_clauses(f, cstar, 4) == ()
