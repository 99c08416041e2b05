"""Clause/formula representation, partial evaluation, and DIMACS round trips."""

import pytest
from hypothesis import given, strategies as st

from cnflab import (
    Clause,
    CnfFormula,
    KdsParams,
    ParseError,
    GadgetSpec,
    gen_disjoint_family,
    gen_gadget,
    kds_parameters,
    parse_dimacs,
    write_dimacs,
)
import naive
from util import F, bits, pos, neg, from_bits


def test_from_literals_canonicalizes():
    c = Clause.from_literals([(2, False), (0, True), (1, False)])
    assert c.vars == (0, 1, 2)
    # only the negated literal contributes a True forbidden value
    assert c.forbidden == 0b001
    assert not c.tautology
    assert c.literals() == [(0, True), (1, False), (2, False)]


def test_duplicate_literals_collapse():
    c = Clause.from_literals([(0, False), (0, False), (1, True)])
    assert c.vars == (0, 1)
    assert c.size == 2


def test_complementary_literals_make_tautology():
    c = Clause.from_literals([(0, False), (0, True), (1, False)])
    assert c.tautology
    assert c.vars == (0, 1)
    assert c.forbidden == 0
    assert all(map(CnfFormula(2, (c,)).satisfied_by, range(4)))
    with pytest.raises(ValueError):
        c.literals()


def test_forbidden_assignment_is_the_unique_falsifier():
    c = Clause.from_literals([(0, False), (2, True), (5, False)])
    f = CnfFormula(6, (c,))
    for a in range(1 << 6):
        expected = not (
            (a >> 0) & 1 or not ((a >> 2) & 1) or (a >> 5) & 1
        )
        assert f.satisfied_by(a) == (not expected)
    # flipping any clause variable away from the forbidden pattern satisfies
    falsifier = from_bits([False, False, True, False, False, False])
    assert not f.satisfied_by(falsifier)
    for v in c.vars:
        assert f.satisfied_by(falsifier ^ (1 << v))


def test_clause_validation():
    with pytest.raises(ValueError):
        Clause((1, 0), 0)
    with pytest.raises(ValueError):
        Clause((-1,), 0)
    with pytest.raises(ValueError):
        Clause((0, 1), 4)  # pattern out of range
    with pytest.raises(ValueError):
        Clause((0,), 1, True)  # tautology carries no pattern


def test_formula_rejects_out_of_range_clause():
    with pytest.raises(ValueError):
        CnfFormula(2, (Clause((5,), 0),))


def test_satisfied_by_whole_formula():
    f = F(3, pos(0, 1), neg(1, 2))
    assert f.satisfied_by(from_bits([True, False, False]))
    assert not f.satisfied_by(from_bits([False, False, True]))


def test_clause_masks_of_tautologies_and_empty_clauses():
    f = F(4, [(1, False), (3, True)], [(2, False), (2, True)], [])
    assert f._clause_masks == ((0b1010, 0b1000), (0, 1), (0, 0))
    # the empty clause is never satisfied, at any int
    assert not any(map(f.satisfied_by, [0, 15, -1, 1 << 40]))


@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()),
                          max_size=4), max_size=6),
    )),
    st.integers(-(1 << 10), 1 << 10),
)
def test_formula_satisfied_by_matches_a_clause_by_clause_check(formula, a):
    # tautologies and empty clauses included, and assignments that are
    # negative or have bits at or above n: only bits 0..n-1 are read
    n, clauses = formula
    low = bits(a & ((1 << n) - 1), n)
    assert F(n, *clauses).satisfied_by(a) == all(
        naive.clause_satisfied(c, low) for c in clauses)


def test_kds_parameters_known_families():
    assert gen_disjoint_family(3, 9, "s").params == KdsParams(3, 3, 1, 0)
    assert gen_gadget(GadgetSpec(3, 2)).params == KdsParams(3, 3, 2, 1)
    assert gen_gadget(GadgetSpec(3, 2, restricted=True)).params == KdsParams(3, 3, 3, 2)
    assert gen_gadget(GadgetSpec(3, 3)).params == KdsParams(3, 3, 3, 1)
    assert gen_gadget(GadgetSpec(3, 3, restricted=True)).params == KdsParams(3, 3, 3, 2)


def test_kds_parameters_edge_cases():
    assert kds_parameters(CnfFormula(3, ())) == KdsParams(0, 0, 0, 0)
    taut = Clause.from_literals([(0, False), (0, True)])
    assert kds_parameters(CnfFormula(2, (taut,))) == KdsParams(0, 0, 0, 0)
    f = F(4, pos(0, 1, 2), pos(1, 2, 3))
    assert f.params == KdsParams(3, 3, 2, 2)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=5),
             max_size=10),
)))
def test_by_var_indexes_the_non_tautological_clauses(case):
    n, clauses = case
    f = F(n, *clauses)
    expected = {}
    for v in range(n):
        members = tuple(i for i, c in enumerate(f.clauses)
                        if not c.tautology and v in c.vars)
        if members:
            expected[v] = members
    assert f.by_var == expected
    assert f.by_var is f.by_var  # built once per formula
    degrees = f.variable_degrees()
    assert f.params.d_max == max(degrees, default=0)
    assert all(len(f.by_var.get(v, ())) == degrees[v] for v in range(n))


def test_variable_degrees_excludes_tautologies():
    taut = Clause.from_literals([(0, False), (0, True), (1, False)])
    f = CnfFormula(3, (Clause.from_literals(pos(0, 2)), taut))
    assert f.variable_degrees() == [1, 0, 1]


def test_dimacs_roundtrip_exact():
    f = gen_gadget(GadgetSpec(3, 2, restricted=True))
    assert parse_dimacs(write_dimacs(f)) == f


def test_dimacs_roundtrip_with_tautology():
    taut = Clause.from_literals([(1, False), (1, True), (3, False)])
    f = CnfFormula(5, (Clause.from_literals(neg(0, 4)), taut))
    g = parse_dimacs(write_dimacs(f))
    assert g == f
    assert g.clauses[1].tautology


def test_dimacs_known_text():
    f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert f.n == 3
    assert f.clauses[0].literals() == [(0, False), (1, True)]
    assert f.clauses[1].literals() == [(1, False), (2, False)]


@pytest.mark.parametrize(
    "text",
    [
        "1 2 0\n",  # clause before header
        "p cnf 2 1\np cnf 2 1\n1 0\n",  # duplicate header
        "p cnf x 1\n1 0\n",  # bad counts
        "p dnf 2 1\n1 0\n",  # wrong format tag
        "p cnf 2 1\n3 0\n",  # variable out of range
        "p cnf 2 2\n1 0\n",  # clause count mismatch
        "p cnf 2 1\n1 2\n",  # unterminated clause
        "p cnf 2 1\n1 q 0\n",  # bad token
        "",  # missing header
    ],
)
def test_parse_dimacs_errors(text):
    with pytest.raises(ParseError):
        parse_dimacs(text)


@st.composite
def small_formulas(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=5))
    clauses = []
    for _ in range(m):
        width = draw(st.integers(min_value=1, max_value=min(3, n)))
        vs = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=width, max_size=width, unique=True,
            )
        )
        lits = [(v, draw(st.booleans())) for v in vs]
        if draw(st.booleans()) and lits:
            # sprinkle in a complementary literal to exercise tautologies
            v, negated = lits[0]
            lits.append((v, not negated))
        clauses.append(Clause.from_literals(lits))
    return CnfFormula(n, tuple(clauses))


@given(small_formulas())
def test_dimacs_roundtrip_property(f):
    assert parse_dimacs(write_dimacs(f)) == f
