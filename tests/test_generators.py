"""Formula-family generators: exact structure, determinism, constraints."""

import pytest

from cnflab import (
    Clause,
    GadgetSpec,
    HardFamilySpec,
    KdsParams,
    RandomCnfSpec,
    count_solutions,
    gen_counterexample,
    gen_disjoint_family,
    gen_gadget,
    gen_hard_family,
    gen_linear_cnf,
    gen_random_cnf,
    write_dimacs,
)


def test_gadget_exact_clauses_k3_ell2():
    f = gen_gadget(GadgetSpec(3, 2))
    # layer 1 = vars 0..2, layer 2 = vars 3..5; clause j drops the j-th
    # layer-1 variable and adds the j-th layer-2 variable; layer 1 is odd,
    # so the forbidden assignment is all-True (all literals negative)
    assert [c.literals() for c in f.clauses] == [
        [(1, True), (2, True), (3, True)],
        [(0, True), (2, True), (4, True)],
        [(0, True), (1, True), (5, True)],
    ]
    assert f.n == 6


def test_gadget_restricted_appends_layer_one_clause():
    u = gen_gadget(GadgetSpec(3, 2))
    r = gen_gadget(GadgetSpec(3, 2, restricted=True))
    assert r.clauses[:-1] == u.clauses
    assert r.clauses[-1].literals() == [(0, True), (1, True), (2, True)]


def test_gadget_layer_parity_alternates():
    f = gen_gadget(GadgetSpec(2, 3))
    # with k=2 each clause is (other layer-i var, layer-i+1 var); layer 2
    # is even so its outgoing clauses forbid all-False (positive literals)
    assert f.clauses[0].literals() == [(1, True), (2, True)]
    assert f.clauses[1].literals() == [(0, True), (3, True)]
    assert f.clauses[2].literals() == [(3, False), (4, False)]
    assert f.clauses[3].literals() == [(2, False), (5, False)]


def test_gadget_clause_count_and_validation():
    assert len(gen_gadget(GadgetSpec(4, 3)).clauses) == 4 * 2
    assert len(gen_gadget(GadgetSpec(4, 3, restricted=True)).clauses) == 4 * 2 + 1
    assert len(gen_gadget(GadgetSpec(3, 1)).clauses) == 0
    with pytest.raises(ValueError):
        gen_gadget(GadgetSpec(1, 2))
    with pytest.raises(ValueError):
        gen_gadget(GadgetSpec(3, 0))


def test_disjoint_family_structure():
    f = gen_disjoint_family(3, 9, "seed")
    assert f.n == 9 and len(f.clauses) == 3
    seen = set()
    for c in f.clauses:
        assert c.forbidden == 0  # all-positive
        assert not seen.intersection(c.vars)
        seen.update(c.vars)
        # one variable from each block of size 3
        assert sorted(v // 3 for v in c.vars) == [0, 1, 2]
    assert seen == set(range(9))
    assert f.params == KdsParams(3, 3, 1, 0)


def test_disjoint_family_counts():
    # (2^k - 1) per block, blocks independent
    assert count_solutions(gen_disjoint_family(3, 9, 1)) == 7**3
    assert count_solutions(gen_disjoint_family(2, 8, 1)) == 3**4


def test_disjoint_family_determinism_and_validation():
    a = write_dimacs(gen_disjoint_family(3, 12, "s1"))
    b = write_dimacs(gen_disjoint_family(3, 12, "s1"))
    c = write_dimacs(gen_disjoint_family(3, 12, "s2"))
    assert a == b and a != c
    with pytest.raises(ValueError):
        gen_disjoint_family(3, 10, "s")
    with pytest.raises(ValueError):
        gen_disjoint_family(1, 4, "s")


def test_hard_family_blocks_follow_index_bits():
    spec = HardFamilySpec(k=3, ell=2, m=2, index=0b01)
    f = gen_hard_family(spec)
    assert f.n == 12
    # block 0 restricted (bit 0 set): 3 gadget clauses + extra; block 1 not
    assert len(f.clauses) == 4 + 3
    extra = f.clauses[3]
    assert extra.literals() == [(0, True), (1, True), (2, True)]
    # block 1's clauses live on variables 6..11
    assert all(min(c.vars) >= 6 for c in f.clauses[4:])


def test_hard_family_counts_multiply():
    # one restricted and one unrestricted 1-layer block: 7 * 8
    f = gen_hard_family(HardFamilySpec(3, 1, 2, 0b01))
    assert count_solutions(f) == 56
    both = gen_hard_family(HardFamilySpec(3, 1, 2, 0b11))
    assert count_solutions(both) == 49
    with pytest.raises(ValueError):
        gen_hard_family(HardFamilySpec(3, 1, 2, 4))


def test_random_cnf_shape_and_determinism():
    spec = RandomCnfSpec(k=3, n=10, alpha=1.5, seed="r")
    f = gen_random_cnf(spec)
    assert f.n == 10
    assert len(f.clauses) == 15
    assert all(c.size <= 3 for c in f.clauses)
    assert write_dimacs(f) == write_dimacs(gen_random_cnf(spec))
    other = gen_random_cnf(RandomCnfSpec(3, 10, 1.5, "r2"))
    assert write_dimacs(f) != write_dimacs(other)
    with pytest.raises(ValueError):
        gen_random_cnf(RandomCnfSpec(3, 0, 1.0, "r"))


@pytest.mark.parametrize("alpha", [float("inf"), float("nan"), 0.0, -1.0])
def test_random_cnf_rejects_alpha_that_is_not_finite_and_positive(alpha):
    # floor(alpha * n) clauses: infinity has no floor, NaN no comparison
    with pytest.raises(ValueError, match="finite alpha > 0"):
        gen_random_cnf(RandomCnfSpec(3, 5, alpha, "r"))


def test_linear_cnf_respects_constraints():
    f = gen_linear_cnf(7, 2, 25, "lin")
    assert f.n == 25
    assert all(c.size == 7 for c in f.clauses)
    deg = f.variable_degrees()
    assert max(deg) <= 2
    sets = [set(c.vars) for c in f.clauses]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            assert len(sets[i] & sets[j]) <= 1
    assert f.params.s_max <= 1


def test_linear_cnf_determinism_and_validation():
    assert write_dimacs(gen_linear_cnf(3, 2, 9, "x")) == write_dimacs(
        gen_linear_cnf(3, 2, 9, "x")
    )
    with pytest.raises(ValueError):
        gen_linear_cnf(1, 2, 9, "x")
    with pytest.raises(ValueError):
        gen_linear_cnf(3, 2, 2, "x")


def test_linear_cnf_budget_caps_clause_count():
    # an impossible request stops at the budget instead of spinning forever
    f = gen_linear_cnf(3, 1, 3, "x", m=5, reject_budget=20)
    assert len(f.clauses) <= 1


def test_counterexample_structure():
    f = gen_counterexample(3)
    assert f.n == 4
    c1, c2 = f.clauses
    assert c1.literals() == [(0, False), (1, False), (2, False)]
    assert c2.literals() == [(0, False), (2, True), (3, False)]
    assert set(c1.vars) & set(c2.vars) == {0, 2}
    with pytest.raises(ValueError):
        gen_counterexample(1)


def test_counterexample_counts():
    # 2a(2a-1) solutions with a = 2^(k-2)
    for k in (3, 4, 5):
        a = 1 << (k - 2)
        assert count_solutions(gen_counterexample(k)) == 2 * a * (2 * a - 1)
