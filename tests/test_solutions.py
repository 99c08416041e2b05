"""Exact solution-space engine: enumeration, sampling, and distribution oracles."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cnflab import (
    Clause,
    CnfError,
    CnfFormula,
    EnumerationLimitError,
    GadgetSpec,
    InfeasiblePinningError,
    RandomCnfSpec,
    SamplingBudgetError,
    SolutionCapError,
    Space,
    UnsatisfiableError,
    check_local_uniformity,
    conditional_prob,
    correlation_dC,
    count_solutions,
    enumerate_solutions,
    equivalent,
    forbidden_pattern_prob,
    gen_counterexample,
    gen_disjoint_family,
    gen_gadget,
    gen_random_cnf,
    marginals,
    resilience_theta,
    sample_uniform,
    tv_distance,
    verify_gadget_counts,
)
from cnflab.rand import SeededRng
from cnflab import solutions
from cnflab.solutions import _LOW_BITS, solution_bitmap

import naive
from util import F, pos, neg, to_naive, bits, from_bits, to_rows


def test_enumerate_gadget_pair():
    u = enumerate_solutions(gen_gadget(GadgetSpec(3, 1)))
    r = enumerate_solutions(gen_gadget(GadgetSpec(3, 1, restricted=True)))
    assert u.count == 8 and len(u.solutions) == 8
    assert r.count == 7
    assert set(u.solutions) - set(r.solutions) == {0b111}


def test_enumerate_orders_solutions_increasing():
    f = F(3, pos(0, 1))
    sols = enumerate_solutions(f).solutions
    assert list(sols) == sorted(sols)
    assert all(f.satisfied_by(a) for a in sols)
    assert len(sols) == 6


def test_enumerate_unsatisfiable_is_empty():
    f = F(1, pos(0), neg(0))
    assert enumerate_solutions(f).count == 0
    assert count_solutions(f) == 0


def test_empty_formula_full_space():
    assert count_solutions(CnfFormula(4, ())) == 16
    assert count_solutions(CnfFormula(0, ())) == 1


def test_solution_cap():
    f = CnfFormula(10, ())
    with pytest.raises(SolutionCapError):
        enumerate_solutions(f, cap=100)
    assert enumerate_solutions(f, cap=1024).count == 1024


def test_enumeration_limit_guard():
    f = CnfFormula(31, ())
    with pytest.raises(EnumerationLimitError):
        count_solutions(f)
    # explicit override admits it (cheap: no clauses)
    assert count_solutions(f, limit=31) == 1 << 31


def test_a_space_keeps_the_limit_it_was_built_under():
    f = CnfFormula(12, ())
    with pytest.raises(EnumerationLimitError):
        marginals(f, limit=5)
    assert marginals(Space(f), limit=5) == [Fraction(1, 2)] * 12


def _plain(clauses):
    return [(c.vars, c.forbidden) for c in clauses if not c.tautology]


@st.composite
def bitmap_formulas(draw):
    """Formulas at n in 0..16 (one bitmap row) or 17..20 (several rows) whose
    clauses are all-low, all-high, mixed, empty, tautological or repeated."""
    n = draw(st.one_of(st.integers(0, _LOW_BITS), st.integers(_LOW_BITS + 1, _LOW_BITS + 4)))
    low = list(range(min(n, _LOW_BITS)))
    high = list(range(_LOW_BITS, n))
    kinds = ["empty"] + ["low"] * bool(low) + ["high"] * bool(high)
    kinds += ["mixed"] * bool(low and high) + ["tautology"] * bool(n)
    clauses = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "empty":
            lits = []
        elif kind == "tautology":
            v = draw(st.integers(0, n - 1))
            lits = [(v, False), (v, True)]
        else:
            pool = {"low": low, "high": high, "mixed": low + high}[kind]
            vs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
            if kind == "mixed":
                vs += [draw(st.sampled_from(low)), draw(st.sampled_from(high))]
            lits = [(v, draw(st.booleans())) for v in dict.fromkeys(vs)]
        clauses.append(Clause.from_literals(lits))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=3))
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=150, deadline=None)
@given(bitmap_formulas())
def test_bitmap_matches_shift_doubling_reference(f):
    assert solution_bitmap(f) == naive.shift_doubling_bitmap(f.n, _plain(f.clauses))


def test_bitmap_matches_reference_on_dense_n25():
    f = gen_random_cnf(RandomCnfSpec(3, 25, 3.0, "rows"))
    assert solution_bitmap(f) == naive.shift_doubling_bitmap(25, _plain(f.clauses))


@st.composite
def small_pinnings(draw):
    n = draw(st.integers(0, 8))
    vs = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n, unique=True)) if n else []
    return n, {v: draw(st.booleans()) for v in vs}


def _agrees(a, pinning):
    return all(bool((a >> v) & 1) == x for v, x in pinning.items())


@given(small_pinnings())
def test_pinning_bitmap_matches_definition(case):
    n, pinning = case
    expected = sum(1 << a for a in range(1 << n) if _agrees(a, pinning))
    assert naive.pinning_bitmap(n, pinning) == expected


@settings(max_examples=50, deadline=None)
@given(small_pinnings(), st.integers(0, 2**32 - 1))
def test_count_matching_matches_definition(case, seed):
    n, pinning = case
    f = gen_random_cnf(RandomCnfSpec(2, n, 1.0, seed)) if n >= 2 else CnfFormula(n, ())
    space = Space(f)
    vs = tuple(pinning)
    pattern = sum(1 << i for i, v in enumerate(vs) if pinning[v])
    expected = sum(1 for a in range(1 << n) if f.satisfied_by(a) and _agrees(a, pinning))
    assert space.count_matching(vs, pattern) == expected


def test_count_matching_is_zero_when_a_repeated_variable_takes_two_values():
    space = Space(CnfFormula(3, ()))
    assert space.counts_by_pattern((1, 1)) == [4, 0, 0, 4]
    assert [space.count_matching((1, 1), b) for b in range(4)] == [4, 0, 0, 4]
    assert space.count_matching((2, 0, 2), 0b101) == 2


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, n - 1), max_size=5),
    st.integers(0, 2**32 - 1),
)))
def test_count_matching_agrees_with_counts_by_pattern_on_repeats(case):
    n, vs, seed = case
    f = gen_random_cnf(RandomCnfSpec(2, n, 1.0, seed))
    space = Space(f)
    counts = space.counts_by_pattern(tuple(vs))
    assert [space.count_matching(tuple(vs), b) for b in range(1 << len(vs))] == counts


def test_out_of_range_variables_raise():
    f = CnfFormula(3, ())
    with pytest.raises(ValueError, match="variable 5 out of range"):
        conditional_prob(f, {0: True}, {5: False})
    space = Space(f)
    with pytest.raises(ValueError, match="variable 3 out of range"):
        space.restrict({3: True})
    with pytest.raises(ValueError, match="variable -1 out of range"):
        space.restrict({-1: True, 0: False})
    with pytest.raises(ValueError, match="variable 3 out of range"):
        space.count_matching((1, 1, 3), 0b010)
    with pytest.raises(ValueError, match="variable 3 out of range"):
        space.counts_by_pattern((3,))
    with pytest.raises(ValueError, match="variable -1 out of range"):
        space.count_matching((0, -1), 0)
    with pytest.raises(ValueError, match="variable counts differ: 3 vs 4"):
        space.issubset(Space(CnfFormula(4, ())))


def test_count_matching_rejects_a_pattern_out_of_range():
    # p cnf 3 1 / 1 2 0: 6 solutions, 2 with x0 False and 4 with x0 True
    space = Space(F(3, pos(0, 1)))
    assert [space.count_matching((0,), b) for b in range(2)] == [2, 4]
    assert space.count_matching((), 0) == 6
    for vs, pattern in [((0,), 2), ((0,), -1), ((), 1), ((0, 0), 4)]:
        with pytest.raises(ValueError, match="pattern out of range"):
            space.count_matching(vs, pattern)


@pytest.mark.parametrize("bad", [18, 20, -1])
def test_multi_row_queries_reject_out_of_range_variables(bad):
    # n = 18 spans four bitmap rows; every count query names the variable
    f = gen_disjoint_family(3, 18, "range")
    space = Space(f)
    message = "variable %d out of range \\[0, 18\\)" % bad
    with pytest.raises(ValueError, match=message):
        space.counts_by_pattern((0, bad))
    with pytest.raises(ValueError, match=message):
        correlation_dC(f, bad, 0)
    with pytest.raises(ValueError, match=message):
        correlation_dC(f, 17, bad)


def test_counts_by_pattern_multi_row_with_repeated_variables():
    # bit i of a pattern is the value of vs[i], also when vs repeats a
    # variable: patterns splitting its copies count 0
    f = gen_random_cnf(RandomCnfSpec(3, 19, 3.0, "rows"))
    space = Space(f)
    sols = list(space.iter_solutions())
    assert 0 < len(sols) < 1 << 19
    for vs in [(18, 18), (3, 18, 18, 17), (16, 2, 16), (0,), ()]:
        expected = [0] * (1 << len(vs))
        for a in sols:
            expected[sum(((a >> v) & 1) << i for i, v in enumerate(vs))] += 1
        assert space.counts_by_pattern(vs) == expected


def test_space_counts_by_pattern_sums_to_count():
    f = gen_random_cnf(RandomCnfSpec(3, 10, 1.8, "cbp"))
    space = Space(f)
    counts = space.counts_by_pattern((1, 4, 7))
    assert len(counts) == 8
    assert sum(counts) == space.count
    for pattern in range(8):
        assert counts[pattern] == space.count_matching((1, 4, 7), pattern)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()),
                      min_size=1, max_size=3), max_size=6) if n else st.just([]),
    st.lists(st.integers(0, n - 1), unique=True, max_size=n) if n else st.just([]),
)))
def test_counts_by_pattern_matches_naive(case):
    # vs in any order: bit i of a pattern is the value of vs[i]
    n, clauses, vs = case
    sols = naive.solutions(n, clauses)
    expected = [0] * (1 << len(vs))
    for a in sols:
        expected[sum(a[v] << i for i, v in enumerate(vs))] += 1
    assert Space(F(n, *clauses)).counts_by_pattern(tuple(vs)) == expected


def _clause_lists(n):
    return st.lists(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()),
                             min_size=1, max_size=3), max_size=6)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), _clause_lists(n), _clause_lists(n))))
def test_space_surface_matches_naive(case):
    # pattern counts by width, membership and containment, each against
    # the naive solution list; more is the formula with extra clauses
    n, k, clauses, extra = case
    sols = set(naive.solutions(n, clauses))
    space, more = Space(F(n, *clauses)), Space(F(n, *clauses, *extra))
    planes = space.pattern_counts(k)
    subsets = sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])
    assert len(planes) == 1 << k
    assert all(len(plane) == len(subsets) for plane in planes)
    for j, subset in enumerate(subsets):
        expected = [0] * (1 << k)
        for a in sols:
            expected[sum(a[v] << i for i, v in enumerate(subset))] += 1
        assert [plane[j] for plane in planes] == expected, subset
    assert [a for a in range(-1, (1 << n) + 1) if a in space] == sorted(
        from_bits(a) for a in sols)
    assert more.issubset(space)
    assert space.issubset(more) == (more.count == space.count)


@st.composite
def block_formulas(draw):
    """(n, clauses as literal lists, k): clauses inside variable-disjoint
    blocks of n <= 9 variables, some variables in no block, plus
    tautologies across blocks, repeated clauses and maybe an empty clause;
    k from 0 to n, often wider than every block."""
    n = draw(st.integers(0, 9))
    block_of = draw(st.lists(st.sampled_from([None, 0, 1, 2, 3]), min_size=n, max_size=n))
    clauses = []
    for b in range(4):
        members = [v for v in range(n) if block_of[v] == b]
        if members:
            literal = st.tuples(st.sampled_from(members), st.booleans())
            clauses += draw(st.lists(st.lists(literal, min_size=1, max_size=3), max_size=3))
    if n:
        for _ in range(draw(st.integers(0, 2))):
            v, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            clauses.append([(v, False), (w, True), (v, True)])
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        clauses.append([])
    return n, draw(st.permutations(clauses)), draw(st.integers(0, n))


@settings(max_examples=150, deadline=None)
@example((3, [], 0))
@example((4, [[(0, False), (1, True)], [(3, True)]], 4))
@example((5, [[(0, False)], [(2, True), (4, False)], []], 2))
@given(block_formulas())
def test_pattern_counts_by_component_match_naive(case):
    # products over the components against per-solution counts: free
    # variables, k = 0, k = n and k wider than every component included
    n, clauses, k = case
    planes = Space(F(n, *clauses)).pattern_counts(k)
    assert [list(counts) for counts in zip(*planes)] == naive.pattern_counts(n, clauses, k)


@settings(max_examples=40, deadline=None)
@given(bitmap_formulas(), st.integers(0, 3))
def test_pattern_counts_by_component_match_the_rows_walk(f, k):
    # n = 17..20 spans several rows, and a component's own rows may too;
    # the reference walks the whole space's rows (the raw-rows kernel,
    # itself checked by brute force in test_learner)
    k = min(k, f.n)
    space = Space(f)
    all_true = solutions._all_true_counts(f.n, space._rows, range(f.n), k)
    assert space.pattern_counts(k) == solutions._pattern_counts(f.n, k, all_true)


@settings(max_examples=60, deadline=None)
@given(bitmap_formulas())
def test_marginals_match_variable_counts(f):
    # n up to 20 spans several bitmap rows, so variables above 16 are
    # counted per row and those below per row mask
    space = Space(f)
    if not space.count:
        return
    assert marginals(f) == [
        Fraction(space.count_matching((v,), 1), space.count) for v in range(f.n)
    ]


def test_space_select_matches_iteration():
    f = gen_gadget(GadgetSpec(3, 2))
    space = Space(f)
    listed = list(space.iter_solutions())
    assert [space.select(i) for i in range(space.count)] == listed
    with pytest.raises(IndexError):
        space.select(space.count)


def _forbid(pinning):
    """The clause whose one falsifying partial assignment is `pinning`."""
    return Clause.from_literals(sorted(pinning.items()))


@st.composite
def select_formulas(draw):
    """Formulas at n in 0..2 with any solution set, or at n in 12..16, whose
    4096-assignment blocks (one per pattern of the variables >= 12) are
    each empty, full, one solution, or cut by a few random clauses."""
    n = draw(st.one_of(st.integers(0, 2), st.integers(12, 16)))
    if n <= 2:
        keep = draw(st.sets(st.integers(0, (1 << n) - 1)))
        return CnfFormula(n, tuple(
            _forbid({v: bool((a >> v) & 1) for v in range(n)})
            for a in range(1 << n) if a not in keep
        ))
    clauses = []
    for h in range(1 << (n - 12)):
        high = {v: bool((h >> (v - 12)) & 1) for v in range(12, n)}
        kind = draw(st.sampled_from(["empty", "full", "single", "cut"]))
        if kind == "empty":
            clauses.append(_forbid(high))
        elif kind == "single":
            a = draw(st.integers(0, 4095))
            clauses += [_forbid({**high, v: not (a >> v) & 1}) for v in range(12)]
        elif kind == "cut":
            for _ in range(draw(st.integers(1, 4))):
                vs = draw(st.lists(st.integers(0, 11), min_size=1, max_size=3, unique=True))
                clauses.append(_forbid({**high, **{v: draw(st.booleans()) for v in vs}}))
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=60, deadline=None)
@given(select_formulas())
def test_select_matches_sorted_set_bits(f):
    space = Space(f)
    set_bits = [a for a, bit in enumerate(reversed(bin(space.bitmap)[2:])) if bit == "1"]
    assert space.count == len(set_bits)
    assert [space.select(r) for r in range(space.count)] == set_bits
    for rank in (-1, space.count):
        with pytest.raises(IndexError):
            space.select(rank)


def test_pinning_bitmap_and_restrict():
    bm = naive.pinning_bitmap(3, {0: True})
    assert bm == sum(1 << a for a in range(8) if a & 1)
    sub = Space(CnfFormula(3, ())).restrict({0: True})
    assert sub.bitmap == bm and sub.count == 4
    assert [sub.select(r) for r in range(4)] == [1, 3, 5, 7]
    with pytest.raises(IndexError):
        sub.select(4)
    infeasible = Space(F(2, pos(0))).restrict({0: False})
    assert infeasible.count == 0
    with pytest.raises(ValueError, match="variable 3 out of range"):
        Space(CnfFormula(3, ())).restrict({3: True})
    with pytest.raises(ValueError, match="variable -1 out of range"):
        Space(CnfFormula(3, ())).restrict({-1: False})


@settings(max_examples=50, deadline=None)
@given(small_pinnings(), st.integers(0, 2**32 - 1))
def test_restrict_matches_definition(case, seed):
    n, pinning = case
    f = gen_random_cnf(RandomCnfSpec(2, n, 1.0, seed)) if n >= 2 else CnfFormula(n, ())
    space = Space(f)
    sub = space.restrict(pinning)
    expected = [a for a in range(1 << n) if f.satisfied_by(a) and _agrees(a, pinning)]
    assert sub.bitmap == space.bitmap & naive.pinning_bitmap(n, pinning)
    assert Space(sub.formula).bitmap == sub.bitmap
    assert sub.count == len(expected)
    assert [sub.select(r) for r in range(sub.count)] == expected
    assert space.count == sum(1 for a in range(1 << n) if f.satisfied_by(a))


def test_restrict_select_order_across_blocks():
    f = gen_random_cnf(RandomCnfSpec(3, 15, 1.5, "restrict"))
    space = Space(f)
    pinning = {2: True, 9: False, 13: True}
    sub = space.restrict(pinning)
    expected = [a for a in space.iter_solutions() if _agrees(a, pinning)]
    assert sub.count == len(expected)
    assert len({a >> 12 for a in expected}) > 1  # several 4096-assignment blocks
    assert [sub.select(r) for r in range(sub.count)] == expected
    assert Space(sub.formula).bitmap == sub.bitmap


def _set_bits(bitmap):
    """Positions of the set bits of a nonnegative int, ascending."""
    text = bin(bitmap)[:1:-1]  # bit 0 first
    out = []
    a = text.find("1")
    while a >= 0:
        out.append(a)
        a = text.find("1", a + 1)
    return out


def _check_select_against_reference(f):
    """iter_solutions lists, and select at every 64th rank and both ends
    finds, exactly the set bits of the shift-doubling bitmap; returns the
    number of all-zero rows of that bitmap."""
    ref = naive.shift_doubling_bitmap(f.n, _plain(f.clauses))
    expected = _set_bits(ref)
    space = Space(f)
    assert list(space.iter_solutions()) == expected
    if expected:
        step = max(1, len(expected) // 64)
        for rank in {*range(0, len(expected), step), len(expected) - 1}:
            assert space.select(rank) == expected[rank]
    with pytest.raises(IndexError):
        space.select(len(expected))
    return sum(1 for row in to_rows(f.n, ref) if not row)


@st.composite
def word_formulas(draw):
    """Formulas at n in 0..7 with any solution set (rows narrower than one
    64-bit word below n = 6, exactly one word at n = 6), or at n = 16 and 17
    cut by a few clauses, some only over variables >= 6 (which empty whole
    words) or >= 16 (whole rows)."""
    n = draw(st.one_of(st.integers(0, 7), st.sampled_from([16, 17])))
    if n <= 7:
        keep = draw(st.sets(st.integers(0, (1 << n) - 1)))
        return CnfFormula(n, tuple(
            _forbid({v: bool((a >> v) & 1) for v in range(n)})
            for a in range(1 << n) if a not in keep
        ))
    clauses = []
    for _ in range(draw(st.integers(0, 5))):
        lowest = min(draw(st.sampled_from([0, 6, 16])), n - 1)
        vs = draw(st.lists(st.integers(lowest, n - 1), min_size=1, max_size=3, unique=True))
        clauses.append(_forbid({v: draw(st.booleans()) for v in vs}))
    return CnfFormula(n, tuple(clauses))


# row 0 empty, and in row 1 every word whose variables 7 and 9 read 1, 0
ZERO_ROW_AND_WORDS = CnfFormula(17, (_forbid({16: False}), _forbid({7: True, 9: False})))


# every word's set bits in its top byte (variables 3, 4 and 5 True), two of
# the eight cut: a select takes all three halving steps
TOP_BYTE_WORDS = CnfFormula(17, (
    _forbid({3: False}), _forbid({4: False}), _forbid({5: False}),
    _forbid({0: True, 1: False}),
))


@settings(max_examples=60, deadline=None)
@example(ZERO_ROW_AND_WORDS)
@example(TOP_BYTE_WORDS)
@example(CnfFormula(6, ()))
@given(word_formulas())
def test_word_select_matches_shift_doubling_reference(f):
    expected = _set_bits(naive.shift_doubling_bitmap(f.n, _plain(f.clauses)))
    space = Space(f)
    assert space.count == len(expected)
    assert list(space.iter_solutions()) == expected
    assert space._select_ranks(range(len(expected))) == expected
    step = max(1, len(expected) // 64)
    assert [space.select(r) for r in range(0, len(expected), step)] == expected[::step]
    for rank in (-1, len(expected)):
        with pytest.raises(IndexError):
            space.select(rank)


@settings(max_examples=40, deadline=None)
@example(ZERO_ROW_AND_WORDS, 300, 0, 130)
@given(word_formulas(), st.integers(0, 300), st.integers(0, 2**32 - 1),
       st.integers(0, 300))
def test_sample_uniform_is_a_select_per_seeded_draw(f, T, seed, cut):
    # the batch draw is the per-rank loop, and a stream drawn in two parts
    # (as a sweep draws its chunks) continues where the first stopped
    space = Space(f)
    assume(space.count)
    rng = SeededRng(seed)
    expected = [space.select(rng.randbelow(space.count)) for _ in range(T)]
    assert sample_uniform(f, T, seed) == expected
    rng = SeededRng(seed)
    cut = min(cut, T)
    assert space.sample(rng, cut) + space.sample(rng, T - cut) == expected


@st.composite
def one_row_formulas(draw):
    """Formulas at n in 17..20 whose unit clauses pin the variables >= 16 to
    one pattern, so every other bitmap row is all zero; a few low variables
    may be pinned too (emptying most 4096-bit blocks of the row), and a few
    random low clauses cut it further."""
    n = draw(st.integers(_LOW_BITS + 1, _LOW_BITS + 4))
    high = draw(st.integers(0, (1 << (n - _LOW_BITS)) - 1))
    units = {v: bool((high >> (v - _LOW_BITS)) & 1) for v in range(_LOW_BITS, n)}
    for v in draw(st.lists(st.integers(0, _LOW_BITS - 1), unique=True, max_size=16)):
        units[v] = draw(st.booleans())
    clauses = [Clause.from_literals([(v, not x)]) for v, x in units.items()]
    for _ in range(draw(st.integers(0, 4))):
        vs = draw(st.lists(st.integers(0, _LOW_BITS - 1), min_size=1, max_size=3, unique=True))
        clauses.append(Clause.from_literals([(v, draw(st.booleans())) for v in vs]))
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=30, deadline=None)
@given(one_row_formulas())
def test_select_and_iteration_skip_zero_rows(f):
    assert _check_select_against_reference(f) >= (1 << (f.n - _LOW_BITS)) - 1


def test_select_and_iteration_on_sparse_n25():
    f = gen_random_cnf(RandomCnfSpec(3, 25, 3.0, "rows"))
    # most of the 512 rows hold no solution
    assert _check_select_against_reference(f) > 256


def _nth_set_bit(bitmap, rank):
    """Position of the rank-th set bit (0-based) of a nonnegative int, by
    bisecting on the popcount of its low bits."""
    lo, hi = 0, bitmap.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (bitmap & ((2 << mid) - 1)).bit_count() > rank:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _matching(n, bitmap, vs, pattern):
    """The assignments of bitmap whose values on vs spell pattern, through
    the naive pinning (0 if a repeated variable gets two values)."""
    pinning = {}
    for i, v in enumerate(vs):
        x = bool((pattern >> i) & 1)
        if pinning.setdefault(v, x) != x:
            return 0
    return bitmap & naive.pinning_bitmap(n, pinning)


def _check_row_queries(f, pinning, vs, pattern, cut, fraction):
    """Every row-wise query of Space(f) against the shift-doubling bitmap:
    restrict (bitmap and select order at three ranks), count_matching,
    membership at the row edges and at each row's first and last solution,
    and issubset, tv_distance and equivalent against f without its clauses
    from `cut` on (a superset of solutions)."""
    n = f.n
    ref = naive.shift_doubling_bitmap(n, _plain(f.clauses))
    space = Space(f)
    assert space.count == ref.bit_count()

    sub = space.restrict(pinning)
    expected = _matching(n, ref, tuple(pinning), sum(
        1 << i for i, v in enumerate(pinning) if pinning[v]))
    assert sub.bitmap == expected and sub.count == expected.bit_count()
    if sub.count:
        for rank in {0, sub.count - 1, int(fraction * (sub.count - 1))}:
            assert sub.select(rank) == _nth_set_bit(expected, rank)

    assert space.count_matching(vs, pattern) == _matching(n, ref, vs, pattern).bit_count()

    # both ends of every row, and its lowest and highest solution
    low = min(n, _LOW_BITS)
    probes = {-1, 1 << n}
    for h in range(1 << (n - low)):
        row = (ref >> (h << low)) & ((1 << (1 << low)) - 1)
        ends = {0, (1 << low) - 1}
        if row:
            ends |= {(row & -row).bit_length() - 1, row.bit_length() - 1}
        probes |= {h << low | x for x in ends}
    for a in probes:
        assert (a in space) == (0 <= a and bool((ref >> a) & 1))

    wider = CnfFormula(n, f.clauses[:cut])
    ref_wider = naive.shift_doubling_bitmap(n, _plain(wider.clauses))
    other = Space(wider)
    assert space.issubset(other)
    assert other.issubset(space) == (not ref_wider & ~ref)
    assert equivalent(space, wider) == (ref == ref_wider)
    if ref:
        # the uniform distributions on A within B are 1 - |A|/|B| apart
        assert tv_distance(space, other) == 1 - Fraction(ref.bit_count(), ref_wider.bit_count())


@st.composite
def row_queries(draw):
    """A bitmap_formulas() formula (n 0..20) with a pinning on its low
    (< 16), high or mixed variables, a count_matching tuple that may repeat
    a low and a high variable, a clause cut and a rank fraction."""
    f = draw(bitmap_formulas())
    low, high = list(range(min(f.n, _LOW_BITS))), list(range(_LOW_BITS, f.n))
    pools = [p for p in (low, high, low + high) if p]
    pool = draw(st.sampled_from(pools)) if pools else []
    pinned = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True)) if pool else []
    pinning = {v: draw(st.booleans()) for v in pinned}
    vs = draw(st.lists(st.sampled_from(pool), max_size=5)) if pool else []
    if low and high and draw(st.booleans()):
        lv, hv = draw(st.sampled_from(low)), draw(st.sampled_from(high))
        vs += [lv, hv, lv, hv]
    pattern = draw(st.integers(0, (1 << len(vs)) - 1))
    cut = draw(st.integers(0, len(f.clauses)))
    return f, pinning, tuple(vs), pattern, cut, draw(st.fractions(0, 1))


@settings(max_examples=120, deadline=None)
@given(row_queries())
def test_row_queries_match_shift_doubling_reference(case):
    _check_row_queries(*case)


def test_row_queries_match_reference_on_dense_n25():
    f = gen_random_cnf(RandomCnfSpec(3, 25, 3.0, "rows"))
    _check_row_queries(
        f, {2: True, 9: False, 17: True, 24: False}, (3, 20, 3, 20, 24), 0b00101,
        len(f.clauses) - 4, Fraction(1, 3),
    )


def test_sample_uniform_deterministic_and_valid():
    f = gen_gadget(GadgetSpec(3, 2))
    a = sample_uniform(f, 25, "s")
    b = sample_uniform(f, 25, "s")
    assert a == b
    assert a != sample_uniform(f, 25, "t")
    assert all(f.satisfied_by(x) for x in a)


def test_sample_uniform_is_roughly_uniform():
    f = F(2, pos(0, 1))  # 3 solutions
    draws = sample_uniform(f, 3000, "u")
    counts = {}
    for a in draws:
        counts[a] = counts.get(a, 0) + 1
    assert set(counts) == {0b01, 0b10, 0b11}
    for c in counts.values():
        assert abs(c - 1000) < 150


def test_sample_uniform_unsat_and_bad_method():
    f = F(1, pos(0), neg(0))
    with pytest.raises(UnsatisfiableError):
        sample_uniform(f, 1, "s")
    with pytest.raises(ValueError):
        sample_uniform(F(1, pos(0)), 1, "s", method="bogus")


@pytest.mark.parametrize("method", ["enumerate", "rejection"])
def test_sample_uniform_rejects_negative_T(method):
    f = F(2, pos(0, 1))
    with pytest.raises(ValueError, match="T must be >= 0"):
        sample_uniform(f, -2, "s", method=method)
    assert sample_uniform(f, 0, "s", method=method) == []


def test_space_sample_rejects_negative_T():
    empty, full = Space(F(1, pos(0), neg(0))), Space(F(2))
    for space in (empty, full):
        with pytest.raises(ValueError, match="T must be >= 0"):
            space.sample(SeededRng(0), -1)
    assert empty.sample(SeededRng(0), 0) == []
    with pytest.raises(ValueError):
        empty.sample(SeededRng(0), 1)


def test_select8_table_matches_a_bit_walk():
    for x in range(256):
        ones = [b for b in range(8) if x >> b & 1]
        for r, b in enumerate(ones):
            assert solutions._SELECT8[r << 8 | x] == b


def test_rejection_sampling_agrees_in_distribution():
    f = gen_gadget(GadgetSpec(3, 1, restricted=True))
    draws = sample_uniform(f, 2000, "rej", method="rejection")
    assert all(f.satisfied_by(a) for a in draws)
    assert len(set(draws)) == 7
    # same seed, same draws
    assert draws == sample_uniform(f, 2000, "rej", method="rejection")


def test_rejection_sampling_budget_error():
    # single solution among 2^12 assignments: 3 tries will not find it
    f = F(12, *[[(v, True)] for v in range(12)])
    with pytest.raises(SamplingBudgetError):
        sample_uniform(f, 1, "b", method="rejection", reject_budget=3)


def test_marginals_known_block():
    f = gen_disjoint_family(7, 7, "m")
    probs = marginals(f)
    assert probs == [Fraction(64, 127)] * 7
    with pytest.raises(UnsatisfiableError):
        marginals(F(1, pos(0), neg(0)))


def test_conditional_prob_chain():
    f = gen_gadget(GadgetSpec(3, 1, restricted=True))
    # 7 solutions; conditioning on v0=True leaves 0b001,0b011,0b101 (not 111)
    assert conditional_prob(f, {0: True}, {1: True}) == Fraction(1, 3)
    assert conditional_prob(f, {}, {0: True}) == Fraction(3, 7)
    with pytest.raises(InfeasiblePinningError):
        conditional_prob(f, {0: True, 1: True, 2: True}, {0: True})


@st.composite
def conditional_queries(draw):
    """(n, clauses, condition, event): two pinnings over variables drawn
    from one small range, so they often share one; the event may take a
    condition variable again with its value or the other one, and now and
    then one pinning names a variable outside [0, n)."""
    n = draw(st.integers(1, 6))
    clauses = draw(_clause_lists(n))
    value = st.sampled_from([False, True, 0, 1])
    condition = draw(st.dictionaries(st.integers(0, n - 1), value, max_size=3))
    event = draw(st.dictionaries(st.integers(0, n - 1), value, max_size=3))
    if condition:
        for v in draw(st.lists(st.sampled_from(sorted(condition)), max_size=2)):
            event[v] = draw(st.sampled_from([condition[v], not condition[v]]))
    if draw(st.integers(0, 7)) == 0:
        pinning = draw(st.sampled_from([condition, event]))
        pinning[draw(st.sampled_from([-1, n]))] = draw(value)
    return n, clauses, condition, event


# p cnf 3 1 / 1 2 0
_EITHER_01 = [[(0, False), (1, False)]]


@settings(max_examples=300, deadline=None)
@given(conditional_queries())
@example((3, _EITHER_01, {0: False}, {0: False, 1: True}))  # shared, same value
@example((3, _EITHER_01, {0: True, 2: 1}, {0: False}))  # shared, other value
@example((3, _EITHER_01, {0: False, 1: False}, {2: True}))  # infeasible
@example((3, _EITHER_01, {3: True}, {0: True}))  # out of range in the condition
@example((3, _EITHER_01, {0: True}, {-1: False}))  # out of range in the event
def test_conditional_prob_matches_brute_force(case):
    n, clauses, condition, event = case
    f = F(n, *clauses)
    sols = naive.solutions(n, clauses)

    def agree(pinning):
        return [a for a in sols if all(a[v] == bool(x) for v, x in pinning.items())]

    def in_range(pinning):
        return all(0 <= v < n for v in pinning)

    if not sols:
        with pytest.raises(UnsatisfiableError):
            conditional_prob(f, condition, event)
    elif not in_range(condition):
        with pytest.raises(ValueError, match="out of range"):
            conditional_prob(f, condition, event)
    elif not agree(condition):
        with pytest.raises(InfeasiblePinningError):
            conditional_prob(f, condition, event)
    elif not in_range(event):
        with pytest.raises(ValueError, match="out of range"):
            conditional_prob(f, condition, event)
    else:
        given = agree(condition)
        both = [a for a in given if a in agree(event)]
        assert conditional_prob(f, condition, event) == Fraction(len(both), len(given))
        if any(v in event and bool(event[v]) != bool(x) for v, x in condition.items()):
            assert conditional_prob(f, condition, event) == 0


def test_forbidden_pattern_prob_own_clause_is_zero():
    f = gen_gadget(GadgetSpec(3, 2, restricted=True))
    for c in f.clauses:
        assert forbidden_pattern_prob(f, c) == 0
    with pytest.raises(ValueError):
        forbidden_pattern_prob(f, Clause.from_literals([(0, False), (0, True)]))


def test_forbidden_pattern_prob_known_value():
    f = gen_gadget(GadgetSpec(3, 1, restricted=True))
    # pattern v0=True among 7 solutions
    assert forbidden_pattern_prob(f, Clause((0,), 1)) == Fraction(3, 7)


def test_tv_distance_gadget_pair():
    u = gen_gadget(GadgetSpec(3, 1))
    r = gen_gadget(GadgetSpec(3, 1, restricted=True))
    assert tv_distance(u, r) == Fraction(1, 8)
    assert tv_distance(r, u) == Fraction(1, 8)
    assert tv_distance(u, u) == 0


def test_tv_distance_disjoint_supports():
    a = F(1, pos(0))
    b = F(1, neg(0))
    assert tv_distance(a, b) == 1


def test_tv_distance_rejects_mismatched_n():
    with pytest.raises(ValueError, match="variable counts differ"):
        tv_distance(CnfFormula(3, ()), CnfFormula(4, ()))


def test_correlation_single_clause():
    assert correlation_dC(F(2, pos(0, 1)), 0, 1) == Fraction(4, 9)
    with pytest.raises(ValueError):
        correlation_dC(F(2, pos(0, 1)), 1, 1)


def test_correlation_counterexample_is_zero():
    for k in (3, 4, 5):
        f = gen_counterexample(k)
        assert correlation_dC(f, 0, k - 1) == 0


def test_equivalent():
    f = F(3, pos(0, 1), neg(1, 2))
    g = F(3, neg(1, 2), pos(0, 1), pos(0, 1))  # reordered + duplicate
    assert equivalent(f, g)
    assert not equivalent(
        gen_gadget(GadgetSpec(3, 1)), gen_gadget(GadgetSpec(3, 1, restricted=True))
    )
    with pytest.raises(ValueError):
        equivalent(CnfFormula(3, ()), CnfFormula(4, ()))


def test_verify_gadget_counts_smallest():
    rep = verify_gadget_counts(3, 1)
    assert (rep.count_unrestricted, rep.count_restricted) == (8, 7)
    assert rep.ratio == Fraction(7, 8)
    assert rep.bounds_hold
    assert rep.extra == (0b111,)
    assert rep.extra_is_alternating


def test_against_naive_oracle_spot_checks():
    f = gen_random_cnf(RandomCnfSpec(3, 8, 1.5, "spot"))
    n, clauses = to_naive(f)
    assert count_solutions(f) == naive.count(n, clauses)
    sols = {from_bits(a) for a in naive.solutions(n, clauses)}
    assert set(enumerate_solutions(f).solutions) == sols
    if sols:
        for v in range(n):
            assert marginals(f)[v] == naive.marginal(n, clauses, v)


def test_tautologies_do_not_constrain():
    taut = Clause.from_literals([(0, False), (0, True)])
    f = CnfFormula(3, (taut, Clause.from_literals(pos(1, 2))))
    g = F(3, pos(1, 2))
    assert equivalent(f, g)


# Every exact query, as a function of the formula (or its Space) and a
# second formula (or its Space) over the same variables.
_QUERIES = {
    "count": lambda x, y: count_solutions(x),
    "enumerate": lambda x, y: enumerate_solutions(x),
    "sample": lambda x, y: sample_uniform(x, 20, "same"),
    "sample-rejection": lambda x, y: sample_uniform(
        x, 5, "same", method="rejection", reject_budget=2000),
    "marginals": lambda x, y: marginals(x),
    "conditional": lambda x, y: conditional_prob(x, {0: True}, {x.n - 1: False}),
    "forbidden": lambda x, y: forbidden_pattern_prob(x, Clause((0, x.n - 1), 0b10)),
    "tv": lambda x, y: tv_distance(x, y),
    "correlation": lambda x, y: correlation_dC(x, 0, x.n - 1),
    "equivalent": lambda x, y: equivalent(x, y),
    "resilience": lambda x, y: resilience_theta(x, min(2, x.n)),
    "local-uniformity": lambda x, y: check_local_uniformity(x, 3),
}

_SAME_ANSWER_FORMULAS = {
    "random-3cnf": gen_random_cnf(RandomCnfSpec(3, 10, 2.0, "same")),
    "disjoint-18": gen_disjoint_family(3, 18, "same"),
    "gadget": gen_gadget(GadgetSpec(3, 2, restricted=True)),
    "unsat": F(2, pos(0), neg(0)),
    "n0": CnfFormula(0, ()),
    "n0-unsat": F(0, []),
}


def _answer(query, x, y):
    try:
        return query(x, y)
    except (CnfError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("formula", _SAME_ANSWER_FORMULAS.values(),
                         ids=_SAME_ANSWER_FORMULAS.keys())
@pytest.mark.parametrize("query", _QUERIES.values(), ids=_QUERIES.keys())
def test_queries_answer_the_same_for_a_formula_and_its_space(query, formula):
    other = CnfFormula(formula.n, formula.clauses[1:])
    expected = _answer(query, formula, other)
    assert _answer(query, Space(formula), Space(other)) == expected
    assert _answer(query, Space(formula), other) == expected
    assert _answer(query, formula, Space(other)) == expected
