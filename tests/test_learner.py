"""Clause-elimination learner, clause extension, and the sample-complexity sweep."""

import gc
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import naive
from cnflab import (
    Clause,
    CnfFormula,
    GadgetSpec,
    LearnerInvariantError,
    UnsatisfiableError,
    correlation_dC,
    derived_seed,
    enumerate_solutions,
    equivalent,
    exact_learning_trial,
    extend_short_clauses,
    gen_disjoint_family,
    gen_gadget,
    gen_random_cnf,
    marginals,
    predicted_sample_bound,
    RandomCnfSpec,
    resilience_theta,
    sample_complexity_sweep,
    sample_uniform,
    valiant_learn,
)
from cnflab import learner, solutions
from cnflab.solutions import (
    Space,
    colex_rank,
    iter_ksubsets_colex,
    solution_bitmap,
)

from util import F, bits, count_bitmap_builds, pos


def oracle_learn(n, k, samples):
    """The clause-major oracle's output as a CnfFormula."""
    survivors = naive.valiant_learn(n, k, [bits(a, n) for a in samples])
    return CnfFormula(n, tuple(Clause.from_literals(c) for c in survivors))


@st.composite
def learning_inputs(draw):
    """(n, k, samples) with n <= 8; samples may be empty or repeat."""
    n = draw(st.integers(min_value=0, max_value=8))
    k = draw(st.integers(min_value=0, max_value=n))
    samples = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                            max_size=12))
    if samples:
        samples += draw(st.lists(st.sampled_from(samples), max_size=4))
        samples = draw(st.permutations(samples))
    return n, k, samples


def test_colex_order_small():
    assert list(iter_ksubsets_colex(4, 2)) == [
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
    ]
    for i, s in enumerate(iter_ksubsets_colex(5, 3)):
        assert colex_rank(s) == i


@given(st.integers(min_value=1, max_value=8))
def test_colex_enumerates_all_subsets(n):
    for k in range(1, n + 1):
        subsets = list(iter_ksubsets_colex(n, k))
        assert len(subsets) == math.comb(n, k)
        assert len(set(subsets)) == len(subsets)
        assert all(s == tuple(sorted(s)) for s in subsets)


def test_valiant_zero_samples_keeps_every_clause():
    f = valiant_learn(3, 2, [])
    assert len(f.clauses) == 3 * 4  # C(3,2) * 2^2
    assert enumerate_solutions(f).count == 0


def test_valiant_single_sample_pins_solution_set():
    # with one sample every assignment differing from it anywhere is cut
    learned = valiant_learn(4, 2, [0b1010])
    assert solution_bitmap(learned) == 1 << 0b1010


def test_valiant_from_all_solutions_recovers_formula():
    truth = gen_gadget(GadgetSpec(3, 1, restricted=True))
    sols = enumerate_solutions(truth).solutions
    learned = valiant_learn(truth.n, 3, list(sols))
    assert equivalent(learned, truth)


@example((6, 2, list(enumerate_solutions(
    gen_random_cnf(RandomCnfSpec(2, 6, 1.5, "modes"))).solutions[:5])))
@given(learning_inputs())
def test_valiant_matches_clause_major_oracle(case):
    n, k, samples = case
    assert valiant_learn(n, k, samples) == oracle_learn(n, k, samples)


@given(learning_inputs())
def test_split_tree_walks_colex_and_partitions_items(case):
    n, k, samples = case
    columns = learner._columns(samples, n)
    full = (1 << len(samples)) - 1
    walk = list(learner._split_tree(n, k, columns, full))
    assert [subset for subset, _ in walk] == list(iter_ksubsets_colex(n, k))
    for subset, leaves in walk:
        assert len(leaves) == 1 << k
        expect = [0] * (1 << k)
        for t, a in enumerate(samples):
            expect[Clause(subset, 0).pattern_of(a)] |= 1 << t
        assert leaves == expect


def colex_subsets(n, k):
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def pattern_on(a, subset):
    """The pattern of packed assignment a on subset, bit i for subset[i]."""
    return sum(((a >> v) & 1) << i for i, v in enumerate(subset))


@st.composite
def counted_bitmaps(draw):
    """(n, k, full): n <= 7, any 0 <= k <= n, any set of assignments; or
    n in 17..20 (several 2^16-bit bitmap rows), k <= 3, and a few
    assignments in some of the rows, so at least one row is empty."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=0, max_value=7))
        k = draw(st.integers(min_value=0, max_value=n))
        return n, k, draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    n = draw(st.integers(min_value=17, max_value=20))
    k = draw(st.integers(min_value=0, max_value=3))
    rows = draw(st.sets(st.integers(0, (1 << (n - 16)) - 1),
                        max_size=(1 << (n - 16)) - 1))
    full = 0
    for h in rows:
        for low in draw(st.lists(st.integers(0, (1 << 16) - 1), min_size=1, max_size=6)):
            full |= 1 << (h << 16 | low)
    return n, k, full


@settings(deadline=None)
@given(counted_bitmaps())
def test_pattern_counts_match_brute_force(case):
    n, k, full = case
    walk = list(solutions._pattern_counts(n, k, full))
    assert [subset for subset, _ in walk] == colex_subsets(n, k)
    items, rest = [], full
    while rest:
        items.append((rest & -rest).bit_length() - 1)
        rest &= rest - 1
    for subset, counts in walk:
        expect = [0] * (1 << k)
        for a in items:
            expect[pattern_on(a, subset)] += 1
        assert counts == expect
        assert sum(counts) == full.bit_count()


def reference_first_hit(n, k, samples, truth):
    """The split tree plus naive.last_first_hit, with the truth's support
    counted by brute force; also returns the packed scan's `supported`."""
    unsupported = []
    for subset in colex_subsets(n, k):
        shown = {pattern_on(a, subset) for a in truth}
        unsupported.append((1 << k) - len(shown))
    tree = learner._split_tree(n, k, learner._columns(samples, n),
                               (1 << len(samples)) - 1)
    supported = math.comb(n, k) * (1 << k) - sum(unsupported)
    return naive.last_first_hit(tree, unsupported), supported


# T = 7, 8, 9 and 63, 64, 65 put the guard bit on either side of a byte
# boundary of the field
FIRST_HIT_TS = (0, 1, 7, 8, 9, 63, 64, 65)


@st.composite
def first_hit_inputs(draw):
    """(n, k, samples, truth): samples drawn from a truth set of
    assignments that holds them and maybe more."""
    n = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.one_of(st.sampled_from(sorted({0, min(1, n), n})),
                       st.integers(min_value=0, max_value=n)))
    T = draw(st.sampled_from(FIRST_HIT_TS))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    samples = draw(st.lists(st.sampled_from(pool), min_size=T, max_size=T))
    extra = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=2))
    return n, k, samples, set(samples) | extra


@settings(max_examples=200)
@given(first_hit_inputs())
def test_first_hit_scan_matches_split_tree_reference(case):
    n, k, samples, truth = case
    expect, supported = reference_first_hit(n, k, samples, truth)
    assert learner._first_hit_scan(n, k, samples, supported) == expect


@pytest.mark.parametrize("T", FIRST_HIT_TS)
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_first_hit_scan_complete_and_incomplete(T, k):
    # truth = the samples completes at the last new hit; one unseen truth
    # assignment keeps the scan incomplete whenever it shows a new pattern
    n = 5
    rng = random.Random(T * 10 + k)
    samples = [rng.randrange(1 << n) for _ in range(T)]
    for truth in (set(samples), set(samples) | {rng.randrange(1 << n)}):
        expect, supported = reference_first_hit(n, k, samples, truth)
        assert learner._first_hit_scan(n, k, samples, supported) == expect
        if truth == set(samples):
            assert expect is not None


def test_pattern_scans_leave_no_reference_cycles():
    # every scan is a module-level function, not a recursive closure, so a
    # call frees its bitmaps at once instead of at the next cyclic collection
    truth = gen_disjoint_family(3, 9, "gc")
    wide = gen_disjoint_family(3, 18, "gc")  # four bitmap rows
    space = Space(truth)
    calls = [
        lambda: resilience_theta(truth, 3),
        lambda: resilience_theta(wide, 2),
        lambda: sample_complexity_sweep([("d", truth)], 3, [20, 80], trials=3,
                                        seed_base="gc"),
        lambda: space.counts_by_pattern((4, 1, 7)),
        lambda: marginals(wide),
        lambda: correlation_dC(wide, 2, 17),
    ]
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_valiant_edge_cases():
    # k = 0: the empty clause survives only without samples
    assert valiant_learn(3, 0, []).clauses == (Clause((), 0),)
    assert valiant_learn(3, 0, [0b101]).clauses == ()
    # k = n: only the full-width clauses of unseen assignments survive
    learned = valiant_learn(3, 3, [0b001, 0b110, 0b001])
    assert len(learned.clauses) == 6
    assert solution_bitmap(learned) == (1 << 0b001) | (1 << 0b110)
    # T = 0 keeps all C(n,k) * 2^k candidates, in colex then pattern order
    assert valiant_learn(4, 2, []) == oracle_learn(4, 2, [])
    assert valiant_learn(0, 0, []).clauses == (Clause((), 0),)
    with pytest.raises(ValueError):
        valiant_learn(2, 3, [])
    with pytest.raises(ValueError):
        valiant_learn(2, -1, [])


def test_exact_learning_trial_raises_on_a_broken_learner(monkeypatch):
    truth = gen_disjoint_family(2, 4, "broken")
    first = sample_uniform(truth, 1, "b")[0]
    # the truth plus a clause that cuts the first sample
    rejects_a_sample = lambda n, k, samples: CnfFormula(
        n, truth.clauses + (Clause(tuple(range(n)), first),))
    monkeypatch.setattr(learner, "valiant_learn", rejects_a_sample)
    with pytest.raises(LearnerInvariantError, match="sample violates"):
        exact_learning_trial(truth, 2, 1, "b")
    admits_everything = lambda n, k, samples: CnfFormula(n, ())
    monkeypatch.setattr(learner, "valiant_learn", admits_everything)
    with pytest.raises(LearnerInvariantError, match="escaped the truth"):
        exact_learning_trial(truth, 2, 1, "b")


def test_valiant_soundness_and_monotonicity():
    truth = gen_disjoint_family(3, 9, "sound")
    sols = enumerate_solutions(truth).solutions
    samples = [sols[i % len(sols)] for i in range(0, 40, 3)]
    truth_bits = solution_bitmap(truth)
    prev = None
    for cut in (1, 5, len(samples)):
        learned = valiant_learn(truth.n, 3, samples[:cut])
        bits_l = solution_bitmap(learned)
        assert bits_l & ~truth_bits == 0  # never admits a non-solution
        for a in samples[:cut]:
            assert (bits_l >> a) & 1
        if prev is not None:
            assert len(learned.clauses) <= prev
        prev = len(learned.clauses)


def test_extend_short_clauses_counts():
    f = F(3, [(0, False)])
    g = extend_short_clauses(f, 2)
    # 2^(2-1) * C(2,1) extensions of the unit clause
    assert len(g.clauses) == 4
    assert all(c.size == 2 for c in g.clauses)
    assert equivalent(f, g)


def test_extend_short_clauses_equivalence_mixed():
    f = F(5, [(1, True)], pos(0, 2, 4), [(2, False), (3, True)])
    g = extend_short_clauses(f, 3)
    assert all(c.size == 3 for c in g.clauses)
    assert equivalent(f, g)


def test_extend_short_clauses_keeps_full_width_and_drops_tautologies():
    taut = Clause.from_literals([(0, False), (0, True)])
    full = Clause.from_literals(pos(1, 2))
    g = extend_short_clauses(CnfFormula(3, (taut, full)), 2)
    assert g.clauses == (full,)


def test_extend_short_clauses_errors():
    with pytest.raises(ValueError):
        extend_short_clauses(F(3, pos(0, 1, 2)), 2)  # clause wider than k
    with pytest.raises(ValueError):
        extend_short_clauses(F(2, pos(0)), 3)  # n < k


def test_predicted_sample_bound_known_values():
    assert predicted_sample_bound(Fraction(1, 7), 3, 3, 0.1) == 54
    assert predicted_sample_bound(Fraction(3, 49), 9, 3, 0.1) == 180
    assert predicted_sample_bound(Fraction(1, 22), 6, 3, 0.1) == 215
    assert predicted_sample_bound(Fraction(1, 9), 8, 2, 0.1) == 71
    assert predicted_sample_bound(Fraction(1, 9), 16, 2, 0.1) == 84
    assert predicted_sample_bound(Fraction(1, 9), 24, 2, 0.1) == 91


def test_predicted_sample_bound_validation():
    with pytest.raises(ValueError):
        predicted_sample_bound(0, 3, 3, 0.1)
    with pytest.raises(ValueError):
        predicted_sample_bound(Fraction(1, 2), 3, 3, 1.0)
    with pytest.raises(ValueError):
        predicted_sample_bound(Fraction(1, 2), 0, 3, 0.1)


def test_exact_learning_trial_success():
    truth = gen_gadget(GadgetSpec(3, 1, restricted=True))
    rec = exact_learning_trial(truth, 3, 120, "trial", family="gadget")
    assert rec.success
    assert rec.family == "gadget" and rec.n == 3 and rec.k == 3 and rec.T == 120
    assert rec.seed == "trial"
    assert rec.tv is None
    assert rec.wall_time_s >= 0


def test_exact_learning_trial_failure_and_tv():
    truth = gen_disjoint_family(2, 8, "f")
    rec = exact_learning_trial(truth, 2, 1, "one", report_tv=True)
    # a single sample pins the learned solution set to that sample
    assert not rec.success
    assert rec.tv == Fraction(80, 81)
    good = exact_learning_trial(truth, 2, 400, "many", report_tv=True)
    assert good.success and good.tv == 0


def test_sweep_deterministic_and_flags():
    truth = gen_disjoint_family(2, 4, "sw")
    result = sample_complexity_sweep(
        [("disjoint", truth)], 2, [1, 3, 40], trials=25, delta=0.1,
        seed_base="sb",
    )
    again = sample_complexity_sweep(
        [("disjoint", truth)], 2, [1, 3, 40], trials=25, delta=0.1,
        seed_base="sb",
    )
    assert result.to_csv() == again.to_csv()
    assert [r.T for r in result.rows] == [1, 3, 40]
    # per-seed success is monotone in T, so counts are nondecreasing
    succ = [r.successes for r in result.rows]
    assert succ == sorted(succ)
    star = result.t_star[("disjoint", 4)]
    flagged = [r.T for r in result.rows if r.t_star_flag]
    if star is None:
        assert flagged == []
        assert all(s < 0.9 * 25 for s in succ)
    else:
        assert flagged == [star]
    header = result.to_csv().splitlines()[0]
    assert header == "family,n,k,T,trials,successes,t_star_flag,seed_base"


def test_sweep_matches_individual_trials():
    # the sweep's support-mask shortcut must agree with running the real
    # learner trial at each (seed, T)
    truth = gen_disjoint_family(2, 4, "match")
    grid = [2, 6]
    trials = 8
    result = sample_complexity_sweep(
        [("disjoint", truth)], 2, grid, trials=trials, seed_base="sb2",
    )
    for row in result.rows:
        real = sum(
            exact_learning_trial(
                truth, 2, row.T, derived_seed("sb2", t)
            ).success
            for t in range(trials)
        )
        assert row.successes == real


def test_sweep_rejects_a_repeated_label_at_one_n_before_any_trial(monkeypatch):
    # two instances with one label at one n would share a T* entry and give
    # CSV rows that cannot be told apart
    builds = count_bitmap_builds(monkeypatch)
    d9a, d9b, d12 = (gen_disjoint_family(3, n, s) for n, s in ((9, "a"), (9, "b"), (12, "c")))
    with pytest.raises(ValueError, match="repeat label 'd' at n=9"):
        sample_complexity_sweep([("d", d9a), ("d", d12), ("d", d9b)], 3, [5],
                                trials=2, seed_base="s")
    assert builds == []
    # one label at two sizes, or two labels at one size, are distinct
    result = sample_complexity_sweep([("d", d9a), ("d", d12), ("e", d9b)], 3, [5],
                                     trials=2, seed_base="s")
    assert set(result.t_star) == {("d", 9), ("d", 12), ("e", 9)}


def test_sweep_input_validation():
    wide = F(4, pos(0, 1, 2))
    with pytest.raises(ValueError):
        sample_complexity_sweep([("w", wide)], 2, [5], trials=2, seed_base="s")
    unsat = F(1, pos(0), [(0, True)])
    with pytest.raises(UnsatisfiableError):
        sample_complexity_sweep([("u", unsat)], 1, [5], trials=2, seed_base="s")
    with pytest.raises(ValueError):
        sample_complexity_sweep([("d", gen_disjoint_family(2, 4, 1))], 2, [],
                                trials=2, seed_base="s")
    # zero trials would report T* at the smallest grid point
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            sample_complexity_sweep([("d", gen_disjoint_family(3, 9, 1))], 3,
                                    [5, 50], trials=trials, seed_base="s")


@st.composite
def sweep_truths(draw):
    """A satisfiable formula on n <= 6 variables with clauses of size <= k."""
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=min(3, n)))
    clauses = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        size = draw(st.integers(min_value=1, max_value=k))
        vs = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=size,
                                       max_size=size))))
        clauses.append(Clause(vs, draw(st.integers(0, (1 << size) - 1))))
    truth = CnfFormula(n, tuple(clauses))
    assume(solution_bitmap(truth))
    return truth, k


def first_equivalent_T(truth, k, t_max, seed):
    """The least T whose learned formula is equivalent to the truth."""
    samples = sample_uniform(truth, t_max, seed)
    for T in range(t_max + 1):
        if equivalent(valiant_learn(truth.n, k, samples[:T]), truth):
            return T
    return None


@settings(max_examples=30, deadline=None)
@given(sweep_truths(), st.integers(min_value=0, max_value=40),
       st.sampled_from([1, 3, 64]))
def test_sweep_completion_is_first_equivalent_T(case, t_max, first_chunk):
    # one trial per sweep, so its first successful T is that trial's
    # completion time; small first chunks cross several doublings
    truth, k = case
    with mock.patch.object(learner, "_FIRST_CHUNK", first_chunk):
        for base in ("first0", "first1", "first2"):
            result = sample_complexity_sweep([("h", truth)], k, range(t_max + 1),
                                             trials=1, seed_base=base)
            got = next((row.T for row in result.rows if row.successes), None)
            assert got == first_equivalent_T(truth, k, t_max, derived_seed(base, 0))


def test_sweep_edge_cases():
    truth = gen_disjoint_family(2, 4, "edge")
    # T = 0 never succeeds; k = n and k = 0 are valid widths
    zero = sample_complexity_sweep([("d", truth)], 2, [0, 30], trials=4,
                                   seed_base="e")
    assert zero.rows[0].successes == 0
    full = sample_complexity_sweep([("d", truth)], 4, [200], trials=4,
                                   seed_base="e")
    assert full.rows[0].successes == sum(
        exact_learning_trial(truth, 4, 200, derived_seed("e", t)).success
        for t in range(4))
    free = CnfFormula(3, ())
    empty_width = sample_complexity_sweep([("free", free)], 0, [0, 1], trials=2,
                                          seed_base="e")
    assert [r.successes for r in empty_width.rows] == [0, 2]
    with pytest.raises(ValueError):
        sample_complexity_sweep([("d", truth)], 5, [5], trials=2, seed_base="e")


@pytest.mark.parametrize("bad", [8, -1])
def test_valiant_rejects_samples_outside_the_space(bad):
    with pytest.raises(ValueError, match="sample %d out of range" % bad):
        valiant_learn(3, 2, [0b101, bad, 0b011])
    with pytest.raises(ValueError, match="sample %d out of range" % bad):
        valiant_learn(3, 2, [bad, 9, -2])
    learned = valiant_learn(3, 2, [0, 7])  # both ends of the range
    assert learned.satisfied_by(0) and learned.satisfied_by(7)


@pytest.mark.parametrize("report_tv", [False, True])
def test_exact_learning_trial_builds_two_bitmaps(monkeypatch, report_tv):
    # the truth's bitmap serves sampling, the invariants and the TV
    # distance; the learned formula's is built once
    truth = gen_disjoint_family(3, 12, "builds")
    builds = count_bitmap_builds(monkeypatch)
    record = exact_learning_trial(truth, 3, 20, "builds", report_tv=report_tv)
    assert builds == [12, 12]
    assert (record.tv is not None) == report_tv
    assert not record.success
