"""End-to-end acceptance suite.

Each test exercises one whole-system guarantee at desk scale: exact counts
against enumeration, learner sample-complexity against the resilience bound,
structural set identification, and the revealing process over entire solution
spaces.  Everything is seeded; reruns are byte-for-byte reproducible.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import naive
from util import F, pos, to_naive

from cnflab import (
    CnfError,
    CnfFormula,
    GadgetSpec,
    HardFamilySpec,
    RandomCnfSpec,
    RevealParams,
    Space,
    asymptotic_parameters,
    check_local_uniformity,
    correlation_dC,
    count_solutions,
    derived_seed,
    enumerate_solutions,
    exact_learning_trial,
    forbidden_pattern_prob,
    gen_counterexample,
    gen_disjoint_family,
    gen_gadget,
    gen_hard_family,
    gen_linear_cnf,
    gen_random_cnf,
    identify_bad,
    marginals,
    predicted_sample_bound,
    resilience_theta,
    reveal,
    sample_complexity_sweep,
    sample_uniform,
    tv_distance,
    valiant_learn,
    verify_gadget_counts,
)
from cnflab.solutions import solution_bitmap

ARTIFACTS = Path(__file__).parent / "artifacts"


GADGET_COUNTS = {
    (3, 1): 8, (3, 2): 45, (3, 3): 232,
    (4, 1): 16, (4, 2): 209, (4, 3): 2656,
}


def test_gadget_pair_counting_bounds_and_extra_assignment():
    start = time.monotonic()
    for (k, ell), expected in GADGET_COUNTS.items():
        report = verify_gadget_counts(k, ell)
        assert report.count_unrestricted == expected
        assert report.count_restricted == expected - 1
        assert report.extra is not None and len(report.extra) == 1
        assert report.extra_is_alternating  # odd layers true, even false
        ratio = Fraction(report.count_restricted, report.count_unrestricted)
        assert report.ratio == ratio
        assert 1 - Fraction(1, 2 ** ((k - 2) * ell)) <= ratio
        assert ratio <= 1 - Fraction(1, 2 ** (k * ell))
        assert report.bounds_hold
    assert time.monotonic() - start < 5.0


def test_hard_family_total_variation_lower_bounds():
    start = time.monotonic()
    k, ell, m = 3, 1, 3
    formulas = [
        gen_hard_family(HardFamilySpec(k, ell, m, idx)) for idx in range(2 ** m)
    ]
    pairs = 0
    for i in range(2 ** m):
        for j in range(i + 1, 2 ** m):
            d_b = bin(i ^ j).count("1")
            lower = Fraction(d_b, 2 ** (k * ell + 2))
            assert tv_distance(formulas[i], formulas[j]) >= lower, (i, j)
            pairs += 1
    assert pairs == 28
    assert time.monotonic() - start < 10.0


def test_zero_correlation_counterexample_statistics():
    start = time.monotonic()
    for k in (3, 4, 5):
        f = gen_counterexample(k)
        a = 2 ** (k - 2)
        assert count_solutions(f) == 2 * a * (2 * a - 1)
        # v0 appears positively in both clauses and is dependent on
        # v_{k-1}, yet the four-cell correlation measure vanishes exactly
        assert marginals(f)[0] == Fraction(a, 2 * a - 1)
        assert correlation_dC(f, 0, k - 1) == 0
    assert time.monotonic() - start < 1.0


def test_resilience_bound_meets_empirical_sample_complexity():
    start = time.monotonic()
    cases = [
        ("disjoint", gen_disjoint_family(3, 9, "acc4"), Fraction(3, 49), 180),
        ("gadget-r", gen_gadget(GadgetSpec(3, 2, True)), Fraction(1, 22), 215),
    ]
    trials = 300
    delta = Fraction(1, 10)
    allowed = float(delta) + 3 * math.sqrt(float(delta) * 0.9 / trials)
    for family, formula, expect_theta, expect_t in cases:
        report = resilience_theta(formula, 3)
        assert report.theta == expect_theta
        assert report.zero_set_size == 0
        T = predicted_sample_bound(report.theta, formula.n, 3, delta)
        assert T == expect_t
        failures = 0
        for t in range(trials):
            record = exact_learning_trial(
                formula, 3, T, derived_seed("acc4-" + family, t), family=family
            )
            failures += not record.success
        assert failures / trials <= allowed, (family, failures)
    assert time.monotonic() - start < 120.0


def _learning_roster():
    """100 seeded instances across every generator, all with n <= 15."""
    roster = []
    d_shapes = [(2, 8), (2, 10), (2, 12), (2, 14), (3, 9), (3, 12), (3, 15)]
    for i in range(20):
        k, n = d_shapes[i % len(d_shapes)]
        roster.append((k, gen_disjoint_family(k, n, "acc5-d%d" % i)))
    for k in (3, 4):
        for ell in (1, 2, 3):
            if k * ell <= 15:
                for restricted in (False, True):
                    roster.append((k, gen_gadget(GadgetSpec(k, ell, restricted))))
    for idx in range(8):
        roster.append((3, gen_hard_family(HardFamilySpec(3, 1, 3, idx))))
    for spec in [(3, 1, 4, 0), (3, 1, 4, 5), (3, 1, 4, 9), (3, 1, 4, 15),
                 (4, 1, 2, 0), (4, 1, 2, 1), (4, 1, 2, 3), (4, 1, 3, 5)]:
        roster.append((spec[0], gen_hard_family(HardFamilySpec(*spec))))
    for i in range(16):
        roster.append((3, gen_linear_cnf(3, 2, 9 + (i % 7), "acc5-l%d" % i)))
    for k in (3, 4, 5):
        roster.append((k, gen_counterexample(k)))
    for i in range(33):
        roster.append((3, gen_random_cnf(
            RandomCnfSpec(3, 8 + (i % 8), 1.0 + 0.1 * (i % 6), "acc5-r%d" % i))))
    return roster


def test_learner_soundness_and_monotonicity_across_families():
    roster = _learning_roster()
    assert len(roster) == 100
    assert all(f.n <= 15 for _, f in roster)
    for j, (k, formula) in enumerate(roster):
        truth = solution_bitmap(formula)
        assert truth, "instance %d must be satisfiable" % j
        samples = sample_uniform(formula, 12, "acc5-s%d" % j)
        previous = None
        for cut in (4, 8, 12):
            learned = valiant_learn(formula.n, k, samples[:cut])
            clause_set = set(learned.clauses)
            if previous is not None:
                # more samples can only eliminate clauses
                assert clause_set <= previous, j
            previous = clause_set
            learned_bits = solution_bitmap(learned)
            # never admits a non-solution of the truth
            assert learned_bits & ~truth == 0, j
        for s in samples:
            assert (learned_bits >> s) & 1, j


def test_linear_formula_marginals_stay_locally_uniform():
    start = time.monotonic()
    t = 7
    bound = 0.5 * math.exp(1 / t)
    for i in range(50):
        n = 21 + (i % 5)
        formula = gen_linear_cnf(7, 2, n, "acc6-%d" % i)
        report = check_local_uniformity(formula, t)
        assert report.condition_holds, i
        assert report.holds, (i, report.max_marginal)
        for p in marginals(formula):
            assert float(p) <= bound, (i, p)
    assert time.monotonic() - start < 120.0


def _matches_rescan_oracle(formula, bad, p_hd, eps_bd, alpha):
    """The bad sets and trace equal the naive rescan cascade's, which
    certifies every trace step."""
    n, clauses = to_naive(formula)
    v_bad, c_bad, trace = naive.identify_bad(
        n, clauses, p_hd, eps_bd, alpha, naive.k_max(clauses))
    return (bad.v_bad, bad.c_bad, bad.trace) == (v_bad, c_bad, tuple(trace))


def test_bad_set_identification_covers_high_degree_and_replays():
    # 80 random instances with thresholds low enough to cascade
    for i in range(80):
        formula = gen_random_cnf(RandomCnfSpec(
            3, 8 + (i % 7), 1.0 + 0.125 * (i % 8), "acc7-%d" % i))
        m = sum(1 for c in formula.clauses if not c.tautology)
        alpha = m / formula.n
        p_hd, eps_bd = 1.2, 0.4
        bad = identify_bad(formula, p_hd, eps_bd, alpha)
        degrees = formula.variable_degrees()
        high = {v for v in range(formula.n) if degrees[v] > p_hd * alpha}
        assert high <= set(bad.v_bad), i
        for ci, c in enumerate(formula.clauses):
            if c.tautology or ci in bad.c_bad:
                continue
            assert len(set(c.vars) & set(bad.v_bad)) <= eps_bd * 3, (i, ci)
        assert _matches_rescan_oracle(formula, bad, p_hd, eps_bd, alpha), i
    # 20 adversarial stars: the hub is high-degree and every petal clause
    # must be absorbed through it
    for i in range(20):
        petals = 3 + (i % 5)
        star = F(2 * petals + 1,
                 *[pos(0, 2 * j + 1, 2 * j + 2) for j in range(petals)])
        alpha = petals / star.n
        bad = identify_bad(star, 4.0, 0.2, alpha)
        assert 0 in bad.v_bad, i
        assert len(bad.c_bad) == petals, i
        assert _matches_rescan_oracle(star, bad, 4.0, 0.2, alpha), i


def _reveal_roster():
    """20 instances with n <= 18, paired with a target variable."""
    out = [
        ("disjoint(3,9)", gen_disjoint_family(3, 9, "a"), 0),
        ("disjoint(2,8)", gen_disjoint_family(2, 8, "b"), 0),
        ("disjoint(3,12)", gen_disjoint_family(3, 12, "c"), 5),
        ("gadget(3,2)u", gen_gadget(GadgetSpec(3, 2)), 0),
        ("gadget(3,2)r", gen_gadget(GadgetSpec(3, 2, True)), 0),
        ("gadget(3,3)u", gen_gadget(GadgetSpec(3, 3)), 4),
        ("gadget(4,2)r", gen_gadget(GadgetSpec(4, 2, True)), 0),
        ("gadget(4,3)u", gen_gadget(GadgetSpec(4, 3)), 6),
        ("hard(3,1,3,0)", gen_hard_family(HardFamilySpec(3, 1, 3, 0)), 0),
        ("hard(3,1,3,7)", gen_hard_family(HardFamilySpec(3, 1, 3, 7)), 4),
        ("hard(3,1,3,5)", gen_hard_family(HardFamilySpec(3, 1, 3, 5)), 8),
        ("hard(4,1,2,1)", gen_hard_family(HardFamilySpec(4, 1, 2, 1)), 3),
        ("counter(3)", gen_counterexample(3), 0),
        ("counter(4)", gen_counterexample(4), 3),
        ("counter(5)", gen_counterexample(5), 4),
        ("rand-a", gen_random_cnf(RandomCnfSpec(3, 10, 1.2, "acc8-a")), 0),
        ("rand-b", gen_random_cnf(RandomCnfSpec(3, 12, 1.5, "acc8-b")), 7),
        ("rand-e", gen_random_cnf(RandomCnfSpec(3, 9, 1.0, "acc8-e")), 2),
        ("linear(3,2,12)", gen_linear_cnf(3, 2, 12, "acc8-c"), 0),
        ("linear(4,2,12)", gen_linear_cnf(4, 2, 12, "acc8-d"), 6),
    ]
    assert len(out) == 20 and all(f.n <= 18 for _, f, _ in out)
    return out


def test_reveal_partition_and_invariants_over_all_solutions():
    start = time.monotonic()
    roster = _reveal_roster()
    total_reveals = 0
    nontrivial_partitions = 0
    early_instances = 0
    for idx, (name, formula, target) in enumerate(roster):
        solutions = enumerate_solutions(formula, cap=10000).solutions
        assert solutions, name
        k = formula.params.k_max
        # alternate an explicit zeta with the scale-free preset
        if idx % 3 == 2:
            zeta = asymptotic_parameters(max(k, 1))["zeta"]
        else:
            zeta = 2 / 3
        m = sum(1 for c in formula.clauses if not c.tautology)
        alpha = m / formula.n
        if idx % 7 == 6:
            alpha = 1e-9  # exercise the sparse early return
            early_instances += 1
        params = RevealParams(alpha=alpha, p_hd=12.0, eps_bd=0.7, zeta=zeta)
        groups = {}
        for tau in solutions:
            # check_invariants raises CnfError on any per-step freezing
            # violation or unsatisfied clause left adjacent to the component
            r = reveal(formula, tau, target, {}, params, check_invariants=True)
            assert target not in r.S, name
            key = (r.S, tuple(sorted(r.tau_S.items())))
            groups.setdefault(key, set()).add(tau)
        solution_set = set(solutions)
        for (_, items), members in groups.items():
            agreeing = {
                tau for tau in solution_set
                if all(bool((tau >> v) & 1) == value for v, value in items)
            }
            # the produced pinning captures exactly the solutions that agree
            # with it: conditioning on it is conditioning on membership
            assert agreeing == members, name
        assert sum(len(g) for g in groups.values()) == len(solutions), name
        nontrivial_partitions += len(groups) > 1
        total_reveals += len(solutions)
    assert early_instances >= 2
    assert nontrivial_partitions >= 4
    assert total_reveals > 10000
    assert time.monotonic() - start < 300.0


def test_exact_quantities_match_direct_enumeration_oracle():
    found = 0
    seed_i = 0
    while found < 50:
        k = 2 + (seed_i % 2)
        formula = gen_random_cnf(RandomCnfSpec(
            k, 6 + (seed_i % 7), 0.9 + 0.1 * (seed_i % 5), "acc9-%d" % seed_i))
        seed_i += 1
        _, naive_clauses = to_naive(formula)
        naive_solutions = naive.solutions(formula.n, naive_clauses)
        if not naive_solutions:
            continue  # keep going until 50 satisfiable instances checked
        found += 1
        assert count_solutions(formula) == len(naive_solutions)
        clause = next((c for c in formula.clauses if not c.tautology), None)
        if clause is not None:
            pattern = tuple(
                bool((clause.forbidden >> i) & 1) for i in range(len(clause.vars))
            )
            assert forbidden_pattern_prob(formula, clause) == naive.forbidden_prob(
                formula.n, naive_clauses, clause.vars, pattern)
        shrunk = CnfFormula(formula.n, formula.clauses[1:])
        assert tv_distance(formula, shrunk) == naive.tv_distance(
            formula.n, naive_clauses, to_naive(shrunk)[1])
        expect_theta, expect_zeros, _, _ = naive.theta(formula.n, naive_clauses, k)
        report = resilience_theta(formula, k)
        assert report.theta == expect_theta, seed_i
        assert report.zero_set_size == expect_zeros, seed_i
    assert found == 50


def test_sample_complexity_scaling_with_archived_sweep():
    sizes = (8, 16, 24)
    instances = [
        ("disjoint", gen_disjoint_family(2, n, "acc10-%d" % n)) for n in sizes
    ]
    result = sample_complexity_sweep(
        instances, 2, list(range(10, 131, 10)), trials=200,
        delta=0.1, seed_base="acc10",
    )
    stars = {n: result.t_star[("disjoint", n)] for n in sizes}
    assert all(t is not None for t in stars.values()), stars
    # seeded and exact, so the empirical thresholds are stable
    assert stars == {8: 50, 16: 70, 24: 70}
    grid_step = 10
    assert stars[24] - stars[8] <= 4 * (stars[16] - stars[8]) + grid_step
    # the committed CSV is the byte-identity canary of the seeded sweep
    csv_text = result.to_csv()
    assert csv_text == (ARTIFACTS / "disjoint_k2_sweep.csv").read_text()
    assert csv_text.startswith("family,n,k,T,trials,successes,t_star_flag,seed_base")
