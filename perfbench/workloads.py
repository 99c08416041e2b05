"""The benchmark's four workloads, each one real cnflab experiment.

A workload's setup (instance generation, input files) runs once per
process.  Its pass, the experiment itself, then repeats with the same seeds,
so every pass does the same work and must give the same answers and the
same work counters.  All instance and trial seeds derive from the workload
seed through derived_seed.

Every call the benchmark makes into a cnflab layer sits in a span named
after that layer (see spans.py); spans cost nothing in the untraced run.
An operation is one checked public call: a learning trial, a sweep
instance, an exact query, an estimate, one reveal, or one CLI run.  It
fails if it raises or if its answer fails a check.  Checks that hold for
every seed run on every seed; for DEFAULT_SEED the answers must also equal
the ones recorded in expected.json.
"""

import hashlib
import itertools
import json
import math
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from cnflab import (
    Clause,
    CnfFormula,
    GadgetSpec,
    HardFamilySpec,
    RandomCnfSpec,
    RevealParams,
    Space,
    cli,
    conditional_prob,
    correlation_dC,
    count_solutions,
    derived_seed,
    enumerate_solutions,
    equivalent,
    estimate_nice_probability,
    forbidden_pattern_prob,
    gen_disjoint_family,
    gen_gadget,
    gen_hard_family,
    gen_linear_cnf,
    gen_random_cnf,
    identify_bad,
    is_nice,
    marginals,
    predicted_sample_bound,
    resilience_theta,
    reveal,
    sample_complexity_sweep,
    sample_uniform,
    tv_distance,
    valiant_learn,
    write_dimacs,
)
from cnflab.solutions import solution_bitmap

DEFAULT_SEED = 0
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

DELTA = Fraction(1, 10)
NICE_DIAGNOSES = ("isolated", "component")


def _json(value):
    """The value as it reads back from JSON, so answers compare with
    expected.json whatever container types produced them."""
    return json.loads(json.dumps(value))


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Check:
    """The checks and the answer of one operation."""

    _UNSET = object()

    def __init__(self):
        self.problems = []
        self.answer = self._UNSET

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)


class Pass:
    """Bookkeeping for one pass: operations, answers and work counters."""

    def __init__(self, tracer, expected):
        self.tracer = tracer
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.answers = {}
        self.counters = {}

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def op(self, key):
        self.attempted += 1
        check = Check()
        try:
            yield check
        except Exception as exc:  # a raising public call is a failed operation
            check.problems.append("raised %s: %s" % (type(exc).__name__, exc))
        if check.answer is not Check._UNSET:
            answer = self.answers[key] = _json(check.answer)
            if self.expected is not None:
                if key not in self.expected:
                    check.problems.append("no expected answer recorded")
                elif self.expected[key] != answer:
                    check.problems.append(
                        "answer %r, expected %r" % (answer, self.expected[key]))
        if check.problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append("%s: %s" % (key, "; ".join(check.problems)))


def expected_answers(workload, seed):
    """The recorded answers for the default seed; None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED_FILE.read_text()).get(workload, {})


# ---------------------------------------------------------------------------
# Setup helpers


def find_model(formula):
    """A satisfying partial assignment {var: bool} by plain DPLL, or None.

    Independent of cnflab's bitmaps, so setup can pick a satisfiable draw
    without enumerating 2^n assignments, and the pass can cross-check the
    enumerated solution set against it.
    """
    clauses = [c.literals() for c in formula.clauses if not c.tautology]
    stack = [{}]
    while stack:
        assignment = stack.pop()
        while True:
            open_clauses = []
            conflict = False
            for clause in clauses:
                free = []
                for v, forbidden in clause:
                    value = assignment.get(v)
                    if value is None:
                        free.append((v, forbidden))
                    elif value != forbidden:
                        break
                else:
                    if not free:
                        conflict = True
                        break
                    open_clauses.append(free)
            if conflict:
                break
            if not open_clauses:
                return assignment
            unit = next((c[0] for c in open_clauses if len(c) == 1), None)
            if unit is None:
                v = open_clauses[0][0][0]
                stack.append({**assignment, v: False})
                stack.append({**assignment, v: True})
                break
            assignment[unit[0]] = not unit[1]
    return None


def _packed(model):
    return sum(1 << v for v, value in model.items() if value)


def _max_degree_variable(formula):
    """Highest-degree variable, smallest index on ties: a target that sits
    in clauses, so the revealing process has work to do."""
    degrees = formula.variable_degrees()
    return max(range(formula.n), key=lambda v: (degrees[v], -v))


def _alpha(formula):
    return sum(1 for c in formula.clauses if not c.tautology) / formula.n


class Workload:
    """Setup state shared by the workloads: tracer and generator counters."""

    def __init__(self, seed, workdir, tracer):
        self.root = derived_seed("perfbench-" + self.name, seed)
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.setup_counters = {"generators.clauses": 0}

    def generate(self, make, seed):
        with self.tracer.span("generators"):
            formula = make(seed)
        self.setup_counters["generators.clauses"] += len(formula.clauses)
        return formula

    def first_satisfiable(self, make, seed):
        """The first satisfiable draw among seeds derived from seed."""
        for j in itertools.count():
            formula = self.generate(make, derived_seed(seed, j))
            model = find_model(formula)
            if model is not None:
                return formula, model

    def theta_op(self, p, label, formula, k):
        """Resilience theta and the predicted sample bound at delta = 1/10."""
        bound = None
        with p.op(label + "/theta") as c:
            with self.tracer.span("resilience.resilience_theta"):
                report = resilience_theta(formula, k)
            p.count("resilience.resilience_theta.subsets", math.comb(formula.n, k))
            p.count("resilience.resilience_theta.candidates", report.candidates)
            c.expect(0 < report.theta <= 1, "theta outside (0, 1]")
            bound = predicted_sample_bound(report.theta, formula.n, k, DELTA)
            c.answer = [str(report.theta), bound]
        return bound


# ---------------------------------------------------------------------------
# Workloads


class Learn(Workload):
    """Learning trials at the predicted sample size."""

    name = "learn"
    TRIALS = 4

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        roster = [
            ("disjoint(3,15)", 3, lambda s: gen_disjoint_family(3, 15, s)),
            ("gadget-r(3,3)", 3, lambda s: gen_gadget(GadgetSpec(3, 3, True))),
            ("hard(3,2,2,1)", 3, lambda s: gen_hard_family(HardFamilySpec(3, 2, 2, 1))),
            ("hard(4,1,4,6)", 4, lambda s: gen_hard_family(HardFamilySpec(4, 1, 4, 6))),
            ("hard(3,2,3,5)", 3, lambda s: gen_hard_family(HardFamilySpec(3, 2, 3, 5))),
        ]
        self.instances = []
        for i, (label, k, make) in enumerate(roster):
            seed_i = derived_seed(self.root, i)
            self.instances.append((label, self.generate(make, seed_i), k, seed_i))

    def run_pass(self, p):
        tr = self.tracer
        for label, truth, k, seed in self.instances:
            T = self.theta_op(p, label, truth, k)
            for j in range(self.TRIALS):
                with p.op("%s/trial%d" % (label, j)) as c:
                    with tr.span("solutions.sample_uniform"):
                        samples = sample_uniform(truth, T, derived_seed(seed, j))
                    with tr.span("learner.valiant_learn"):
                        learned = valiant_learn(truth.n, k, samples)
                    with tr.span("solutions.space"):
                        truth_bits = solution_bitmap(truth)
                    with tr.span("solutions.space"):
                        learned_bits = solution_bitmap(learned)
                    p.count("solutions.sample_uniform.draws", len(samples))
                    p.count("learner.valiant_learn.pattern_updates",
                            math.comb(truth.n, k) * len(samples))
                    p.count("learner.valiant_learn.clauses_out", len(learned.clauses))
                    p.count("solutions.space.bits", 2 << truth.n)
                    c.expect(len(samples) == T, "wrong sample count")
                    c.expect(learned_bits & ~truth_bits == 0,
                             "learned solutions escape the truth")
                    c.expect(all((learned_bits >> a) & 1 for a in samples),
                             "a sample violates a learned clause")
                    c.answer = [learned_bits == truth_bits, len(learned.clauses)]


class Sweep(Workload):
    """The paper's T*(n) experiment on the disjoint family and hard(3,2,3,5)."""

    name = "sweep"
    GRID = tuple(range(25, 601, 25))
    TRIALS = 100

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        roster = [("disjoint(3,%d)" % n, lambda s, n=n: gen_disjoint_family(3, n, s))
                  for n in (9, 12, 15, 18)]
        roster.append(
            ("hard(3,2,3,5)", lambda s: gen_hard_family(HardFamilySpec(3, 2, 3, 5))))
        self.instances = []
        for i, (label, make) in enumerate(roster):
            seed_i = derived_seed(self.root, i)
            self.instances.append((label, self.generate(make, seed_i), seed_i))

    def run_pass(self, p):
        tr = self.tracer
        cells = self.TRIALS * len(self.GRID)
        for label, truth, seed in self.instances:
            bound = self.theta_op(p, label, truth, 3)
            with p.op(label + "/sweep") as c:
                with tr.span("learner.sample_complexity_sweep"):
                    result = sample_complexity_sweep(
                        [(label, truth)], 3, self.GRID, trials=self.TRIALS,
                        delta=float(DELTA), seed_base=seed)
                successes = [row.successes for row in result.rows]
                p.count("learner.sample_complexity_sweep.trial_cells", cells)
                p.count("learner.sample_complexity_sweep.successes", sum(successes))
                c.expect([row.T for row in result.rows] == list(self.GRID),
                         "rows do not follow the grid")
                c.expect(all(0 <= s <= self.TRIALS for s in successes),
                         "success count out of range")
                c.expect(successes == sorted(successes),
                         "success is not monotone in T")
                star = result.t_star[(label, truth.n)]
                covering = [t for t in self.GRID if t >= bound]
                c.expect(star is not None and (not covering or star <= covering[0]),
                         "T* %r exceeds the predicted bound %d" % (star, bound))
                c.answer = [sha256_text(result.to_csv()), star]
        p.counters["learner.sample_complexity_sweep.success_ratio"] = (
            p.counters["learner.sample_complexity_sweep.successes"]
            / p.counters["learner.sample_complexity_sweep.trial_cells"])


class ExactDense(Workload):
    """Exact queries on one near-threshold random 3-CNF at n = 25."""

    name = "exact-dense"
    N = 25
    ALPHA = 3.0
    DRAWS = 2000

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.formula, model = self.first_satisfiable(
            lambda s: gen_random_cnf(RandomCnfSpec(3, self.N, self.ALPHA, s)),
            derived_seed(self.root, 0))
        self.model = _packed(model)
        self.dropped = CnfFormula(self.N, self.formula.clauses[1:])
        # the DPLL model satisfies the condition, the event and the pattern,
        # so every one of these queries has nonzero mass
        bit = lambda v: bool((self.model >> v) & 1)
        self.condition = {v: bit(v) for v in (0, 1, 2)}
        self.event = {3: bit(3)}
        self.cstar = Clause((0, 1, 2), self.model & 0b111)
        self.sample_seed = derived_seed(self.root, 1)

    def run_pass(self, p):
        tr = self.tracer
        f, n = self.formula, self.N
        with p.op("space") as c:
            with tr.span("solutions.space"):
                space = Space(f)
            p.count("solutions.space.bits", 1 << n)
            c.expect((space.bitmap >> self.model) & 1,
                     "the DPLL model is missing from the solution bitmap")
            c.answer = space.count
        with p.op("count") as c:
            with tr.span("solutions.space"):
                count = count_solutions(f)
            p.count("solutions.space.bits", 1 << n)
            c.expect(count == space.count, "count_solutions disagrees with Space")
            c.answer = count
        with p.op("marginals") as c:
            with tr.span("solutions.query"):
                probs = marginals(f)
            c.expect(len(probs) == n, "wrong number of marginals")
            c.expect(all(0 <= q <= 1 and (q * space.count).denominator == 1
                         for q in probs), "a marginal is not k/count")
            c.answer = [str(q) for q in probs]
        with p.op("tv") as c:
            with tr.span("solutions.query"):
                tv = tv_distance(f, self.dropped)
            # sols(f) is a nonempty subset of sols(f minus clause 0)
            c.expect(0 <= tv < 1, "tv outside [0, 1)")
            c.answer = str(tv)
        with p.op("equivalent") as c:
            with tr.span("solutions.query"):
                same = equivalent(f, self.dropped)
            c.expect(same == (tv == 0), "equivalent disagrees with tv")
            c.answer = same
        with p.op("conditional") as c:
            with tr.span("solutions.query"):
                q = conditional_prob(f, self.condition, self.event)
            c.expect(0 < q <= 1, "conditional probability outside (0, 1]")
            c.answer = str(q)
        with p.op("forbidden") as c:
            with tr.span("solutions.query"):
                q = forbidden_pattern_prob(f, self.cstar)
            c.expect(0 < q <= 1, "forbidden-pattern probability outside (0, 1]")
            c.answer = str(q)
        with p.op("correlation") as c:
            with tr.span("solutions.query"):
                d = correlation_dC(f, 0, 1)
            c.expect(0 <= d <= 2, "correlation outside [0, 2]")
            c.answer = str(d)
        with p.op("sample") as c:
            with tr.span("solutions.sample_uniform"):
                draws = sample_uniform(f, self.DRAWS, self.sample_seed)
            p.count("solutions.sample_uniform.draws", len(draws))
            raw = space.bitmap.to_bytes((1 << n) // 8, "little")
            c.expect(len(draws) == self.DRAWS, "wrong sample count")
            c.expect(all((raw[a >> 3] >> (a & 7)) & 1 for a in draws),
                     "a draw is not a solution")
            c.answer = sha256_text(",".join(map(str, draws)))


class Reveal(Workload):
    """Bad sets, niceness estimates and exhaustive reveals, plus one CLI run."""

    name = "reveal"
    TRIALS = 300
    P_HD = 12.0
    EPS_BD = 0.7
    ZETA = 2 / 3
    TRACES = 3

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        roster = [
            ("linear(3,2,18)", lambda s: gen_linear_cnf(3, 2, 18, s)),
            ("random(3,16,1.5)", lambda s: gen_random_cnf(RandomCnfSpec(3, 16, 1.5, s))),
            ("hard(3,2,3,5)", lambda s: gen_hard_family(HardFamilySpec(3, 2, 3, 5))),
            ("linear(4,2,20)", lambda s: gen_linear_cnf(4, 2, 20, s)),
        ]
        self.estimates = []
        for i, (label, make) in enumerate(roster):
            seed_i = derived_seed(self.root, i)
            formula, _ = self.first_satisfiable(make, seed_i)
            self.estimates.append((label, formula, self._params(formula),
                                   _max_degree_variable(formula), seed_i))
        self.exhaustive, _ = self.first_satisfiable(
            lambda s: gen_linear_cnf(3, 2, 12, s), derived_seed(self.root, len(roster)))
        self.exhaustive_target = _max_degree_variable(self.exhaustive)
        # the CLI leg repeats the first estimate through `cnflab reveal-sim`
        _, formula, params, target, seed_0 = self.estimates[0]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cli_formula = self.workdir / "reveal-sim.cnf"
        self.cli_config = self.workdir / "reveal-sim.json"
        self.cli_out = self.workdir / "reveal-sim.out.json"
        self.cli_formula.write_text(write_dimacs(formula))
        self.cli_config.write_text(json.dumps({
            "target": target, "trials": self.TRIALS, "seed": seed_0,
            "alpha": params.alpha, "p_hd": params.p_hd, "eps_bd": params.eps_bd,
            "zeta": params.zeta, "traces": self.TRACES,
        }))

    def _params(self, formula):
        return RevealParams(alpha=_alpha(formula), p_hd=self.P_HD,
                            eps_bd=self.EPS_BD, zeta=self.ZETA)

    def run_pass(self, p):
        tr = self.tracer
        library = {}
        for label, f, params, target, seed in self.estimates:
            with p.op(label + "/bad") as c:
                with tr.span("structure.identify_bad"):
                    bad = identify_bad(f, params.p_hd, params.eps_bd, params.alpha)
                p.count("structure.identify_bad.bad_clauses", len(bad.c_bad))
                degrees = f.variable_degrees()
                c.expect(all(v in bad.v_bad for v in range(f.n)
                             if degrees[v] > params.p_hd * params.alpha),
                         "a high-degree variable is not bad")
                trigger = params.eps_bd * f.params.k_max
                c.expect(all(len(set(cl.vars) & bad.v_bad) <= trigger
                             for i, cl in enumerate(f.clauses)
                             if not cl.tautology and i not in bad.c_bad),
                         "the bad sets are not a fixed point")
                c.answer = [len(bad.c_bad), len(bad.v_bad)]
            with p.op(label + "/estimate") as c:
                with tr.span("reveal.estimate_nice_probability"):
                    est = estimate_nice_probability(f, target, {}, self.TRIALS, seed, params)
                p.count("reveal.estimate_nice_probability.trials", est.trials)
                p.count("reveal.estimate_nice_probability.nice", est.successes)
                diagnoses = dict(sorted(est.diagnosis_counts.items()))
                c.expect(sum(diagnoses.values()) == self.TRIALS, "diagnoses do not add up")
                c.expect(est.successes == sum(diagnoses.get(d, 0) for d in NICE_DIAGNOSES),
                         "successes disagree with the diagnoses")
                c.expect(est.fraction == Fraction(est.successes, self.TRIALS),
                         "fraction disagrees with successes")
                # the interval is computed in floats: allow their rounding
                c.expect(est.wilson_low - 1e-9 <= est.fraction <= est.wilson_high + 1e-9,
                         "the Wilson interval misses the estimate")
                library[label] = est
                c.answer = [est.successes, diagnoses]
        p.counters["reveal.estimate_nice_probability.nice_ratio"] = (
            p.counters["reveal.estimate_nice_probability.nice"]
            / p.counters["reveal.estimate_nice_probability.trials"])
        self._exhaustive(p)
        self._cli(p, library.get(self.estimates[0][0]))

    def _exhaustive(self, p):
        """Reveal every solution; the pinnings must partition the solutions."""
        tr = self.tracer
        f, target = self.exhaustive, self.exhaustive_target
        params = self._params(f)
        with p.op("exhaustive/enumerate") as c:
            with tr.span("solutions.space"):
                solutions = enumerate_solutions(f)
            p.count("solutions.space.bits", 1 << f.n)
            c.expect(0 < solutions.count == len(solutions.solutions),
                     "no solutions, or a wrong count")
        groups = {}
        nice = 0
        for tau in solutions.solutions:
            with p.op("exhaustive/reveal") as c:
                with tr.span("reveal.reveal"):
                    r = reveal(f, tau, target, {}, params, check_invariants=True)
                with tr.span("reveal.is_nice"):
                    verdict = is_nice(f, r, target, {}, params.zeta)
                p.count("reveal.reveal.steps", len(r.trace))
                nice += verdict.nice
                c.expect(target not in r.S, "tau %d: the target got pinned" % tau)
                c.expect(all(bool((tau >> v) & 1) == value for v, value in r.tau_S.items()),
                         "tau %d: the pinning disagrees with tau" % tau)
                key = tuple(sorted(r.tau_S.items()))
                groups.setdefault(key, set()).add(tau)
        with p.op("exhaustive/partition") as c:
            everything = set(solutions.solutions)
            for pinning, members in groups.items():
                agreeing = {tau for tau in everything
                            if all(bool((tau >> v) & 1) == value for v, value in pinning)}
                c.expect(agreeing == members,
                         "pinning %r does not capture exactly its solutions" % (pinning,))
            c.expect(sum(map(len, groups.values())) == len(everything),
                     "the groups do not cover the solutions")
            c.answer = [len(everything), len(groups),
                        p.counters.get("reveal.reveal.steps", 0), nice]

    def _cli(self, p, library):
        """`cnflab reveal-sim` on the first estimate's instance and config."""
        with p.op("cli/reveal-sim") as c:
            with self.tracer.span("cli.reveal_sim"):
                code = cli.run(["reveal-sim", str(self.cli_formula),
                                str(self.cli_config), "--out", str(self.cli_out)])
            c.expect(code == 0, "exit code %d" % code)
            payload = json.loads(self.cli_out.read_text())["payload"]
            c.expect(library is not None, "no library estimate to compare with")
            c.expect(payload["successes"] == library.successes
                     and payload["trials"] == library.trials
                     and Fraction(int(payload["fraction"]["num"]),
                                  int(payload["fraction"]["den"])) == library.fraction
                     and payload["diagnosis_counts"] == library.diagnosis_counts,
                     "the CLI payload differs from the library estimate")
            c.expect(len(payload["traces"]) == self.TRACES, "wrong number of traces")
            c.expect(all(t["nice"] == (t["diagnosis"] in NICE_DIAGNOSES)
                         for t in payload["traces"]), "a trace verdict disagrees")


WORKLOADS = {w.name: w for w in (Learn, Sweep, ExactDense, Reveal)}
