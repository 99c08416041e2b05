"""Structural property checkers and the bad-variable/bad-clause machinery.

Tautological clauses are always satisfied and constrain nothing, so every
checker here ignores them: they carry no degree, no intersections, and no
dependency-graph edges.  Thresholds are compared with the numeric types the
caller supplies (pass Fractions where exact boundaries matter).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .core import Clause, CnfFormula, _pack


def asymptotic_parameters(k) -> dict:
    """The parameter schedule the analysis uses in its large-k regime,
    exposed as a preset; every checker accepts explicit overrides because
    the regime's guarantees do not kick in at desk scale."""
    return {
        "p_hd": 12 * k**7,
        "eps_bd": k**-0.2,
        "eta": k**-0.4,
        "rho": 2.0**-k,
        "zeta": 2 * k**-0.2,
        "beta": 1 - k**-0.2,
    }


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool | None  # None when the search budget ran out first
    verdict: str  # "proved-pass", "heuristic-pass", "fail", "inconclusive"
    witness: tuple | None
    explored: int
    note: str = ""


def _active_clauses(formula):
    return [
        (i, c) for i, c in enumerate(formula.clauses) if not c.tautology
    ]


def dependency_components(formula):
    """Connected components of the dependency graph, each a sorted tuple of
    clause indices, ordered by smallest member.  Tautologies excluded.
    Read off `CnfFormula.components`."""
    return [ix for _, ix in formula.components]


def check_clause_sizes(formula: CnfFormula, k) -> PropertyCheck:
    """Every non-tautological clause must have at least k-2 distinct
    variables."""
    explored = 0
    for i, c in _active_clauses(formula):
        explored += 1
        if c.size < k - 2:
            return PropertyCheck(
                "clause-sizes", False, "fail", (i, c.size), explored,
                "clause %d has %d < k-2 variables" % (i, c.size),
            )
    return PropertyCheck("clause-sizes", True, "proved-pass", None, explored)


def check_pairwise_intersection(formula: CnfFormula, bound) -> PropertyCheck:
    """No two non-tautological clauses may share more than `bound`
    variables.  Pairs are read off the formula's pair overlap table, so
    disjoint clauses cost nothing."""
    shared = formula._overlaps
    explored = len(shared)
    violations = [(count, pair) for pair, count in shared.items() if count > bound]
    if violations:
        count, (a, b) = min(violations, key=lambda x: x[1])
        return PropertyCheck(
            "pairwise-intersection", False, "fail", (a, b, count), explored,
            "clauses %d and %d share %d > %s variables" % (a, b, count, bound),
        )
    return PropertyCheck("pairwise-intersection", True, "proved-pass", None, explored)


@dataclass(frozen=True)
class BadSets:
    v_bad: frozenset
    c_bad: frozenset
    trace: tuple  # ((clause index, overlap size when added), ...)


EMPTY_BAD_SETS = BadSets(frozenset(), frozenset(), ())


def identify_bad(formula: CnfFormula, p_hd, eps_bd, alpha, k=None) -> BadSets:
    """Fixed point of the bad-set cascade.

    Start with every variable of degree > p_hd * alpha; while some clause
    outside the bad set has strictly more than eps_bd * k of its variables
    bad, absorb the smallest-index such clause (all its variables become
    bad).  k defaults to the largest clause size.

    Overlaps only grow, so a clause crosses the trigger once and stays over
    it: a heap of the crossed clauses not yet absorbed gives the smallest
    index, and absorbing a clause updates only the clauses of its newly bad
    variables.
    """
    if k is None:
        k = formula.params.k_max
    trigger = eps_bd * k
    degrees = formula.variable_degrees()
    v_bad = {v for v in range(formula.n) if degrees[v] > p_hd * alpha}
    by_var = formula.by_var
    overlap = {
        i: sum(1 for v in c.vars if v in v_bad) for i, c in _active_clauses(formula)
    }
    ready = [i for i in overlap if overlap[i] > trigger]  # ascending: a heap
    c_bad = set()
    trace = []
    while ready:
        i = heapq.heappop(ready)
        c_bad.add(i)
        trace.append((i, overlap[i]))
        for v in formula.clauses[i].vars:
            if v in v_bad:
                continue
            v_bad.add(v)
            for j in by_var[v]:
                overlap[j] += 1
                if overlap[j] > trigger >= overlap[j] - 1:
                    heapq.heappush(ready, j)
    return BadSets(frozenset(v_bad), frozenset(c_bad), tuple(trace))


def large_intersection_clauses(formula: CnfFormula, cstar: Clause, t1):
    """Indices of (non-tautological) clauses sharing at least t1 variables
    with cstar, ascending."""
    target = set(cstar.vars)
    return tuple(
        i for i, c in _active_clauses(formula)
        if len(target.intersection(c.vars)) >= t1
    )


@dataclass(frozen=True)
class ModifiedBadSets:
    v_bad: frozenset
    c_bad: frozenset
    trace: tuple
    c_intersect: tuple
    c0: int
    intersect_threshold: float
    intersect_bound: float
    intersect_bound_holds: bool


def modified_bad_sets(formula: CnfFormula, cstar, prefix, c0_index, base: BadSets,
                      k=None) -> ModifiedBadSets:
    """The bad sets `base` (from `identify_bad`) augmented for one revealing
    run: clauses intersecting the candidate clause cstar in >= 2k^(4/5)
    variables, the prefix variables, and the triggering clause c0 all
    become bad.

    cstar may be None (no candidate context): the intersection set is then
    empty, which is also the literal outcome for any k < 32 since a size-k
    clause cannot share 2k^(4/5) > k variables with anything.
    """
    if k is None:
        k = formula.params.k_max
    if not 0 <= c0_index < len(formula.clauses):
        raise ValueError("c0_index %d out of range [0, %d)"
                         % (c0_index, len(formula.clauses)))
    for v in prefix:
        if not 0 <= v < formula.n:
            raise ValueError(
                "prefix variable %d out of range [0, %d)" % (v, formula.n)
            )
    c0 = formula.clauses[c0_index]
    if c0.tautology:
        raise ValueError("c0 must be a proper clause")
    m, f = formula._clause_masks[c0_index]
    pinned, values = _pack(prefix)
    if m & pinned & (values ^ f):
        raise ValueError("c0 must be unsatisfied under the prefix")
    threshold = 2 * k ** 0.8
    c_intersect = (
        () if cstar is None
        else large_intersection_clauses(formula, cstar, threshold)
    )
    v_bad = set(base.v_bad)
    for i in c_intersect:
        v_bad.update(formula.clauses[i].vars)
    v_bad.update(prefix)
    v_bad.update(c0.vars)
    c_bad = set(base.c_bad)
    c_bad.update(c_intersect)
    c_bad.add(c0_index)
    bound = k ** 0.8 - 2
    return ModifiedBadSets(
        v_bad=frozenset(v_bad),
        c_bad=frozenset(c_bad),
        trace=base.trace,
        c_intersect=c_intersect,
        c0=c0_index,
        intersect_threshold=threshold,
        intersect_bound=bound,
        intersect_bound_holds=len(c_intersect) <= bound,
    )


def check_degree_one_property(formula: CnfFormula, beta, size_limit,
                              k=None, budget=200_000) -> PropertyCheck:
    """Every subset of 2..size_limit clauses drawn from one dependency-graph
    component must contain two clauses that each keep >= beta*k variables
    private (appearing in no other clause of the subset).

    Subsets mixing components satisfy this trivially, so they are skipped.
    When the subset space exceeds the budget the verdict is inconclusive
    with the explored count.
    """
    if size_limit < 2:
        raise ValueError("size_limit must be >= 2")
    if k is None:
        k = formula.params.k_max
    need = beta * k
    comps = dependency_components(formula)
    clauses = formula.clauses
    explored = 0
    for size in range(2, size_limit + 1):
        for comp in comps:
            if len(comp) < size:
                continue
            for subset in itertools.combinations(comp, size):
                explored += 1
                if explored > budget:
                    return PropertyCheck(
                        "degree-one", None, "inconclusive", None, explored - 1,
                        "budget exhausted before covering all subsets",
                    )
                counts = {}
                for i in subset:
                    for v in clauses[i].vars:
                        counts[v] = counts.get(v, 0) + 1
                witnesses = 0
                for i in subset:
                    private = sum(1 for v in clauses[i].vars if counts[v] == 1)
                    if private >= need:
                        witnesses += 1
                        if witnesses == 2:
                            break
                if witnesses < 2:
                    return PropertyCheck(
                        "degree-one", False, "fail", subset, explored,
                        "subset has %d clause(s) with >= %s private variables"
                        % (witnesses, need),
                    )
    return PropertyCheck("degree-one", True, "proved-pass", None, explored)


def _min_union_exact(var_sets, sizes):
    best_len = None
    best_choice = None
    for choice in itertools.product(
        *[itertools.combinations(vs, b) for vs, b in zip(var_sets, sizes)]
    ):
        u = set()
        for part in choice:
            u.update(part)
        if best_len is None or len(u) < best_len:
            best_len = len(u)
            best_choice = choice
    return best_len, best_choice


def _min_union_greedy(var_sets, sizes):
    """Adversarial-overlap heuristic: each clause keeps the B variables most
    shared with the other clauses (then those already in the union)."""
    freq = {}
    for vs in var_sets:
        for v in vs:
            freq[v] = freq.get(v, 0) + 1
    union = set()
    choice = []
    for vs, b in zip(var_sets, sizes):
        ranked = sorted(vs, key=lambda v: (v not in union, -freq[v], v))
        take = tuple(sorted(ranked[:b]))
        union.update(take)
        choice.append(take)
    return len(union), tuple(choice)


def check_edge_expansion(formula: CnfFormula, rho, eta, B, ell_limit,
                         subset_budget=500_000, choice_budget=200_000) -> PropertyCheck:
    """For every set of ell <= min(ell_limit, rho*|C|) distinct clauses and
    every choice of B variables from each (B a whole number >= 1 and
    ell_limit >= 1, else ValueError), the union must exceed (1-eta)*B*ell.

    Clause subsets are exhausted when their number fits the budget, else
    probed by a greedy high-overlap heuristic; per-subset variable choices
    are exhausted when every clause has <= 9 variables and the product of
    choices fits its budget, else chosen greedily.  A pass is "proved-pass"
    only if both levels were exhaustive for every ell.
    """
    if not (1 <= B < math.inf and B % 1 == 0):
        raise ValueError("B must be a whole number >= 1, got %r" % (B,))
    if not ell_limit >= 1:
        raise ValueError("ell_limit must be >= 1")
    active = _active_clauses(formula)
    m = len(active)
    ell_max = min(ell_limit, math.floor(rho * m))
    if ell_max < 1:
        return PropertyCheck(
            "edge-expansion", True, "proved-pass", None, 0,
            "no admissible subset size (rho*|C| < 1)",
        )
    exhaustive = True
    explored = 0
    for ell in range(1, ell_max + 1):
        if math.comb(m, ell) <= subset_budget:
            subset_iter = itertools.combinations(range(m), ell)
        else:
            subset_iter = _heuristic_subsets(active, ell)
            exhaustive = False
        for subset in subset_iter:
            explored += 1
            var_sets = [active[i][1].vars for i in subset]
            sizes = [min(int(B), len(vs)) for vs in var_sets]
            combos = 1
            for vs, b in zip(var_sets, sizes):
                combos *= math.comb(len(vs), b)
            if combos <= choice_budget and all(len(vs) <= 9 for vs in var_sets):
                union, choice = _min_union_exact(var_sets, sizes)
            else:
                union, choice = _min_union_greedy(var_sets, sizes)
                exhaustive = False
            if not union > (1 - eta) * B * ell:
                indices = tuple(active[i][0] for i in subset)
                return PropertyCheck(
                    "edge-expansion", False, "fail",
                    (indices, tuple(choice), union), explored,
                    "union %d fails to exceed (1-eta)*B*ell = %s"
                    % (union, (1 - eta) * B * ell),
                )
    verdict = "proved-pass" if exhaustive else "heuristic-pass"
    return PropertyCheck("edge-expansion", True, verdict, None, explored)


def _heuristic_subsets(active, ell, starts=50):
    """Greedy high-overlap clause subsets: grow from each of the first
    `starts` clauses by repeatedly adding the clause sharing the most
    variables with the current union."""
    m = len(active)
    for s in range(min(m, starts)):
        chosen = [s]
        union = set(active[s][1].vars)
        while len(chosen) < ell:
            best = None
            best_key = None
            for j in range(m):
                if j in chosen:
                    continue
                share = len(union.intersection(active[j][1].vars))
                key = (-share, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best = j
            if best is None:
                break
            chosen.append(best)
            union.update(active[best][1].vars)
        if len(chosen) == ell:
            yield tuple(sorted(chosen))
