"""Deterministic, seeded constructors for the formula families under study.

Every generator is a pure function of its arguments (seed included): the
same inputs produce byte-identical DIMACS on any platform.
"""

import math
from dataclasses import dataclass

from .core import Clause, CnfFormula
from .rand import SeededRng


@dataclass(frozen=True)
class GadgetSpec:
    k: int
    ell: int
    restricted: bool = False


@dataclass(frozen=True)
class HardFamilySpec:
    k: int
    ell: int
    m: int
    index: int


@dataclass(frozen=True)
class RandomCnfSpec:
    k: int
    n: int
    alpha: float
    seed: object

    @property
    def m(self):
        return int(self.alpha * self.n)


def gen_disjoint_family(k, n, seed) -> CnfFormula:
    """n/k pairwise-disjoint all-positive clauses, one variable per group.

    The variable range splits into k groups of n/k.  Clause i takes variable
    i from group 0 and the image of i under a fresh uniform permutation from
    each remaining group, and forbids all-False.  d_max = 1, s_max = 0.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n % k != 0:
        raise ValueError("k must divide n (got k=%d, n=%d)" % (k, n))
    g = n // k
    rng = SeededRng(seed)
    perms = [rng.permutation(g) for _ in range(k - 1)]
    clauses = []
    for i in range(g):
        vs = [i] + [(grp + 1) * g + perms[grp][i] for grp in range(k - 1)]
        clauses.append(Clause.from_literals((v, False) for v in vs))
    return CnfFormula(n, tuple(clauses))


def _gadget_clauses(k, ell, restricted, offset):
    """Layered gadget clauses with variables shifted by offset.

    Variable (layer i, position j), both 1-based, sits at index
    offset + (i-1)*k + (j-1).  For each layer i < ell and each j, one clause
    covers layer i minus its j-th variable plus the j-th variable of layer
    i+1; odd layers forbid all-True, even layers all-False.  The restricted
    variant appends one clause over the whole first layer forbidding
    all-True.
    """
    clauses = []
    for i in range(1, ell):
        for j in range(1, k + 1):
            vs = [offset + (i - 1) * k + (r - 1) for r in range(1, k + 1) if r != j]
            vs.append(offset + i * k + (j - 1))
            negated = i % 2 == 1
            clauses.append(Clause.from_literals((v, negated) for v in vs))
    if restricted:
        clauses.append(Clause.from_literals((offset + j, True) for j in range(k)))
    return clauses


def gen_gadget(spec: GadgetSpec) -> CnfFormula:
    if spec.k < 2 or spec.ell < 1:
        raise ValueError("need k >= 2 and ell >= 1")
    n = spec.k * spec.ell
    return CnfFormula(n, tuple(_gadget_clauses(spec.k, spec.ell, spec.restricted, 0)))


def gen_hard_family(spec: HardFamilySpec) -> CnfFormula:
    """m independent gadget blocks on consecutive variable ranges; bit j of
    the index selects the restricted (1) or unrestricted (0) block variant."""
    if not 0 <= spec.index < (1 << spec.m):
        raise ValueError("index must lie in [0, 2^m)")
    block = spec.k * spec.ell
    clauses = []
    for j in range(spec.m):
        restricted = bool((spec.index >> j) & 1)
        clauses.extend(_gadget_clauses(spec.k, spec.ell, restricted, j * block))
    return CnfFormula(spec.m * block, tuple(clauses))


def gen_random_cnf(spec: RandomCnfSpec) -> CnfFormula:
    """floor(alpha*n) clauses of k literals drawn i.i.d. uniformly with
    replacement from the 2n literals, then canonicalized (so a clause may
    have fewer than k distinct variables or be tautological)."""
    if spec.n < 1 or spec.k < 1 or not 0 < spec.alpha < math.inf:
        raise ValueError("need n >= 1, k >= 1, finite alpha > 0")
    rng = SeededRng(spec.seed)
    clauses = []
    for _ in range(spec.m):
        lits = [(rng.randbelow(spec.n), rng.coin()) for _ in range(spec.k)]
        clauses.append(Clause.from_literals(lits))
    return CnfFormula(spec.n, tuple(clauses))


def gen_linear_cnf(k, d, n, seed, m=None, reject_budget=None) -> CnfFormula:
    """Greedy rejection sampler for clauses that pairwise share at most one
    variable, with every variable in at most d clauses.

    Draws a uniform k-subset (sorted) with uniform polarities and keeps it if
    it violates neither constraint.  Gives up after reject_budget rejections
    (default 50*m), so the result may have fewer than m clauses.
    """
    if k < 2 or d < 1 or n < k:
        raise ValueError("need k >= 2, d >= 1, n >= k")
    if m is None:
        m = d * n // k
    if reject_budget is None:
        reject_budget = 50 * m
    rng = SeededRng(seed)
    deg = [0] * n
    kept = []
    kept_sets = []
    rejects = 0
    while len(kept) < m and rejects <= reject_budget:
        vs = []
        while len(vs) < k:
            v = rng.randbelow(n)
            if v not in vs:
                vs.append(v)
        vs.sort()
        lits = [(v, rng.coin()) for v in vs]
        vset = set(vs)
        if any(deg[v] + 1 > d for v in vs) or any(
            len(vset & other) > 1 for other in kept_sets
        ):
            rejects += 1
            continue
        for v in vs:
            deg[v] += 1
        kept.append(Clause.from_literals(lits))
        kept_sets.append(vset)
    return CnfFormula(n, tuple(kept))


def gen_counterexample(k) -> CnfFormula:
    """Two clauses on 2k-2 variables sharing exactly the first and k-th.

    Clause one is all-positive on variables 0..k-1.  Clause two keeps
    variable 0 positive, negates variable k-1, and fills up with k-2 fresh
    positive variables.  Under the uniform solution distribution the shared
    endpoints are exactly independent while sitting in a common clause.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = 2 * k - 2
    c1 = Clause.from_literals((v, False) for v in range(k))
    lits = [(0, False), (k - 1, True)] + [(v, False) for v in range(k, 2 * k - 2)]
    c2 = Clause.from_literals(lits)
    return CnfFormula(n, (c1, c2))
