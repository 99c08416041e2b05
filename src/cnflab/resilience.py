"""Exact resilience oracle and local-uniformity check.

Resilience of a formula at width k: every size-k clause outside the formula
has forbidden-pattern probability either exactly 0 or at least theta, and
theta is the smallest nonzero value.  Computed here exactly over all
2^k * C(n,k) candidates from the solution space's pattern counts
(Space.pattern_counts: exact products over the formula's variable-disjoint
components, one count array per pattern), read with whole-array minima and
zero counts and no step per candidate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import Clause
from .solutions import _space, iter_ksubsets_colex, marginals


@dataclass(frozen=True)
class ResilienceReport:
    theta: Fraction
    zero_set_size: int
    argmin: Clause
    candidates: int
    solution_count: int


def resilience_theta(formula, k, limit=None) -> ResilienceReport:
    """Exact minimum nonzero forbidden-pattern probability over all size-k
    clauses not present in the formula (a formula or its Space).

    Exact duplicates of formula clauses are excluded from the candidate
    space; clauses on the same variable set with a different polarity are
    candidates.  A satisfiable formula always has a defined theta: any
    pattern some solution realizes cannot be a clause of the formula, so at
    least one candidate has nonzero probability.  The argmin is the first
    clause attaining theta by colex variable set, then ascending pattern.
    """
    if not 0 < k <= formula.n:
        raise ValueError("need 0 < k <= n")
    space = _space(formula, limit, "resilience is undefined for an unsatisfiable formula")
    # the formula's own width-k cells: candidates never, and always count 0
    own = len({(c.vars, c.forbidden) for c in space.formula.clauses
               if not c.tautology and c.size == k})
    planes = space.pattern_counts(k)
    # a satisfiable formula realizes some pattern, and no count exceeds its
    # solution count
    best = min(min(filter(None, plane), default=space.count) for plane in planes)
    rank, pattern = min(
        (plane.index(best), b) for b, plane in enumerate(planes) if best in plane
    )
    subset = next(itertools.islice(iter_ksubsets_colex(space.n, k), rank, None))
    return ResilienceReport(
        theta=Fraction(best, space.count),
        zero_set_size=sum(plane.count(0) for plane in planes) - own,
        argmin=Clause(subset, pattern),
        candidates=(1 << k) * math.comb(space.n, k) - own,
        solution_count=space.count,
    )


class LocalUniformityReport(NamedTuple):
    max_marginal: Fraction
    bound: float
    holds: bool
    condition_holds: bool
    k_min: int
    k_max: int
    d_max: int
    t: int
    max_variable: int


def check_local_uniformity(formula, t, limit=None) -> LocalUniformityReport:
    """Exact max single-variable marginal versus the (1/2) e^(1/t) bound,
    for a formula or its Space.

    condition_holds reports whether the bound's hypothesis 2^k_min >=
    2e * d_max * t with t >= k_max is met; the comparison is computed and
    returned either way.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    space = _space(formula, limit)
    probs = marginals(space)
    params = space.formula.params
    condition = (
        2 ** params.k_min >= 2 * math.e * params.d_max * t and t >= params.k_max
    )
    best = Fraction(0)
    best_var = 0
    for v, p in enumerate(probs):
        m = max(p, 1 - p)
        if m > best:
            best = m
            best_var = v
    if space.n == 0:
        best = Fraction(1, 2)
    bound = 0.5 * math.exp(1 / t)
    return LocalUniformityReport(
        max_marginal=best,
        bound=bound,
        holds=best <= bound,
        condition_holds=condition,
        k_min=params.k_min,
        k_max=params.k_max,
        d_max=params.d_max,
        t=t,
        max_variable=best_var,
    )
