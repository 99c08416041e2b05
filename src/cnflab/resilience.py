"""Exact resilience oracle and local-uniformity check.

Resilience of a formula at width k: every size-k clause outside the formula
has forbidden-pattern probability either exactly 0 or at least theta, and
theta is the smallest nonzero value.  Computed here exactly over all
2^k * C(n,k) candidates from the solution space's pattern counts
(Space.pattern_counts): one popcount per bitmap row and set of at most k
variables, turned into per-pattern counts on small ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import Clause
from .solutions import _space, marginals


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
    least one candidate has nonzero probability.
    """
    if not 0 < k <= formula.n:
        raise ValueError("need 0 < k <= n")
    space = _space(formula, limit, "resilience is undefined for an unsatisfiable formula")
    own = {(c.vars, c.forbidden) for c in space.formula.clauses if not c.tautology}
    best = None
    best_clause = None
    zero = 0
    candidates = 0
    for subset, counts in space.pattern_counts(k):
        for pattern, cnt in enumerate(counts):
            if (subset, pattern) in own:
                continue
            candidates += 1
            if cnt == 0:
                zero += 1
            elif best is None or cnt < best:
                best = cnt
                best_clause = Clause(subset, pattern)
    return ResilienceReport(
        theta=Fraction(best, space.count),
        zero_set_size=zero,
        argmin=best_clause,
        candidates=candidates,
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
