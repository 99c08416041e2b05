"""Slow, direct-from-definition oracles used to cross-check the library.

Everything in this file is deliberately dumb: formulas are plain literal
lists, assignments are tuples of bools, and every quantity is computed by
looping over all 2^n assignments (or over an explicitly materialized
solution list).  Nothing here imports the package under test, so agreement
between these functions and the library is meaningful evidence.

Representation:
    literal  = (var, negated)          var is a 0-based int
    clause   = sequence of literals    may contain duplicates / tautologies
    formula  = (n, [clause, ...])
    assignment = tuple of n bools, index = variable index
"""

import math
from fractions import Fraction
from itertools import combinations, product


def literal_satisfied(lit, assignment):
    var, negated = lit
    return assignment[var] != negated


def clause_satisfied(clause, assignment):
    return any(literal_satisfied(lit, assignment) for lit in clause)


def all_assignments(n):
    # product varies the last coordinate fastest; order does not matter to
    # any caller, every function treats the result as a set.
    return product((False, True), repeat=n)


def solutions(n, clauses):
    sols = []
    for a in all_assignments(n):
        if all(clause_satisfied(c, a) for c in clauses):
            sols.append(a)
    return sols


def count(n, clauses):
    return len(solutions(n, clauses))


def marginal(n, clauses, v):
    """Pr[X(v) = True] under the uniform distribution on solutions."""
    sols = solutions(n, clauses)
    if not sols:
        raise ValueError("formula is unsatisfiable")
    return Fraction(sum(1 for a in sols if a[v]), len(sols))


def forbidden_prob(n, clauses, cvars, cpattern):
    """Probability a uniform solution matches cpattern on cvars.

    cvars is a tuple of distinct variables, cpattern the tuple of values
    (the clause's forbidden assignment, but any pattern works).
    """
    sols = solutions(n, clauses)
    if not sols:
        raise ValueError("formula is unsatisfiable")
    hits = sum(1 for a in sols if all(a[v] == x for v, x in zip(cvars, cpattern)))
    return Fraction(hits, len(sols))


def tv_distance(n, clauses_a, clauses_b):
    sols_a = solutions(n, clauses_a)
    sols_b = solutions(n, clauses_b)
    if not sols_a or not sols_b:
        raise ValueError("both formulas must be satisfiable")
    wa = Fraction(1, len(sols_a))
    wb = Fraction(1, len(sols_b))
    set_a, set_b = set(sols_a), set(sols_b)
    total = Fraction(0)
    for a in set_a | set_b:
        pa = wa if a in set_a else Fraction(0)
        pb = wb if a in set_b else Fraction(0)
        total += abs(pa - pb)
    return total / 2


def _clause_key(clause):
    """Canonical (vars, forbidden-pattern) key, or None for a tautology."""
    values = {}
    for var, negated in clause:
        # the forbidden assignment falsifies every literal
        forbidden = negated
        if var in values and values[var] != forbidden:
            return None
        values[var] = forbidden
    vs = tuple(sorted(values))
    return vs, tuple(values[v] for v in vs)


def theta(n, clauses, k):
    """Brute-force resilience: scan every size-k clause not in the formula.

    Returns (theta, zero_count, argmin, candidates) where theta is the
    minimum nonzero forbidden-pattern probability (None if no candidate has
    nonzero probability, which cannot happen for satisfiable formulas),
    zero_count the number of candidates with probability exactly 0, argmin
    the first (vars, pattern) pair attaining theta, and candidates the
    number of size-k clauses not in the formula.  Candidates are scanned by
    colex variable set, then ascending forbidden pattern read as a binary
    number whose bit i is the value of the set's i-th variable.
    """
    sols = solutions(n, clauses)
    if not sols:
        raise ValueError("formula is unsatisfiable")
    present = {_clause_key(c) for c in clauses}
    colex = lambda seq: seq[::-1]
    best = None
    argmin = None
    zero_count = 0
    candidates = 0
    for vs in sorted(combinations(range(n), k), key=colex):
        # one pass over the solutions per variable subset: tally how often
        # each projected pattern occurs, then read off all 2^k candidates
        hits = {}
        for a in sols:
            proj = tuple(a[v] for v in vs)
            hits[proj] = hits.get(proj, 0) + 1
        for pattern in sorted(product((False, True), repeat=k), key=colex):
            if (vs, pattern) in present:
                continue
            candidates += 1
            h = hits.get(pattern, 0)
            if h == 0:
                zero_count += 1
                continue
            p = Fraction(h, len(sols))
            if best is None or p < best:
                best = p
                argmin = (vs, pattern)
    return best, zero_count, argmin, candidates


def pattern_counts(n, clauses, k):
    """Per k-subset of range(n) in colex order, the number of solutions
    showing each pattern on it (index bit i is the value of the subset's
    i-th variable)."""
    sols = solutions(n, clauses)
    out = []
    for vs in sorted(combinations(range(n), k), key=lambda s: s[::-1]):
        counts = [0] * (1 << k)
        for a in sols:
            counts[sum(a[v] << i for i, v in enumerate(vs))] += 1
        out.append(counts)
    return out


def clause_components(clauses):
    """Variable-disjoint components of the non-tautological clauses, by
    union-find over the variables: (sorted variables, sorted clause
    indices) per component, ordered by smallest clause index.  An empty
    clause is a component with no variables."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    active = [(i, c) for i, c in enumerate(clauses) if _clause_key(c) is not None]
    for _, c in active:
        for var, _ in c:
            parent[find(var)] = find(c[0][0])
    groups = {}
    for i, c in active:
        key = find(c[0][0]) if c else ("empty", i)
        vs, ix = groups.setdefault(key, (set(), []))
        vs |= _vars(c)
        ix.append(i)
    return sorted(
        ((tuple(sorted(vs)), tuple(ix)) for vs, ix in groups.values()),
        key=lambda comp: comp[1][0],
    )


def last_first_hit(tree, unsupported):
    """Largest 1-based first-hit time over the leaves of a split tree over
    samples, or None while a supported pattern has no hit.

    tree yields (subset, leaves) per k-subset, leaves[b] the int whose bit
    t is set iff sample t shows pattern b on the subset; unsupported counts,
    per subset, the patterns of zero truth probability.  Samples only ever
    hit supported patterns, so one is unhit iff its subset has more empty
    leaves than unsupported patterns.
    """
    hits = 0  # the lowest set bit of every leaf seen so far
    for (_, leaves), empty in zip(tree, unsupported):
        if leaves.count(0) > empty:
            return None
        for leaf in leaves:
            hits |= leaf & -leaf
    return hits.bit_length()


def correlation(n, clauses, u, v):
    """Sum over the four value pairs of |Pr[joint] - Pr[u]*Pr[v]|."""
    if u == v:
        raise ValueError("need two distinct variables")
    sols = solutions(n, clauses)
    if not sols:
        raise ValueError("formula is unsatisfiable")
    total = len(sols)
    result = Fraction(0)
    for xu in (False, True):
        for xv in (False, True):
            joint = sum(1 for a in sols if a[u] == xu and a[v] == xv)
            pu = sum(1 for a in sols if a[u] == xu)
            pv = sum(1 for a in sols if a[v] == xv)
            result += abs(Fraction(joint, total) - Fraction(pu * pv, total * total))
    return result


def valiant_learn(n, k, samples):
    """Clause-major elimination: check every size-k clause against every
    sample and keep the clauses no sample violates.

    samples are assignments (tuples of bools).  Returns the surviving
    clauses as literal lists, by colex variable set then ascending
    forbidden pattern read as a binary number whose bit i is the value of
    the set's i-th variable.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    colex = lambda seq: seq[::-1]
    out = []
    for vs in sorted(combinations(range(n), k), key=colex):
        for pattern in sorted(product((False, True), repeat=k), key=colex):
            if not any(all(a[v] == x for v, x in zip(vs, pattern)) for a in samples):
                # the forbidden value of each variable is its negation flag
                out.append([(v, x) for v, x in zip(vs, pattern)])
    return out


def shift_doubling_bitmap(n, clauses):
    """2^n-bit solution bitmap built one violation cylinder per clause.

    clauses are plain (vars, forbidden) tuples: distinct variables and the
    packed violating pattern, bit i the value of vars[i].  Bit a of the
    result is set iff packed assignment a (bit v = value of variable v)
    violates none of them.  Each cylinder starts as the one assignment that
    spells the pattern and doubles along every variable outside the clause.
    """
    viol = 0
    for vs, forbidden in clauses:
        base = 0
        for i, v in enumerate(vs):
            if (forbidden >> i) & 1:
                base |= 1 << v
        cylinder = 1 << base
        for w in range(n):
            if w not in vs:
                cylinder |= cylinder << (1 << w)
        viol |= cylinder
    return ((1 << (1 << n)) - 1) ^ viol


def pinning_bitmap(n, pinning):
    """2^n-bit bitmap of the packed assignments agreeing with the pinning
    (variable -> value): the one assignment that spells the pinning,
    doubled along every variable it leaves free.  A variable outside
    [0, n) raises ValueError."""
    base = 0
    for v, x in pinning.items():
        if not 0 <= v < n:
            raise ValueError("variable %d out of range [0, %d)" % (v, n))
        if x:
            base |= 1 << v
    bitmap = 1 << base
    for w in range(n):
        if w not in pinning:
            bitmap |= bitmap << (1 << w)
    return bitmap


# Revealing-process predicates.  sigma is a partial assignment {var: bool};
# v_bad and c_bad are sets of variables and of clause indices.

def _vars(clause):
    return {var for var, _ in clause}


def _satisfied_by_partial(clause, sigma):
    return any(var in sigma and sigma[var] != negated for var, negated in clause)


def _good_unpinned(clause, sigma, v_bad):
    return {var for var in _vars(clause) if var not in sigma and var not in v_bad}


def _good_unsatisfied(clauses, sigma, c_bad):
    """Indices of clauses that are not tautologies, not bad and not
    satisfied by sigma."""
    return [
        i for i, c in enumerate(clauses)
        if _clause_key(c) is not None and i not in c_bad
        and not _satisfied_by_partial(c, sigma)
    ]


def alive_variables(n, clauses, sigma, v_bad, c_bad, zeta, k):
    """Good unpinned variables v such that every good unsatisfied clause
    containing v keeps strictly more than zeta*k - 1 good unpinned variables
    other than v."""
    alive = set()
    for v in range(n):
        if v in sigma or v in v_bad:
            continue
        ok = True
        for i in _good_unsatisfied(clauses, sigma, c_bad):
            if v not in _vars(clauses[i]):
                continue
            others = _good_unpinned(clauses[i], sigma, v_bad) - {v}
            if not len(others) > zeta * k - 1:
                ok = False
        if ok:
            alive.add(v)
    return alive


def associated_component(n, clauses, sigma, v_bad, c_bad, zeta, k, c_index):
    """(A, A plus its neighbourhood) as sorted tuples.

    Frozen: good unsatisfied clauses with at most zeta*k good unpinned
    variables.  Blocked: the other good unsatisfied clauses whose good
    unpinned variables all lie in frozen clauses.  A is the smallest set
    holding c_index and every non-tautological frozen, blocked or bad clause
    that shares an unpinned variable with a member; the neighbourhood adds
    every non-tautological clause sharing an unpinned variable with A.
    """
    good = _good_unsatisfied(clauses, sigma, c_bad)
    frozen = {
        i for i in good if len(_good_unpinned(clauses[i], sigma, v_bad)) <= zeta * k
    }
    covered = set()
    for i in frozen:
        covered |= _vars(clauses[i])
    blocked = {
        i for i in good
        if i not in frozen and _good_unpinned(clauses[i], sigma, v_bad) <= covered
    }
    absorbable = frozen | blocked | set(c_bad)
    proper = [i for i, c in enumerate(clauses) if _clause_key(c) is not None]

    def touches(members, i):
        unpinned = set()
        for j in members:
            unpinned |= _vars(clauses[j]) - set(sigma)
        return bool(unpinned & _vars(clauses[i]))

    component = {c_index}
    grown = True
    while grown:
        grown = False
        for i in proper:
            if i in absorbable and i not in component and touches(component, i):
                component.add(i)
                grown = True
    neighbourhood = component | {i for i in proper if touches(component, i)}
    return tuple(sorted(component)), tuple(sorted(neighbourhood))


def k_max(clauses):
    """Largest number of distinct variables of a non-tautological clause."""
    return max((len(_vars(c)) for c in clauses if _clause_key(c) is not None), default=0)


def identify_bad(n, clauses, p_hd, eps_bd, alpha, k):
    """(v_bad, c_bad, trace) of the bad-set cascade, rescanning every clause
    after each absorption.

    Bad variables start as those in more than p_hd * alpha non-tautological
    clauses; then the smallest-index clause outside c_bad with more than
    eps_bd * k bad variables is absorbed, and the trace records its index
    and that count, until no clause qualifies.
    """
    proper = [i for i, c in enumerate(clauses) if _clause_key(c) is not None]
    degree = [0] * n
    for i in proper:
        for v in _vars(clauses[i]):
            degree[v] += 1
    v_bad = {v for v in range(n) if degree[v] > p_hd * alpha}
    c_bad = set()
    trace = []
    while True:
        hit = None
        for i in proper:
            overlap = len(_vars(clauses[i]) & v_bad)
            if i not in c_bad and overlap > eps_bd * k:
                hit = (i, overlap)
                break
        if hit is None:
            return v_bad, c_bad, trace
        c_bad.add(hit[0])
        v_bad |= _vars(clauses[hit[0]])
        trace.append(hit)


def reveal(n, clauses, tau, target, prefix, alpha, p_hd, eps_bd, zeta, k=None,
           cstar=None):
    """(S, tau_S, c0, trace, early_reason) of the revealing process on the
    solution tau (a tuple of bools), reclassifying every clause on every step.

    cstar is the candidate clause's variable set or None; k defaults to
    k_max.  Early returns give the prefix alone.  Otherwise c0 is the first
    non-tautological clause holding the target and not satisfied by the
    prefix; the bad sets gain the clauses meeting cstar in >= 2 k^(4/5)
    variables, the prefix and c0; and each step pins tau at the smallest
    alive variable of c0's extended component.
    """
    if k is None:
        k = k_max(clauses)
    if k == 0 or alpha < 1 / k**3:
        return sorted(prefix), dict(prefix), None, [], "sparse-alpha"
    c0 = next((
        i for i, c in enumerate(clauses)
        if _clause_key(c) is not None and target in _vars(c)
        and not _satisfied_by_partial(c, prefix)
    ), None)
    if c0 is None:
        return sorted(prefix), dict(prefix), None, [], "no-unsatisfied-clause"
    v_bad, c_bad, _ = identify_bad(n, clauses, p_hd, eps_bd, alpha, k)
    if cstar is not None:
        for i, c in enumerate(clauses):
            if _clause_key(c) is not None and len(_vars(c) & set(cstar)) >= 2 * k**0.8:
                c_bad.add(i)
                v_bad |= _vars(c)
    v_bad |= set(prefix) | _vars(clauses[c0])
    c_bad.add(c0)
    sigma = dict(prefix)
    trace = []
    while True:
        _, ext = associated_component(n, clauses, sigma, v_bad, c_bad, zeta, k, c0)
        ext_vars = {v for i in ext for v in _vars(clauses[i]) if v not in sigma}
        candidates = alive_variables(n, clauses, sigma, v_bad, c_bad, zeta, k) & ext_vars
        if not candidates:
            return sorted(sigma), sigma, c0, trace, None
        v = min(candidates)
        sigma[v] = tau[v]
        trace.append(v)


def is_nice(n, clauses, S, tau_S, target, prefix, zeta, k, target_value=None):
    """(nice, diagnosis, component size, exceptional) of a revealing result.

    The formula is simplified by tau_S (satisfied clauses and tautologies
    dropped, pinned variables deleted) and the target's dependency
    component is taken in it: the closure of the first simplified clause
    holding the target under sharing a variable.  exceptional indexes the
    simplified clause list.
    """
    if target in S:
        return False, "target-pinned", 0, None
    for v, value in prefix.items():
        if v not in tau_S or tau_S[v] != value:
            return False, "prefix-mismatch", 0, None
    reduced = [
        {var: negated for var, negated in c if var not in tau_S}
        for c in clauses
        if _clause_key(c) is not None and not _satisfied_by_partial(c, tau_S)
    ]
    holding = [i for i, r in enumerate(reduced) if target in r]
    if not holding:
        return True, "isolated", 0, None
    component = {holding[0]}
    grown = True
    while grown:
        grown = False
        for i, r in enumerate(reduced):
            if i not in component and any(set(r) & set(reduced[j]) for j in component):
                component.add(i)
                grown = True
    small = sorted(i for i in component if len(reduced[i]) < zeta * k - 1)
    if len(small) > 1:
        return False, "small-clauses", len(component), None
    exceptional = small[0] if small else None
    if exceptional is not None and set(reduced[exceptional]) == {target}:
        # the negation flag of the target's literal is its forbidden value
        if target_value is None or target_value == reduced[exceptional][target]:
            return False, "exceptional", len(component), exceptional
    if not len(component) <= math.log2(n):
        return False, "size", len(component), exceptional
    return True, "component", len(component), exceptional
