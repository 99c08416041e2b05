"""Exact solution-space engine.

The entire assignment space of a formula over n variables is represented as
one 2^n-bit Python int ("bitmap"): bit a is set iff assignment a (packed as
in core) satisfies the formula.  The bitmap is built as 2^(n-L) rows of
2^L bits, L = min(n, 16), one row per pattern of the variables >= L: a row
is the complement of the OR of the 2^L-bit low-variable cylinders of the
clauses whose literals on the high variables that pattern all falsifies
(every clause without high variables included), so a build costs about
m * 2^(n-L) small ORs plus one 2^n-bit join, not m full 2^n-bit cylinders.
Every probability afterwards is a popcount.  Every count of solutions with
a set of at most k variables all True (resilience, the sweep's truth
support, counts_by_pattern, marginals, correlation) is read off the same
rows by one walk, and a subset Moebius transform turns such counts into
pattern counts; this module is the only one that knows the row layout.
Everything is exact; the only floats in this module are never returned.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Clause,
    CnfFormula,
    EnumerationLimitError,
    InfeasiblePinningError,
    SamplingBudgetError,
    SolutionCapError,
    UnsatisfiableError,
)
from .generators import GadgetSpec, gen_gadget
from .rand import SeededRng

DEFAULT_ENUMERATION_LIMIT = 30
DEFAULT_SOLUTION_CAP = 1 << 20

# bytes per select-index block; 512 bytes = 4096 assignments
_BLOCK_BYTES = 512

# (width, low-half mask) for select's descent inside a block: widths 2048,
# 1024, ..., 1 halve the block's 4096 bits down to one
_HALVES = tuple(
    (1 << e, (1 << (1 << e)) - 1)
    for e in reversed(range((_BLOCK_BYTES * 8).bit_length() - 1))
)

# the bitmap is built in rows of 2^_LOW_BITS bits, one per pattern of the
# variables >= _LOW_BITS; a random 3-CNF at n=25 builds in 0.02-0.04 s with
# widths 14-20 and in 0.19 s with 10 (2-vCPU Xeon guest)
_LOW_BITS = 16


def iter_ksubsets_colex(n, k):
    """All k-subsets of range(n) in colexicographic order."""
    if k == 0:
        yield ()
        return
    if k > n:
        return
    subset = list(range(k))
    while True:
        yield tuple(subset)
        i = 0
        while i + 1 < k and subset[i] + 1 == subset[i + 1]:
            i += 1
        if subset[i] + 1 >= n:
            return
        subset[i] += 1
        for j in range(i):
            subset[j] = j


def colex_rank(subset) -> int:
    """Position of a sorted subset in colex order: sum of C(s_i, i+1)."""
    return sum(math.comb(s, i + 1) for i, s in enumerate(subset))


def _cylinder(nbits, vs, pattern: int) -> int:
    """Bitmap over 2^nbits assignments of those whose values on the variable
    tuple `vs` spell `pattern` (bit i is the value of vs[i]).

    A pattern giving a repeated variable two values matches nothing; a
    variable outside [0, nbits) raises ValueError before allocating.
    """
    base = zeros = 0
    for i, v in enumerate(vs):
        if not 0 <= v < nbits:
            raise ValueError("variable %d out of range [0, %d)" % (v, nbits))
        if (pattern >> i) & 1:
            base |= 1 << v
        else:
            zeros |= 1 << v
    if base & zeros:
        return 0
    in_set = base | zeros
    # doubling along the free variables below the lowest one in `vs` turns
    # the single assignment `base` into one run of ones
    lowest = (in_set & -in_set).bit_length() - 1 if in_set else nbits
    pat = ((1 << (1 << lowest)) - 1) << base
    for w in range(lowest + 1, nbits):
        if not (in_set >> w) & 1:
            pat |= pat << (1 << w)
    return pat


def pinning_bitmap(n, pinning) -> int:
    """Bitmap over all 2^n assignments of those agreeing with the pinning."""
    vs = tuple(sorted(pinning))
    pattern = 0
    for i, v in enumerate(vs):
        if pinning[v]:
            pattern |= 1 << i
    return _cylinder(n, vs, pattern)


def _bitmap(nbits, clauses) -> int:
    """Solution bitmap by Shannon expansion on the variables >= _LOW_BITS.

    Each row fixes the high variables to one pattern h and is the 2^low-bit
    complement of the low-variable violation cylinders of the clauses whose
    high literals h all falsifies; the rows, joined little-endian, are the
    2^nbits-bit bitmap.
    """
    low = min(nbits, _LOW_BITS)
    full = (1 << (1 << low)) - 1
    base = 0
    split = []  # (high-variable mask, forbidden high pattern, low cylinder)
    for c in clauses:
        if c.tautology:
            continue
        low_vs, low_pat, high_mask, high_pat = [], 0, 0, 0
        for i, v in enumerate(c.vars):
            bit = (c.forbidden >> i) & 1
            if v < low:
                low_pat |= bit << len(low_vs)
                low_vs.append(v)
            else:
                high_mask |= 1 << (v - low)
                high_pat |= bit << (v - low)
        cyl = _cylinder(low, low_vs, low_pat)
        if high_mask:
            split.append((high_mask, high_pat, cyl))
        else:
            base |= cyl
    if low == nbits:
        return full ^ base
    rows = []
    for h in range(1 << (nbits - low)):
        viol = base
        for high_mask, high_pat, cyl in split:
            if h & high_mask == high_pat:
                viol |= cyl
        rows.append((full ^ viol).to_bytes(1 << (low - 3), "little"))
    return int.from_bytes(b"".join(rows), "little")


def solution_bitmap(formula: CnfFormula, limit=None) -> int:
    """The formula's full solution bitmap."""
    lim = DEFAULT_ENUMERATION_LIMIT if limit is None else limit
    if formula.n > lim:
        raise EnumerationLimitError(
            "n=%d exceeds the enumeration limit %d" % (formula.n, lim)
        )
    return _bitmap(formula.n, formula.clauses)


def _all_true_counts(n, bitmap, vs, depth):
    """All-True counts N(S) over a 2^n-bit set of assignments: for every set
    S of at most `depth` positions of the variable tuple vs, keyed by its
    position mask (bit i for vs[i]; the empty set is key 0), the number of
    assignments with every variable at those positions True.  A set missing
    from the result counts 0.

    Walked per 2^L-bit row, L = min(n, _LOW_BITS): a variable below L goes
    through its 2^L-bit mask, built once; a variable at or above L is True
    throughout the rows whose high pattern sets it and False in the others,
    so a row just skips it or keeps its node.  No 2^n-bit mask is built.
    Raises ValueError for a variable outside [0, n) before allocating.
    """
    for v in vs:
        if not 0 <= v < n:
            raise ValueError("variable %d out of range [0, %d)" % (v, n))
    low = min(n, _LOW_BITS)
    masks = [_cylinder(low, (v,), 1) if v < low else None for v in vs]
    row_bytes = ((1 << low) + 7) // 8
    raw = memoryview(bitmap.to_bytes(row_bytes << (n - low), "little"))
    out = {0: bitmap.bit_count()}
    for h in range(1 << (n - low)):
        row = int.from_bytes(raw[h * row_bytes : (h + 1) * row_bytes], "little")
        if row:
            steps = [
                (1 << i, mask)
                for i, (v, mask) in enumerate(zip(vs, masks))
                if mask is not None or (h >> (v - low)) & 1
            ]
            _all_true_walk(steps, depth, 0, 0, row, out)
    return out


def _all_true_walk(steps, depth, start, key, node, out):
    """Add to out[key | S] the popcount of node within every set S of 1 to
    `depth` of steps[start:], each step a (position bit, 2^L-bit mask, or
    None for a variable True in the whole row).

    One AND and one popcount per set, each extending its prefix's node, so
    at most `depth` rows are alive; a branch left with no item ends.  A
    module-level function, not a closure: a recursive closure is a
    reference cycle that would hold the rows until the cyclic garbage
    collector runs.
    """
    for j in range(start, len(steps)):
        bit, mask = steps[j]
        child = node if mask is None else node & mask
        count = child.bit_count()
        if count:
            out[key | bit] = out.get(key | bit, 0) + count
            if depth > 1:
                _all_true_walk(steps, depth - 1, j + 1, key | bit, child, out)


def _superset_moebius(all_true, positions):
    """The pattern counts on the given positions from the all-True counts
    of their subsets: counts[b] = sum over c containing b of
    (-1)^|c - b| N(c), bit i of b for positions[i]."""
    masks = [0]
    for i in positions:
        masks += [m | 1 << i for m in masks]
    counts = [all_true.get(m, 0) for m in masks]
    step = 1
    while step < len(counts):
        for b in range(len(counts)):
            if not b & step:
                counts[b] -= counts[b | step]
        step <<= 1
    return counts


def _pattern_counts(n, k, bitmap):
    """(subset, counts) for every k-subset of range(n), in colex order.

    counts[b] is the number of assignments in the 2^n-bit bitmap whose
    values on subset form pattern b (bit i of b is the value of subset[i],
    the Clause.forbidden convention): the superset Moebius transform of the
    subset's 2^k all-True counts.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    all_true = _all_true_counts(n, bitmap, range(n), k)
    return (
        (subset, _superset_moebius(all_true, subset))
        for subset in iter_ksubsets_colex(n, k)
    )


class Space:
    """Enumerated solution space with popcount-based exact queries.

    `select` is the one map from a uniform rank to a solution; `restrict`
    conditions the space on a pinning, so a draw from the restricted space
    is a uniform solution agreeing with it.
    """

    def __init__(self, formula: CnfFormula, limit=None):
        self.formula = formula
        self.n = formula.n
        self.bitmap = solution_bitmap(formula, limit=limit)
        self.count = self.bitmap.bit_count()

    def restrict(self, pinning) -> Space:
        """The solutions agreeing with `pinning` (variable -> value).

        The bitmap is this one ANDed with the pinning's cylinder, without a
        rebuild; the formula gains one unit clause per pinned variable, so
        it has exactly these solutions.  An infeasible pinning gives an
        empty space; a variable outside [0, n) raises ValueError.
        """
        bitmap = self.bitmap & pinning_bitmap(self.n, pinning)
        units = tuple(
            Clause.from_literals([(v, not pinning[v])]) for v in sorted(pinning)
        )
        sub = Space.__new__(Space)
        sub.formula = CnfFormula(self.n, self.formula.clauses + units)
        sub.n = self.n
        sub.bitmap = bitmap
        sub.count = bitmap.bit_count()
        return sub

    def __contains__(self, assignment) -> bool:
        """True iff the packed assignment is a solution."""
        return 0 <= assignment < 1 << self.n and bool((self.bitmap >> assignment) & 1)

    def issubset(self, other: Space) -> bool:
        """True iff every solution of this space is a solution of `other`."""
        return not self.bitmap & ~other.bitmap

    def pattern_counts(self, k):
        """(subset, counts) for every k-subset of the variables, in colex
        order; counts[b] is the number of solutions whose values on subset
        form pattern b (bit i of b is the value of subset[i])."""
        return _pattern_counts(self.n, k, self.bitmap)

    def count_matching(self, vs, pattern: int) -> int:
        """Number of solutions matching `pattern` on variable tuple `vs`."""
        return (self.bitmap & _cylinder(self.n, vs, pattern)).bit_count()

    def counts_by_pattern(self, vs):
        """Solution counts for all 2^k patterns on `vs` in one sweep.

        Index bit i of the returned list's position corresponds to vs[i],
        matching the Clause.forbidden convention; a repeated variable
        counts 0 under the patterns that give its copies different values.
        """
        all_true = _all_true_counts(self.n, self.bitmap, vs, len(vs))
        return _superset_moebius(all_true, range(len(vs)))

    @functools.cached_property
    def _select_index(self):
        """The bitmap in 4096-bit blocks, and the solution count before each
        block (one more entry: the total)."""
        nbytes = max(1, ((1 << self.n) + 7) // 8)
        raw = self.bitmap.to_bytes(nbytes, "little")
        blocks = []
        cumulative = [0]
        for off in range(0, nbytes, _BLOCK_BYTES):
            chunk = int.from_bytes(raw[off : off + _BLOCK_BYTES], "little")
            blocks.append(chunk)
            cumulative.append(cumulative[-1] + chunk.bit_count())
        return blocks, cumulative

    def select(self, rank: int) -> int:
        """The rank-th solution in increasing assignment order (0-based).

        Bisects the block counts for the block holding it, then halves that
        block 12 times, stepping past the low half when the rank lies above
        it (the bits beyond the current half are never counted: each later
        mask is narrower).
        """
        if not 0 <= rank < self.count:
            raise IndexError("rank out of range")
        blocks, cumulative = self._select_index
        b = bisect.bisect_right(cumulative, rank) - 1
        remaining = rank - cumulative[b]
        chunk = blocks[b]
        pos = b * _BLOCK_BYTES * 8
        for width, mask in _HALVES:
            low = (chunk & mask).bit_count()
            if remaining >= low:
                remaining -= low
                chunk >>= width
                pos += width
        return pos

    def iter_solutions(self):
        blocks, _ = self._select_index
        for bi, chunk in enumerate(blocks):
            base = bi * _BLOCK_BYTES * 8
            while chunk:
                low_bit = chunk & -chunk
                yield base + low_bit.bit_length() - 1
                chunk ^= low_bit


_UNSAT = "formula is unsatisfiable"


def _space(formula, limit=None, unsat=None) -> Space:
    """The solution space of a formula, or the argument itself if it is
    already a Space; a Space was built under its own limit, so `limit` is
    ignored for it.  With `unsat` given, an empty space raises
    UnsatisfiableError with that message."""
    space = formula if isinstance(formula, Space) else Space(formula, limit=limit)
    if unsat is not None and space.count == 0:
        raise UnsatisfiableError(unsat)
    return space


@dataclass(frozen=True)
class SolutionSet:
    formula: CnfFormula
    solutions: tuple
    count: int


def enumerate_solutions(formula, cap=DEFAULT_SOLUTION_CAP, limit=None) -> SolutionSet:
    """Materialize every satisfying assignment in increasing packed order.

    An unsatisfiable formula yields an empty set (not an error); exceeding
    `cap` raises SolutionCapError before materializing.
    """
    space = _space(formula, limit)
    if cap is not None and space.count > cap:
        raise SolutionCapError(
            "%d solutions exceed the cap %d" % (space.count, cap)
        )
    return SolutionSet(space.formula, tuple(space.iter_solutions()), space.count)


def count_solutions(formula, limit=None) -> int:
    return _space(formula, limit).count


def sample_uniform(formula, T, seed, limit=None, method="enumerate", reject_budget=None):
    """T i.i.d. uniform solutions, deterministic in the seed, in draw order.

    method="enumerate" draws a uniform rank into the exact solution set.
    method="rejection" draws whole assignments until one satisfies the
    formula; it works beyond the enumeration limit but gives up (with
    SamplingBudgetError) once the total try budget, default 10000 per
    requested sample, is spent.  A negative T raises ValueError.
    """
    if T < 0:
        raise ValueError("T must be >= 0, got %d" % T)
    rng = SeededRng(seed)
    if method == "rejection":
        formula = formula.formula if isinstance(formula, Space) else formula
        budget = 10_000 * T if reject_budget is None else reject_budget
        out = []
        for _ in range(T):
            while True:
                if budget <= 0:
                    raise SamplingBudgetError(
                        "rejection sampling used up its try budget"
                    )
                budget -= 1
                a = rng.getrandbits(formula.n) if formula.n else 0
                if formula.satisfied_by(a):
                    out.append(a)
                    break
        return out
    if method != "enumerate":
        raise ValueError("unknown sampling method %r" % (method,))
    space = _space(formula, limit, "cannot sample from an unsatisfiable formula")
    return [space.select(rng.randbelow(space.count)) for _ in range(T)]


def marginals(formula, limit=None):
    """Pr[X(v) = True] for every variable, as exact fractions: the
    all-True counts of the single variables."""
    space = _space(formula, limit, _UNSAT)
    ones = _all_true_counts(space.n, space.bitmap, range(space.n), 1)
    return [Fraction(ones.get(1 << v, 0), space.count) for v in range(space.n)]


def conditional_prob(formula, condition, event, limit=None) -> Fraction:
    """Exact Pr[X agrees with event | X agrees with condition] under the
    uniform solution distribution."""
    base = _space(formula, limit, _UNSAT).restrict(condition)
    if base.count == 0:
        raise InfeasiblePinningError("conditioning event has zero mass")
    return Fraction(base.restrict(event).count, base.count)


def forbidden_pattern_prob(formula, cstar: Clause, limit=None) -> Fraction:
    """Probability that a uniform solution matches cstar's forbidden
    assignment on vbl(cstar)."""
    if cstar.tautology:
        raise ValueError("a tautological clause has no forbidden pattern")
    space = _space(formula, limit, _UNSAT)
    hits = space.count_matching(cstar.vars, cstar.forbidden)
    return Fraction(hits, space.count)


def tv_distance(a, b, limit=None) -> Fraction:
    """Exact total variation distance between the two uniform solution
    distributions."""
    if a.n != b.n:
        raise ValueError("variable counts differ: %d vs %d" % (a.n, b.n))
    sa = _space(a, limit, _UNSAT)
    sb = _space(b, limit, _UNSAT)
    na, nb = sa.count, sb.count
    inter = (sa.bitmap & sb.bitmap).bit_count()
    total = (
        inter * abs(Fraction(1, na) - Fraction(1, nb))
        + Fraction(na - inter, na)
        + Fraction(nb - inter, nb)
    )
    return total / 2


def correlation_dC(formula, u, v, limit=None) -> Fraction:
    """Pairwise correlation statistic: the sum over the four value pairs of
    |Pr[X(u)=x, X(v)=y] - Pr[X(u)=x] Pr[X(v)=y]|.  Zero iff u, v independent."""
    if u == v:
        raise ValueError("need two distinct variables")
    space = _space(formula, limit, _UNSAT)
    total = space.count
    joint = space.counts_by_pattern((u, v))  # bit 0 is X(u), bit 1 is X(v)
    pu = (joint[0] + joint[2], joint[1] + joint[3])
    pv = (joint[0] + joint[1], joint[2] + joint[3])
    return sum(
        abs(Fraction(joint[b], total) - Fraction(pu[b & 1] * pv[b >> 1], total * total))
        for b in range(4)
    )


def equivalent(a, b, limit=None) -> bool:
    """True iff the two formulas have the same solution set."""
    if a.n != b.n:
        raise ValueError("variable counts differ: %d vs %d" % (a.n, b.n))
    return _space(a, limit).bitmap == _space(b, limit).bitmap


@dataclass(frozen=True)
class GadgetCountReport:
    k: int
    ell: int
    count_unrestricted: int
    count_restricted: int
    ratio: Fraction
    lower: Fraction
    upper: Fraction
    bounds_hold: bool
    extra: tuple
    extra_is_alternating: bool


def verify_gadget_counts(k, ell, limit=None) -> GadgetCountReport:
    """Exact counting check for a gadget pair.

    Verifies 1 - 2^-((k-2) ell) <= |sols_r| / |sols_u| <= 1 - 2^-(k ell),
    that exactly one assignment separates the two solution sets, and that it
    sets odd layers all-True and even layers all-False.
    """
    su = Space(gen_gadget(GadgetSpec(k, ell, False)), limit=limit)
    sr = Space(gen_gadget(GadgetSpec(k, ell, True)), limit=limit)
    extra_bits = su.bitmap & ~sr.bitmap & ((1 << (1 << su.n)) - 1)
    extra = []
    while extra_bits:
        low_bit = extra_bits & -extra_bits
        extra.append(low_bit.bit_length() - 1)
        extra_bits ^= low_bit
    ratio = Fraction(sr.count, su.count)
    lower = 1 - Fraction(1, 1 << ((k - 2) * ell))
    upper = 1 - Fraction(1, 1 << (k * ell))
    expected = 0
    for layer in range(1, ell + 1):
        if layer % 2 == 1:
            expected |= ((1 << k) - 1) << ((layer - 1) * k)
    return GadgetCountReport(
        k=k,
        ell=ell,
        count_unrestricted=su.count,
        count_restricted=sr.count,
        ratio=ratio,
        lower=lower,
        upper=upper,
        bounds_hold=lower <= ratio <= upper,
        extra=tuple(extra),
        extra_is_alternating=extra == [expected],
    )
