"""Exact solution-space engine.

The solutions of a formula over n variables are kept as 2^(n-L) rows of
2^L bits, L = min(n, 16), one Python int per pattern h of the variables
>= L ("high" variables): bit x of row h is set iff the assignment
h << L | x (packed as in core) satisfies the formula.  The rows are the
representation; the 2^n-bit int "bitmap" of all solutions is only a view
that joins them little-endian when it is read (Space.bitmap,
solution_bitmap).

A row is the complement of the OR of the 2^L-bit low-variable cylinders of
the clauses whose high literals h all falsifies (every clause without high
variables included).  The rows come out of one Shannon tree over the high
variables, highest first: a clause whose lowest high variable is L + j
joins the tree at the nodes that fix variables L + j and up, where its
whole high pattern is known, so it is tested at 2^(n-L-j-1) nodes, not at
all 2^(n-L) rows, and no 2^n-bit int is built.
Every query reads the rows: a set of variable values, given as a mask
of the variables and their values in place (core._pack, the clause
masks), splits into one low cylinder and a high mask and values that keep
or drop whole rows, and every count of
solutions with a set of at most k variables all True is read off rows by
one walk, a superset Moebius transform turning such counts into pattern
counts.  counts_by_pattern, marginals and correlation walk the space's
rows.  Space.pattern_counts (resilience, the sweep's truth support) walks
each variable-disjoint component's own rows, the space's for a component
on every variable, and multiplies: a set's all-True count is the product
of its parts' counts in the components.  The counts of all k-subsets are
packed as 64-bit fields of 2^k whole ints (planes), joined from colex
prefixes, and transformed together.  This module is the only one that
knows the row layout.  Everything is exact; the only floats in this
module are never returned.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from array import array
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
    _pack,
)
from .generators import GadgetSpec, gen_gadget
from .rand import SeededRng

DEFAULT_ENUMERATION_LIMIT = 30
DEFAULT_SOLUTION_CAP = 1 << 20

# the rows are 2^_LOW_BITS bits wide, one per pattern of the variables >=
# _LOW_BITS; the rows of a random 3-CNF at n=25, alpha=3.0 build in a
# median 4-5 ms with widths 14-16, 6 ms with 10-12 or 18 and 15 ms with 20
# (2-vCPU Xeon guest)
_LOW_BITS = 16


def _select8_table():
    """Entry r << 8 | x is the position of the r-th (0-based) set bit of
    the byte x, for every r below x's popcount (0 elsewhere): 2 KB."""
    table = bytearray(8 << 8)
    for x in range(256):
        r = 0
        for b in range(8):
            if x >> b & 1:
                table[r << 8 | x] = b
                r += 1
    return bytes(table)


_SELECT8 = _select8_table()


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


def _check_range(n, vs):
    for v in vs:
        if not 0 <= v < n:
            raise ValueError("variable %d out of range [0, %d)" % (v, n))


def _cylinder(nbits, mask, bits) -> int:
    """Bitmap over 2^nbits assignments of those that agree with `bits` on
    the variables of `mask` (a set of variables and their values as
    `core._pack` packs them, bits within mask, all below nbits)."""
    # doubling along the free variables below the lowest one in `mask`
    # turns the single assignment `bits` into one run of ones
    lowest = (mask & -mask).bit_length() - 1 if mask else nbits
    pat = ((1 << (1 << lowest)) - 1) << bits
    for w in range(lowest + 1, nbits):
        if not (mask >> w) & 1:
            pat |= pat << (1 << w)
    return pat


def _split(n, mask, bits):
    """(low cylinder, high mask, high bits) of the assignments of n
    variables that agree with `bits` on the variables of `mask` (all in
    [0, n), bits within mask): row h holds them at the bits of the
    2^L-bit cylinder on the variables below L if h & high mask == high bits
    on the variables >= L, and nowhere else."""
    low = min(n, _LOW_BITS)
    below = (1 << low) - 1
    return _cylinder(low, mask & below, bits & below), mask >> low, bits >> low


def _solution_rows(formula) -> tuple:
    """The formula's solution rows by Shannon expansion on the variables
    >= L.

    Each clause is bucketed by its lowest high variable and by its
    forbidden value there; clauses without high variables seed the root.
    The tree fixes the high variables from the highest down, depth first,
    so its leaves come out in increasing h, each as the complement of its
    node's violations.
    """
    nbits = formula.n
    low = min(nbits, _LOW_BITS)
    full = (1 << (1 << low)) - 1
    buckets = [([], []) for _ in range(nbits - low)]
    base = 0
    for m, f in formula._clause_masks:
        if f > m:  # a tautology
            continue
        cyl, mask, pat = _split(nbits, m, f)
        if mask:
            j = (mask & -mask).bit_length() - 1
            buckets[j][(pat >> j) & 1].append((cyl, mask, pat))
        else:
            base |= cyl
    rows = []
    _shannon(buckets, len(buckets), 0, base, full, rows)
    return tuple(rows)


def _shannon(buckets, level, prefix, viol, full, rows):
    """Append to `rows` the 2^level rows below the node that fixes the high
    variables from `level` up to `prefix`, its clauses' violations ORed
    into `viol`.  A node violated throughout gives zero rows at once; a
    leaf without violations shares the `full` int.  A module-level
    function for the reason given at _all_true_walk."""
    if viol == full:
        rows.extend([0] * (1 << level))
    elif not level:
        rows.append(full ^ viol if viol else full)
    else:
        level -= 1
        for value, bucket in enumerate(buckets[level]):
            h = prefix | value << level
            child = viol
            for cyl, mask, pat in bucket:
                if h & mask == pat:
                    child |= cyl
            _shannon(buckets, level, h, child, full, rows)


def _join(rows) -> int:
    """The 2^n-bit bitmap: the rows joined little-endian."""
    if len(rows) == 1:
        return rows[0]
    row_bytes = 1 << (_LOW_BITS - 3)
    return int.from_bytes(
        b"".join(row.to_bytes(row_bytes, "little") for row in rows), "little"
    )


def solution_bitmap(formula: CnfFormula, limit=None) -> int:
    """The formula's full solution bitmap, joined from its rows."""
    return Space(formula, limit=limit).bitmap


def _all_true_counts(n, rows, vs, depth):
    """All-True counts N(S) over a set of assignments given as rows: for
    every set S of at most `depth` positions of the variable tuple vs, keyed
    by its position mask (bit i for vs[i]; the empty set is key 0), the
    number of assignments with every variable at those positions True.  A
    set missing from the result counts 0.

    Walked per row: a variable below L goes through its 2^L-bit mask, built
    once; a variable at or above L is True throughout the rows whose high
    pattern sets it and False in the others, so a row just skips it or
    keeps its node.  Raises ValueError for a variable outside [0, n)
    before allocating.
    """
    _check_range(n, vs)
    low = min(n, _LOW_BITS)
    masks = [_cylinder(low, 1 << v, 1 << v) if v < low else None for v in vs]
    out = {0: sum(row.bit_count() for row in rows)}
    for h, row in enumerate(rows):
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


def _component_counts(space, k):
    """All-True counts N(T) of the space for every set T of at most k
    variables, keyed by variable mask (bit v for variable v; a set missing
    from the result counts 0), as exact products over the formula's
    variable-disjoint components: N(T) is the product over the components c
    of N_c(T & c), N_c(empty) being c's own solution count, and a free
    variable is a component with counts 2 and 1.

    Each component's counts are walked over its own rows, its variables
    renumbered from 0; a component on all n variables reads the space's
    rows instead of building them again.  An unsatisfiable component (an
    empty clause is one, with no variables) makes every count 0.
    """
    n, formula = space.n, space.formula
    tables = []
    free = (1 << n) - 1
    for vs, ix in formula.components:
        for v in vs:
            free ^= 1 << v
        if len(vs) == n:
            tables.append(_all_true_counts(n, space._rows, vs, k))
            continue
        index = {v: i for i, v in enumerate(vs)}
        rows = _solution_rows(CnfFormula(len(vs), tuple(
            Clause(tuple(index[v] for v in c.vars), c.forbidden)
            for c in map(formula.clauses.__getitem__, ix)
        )))
        tables.append({
            sum(1 << v for i, v in enumerate(vs) if key >> i & 1): count
            for key, count in _all_true_counts(len(vs), rows, range(len(vs)), k).items()
        })
    tables += [{0: 2, 1 << v: 1} for v in range(n) if free >> v & 1]
    # the products so far, as (masks, counts) per set size: each part of
    # the next table extends every product with room for it at C speed
    sized = [([0], [1])] + [([], []) for _ in range(k)]
    for table in tables:
        grown = [([], []) for _ in range(k + 1)]
        for part, count in table.items():
            for (keys, values), (out_keys, out_values) in zip(sized, grown[part.bit_count():]):
                out_keys += map(part.__or__, keys)
                out_values += map(count.__mul__, values)
        sized = grown
    all_true = {}
    for keys, values in sized:
        all_true.update(zip(keys, values))
    return all_true


def _plane_walk(j, top, extra, all_true, memo):
    """The 2^j planes (bytes) of the j-subsets S of range(top) in colex
    order, field i of plane b holding N(S_i at the positions in b, plus the
    variables of the mask extra); top is the lowest variable of extra (n if
    none), so (j, extra) keys the memo.

    The j-subsets with largest element m are the (j-1)-subsets of range(m),
    a colex prefix of those of range(top), each followed by m: a plane
    without the last position joins prefixes of the (j-1)-planes, and one
    with it joins the (j-1)-planes of range(m) with m added to extra.  A
    module-level function for the reason given at _all_true_walk; the memo
    lives for one _pattern_counts call.
    """
    planes = memo.get((j, extra))
    if planes is None:
        base = all_true.get(extra, 0)
        if not base:
            planes = [bytes(8 * math.comb(top, j))] * (1 << j)
        elif not j:
            planes = [base.to_bytes(8, "little")]
        elif j == 1:
            planes = [base.to_bytes(8, "little") * top, b"".join([
                all_true.get(extra | 1 << m, 0).to_bytes(8, "little") for m in range(top)
            ])]
        else:
            below = _plane_walk(j - 1, top, extra, all_true, memo)
            sizes = [8 * math.comb(m, j - 1) for m in range(j - 1, top)]
            ups = [
                _plane_walk(j - 1, m, extra | 1 << m, all_true, memo)
                for m in range(j - 1, top)
            ]
            planes = [
                b"".join([plane[:size] for size in sizes]) for plane in below
            ] + [b"".join([up[b] for up in ups]) for b in range(1 << (j - 1))]
        memo[(j, extra)] = planes
    return planes


def _superset_moebius(planes):
    """Pattern counts from all-True counts, in place: planes[b] becomes the
    sum over c containing b of (-1)^|c - b| planes[c], one subtraction per
    pair (b, b | bit).  Every intermediate value of a field is a real count
    (the assignments with the positions in b True and those already
    processed outside b False), so packed fields never borrow."""
    step = 1
    while step < len(planes):
        for b in range(len(planes)):
            if not b & step:
                planes[b] -= planes[b | step]
        step <<= 1
    return planes


def _pattern_counts(n, k, all_true):
    """Per pattern b of the k-subsets of range(n), an array('Q') of the
    number of assignments whose values on the subset form b (bit i the
    value of subset[i], the Clause.forbidden convention), one entry per
    subset in colex order, from the all-True counts of every set of at most
    k variables (keyed by variable mask): one superset Moebius transform
    over the packed planes."""
    fields = math.comb(n, k)
    planes = [int.from_bytes(p, "little") for p in _plane_walk(k, n, 0, all_true, {})]
    out = []
    for plane in _superset_moebius(planes):
        counts = array("Q")
        counts.frombytes(plane.to_bytes(8 * fields, "little"))
        if sys.byteorder == "big":
            counts.byteswap()
        out.append(counts)
    return out


class Space:
    """Enumerated solution space with popcount-based exact queries.

    The solutions are held as an immutable tuple of 2^L-bit rows (see the
    module docstring); `bitmap` joins them into one 2^n-bit int on every
    read.  One batch loop over a 64-bit word index maps uniform ranks to
    solutions, three halvings of a word and a byte-table lookup each, for
    `select` (one rank) and `sample` (one batch of seeded draws,
    `SeededRng.randbelows`);
    `restrict` conditions the space on a pinning, so a draw from the
    restricted space is a uniform solution agreeing with it.
    """

    def __init__(self, formula: CnfFormula, limit=None):
        lim = DEFAULT_ENUMERATION_LIMIT if limit is None else limit
        if formula.n > lim:
            raise EnumerationLimitError(
                "n=%d exceeds the enumeration limit %d" % (formula.n, lim)
            )
        self._set(formula, _solution_rows(formula))

    def _set(self, formula, rows):
        self.formula = formula
        self.n = formula.n
        self._rows = rows
        self.count = sum(row.bit_count() for row in rows)

    @property
    def bitmap(self) -> int:
        """The 2^n-bit solution bitmap, joined from the rows (not cached)."""
        return _join(self._rows)

    def restrict(self, pinning) -> Space:
        """The solutions agreeing with `pinning` (variable -> value).

        Each row is ANDed with the pinning's low cylinder or, if its high
        pattern disagrees, dropped to 0, without a rebuild; the formula
        gains one unit clause per pinned variable, so it has exactly these
        solutions.  An infeasible pinning gives an empty space; a variable
        outside [0, n) raises ValueError.
        """
        _check_range(self.n, pinning)
        cyl, mask, pat = _split(self.n, *_pack(pinning))
        units = tuple(Clause.from_literals([(v, not pinning[v])]) for v in sorted(pinning))
        sub = Space.__new__(Space)
        sub._set(
            CnfFormula(self.n, self.formula.clauses + units),
            tuple(row & cyl if h & mask == pat else 0 for h, row in enumerate(self._rows)),
        )
        return sub

    def __contains__(self, assignment) -> bool:
        """True iff the packed assignment is a solution."""
        low = min(self.n, _LOW_BITS)
        return 0 <= assignment < 1 << self.n and bool(
            (self._rows[assignment >> low] >> (assignment & ((1 << low) - 1))) & 1
        )

    def issubset(self, other: Space) -> bool:
        """True iff every solution of this space is a solution of `other`."""
        if self.n != other.n:
            raise ValueError(
                "variable counts differ: %d vs %d" % (self.n, other.n))
        return not any(a & ~b for a, b in zip(self._rows, other._rows))

    def pattern_counts(self, k):
        """Per pattern b, an array('Q') with one entry per k-subset of the
        variables in colex order: the number of solutions whose values on
        the subset form b (bit i of b is the value of subset[i]).  Counted
        per variable-disjoint component of the formula (_component_counts).
        """
        if not 0 <= k <= self.n:
            raise ValueError("need 0 <= k <= n")
        return _pattern_counts(self.n, k, _component_counts(self, k))

    def count_matching(self, vs, pattern: int) -> int:
        """Number of solutions matching `pattern` on variable tuple `vs`
        (bit i is the value of vs[i]).  A pattern giving a repeated variable
        two values matches nothing; a variable outside [0, n) or a pattern
        outside [0, 2^len(vs)) raises ValueError."""
        _check_range(self.n, vs)
        if not 0 <= pattern < 1 << len(vs):
            raise ValueError("pattern out of range")
        ones = zeros = 0
        for i, v in enumerate(vs):
            if pattern >> i & 1:
                ones |= 1 << v
            else:
                zeros |= 1 << v
        return 0 if ones & zeros else self._count(ones | zeros, ones)

    def _count(self, mask, bits) -> int:
        """Number of solutions that agree with `bits` on the variables of
        `mask` (all in [0, n), bits within mask)."""
        cyl, mask, pat = _split(self.n, mask, bits)
        return sum(
            (row & cyl).bit_count()
            for h, row in enumerate(self._rows)
            if h & mask == pat
        )

    def counts_by_pattern(self, vs):
        """Solution counts for all 2^k patterns on `vs` in one sweep.

        Index bit i of the returned list's position corresponds to vs[i],
        matching the Clause.forbidden convention; a repeated variable
        counts 0 under the patterns that give its copies different values.
        """
        all_true = _all_true_counts(self.n, self._rows, vs, len(vs))
        return _superset_moebius([all_true.get(b, 0) for b in range(1 << len(vs))])

    @functools.cached_property
    def _select_index(self):
        """The 64-bit words of the nonzero rows, the solution count before
        each word (one more entry: the total), the assignment each nonzero
        row starts at, and log2 of the words per row: two 8-byte entries
        per word.  A row narrower than a word fills the low bits of one."""
        low = min(self.n, _LOW_BITS)
        row_bytes = max(8, (1 << low) >> 3)
        words = array("Q")
        words.frombytes(b"".join(
            row.to_bytes(row_bytes, "little") for row in self._rows if row
        ))
        if sys.byteorder == "big":
            words.byteswap()
        cumulative = array("Q", itertools.accumulate(map(int.bit_count, words), initial=0))
        bases = [h << low for h, row in enumerate(self._rows) if row]
        return words, cumulative, bases, (row_bytes >> 3).bit_length() - 1

    def _select_ranks(self, ranks) -> list:
        """The rank-th solution in increasing assignment order (0-based)
        for each rank, every rank in [0, count).

        The last word whose count before it is <= rank holds the solution
        (a zero word never is that word: the next one has the same count).
        Three halvings (32, 16, 8 bits) narrow it to one byte, stepping past
        the low half when the rank lies above it (the bits beyond the
        current half are never counted: each later mask is narrower), and
        _SELECT8 gives the position of the remaining rank's bit in that
        byte.
        """
        words, cumulative, bases, shift = self._select_index
        in_row = (1 << shift) - 1
        bisect_right = bisect.bisect_right
        out = []
        for rank in ranks:
            j = bisect_right(cumulative, rank) - 1
            remaining = rank - cumulative[j]
            word = words[j]
            pos = bases[j >> shift] + ((j & in_row) << 6)
            low = (word & 0xFFFFFFFF).bit_count()
            if remaining >= low:
                remaining -= low
                word >>= 32
                pos += 32
            low = (word & 0xFFFF).bit_count()
            if remaining >= low:
                remaining -= low
                word >>= 16
                pos += 16
            low = (word & 0xFF).bit_count()
            if remaining >= low:
                remaining -= low
                word >>= 8
                pos += 8
            out.append(pos + _SELECT8[remaining << 8 | word & 0xFF])
        return out

    def select(self, rank: int) -> int:
        """The rank-th solution in increasing assignment order (0-based)."""
        if not 0 <= rank < self.count:
            raise IndexError("rank out of range")
        return self._select_ranks((rank,))[0]

    def sample(self, rng: SeededRng, T: int) -> list:
        """T uniform solutions in draw order: the solutions of the ranks
        rng.randbelows(count, T), so T draws and then T' more give the same
        list as T + T' draws from the same stream.  A negative T raises
        ValueError, as does T > 0 on an empty space."""
        if T < 0:
            raise ValueError("T must be >= 0, got %d" % T)
        return self._select_ranks(rng.randbelows(self.count, T))

    def iter_solutions(self):
        words, _, bases, shift = self._select_index
        in_row = (1 << shift) - 1
        for j, word in enumerate(words):
            base = bases[j >> shift] + ((j & in_row) << 6)
            while word:
                low_bit = word & -word
                yield base + low_bit.bit_length() - 1
                word ^= low_bit


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
    return space.sample(rng, T)


def marginals(formula, limit=None):
    """Pr[X(v) = True] for every variable, as exact fractions: the
    all-True counts of the single variables."""
    space = _space(formula, limit, _UNSAT)
    ones = _all_true_counts(space.n, space._rows, range(space.n), 1)
    return [Fraction(ones.get(1 << v, 0), space.count) for v in range(space.n)]


def conditional_prob(formula, condition, event, limit=None) -> Fraction:
    """Exact Pr[X agrees with event | X agrees with condition] under the
    uniform solution distribution; 0 when the two give a variable
    different values.  A variable outside [0, n) raises ValueError."""
    space = _space(formula, limit, _UNSAT)
    _check_range(space.n, condition)
    cmask, cbits = _pack(condition)
    given = space._count(cmask, cbits)
    if given == 0:
        raise InfeasiblePinningError("conditioning event has zero mass")
    _check_range(space.n, event)
    emask, ebits = _pack(event)
    if (cbits ^ ebits) & cmask & emask:
        return Fraction(0)
    return Fraction(space._count(cmask | emask, cbits | ebits), given)


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
    inter = sum((x & y).bit_count() for x, y in zip(sa._rows, sb._rows))
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
    return _space(a, limit)._rows == _space(b, limit)._rows


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
    extra = tuple(a for a in su.iter_solutions() if a not in sr)
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
        extra=extra,
        extra_is_alternating=extra == (expected,),
    )
