"""Clause-elimination learner and sample-complexity experiments.

The learner starts from every size-k clause over distinct variables and
removes each clause some sample violates; what survives is the output
formula.

Samples are transposed into n columns by _columns, a 64x64 bit-matrix
transpose of each block of 64 samples in six whole-int delta swaps, and
two bit-parallel scans read every k-subset's patterns off them in colex
order, with no Python step per sample (the truth's exact counts, which
give the sweep its support, come from Space.pattern_counts, one array per
pattern):

- _split_tree, the learner's: a depth-first tree in which each node splits
  its parent's sample sets by one more column, each shared prefix split
  once, about C(n,k) * 2^k ANDs of T-bit ints; a leaf holds the samples
  showing one pattern on one subset.
- _first_completion, the sweep's completion check: a trial's draws come in
  chunks of _CHUNK = 63 samples, each scanned once.  Every k-subset is one
  guard-bit field of one int per subset position (a plane, joined from
  colex prefixes of the chunk's column words), so each of the 2^k patterns
  costs a few whole-int operations for all subsets at once.  Per pattern,
  a mask keeps the fields the truth supports and no sample has hit yet;
  each chunk clears its new hits, and the trial completes in the chunk
  that empties every mask, at the highest first-hit time among that
  chunk's new hits.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import math
import sys
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .core import Clause, CnfFormula, LearnerInvariantError
from .rand import SeededRng, derived_seed
from .solutions import (
    Space,
    _space,
    sample_uniform,
    tv_distance,
)


def _split_tree(n, k, columns, full):
    """(subset, leaves) for every k-subset of range(n), in colex order.

    columns[v] holds the items whose variable v is True; full holds every
    item.  leaves[b] holds the items whose values on subset form pattern b
    (bit i of b is the value of subset[i], the Clause.forbidden convention).
    The walk fixes the largest element first, each level in increasing
    order, and shares every prefix split among the subsets below it.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return iter([((), [full])])
    return _split_walk(columns, k - 1, n, (), [full])


def _split_walk(columns, i, top, suffix, parts):
    """The split tree below one node: subset[i] ranges below top, suffix is
    subset[i+1:], and parts are indexed by the values on suffix, highest
    position most significant.  (A module-level function, not a closure: a
    recursive closure is a reference cycle that would hold the columns until
    the cyclic garbage collector runs.)"""
    for v in range(i, top):
        column = columns[v]
        split = []
        for part in parts:
            one = part & column
            split.append(part ^ one)
            split.append(one)
        if i:
            yield from _split_walk(columns, i - 1, v, (v,) + suffix, split)
        else:
            yield (v,) + suffix, split


# The six delta swaps that transpose a 64x64 bit matrix held as one
# 4096-bit int, bit 64*r + c for row r and column c: the swap for j
# exchanges (r, c) with (r + j, c - j) for every r without bit j and c with
# it, a move of 63*j bits, and its mask, built from the bytes of the 64
# rows, selects the lower bit of each pair.
_WORD = (1 << 64) - 1
_SWAPS = [
    (63 * j, int.from_bytes(
        ((_WORD // ((1 << j) + 1) << j).to_bytes(8, "little") * j + bytes(8 * j))
        * (32 // j), "little"))
    for j in (32, 16, 8, 4, 2, 1)
]


def _columns(samples, n):
    """Samples in [0, 2^n) transposed: per variable v, a memoryview of
    64-bit words whose bytes, read little-endian on any platform, hold
    samples[t]'s value of v in bit t (8 bytes per 64 samples).

    The samples' values on each slice of 64 variables are packed as 64-bit
    words, and each block of 64 words is read as one int and transposed by
    the six delta swaps; word 64*b + v of the joined blocks is then block b
    of column v.
    """
    columns = []
    for low in range(0, n, 64):
        words = array("Q", samples if n <= 64 else [a >> low & _WORD for a in samples])
        if sys.byteorder == "big":
            words.byteswap()
        words = memoryview(words)
        blocks = []
        for start in range(0, len(words), 64):
            x = int.from_bytes(words[start : start + 64], "little")
            for shift, mask in _SWAPS:
                t = (x ^ x >> shift) & mask
                x ^= t ^ t << shift
            blocks.append(x.to_bytes(512, "little"))
        words = memoryview(b"".join(blocks)).cast("Q")
        columns += [words[v::64] for v in range(min(64, n - low))]
    return columns


def valiant_learn(n, k, samples) -> CnfFormula:
    """Eliminate every size-k clause some sample violates.

    Returns the formula of all surviving clauses, ordered by colex subset
    rank then ascending pattern: the 2^k * C(n,k) candidate clauses minus
    those whose forbidden pattern appears among the samples on the clause's
    variable set, i.e. whose split-tree leaf is nonempty.  With zero samples
    everything survives.  A sample outside [0, 2^n) raises ValueError.
    """
    samples = list(samples)
    if samples and not 0 <= min(samples) <= max(samples) < 1 << n:
        bad = next(a for a in samples if not 0 <= a < 1 << n)
        raise ValueError("sample %d out of range [0, 2^%d)" % (bad, n))
    columns = [int.from_bytes(column, "little") for column in _columns(samples, n)]
    tree = _split_tree(n, k, columns, (1 << len(samples)) - 1)
    return CnfFormula(n, tuple(
        Clause(subset, pattern)
        for subset, leaves in tree
        for pattern, leaf in enumerate(leaves)
        if not leaf
    ))


def predicted_sample_bound(theta, n, k, delta) -> int:
    """ceil((1/theta) * (k*ln(2n) - ln(delta))): the sample count at which
    the elimination learner's failure probability drops below delta for a
    theta-resilient truth formula."""
    theta = Fraction(theta)
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    value = (1 / float(theta)) * (k * math.log(2 * n) - math.log(delta))
    return math.ceil(value)


@dataclass(frozen=True)
class TrialRecord:
    family: str
    n: int
    k: int
    T: int
    seed: str
    success: bool
    learned_clause_count: int
    wall_time_s: float
    tv: Fraction | None = None


def _require_width(formula, k, what):
    """ValueError if a non-tautological clause of the truth is wider than k."""
    if any(c.size > k for c in formula.clauses if not c.tautology):
        raise ValueError("%s needs truth clause sizes <= k" % what)


def exact_learning_trial(truth, k, T, seed, family="", report_tv=False, limit=None) -> TrialRecord:
    """Sample T solutions of the truth formula, learn, and record whether
    the learned formula has exactly the truth's solution set.

    A truth clause wider than k is a ValueError before any sampling: the
    learner's k-clauses cannot express it.  Also checks the learner's two
    unconditional guarantees on every trial, raising LearnerInvariantError
    if one fails: the learned solution set contains every sample and never
    exceeds the truth's solution set (so equal counts mean equal sets).
    """
    start = time.monotonic()
    _require_width(truth, k, "exact learning")
    space = Space(truth, limit=limit)
    samples = sample_uniform(space, T, seed)
    learned = Space(valiant_learn(truth.n, k, samples), limit=limit)
    if not learned.issubset(space):
        raise LearnerInvariantError("learned solutions escaped the truth set")
    if not all(a in learned for a in samples):
        raise LearnerInvariantError("a sample violates a learned clause")
    tv = tv_distance(space, learned) if report_tv and learned.count else None
    return TrialRecord(
        family=family,
        n=truth.n,
        k=k,
        T=T,
        seed=str(seed),
        success=learned.count == space.count,
        learned_clause_count=len(learned.formula.clauses),
        wall_time_s=time.monotonic() - start,
        tv=tv,
    )


@dataclass(frozen=True)
class SweepRow:
    family: str
    n: int
    k: int
    T: int
    trials: int
    successes: int
    t_star_flag: bool
    seed_base: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    delta: float
    trials: int
    seed_base: str
    t_star: dict  # (family, n) -> grid T or None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        names = [field.name for field in dataclasses.fields(SweepRow)]
        writer.writerow(names)
        for row in self.rows:
            values = (getattr(row, name) for name in names)
            writer.writerow([int(v) if isinstance(v, bool) else v for v in values])
        return buf.getvalue()


# Samples per chunk of a sweep trial's draws; each chunk is scanned once,
# and each of its columns is one 64-bit word below the fields' guard bit.
_CHUNK = 63


def _support_masks(pattern_counts):
    """Per pattern b, the guard bits of the scan's fields (one per k-subset,
    in colex order) on whose subset the truth supports b: the fields a
    sample has yet to hit with b.  pattern_counts is the truth's
    Space.pattern_counts(k): per pattern, one count per k-subset in colex
    order."""
    width = _CHUNK // 8 + 1  # bytes per field
    guard = bytes([0, 1 << _CHUNK % 8]) + bytes(254)  # a bool -> its guard byte
    masks = []
    for counts in pattern_counts:
        fields = bytearray(width * len(counts))
        fields[_CHUNK // 8 :: width] = bytes(map(bool, counts)).translate(guard)
        masks.append(int.from_bytes(fields, "little"))
    return masks


@functools.lru_cache(maxsize=32)
def _colex_runs(n, k):
    """Per j = 1..k, (m, C(m, j-1)) for m = j-1..n-1: the largest element
    of each run of j-subsets of range(n) in colex order, and the run's
    length."""
    return tuple(tuple((m, math.comb(m, j - 1)) for m in range(j - 1, n))
                 for j in range(1, k + 1))


def _planes(k, raw, width):
    """For each subset position i, the fields of every k-subset of
    range(len(raw)) in colex order as one int, field j holding
    raw[subset_j[i]] (width bytes each).

    The j-subsets of range(n) whose largest element is m are the
    (j-1)-subsets of range(m), a colex prefix of those of range(n), each
    followed by m; so the planes of the j-subsets join prefixes of the
    planes of the (j-1)-subsets, plus raw[m] repeated for the new top
    position, O(k * n) joins and no per-subset step.
    """
    planes = []
    for runs in _colex_runs(len(raw), k):
        planes = [
            b"".join([plane[: c * width] for _, c in runs]) for plane in planes
        ] + [b"".join([raw[m] * c for m, c in runs])]
    return [int.from_bytes(plane, "little") for plane in planes]


def _first_completion(n, k, unhit, chunks):
    """1-based sample count at which every (k-subset, pattern) pair the
    truth supports has been hit, or None if the chunks run out first.

    unhit is _support_masks' list; chunks yields the samples in draw order,
    _CHUNK at a time (the last maybe fewer), and is read only until the
    answer is known.  Each k-subset is one field of W = _CHUNK // 8 + 1
    bytes whose bit _CHUNK is its guard bit, and plane i holds in field j
    the chunk's column of the i-th variable of the j-th subset.  Splitting
    the chunk's samples in every field by the planes, last position first,
    gives leaf b of pattern b (bit i the value of subset[i]).  With ones the
    lowest bit of every field and guard the guard bits, a leaf has no guard
    bit, so y = leaf + (guard - ones) carries into the guard of every
    nonempty field and out of none: y & guard keeps the guard of every
    nonempty field, and leaf & ~y is the lowest set bit of every field, its
    pattern's first hit in the chunk.  The newly hit fields leave unhit;
    the chunk that empties it holds the completion time, the highest first
    hit among its new hits.
    """
    if not any(unhit):
        return 0  # an empty truth supports nothing
    unhit = list(unhit)
    fields = math.comb(n, k)
    width = _CHUNK // 8 + 1
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * fields, "little")
    gap = (ones << _CHUNK) - ones  # the bits below every guard
    drawn = 0
    for samples in chunks:
        # each column as one field of width bytes (its one word as it is
        # at _CHUNK = 63)
        raw = [column.tobytes()[:width].ljust(width, b"\0")
               for column in _columns(samples, n)]
        # a short last chunk starts from the samples it has, not from every
        # bit below the guard
        leaves = [ones * ((1 << len(samples)) - 1)]
        for plane in reversed(_planes(k, raw, width)):
            split = []
            for node in leaves:
                one = node & plane
                split += (node ^ one, one)
            leaves = split
        hits = []
        for b, leaf in enumerate(leaves):
            if unhit[b]:
                y = leaf + gap
                new = y & unhit[b]
                if new:
                    unhit[b] ^= new
                    hits.append((leaf, y, new))
        if not any(unhit):
            # leaf & ~y, kept to the sample bits new - (new >> _CHUNK) of
            # the newly hit fields
            first = 0
            for leaf, y, new in hits:
                first |= (leaf ^ (leaf & y)) & (new - (new >> _CHUNK))
            # OR the upper half of the fields onto the lower half until one
            # is left
            while fields > 1:
                fields = (fields + 1) // 2
                low = fields * width * 8
                first = (first >> low) | (first & ((1 << low) - 1))
            return drawn + first.bit_length()
        drawn += len(samples)
    return None


def _completion_time(space, k, unhit, t_max, seed):
    """The first completion time of the draws sample_uniform(space, t_max,
    seed) would produce, drawn _CHUNK at a time and only until it is
    known."""
    rng = SeededRng(seed)
    chunks = (
        space.sample(rng, min(_CHUNK, t_max - start))
        for start in range(0, t_max, _CHUNK)
    )
    return _first_completion(space.n, k, unhit, chunks)


def sample_complexity_sweep(instances, k, t_grid, trials=200, delta=0.1,
                            seed_base="sweep", limit=None) -> SweepResult:
    """Success fraction of the elimination learner per (instance, grid T).

    instances: list of (family_label, CnfFormula), no two with the same
    label and n: T* and the CSV rows are keyed by (label, n), so a repeat is
    a ValueError before any trial runs.  Each trial t of an instance uses
    seed derived_seed(seed_base, t) and shares its sample prefix across all
    grid points, so per-seed success is monotone in T.
    T*(n) is the least grid T whose success fraction reaches 1 - delta
    (None if the grid never gets there).

    Success is computed by the support-mask criterion: a trial succeeds at
    T iff by sample T every k-subset of variables has shown every pattern
    that has nonzero probability under the truth.  For truth formulas whose
    clauses all have size <= k this is exactly equivalent(truth, learned):
    a missing supported pattern leaves a clause that cuts a true solution,
    and once none is missing, every surviving clause only cuts assignments
    of zero probability.  Formulas with larger clauses are rejected, and so
    are a grid entry that is not an int >= 0 (a bool is not), a trials
    count that is not an int >= 1 and a delta outside (0, 1).
    """
    grid = list(t_grid)
    if not grid or any(
        isinstance(T, bool) or not isinstance(T, int) or T < 0 for T in grid
    ):
        raise ValueError("t_grid must be a nonempty list of ints >= 0")
    grid = sorted(set(grid))
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError("trials must be >= 1 and an int, got %r" % (trials,))
    instances = list(instances)
    keys = [(family, formula.n) for family, formula in instances]
    for key in keys:
        if keys.count(key) > 1:
            raise ValueError("sweep instances repeat label %r at n=%d" % key)
    rows = []
    t_star = {}
    for family, formula in instances:
        _require_width(formula, k, "support-mask sweep")
        space = _space(formula, limit, "sweep instance %r is unsatisfiable" % (family,))
        unhit = _support_masks(space.pattern_counts(k))
        times = [
            _completion_time(space, k, unhit, grid[-1], derived_seed(seed_base, t))
            for t in range(trials)
        ]
        star = None
        for T in grid:
            successes = sum(1 for tc in times if tc is not None and tc <= T)
            is_star = star is None and successes >= (1 - delta) * trials
            if is_star:
                star = T
            rows.append(
                SweepRow(family, formula.n, k, T, trials, successes,
                         is_star, seed_base)
            )
        t_star[(family, formula.n)] = star
    return SweepResult(tuple(rows), delta, trials, seed_base, t_star)
