"""Clause-elimination learner and sample-complexity experiments.

The learner starts from every size-k clause over distinct variables and
removes each clause some sample violates; what survives is the output
formula.

Samples are transposed into n column ints, and two bit-parallel scans read
every k-subset's patterns off them in colex order, with no Python step per
sample (exact counts over a solution space are Space.pattern_counts):

- _split_tree, the learner's: a depth-first tree in which each node splits
  its parent's sample sets by one more column, each shared prefix split
  once, about C(n,k) * 2^k ANDs of T-bit ints; a leaf holds the samples
  showing one pattern on one subset.
- _first_hit_scan, the sweep's completion check: every k-subset is one
  guard-bit field of one int per subset position, so each of the 2^k
  patterns costs a few whole-int operations for all subsets at once.  Over
  samples in draw order, a leaf's lowest set bit is its pattern's
  first-hit time, and a sweep trial completes at the largest first-hit time
  over the patterns the truth supports.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .core import Clause, CnfFormula, LearnerInvariantError
from .rand import SeededRng, derived_seed
from .solutions import (
    Space,
    _space,
    iter_ksubsets_colex,
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


def _columns(samples, n):
    """Samples in [0, 2^n) transposed: bit t of column v is samples[t]'s value of v."""
    width = "0%db" % n
    # the samples' binary strings, last sample first and highest variable
    # first, so every n-th character from offset n-1-v reads column v
    rows = "".join([format(a, width) for a in reversed(samples)])
    return [int(rows[n - 1 - v :: n] or "0", 2) for v in range(n)]


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
    tree = _split_tree(n, k, _columns(samples, n), (1 << len(samples)) - 1)
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
        writer.writerow(
            ["family", "n", "k", "T", "trials", "successes", "t_star_flag", "seed_base"]
        )
        for row in self.rows:
            writer.writerow(
                [
                    row.family,
                    row.n,
                    row.k,
                    row.T,
                    row.trials,
                    row.successes,
                    int(row.t_star_flag),
                    row.seed_base,
                ]
            )
        return buf.getvalue()


# Samples drawn before a sweep trial's first completion check; each later
# check doubles the number drawn, up to the grid's largest T.
_FIRST_CHUNK = 64


def _completion_time(space, k, supported, t_max, seed):
    """First sample count at which every truth-supported (subset, pattern)
    has been hit, or None within t_max.

    supported counts the (k-subset, pattern) pairs of nonzero truth
    probability.  Draws the exact sequence sample_uniform would produce, in
    chunks that double in size, and reads the first-hit times off all draws
    so far after each chunk.  Draws past completion change no first hit, so
    the result is exact.
    """
    rng = SeededRng(seed)
    samples = []
    while True:
        want = min(t_max, max(_FIRST_CHUNK, 2 * len(samples)))
        samples += [
            space.select(rng.randbelow(space.count))
            for _ in range(want - len(samples))
        ]
        done = _first_hit_scan(space.n, k, samples, supported)
        if done is not None or len(samples) >= t_max:
            return done


@functools.cache
def _colex_positions(n, k):
    """The packed scan's field layout: for each subset position i, the
    variable at position i of every k-subset in colex order; and the number
    of k-subsets.  Cached for the process: a sweep checks the same (n, k)
    after every chunk of every trial."""
    subsets = list(iter_ksubsets_colex(n, k))
    return tuple(tuple(s[i] for s in subsets) for i in range(k)), len(subsets)


def _first_hit_scan(n, k, samples, supported):
    """Largest 1-based first-hit time over the (k-subset, pattern) pairs the
    samples hit, or None while fewer than `supported` pairs are hit.

    Samples only ever hit supported pairs, so all of them are hit iff the
    hit pairs number `supported`.  Each k-subset is one W-bit field, W =
    8 * ceil((T+1)/8) for T samples, and plane i holds in field j the
    column of the i-th variable of the j-th subset in colex order; bit T of
    a field is its guard bit.  Splitting every field's samples by the
    planes in turn gives 2^k leaves, one per pattern.  With ones the lowest
    bit of every field and guard the guard bits, y = (leaf | guard) - ones
    borrows no bit across fields: y & guard keeps the guard of every
    nonempty field, and leaf & ~y is the lowest set bit of every field,
    its pattern's first hit.
    """
    T = len(samples)
    width = T // 8 + 1  # bytes per field
    positions, fields = _colex_positions(n, k)
    raw = [column.to_bytes(width, "little") for column in _columns(samples, n)]
    planes = [
        int.from_bytes(b"".join([raw[v] for v in position]), "little")
        for position in positions
    ]
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * fields, "little")
    guard = ones << T
    hit, first = _leaf_walk(planes, 0, guard - ones, guard, ones)
    if hit < supported:
        return None
    # OR the upper half of the fields onto the lower half until one is left
    while fields > 1:
        fields = (fields + 1) // 2
        low = fields * width * 8
        first = (first >> low) | (first & ((1 << low) - 1))
    return first.bit_length()


def _leaf_walk(planes, i, node, guard, ones):
    """(nonempty fields, first-hit bits) summed and OR-ed over the leaves
    below node, which the planes from i on split depth first."""
    if i == len(planes):
        y = (node | guard) - ones
        return (y & guard).bit_count(), node & ~y
    one = node & planes[i]
    hit0, first0 = _leaf_walk(planes, i + 1, node ^ one, guard, ones)
    hit1, first1 = _leaf_walk(planes, i + 1, one, guard, ones)
    return hit0 + hit1, first0 | first1


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
    of zero probability.  Formulas with larger clauses are rejected.
    """
    grid = sorted(set(t_grid))
    if not grid or grid[0] < 0:
        raise ValueError("t_grid must be nonempty and nonnegative")
    if trials < 1:
        raise ValueError("trials must be >= 1, got %d" % trials)
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
        supported = sum(
            1 for _, counts in space.pattern_counts(k) for count in counts if count
        )
        times = [
            _completion_time(space, k, supported, grid[-1],
                             derived_seed(seed_base, t))
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
