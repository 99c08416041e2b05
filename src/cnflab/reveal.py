"""Conditional revealing process over a solution, and its predicates.

Given a solution tau, a target variable, and a pinned prefix, `reveal`
deterministically grows a pinned set S by repeatedly exposing tau's value
at the smallest-index alive variable touching the extended component of the
triggering clause c0.  Because the run reads tau only at variables it has
already pinned, the map tau -> (S, tau_S) has the Gibbs property: the runs
returning a given pinning are exactly the solutions agreeing with it.

All classification notions (frozen, blocked, alive, associated component)
take an explicit zeta and the bad sets produced by the structure module.
Tautological clauses are always satisfied and are ignored throughout.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Clause, CnfFormula, CnfError, InfeasiblePinningError, _grow, _pack
from .rand import SeededRng
from .solutions import _UNSAT, _space
from .structure import identify_bad, modified_bad_sets


@dataclass(frozen=True)
class RevealParams:
    alpha: float
    p_hd: float
    eps_bd: float
    zeta: float
    k: int | None = None  # defaults to the formula's largest clause size
    cstar: Clause | None = None  # candidate-clause context for the bad sets


def _resolve_k(formula, k):
    return formula.params.k_max if k is None else k


class _RevealState:
    """The clause bookkeeping of a revealing run under a pinning, packed
    by `_pack` into `pinned` and `values`.

    Whether a clause is satisfied and how many unpinned good variables it
    has are read off its masks when asked.  Kept: `frozen`, the bitmask of
    the frozen clauses (good, unsatisfied, with at most zeta*k unpinned
    good variables; the one place the threshold is applied), and
    `frozen_vars`, the OR of their variable masks.  `pin` takes an alive
    variable, which lies in no frozen clause, and tests only its clauses;
    so a frozen clause is never pinned again and stays frozen, and a
    variable is alive iff its bit is clear in pinned | bad_vars |
    frozen_vars.

    The first `step` grows the associated component from c0 by
    `core._grow` and keeps it as `component`, with its extension `ext` (the
    walk's seen set: every clause sharing an unpinned variable with a
    component clause) and `ext_vars`, the OR of the extension's variable
    masks.  Later steps extend them instead of walking them again.  That
    is sound because the variable a step pins is alive, so it lies in no
    component clause: not in a bad one (bad clauses hold only bad
    variables), not in a frozen one, and not in a blocked one (it is an
    unpinned good variable outside every frozen clause).  Pinning it
    therefore keeps every component clause bad, frozen or blocked and every
    linking variable unpinned: along one run the component and its
    extension only grow, and the alive set only shrinks, so the next
    variable is the lowest alive bit of `ext_vars`.
    """

    def __init__(self, formula, pinning, bad, zeta, k):
        self.clauses = formula.clauses
        self.masks = formula._clause_masks
        self.by_var = formula.by_var
        self.bad = bad
        self.bad_vars = sum(1 << v for v in bad.v_bad)
        self.limit = zeta * _resolve_k(formula, k)
        self.pinned, self.values = _pack(pinning)
        self.frozen = self.frozen_vars = 0
        for i in range(len(self.masks)):
            self._freeze_if_due(i)
        self.component = set()  # empty until the first step
        self.ext = set()
        self.ext_vars = 0

    def copy(self):
        other = copy.copy(self)
        other.component = set(self.component)
        other.ext = set(self.ext)
        return other

    def satisfied(self, i):
        m, f = self.masks[i]
        return f > m or bool(m & self.pinned & (self.values ^ f))

    def unpinned_good(self, i):
        return (self.masks[i][0] & ~(self.pinned | self.bad_vars)).bit_count()

    def _freeze_if_due(self, i):
        if (i not in self.bad.c_bad and not self.satisfied(i)
                and self.unpinned_good(i) <= self.limit):
            self.frozen |= 1 << i
            self.frozen_vars |= self.masks[i][0]

    def pin(self, v, value):
        self.pinned |= 1 << v
        if value:
            self.values |= 1 << v
        for i in self.by_var.get(v, ()):
            self._freeze_if_due(i)

    def dead(self):
        """The mask of the variables that are not alive: pinned, bad or in
        a frozen clause.  Alive asks that every good unsatisfied clause
        holding v keep more than zeta*k - 1 other unpinned good variables;
        v is one of its unpinned good ones, so that is "more than zeta*k",
        i.e. the clause is not frozen."""
        return self.pinned | self.bad_vars | self.frozen_vars

    def blocked(self, i):
        """Good, unsatisfied, above the frozen threshold, and every unpinned
        good variable lies in some frozen clause, i.e. no variable of it is
        alive; tested on demand."""
        return not (
            self.satisfied(i) or self.frozen >> i & 1 or i in self.bad.c_bad
            or self.masks[i][0] & ~self.dead()
        )

    def _joins(self, i):
        """Clause i joins the extension, and the component iff it is bad,
        frozen or blocked: `_grow`'s test for a clause new to the
        extension, and `step`'s re-test of one already in it (whose
        variables `ext_vars` already holds)."""
        self.ext_vars |= self.masks[i][0]
        return i in self.bad.c_bad or self.frozen >> i & 1 or self.blocked(i)

    def step(self, c0):
        """The smallest alive variable of c0's extended component (None
        when there is none), with `component` and `ext` grown to match.

        The first call grows the component from {c0}; a later one, after
        pins of the variables earlier calls returned, re-examines only the
        extension clauses outside the component and grows from those that
        have become frozen or blocked.  Only a clause new to the extension
        is tested by the walk: the others were tested under this same
        state, just before it.
        """
        if self.component:
            due = [i for i in self.ext
                   if i not in self.component and self._joins(i)]
        else:
            due = [c0]
            self.ext.add(c0)
            self.ext_vars |= self.masks[c0][0]
        self.component.update(due)
        _grow(self.clauses, self.by_var, self.pinned, due, self.ext, self._joins,
              self.component)
        alive = self.ext_vars & ~self.dead()
        return (alive & -alive).bit_length() - 1 if alive else None


EARLY_SPARSE = "sparse-alpha"
EARLY_NO_CLAUSE = "no-unsatisfied-clause"


@dataclass(frozen=True)
class RevealResult:
    S: tuple
    tau_S: dict
    c0: int | None
    trace: tuple
    early_reason: str | None = None


class _Root:
    """What every revealing run of one (formula, target, prefix, params)
    fixes before it reads tau: k, the early-return reason or None, c0, the
    state at the prefix under the run's bad sets after its first step
    (None on an early return) and the per-step check's floor.  Also the
    runs' one decision tree, which `reveal` and the estimator both walk,
    with the first per-step check failure on the path to each inner node
    that has one; an early root's tree is one leaf, the prefix alone,
    under key 0.  The state is only ever copied.  The target is taken as
    valid: `_root` checks it."""

    def __init__(self, formula, target, prefix, params):
        self.n = formula.n
        self.k = k = _resolve_k(formula, params.k)
        self.floor_needed = params.zeta * k - 1
        self.c0 = self.state = None
        self.tree = {0: (tuple(sorted(prefix)), (), None)}  # an early return's leaf
        self.step_errors = {}  # inner node key -> its path's first step failure
        if k == 0 or params.alpha < 1 / k**3:
            self.early = EARLY_SPARSE
            return
        masks = formula._clause_masks
        pinned, values = _pack(prefix)
        self.c0 = c0 = next((
            i for i in formula.by_var.get(target, ())
            if not masks[i][0] & pinned & (values ^ masks[i][1])
        ), None)
        if c0 is None:
            self.early = EARLY_NO_CLAUSE
            return
        self.early = None
        self.tree = {}
        base = identify_bad(formula, params.p_hd, params.eps_bd, params.alpha, k=k)
        bad = modified_bad_sets(formula, params.cstar, prefix, c0, base, k=k)
        self.state = _RevealState(formula, prefix, bad, params.zeta, k)
        self.state.step(c0)


def _root(formula, target, prefix, params):
    """The formula's memoised `_Root` for (target, prefix, params).

    The key holds the prefix packed by `_pack`, so one pinning given in
    any insertion order, with values read through bool ({v: 1} and
    {v: True}), shares a root; and the types of the parameters' fields:
    equal numbers of different types (0.7 and Fraction(0.7)) can round
    differently in the thresholds.  The prefix's variables are taken as
    in range: both callers check them first.  Nothing invalid is stored,
    so the checks here and the callers' own run on every call."""
    if target in prefix:
        raise ValueError("the target variable is already pinned")
    if not 0 <= target < formula.n:
        raise ValueError("target variable out of range")
    key = (target, *_pack(prefix), params,
           tuple(map(type, vars(params).values())))
    roots = formula._reveal_roots
    root = roots.get(key)
    if root is None:
        root = roots[key] = _Root(formula, target, prefix, params)
    return root


def _check_step(state, v, floor_needed):
    """The failure message if pinning v left one of its good unsatisfied
    clauses at or below the frozen threshold, else None."""
    for i in state.by_var[v]:
        if i in state.bad.c_bad or state.satisfied(i):
            continue
        if not state.unpinned_good(i) > floor_needed:
            return "revealing %d froze clause %d below the threshold" % (v, i)
    return None


def _check_end(state):
    """The failure message if a clause adjacent to the finished run's
    component is unsatisfied and shares an unpinned variable with it,
    else None."""
    unpinned = 0
    for j in state.component:
        unpinned |= state.masks[j][0]
    unpinned &= ~state.pinned
    for i, (m, _) in enumerate(state.masks):
        if m & unpinned and i not in state.component and not state.satisfied(i):
            return ("clause %d stays unpinned-adjacent to the component "
                    "and unsatisfied" % i)
    return None


def _walk(root, tau):
    """(S, trace, error) of the run on tau from `root`, read off the
    root's tree.

    A run reads tau only at the variables it pins, so the runs from one
    root form a decision tree.  A node is keyed by one int,
    `read << n | tau & read`, where `read` is the mask of the variables
    the path has pinned so far (0 at the root): the bits read determine
    the path, so no two nodes share a key.  The tree maps it to the
    variable pinned next, or, where a run ended, to its leaf (S, trace,
    error): S the pinned variables ascending, error the message of the
    first check of `reveal`'s check_invariants the path fails, or None.
    A path no run took before is expanded once, its nodes written as it
    goes: its known pins are replayed on a copy of the root's state, one
    step catches the component up (a pinned variable is alive, so the
    component only grows along a run), and the run steps on to its end.
    A path's checks depend on the path alone, so its leaf holds them
    whoever expanded it.  Each pin is checked once, by the expansion that
    writes the node it leads to: the root's `step_errors` keeps, for each
    inner node whose path fails a per-step check, the first such failure,
    so a replay checks only the one pin it adds, and the end is checked
    at the leaf.
    """
    tree, n, step_errors = root.tree, root.n, root.step_errors
    path, read, key = [], 0, 0
    node = tree.get(0)
    while isinstance(node, int):
        parent = key
        path.append(node)
        read |= 1 << node
        key = read << n | tau & read
        node = tree.get(key)
    if node is not None:
        return node
    state, error = root.state.copy(), None
    for v in path:
        state.pin(v, tau >> v & 1)
    if path:
        error = (step_errors.get(parent)
                 or _check_step(state, path[-1], root.floor_needed))
    v = state.step(root.c0)
    while v is not None:
        tree[key] = v
        if error:
            step_errors[key] = error
        state.pin(v, tau >> v & 1)
        error = error or _check_step(state, v, root.floor_needed)
        path.append(v)
        read |= 1 << v
        key = read << n | tau & read
        v = state.step(root.c0)
    error = error or _check_end(state)
    S = tuple(v for v in range(n) if state.pinned >> v & 1)
    tree[key] = node = (S, tuple(path), error)
    return node


def _result(root, prefix, tau, check):
    """The RevealResult of the run on tau from `root`; tau_S is the
    caller's own prefix, then tau's bits at the revealed variables in the
    order they were pinned.  With check, a path that fails a check raises
    its leaf's error."""
    S, trace, error = _walk(root, tau)
    if check and error is not None:
        raise CnfError(error)
    tau_S = dict(prefix)
    for v in trace:
        tau_S[v] = bool((tau >> v) & 1)
    return RevealResult(S=S, tau_S=tau_S, c0=root.c0, trace=trace,
                        early_reason=root.early)


def reveal(formula: CnfFormula, tau, target, prefix, params: RevealParams,
           check_invariants=False) -> RevealResult:
    """Run the revealing process on solution tau.

    Early returns (just the prefix) when the density alpha is below 1/k^3 or
    no clause containing the target survives the prefix unsatisfied.
    Otherwise the smallest-index such clause becomes c0, the bad sets are
    augmented with the prefix, c0, and any heavy cstar-intersecting clauses,
    and the loop reveals tau at the smallest-index alive variable inside
    c0's extended component until none remains.

    check_invariants additionally asserts, at every step, that revealing the
    chosen variable left each of its good unsatisfied clauses above the
    frozen threshold, and at termination that every clause adjacent to the
    associated component is satisfied or shares no unpinned variable with
    it.  Violations raise CnfError.

    The formula object keeps what a run fixes before it reads tau, once per
    (target, prefix, params), and one decision tree of the paths earlier
    calls and estimates took, each leaf holding its path's check outcome:
    a call walks it with tau's bits and runs steps only past its end, and
    check_invariants only decides whether a failed check raises.  Inputs
    are checked on every call.
    """
    if not 0 <= tau < 1 << formula.n:
        raise ValueError("tau %d out of range [0, 2^%d)" % (tau, formula.n))
    if not formula.satisfied_by(tau):
        raise ValueError("tau must be a satisfying assignment")
    for v, value in prefix.items():
        if not 0 <= v < formula.n:
            raise ValueError(
                "prefix variable %d out of range [0, %d)" % (v, formula.n)
            )
        if bool((tau >> v) & 1) != bool(value):
            raise ValueError("tau disagrees with the prefix at variable %d" % v)
    root = _root(formula, target, prefix, params)
    return _result(root, prefix, tau, bool(check_invariants))


@dataclass(frozen=True)
class NiceReport:
    nice: bool
    diagnosis: str
    component_size: int
    exceptional: int | None


def is_nice(formula: CnfFormula, result: RevealResult, target, prefix, zeta,
            k=None, target_value=None) -> NiceReport:
    """Decide whether a revealing result leaves the target in a small,
    well-shaped residual component.

    Nice iff (after simplifying by tau_S) the target is isolated, or its
    component C' satisfies: at most one clause of C' has fewer than
    zeta*k - 1 remaining variables; if that exceptional clause is exactly
    {target} it must be satisfied by target_value (unknown value fails);
    and |C'| <= log2 n.  The diagnosis names the first failed condition.
    `exceptional` is that clause's index among the clauses tau_S leaves
    unsatisfied, i.e. in the simplified formula.

    The formula object keeps the component search's verdict once per
    (target, zeta, k, target_value, tau_S), the types of target, zeta and
    k included and the values read through bool, so a call on a pinning
    decided before costs its checks and one dict lookup.  The early
    verdicts and the range checks run on every call, and a call that
    raises stores nothing.
    """
    if target in result.S:
        return NiceReport(False, "target-pinned", 0, None)
    tau_S = result.tau_S
    for v, value in prefix.items():
        if v not in tau_S or bool(tau_S[v]) != bool(value):
            return NiceReport(False, "prefix-mismatch", 0, None)
    if not 0 <= target < formula.n:
        raise ValueError("target variable out of range")
    for v in tau_S:
        if not 0 <= v < formula.n:
            raise ValueError("pinned variable %d out of range" % v)
    pinned, values = _pack(tau_S)
    k = _resolve_k(formula, k)
    if target_value is not None:
        target_value = bool(target_value)
    key = (target, type(target), zeta, type(zeta), k, type(k), target_value,
           pinned, values)
    verdicts = formula._nice_verdicts
    report = verdicts.get(key)
    if report is None:
        report = verdicts[key] = _verdict(
            formula, target, pinned, values, zeta, k, target_value)
    return report


def _verdict(formula, target, pinned, values, zeta, k, target_value):
    """`is_nice`'s component search under tau_S packed by `_pack`: the
    residual component grows by `core._grow` from the target's first
    unsatisfied clause through unpinned variables, every unsatisfied
    clause it reaches joining."""
    clauses, masks, by_var = formula.clauses, formula._clause_masks, formula.by_var

    def unsatisfied(i):
        m, f = masks[i]
        return not m & pinned & (values ^ f) and f <= m

    holding = () if pinned >> target & 1 else by_var.get(target, ())
    start = next(filter(unsatisfied, holding), None)
    if start is None:
        return NiceReport(True, "isolated", 0, None)
    component = {start}
    _grow(clauses, by_var, pinned, [start], {start}, unsatisfied, component)
    small = sorted(
        i for i in component if (masks[i][0] & ~pinned).bit_count() < zeta * k - 1
    )
    if len(small) > 1:
        return NiceReport(False, "small-clauses", len(component), None)
    exceptional = None
    if small:
        i = small[0]
        m, f = masks[i]
        exceptional = sum(map(unsatisfied, range(i)))
        if m & ~pinned == 1 << target:
            if target_value is None or target_value == bool(f >> target & 1):
                return NiceReport(False, "exceptional", len(component), exceptional)
    if not len(component) <= math.log2(formula.n):
        return NiceReport(False, "size", len(component), exceptional)
    return NiceReport(True, "component", len(component), exceptional)


@dataclass(frozen=True)
class NiceEstimate:
    fraction: Fraction
    successes: int
    trials: int
    wilson_low: float
    wilson_high: float
    diagnosis_counts: dict
    traces: tuple = ()  # (tau, RevealResult, NiceReport) of the first trials


def estimate_nice_probability(formula: CnfFormula, target, prefix, trials,
                              seed, params: RevealParams, target_value=None,
                              limit=None, traces=0) -> NiceEstimate:
    """Empirical probability that revealing a solution drawn from the
    prefix-conditioned uniform distribution produces a nice result, with a
    Wilson 95% interval.

    Each trial is `reveal` without checks followed by `is_nice`, on the
    same formula memos: it walks the decision tree of the formula's root
    for (target, prefix, params), so a path any earlier run took is not
    expanded again, and its verdict comes from `is_nice`'s memo.  Only the
    draws are per call: all the trials' solutions come from one
    `Space.sample` of the restricted space.

    The first `traces` trials measured (all of them if there are fewer) are
    kept on the result as (tau, RevealResult, NiceReport) tuples.  A trials
    count that is not an int >= 1 (a bool is not) is a ValueError before
    any draw.
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError("trials must be >= 1 and an int, got %r" % (trials,))
    space = _space(formula, limit, _UNSAT).restrict(prefix)
    if space.count == 0:
        raise InfeasiblePinningError("no solution agrees with the prefix")
    root = _root(formula, target, prefix, params)
    successes = 0
    diagnosis_counts = {}
    kept = []
    for i, tau in enumerate(space.sample(SeededRng(seed), trials)):
        result = _result(root, prefix, tau, False)
        report = is_nice(formula, result, target, prefix, params.zeta, params.k,
                         target_value)
        if i < traces:
            kept.append((tau, result, report))
        if report.nice:
            successes += 1
        diagnosis_counts[report.diagnosis] = (
            diagnosis_counts.get(report.diagnosis, 0) + 1
        )
    low, high = wilson_interval(successes, trials)
    return NiceEstimate(
        fraction=Fraction(successes, trials),
        successes=successes,
        trials=trials,
        wilson_low=low,
        wilson_high=high,
        diagnosis_counts=diagnosis_counts,
        traces=tuple(kept),
    )


_Z95 = 1.96  # the standard normal quantile of a two-sided 95% interval


def wilson_interval(successes, trials):
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z, phat = _Z95, successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)
