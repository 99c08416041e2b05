"""Core CNF data model.

A clause is stored as its sorted variable tuple together with the single
assignment of those variables that falsifies it (the "forbidden pattern").
This dual view makes clause evaluation a couple of integer operations and is
the representation every other module builds on.

Assignments are packed into plain Python ints: bit ``v`` of the int is the
value of variable ``v``.  A formula over ``n`` variables therefore lives in
the assignment space ``range(2**n)``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

VERSION = "0.1.0"


class CnfError(Exception):
    """Base class for every domain error raised by this package."""


class ParseError(CnfError):
    pass


class EnumerationLimitError(CnfError):
    """Raised when an operation would enumerate more than the configured 2^n."""


class SolutionCapError(CnfError):
    """Raised when materializing a solution set would exceed the caller's cap."""


class UnsatisfiableError(CnfError):
    pass


class InfeasiblePinningError(CnfError):
    """A conditioning event has zero mass (no solution agrees with it)."""


class SamplingBudgetError(CnfError):
    """Rejection sampling exhausted its try budget without enough accepts."""


class LearnerInvariantError(CnfError):
    """A learned formula broke a guarantee the elimination learner always
    keeps: it rejects a sample, or admits an assignment the truth forbids."""


class KdsParams(NamedTuple):
    k_min: int
    k_max: int
    d_max: int
    s_max: int


@dataclass(frozen=True)
class Clause:
    """A disjunction over distinct variables.

    ``vars`` is strictly increasing.  ``forbidden`` packs the unique violating
    assignment: bit ``i`` is the value of ``vars[i]``.  A positive literal on
    ``v`` therefore contributes a 0 bit (the clause is falsified when ``v`` is
    False) and a negative literal a 1 bit.

    A tautological clause (built from complementary literals) keeps its
    variable set but has no forbidden pattern; all checks must branch on the
    flag, and ``forbidden`` is normalized to 0.
    """

    vars: tuple
    forbidden: int
    tautology: bool = False

    def __post_init__(self):
        if not isinstance(self.vars, tuple):
            object.__setattr__(self, "vars", tuple(self.vars))
        if any(self.vars[i] >= self.vars[i + 1] for i in range(len(self.vars) - 1)):
            raise ValueError("clause variables must be strictly increasing")
        if any(v < 0 for v in self.vars):
            raise ValueError("negative variable index")
        if self.tautology:
            if self.forbidden != 0:
                raise ValueError("tautological clause has no forbidden pattern")
        elif not 0 <= self.forbidden < (1 << len(self.vars)):
            raise ValueError("forbidden pattern out of range")

    @classmethod
    def from_literals(cls, literals):
        """Build a canonical clause from (variable, negated) pairs.

        Duplicate literals collapse; a variable occurring with both polarities
        makes the clause tautological.
        """
        values = {}
        taut = False
        for var, negated in literals:
            forbidden = bool(negated)  # the forbidden pattern falsifies every literal
            if var in values and values[var] != forbidden:
                taut = True
            else:
                values[var] = forbidden
        vs = tuple(sorted(values))
        if taut:
            return cls(vs, 0, True)
        pattern = 0
        for i, v in enumerate(vs):
            if values[v]:
                pattern |= 1 << i
        return cls(vs, pattern)

    @property
    def size(self):
        return len(self.vars)

    def literals(self):
        """The clause as (variable, negated) pairs; undefined for tautologies."""
        if self.tautology:
            raise ValueError("a tautological clause has no canonical literals")
        return [(v, bool((self.forbidden >> i) & 1)) for i, v in enumerate(self.vars)]


@dataclass(frozen=True)
class CnfFormula:
    """An ordered clause list over variables 0..n-1.

    Clause order is significant: indexes into ``clauses`` are the identity
    used for every smallest-index tie-break downstream.
    """

    n: int
    clauses: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative variable count")
        if not isinstance(self.clauses, tuple):
            object.__setattr__(self, "clauses", tuple(self.clauses))
        for c in self.clauses:
            if c.vars and c.vars[-1] >= self.n:
                raise ValueError(
                    "clause variable %d out of range for n=%d" % (c.vars[-1], self.n)
                )

    @functools.cached_property
    def params(self) -> KdsParams:
        return kds_parameters(self)

    @functools.cached_property
    def by_var(self) -> dict:
        """Variable -> ascending tuple of the indices of the
        non-tautological clauses holding it; a variable in no such clause
        is absent.  Built once per formula and shared by every reader, so
        it must not be mutated."""
        out = {}
        for i, c in enumerate(self.clauses):
            if not c.tautology:
                for v in c.vars:
                    out.setdefault(v, []).append(i)
        return {v: tuple(ix) for v, ix in out.items()}

    @functools.cached_property
    def components(self) -> tuple:
        """The variable-disjoint components of the non-tautological
        clauses: (ascending variables, ascending clause indices) per
        component, ordered by smallest clause index.  Two clauses share a
        component iff a chain of clauses, each sharing a variable with the
        next, joins them; an empty clause is a component with no variables,
        and a variable in no clause is in none.  Built once per formula by
        `_grow` from each clause no earlier component holds, every clause
        it reaches joining."""
        clauses, seen, out = self.clauses, set(), []
        for i, c in enumerate(clauses):
            if not c.tautology and i not in seen:
                seen.add(i)
                ix = {i}
                _grow(clauses, self.by_var, 0, [i], seen, lambda j: True, ix)
                out.append((tuple(sorted({v for j in ix for v in clauses[j].vars})),
                            tuple(sorted(ix))))
        return tuple(out)

    @functools.cached_property
    def _overlaps(self) -> dict:
        """(i, j) -> the number of variables the non-tautological clauses
        i < j share, for every pair sharing at least one; counted once per
        formula through `by_var` and shared by every reader, so it must not
        be mutated."""
        out = {}
        for ix in self.by_var.values():
            for pair in itertools.combinations(ix, 2):
                out[pair] = out.get(pair, 0) + 1
        return out

    @functools.cached_property
    def _clause_masks(self) -> tuple:
        """Per clause, (variable mask, forbidden bits in place): bit v of
        each is set for a variable v of the clause, in the second when its
        forbidden value is True.  An assignment a satisfies the clause iff
        a & mask != bits; a tautology is (0, 1) and an empty clause (0, 0),
        so that test holds for them too, at any int a."""
        out = []
        for c in self.clauses:
            mask = bits = 0
            for i, v in enumerate(c.vars):
                mask |= 1 << v
                bits |= ((c.forbidden >> i) & 1) << v
            out.append((0, 1) if c.tautology else (mask, bits))
        return tuple(out)

    @functools.cached_property
    def _reveal_roots(self) -> dict:
        """The revealing process's memo for this formula object, filled by
        `reveal`: one entry per (target, prefix, parameters) run, holding
        what the run fixes before it reads a solution and the decision tree
        of the paths taken so far.  An equal formula object has its own."""
        return {}

    @functools.cached_property
    def _nice_verdicts(self) -> dict:
        """`reveal.is_nice`'s memo for this formula object: one verdict per
        (target, zeta, k, target value, packed pinning) decided so far.  An
        equal formula object has its own."""
        return {}

    def satisfied_by(self, assignment: int) -> bool:
        for mask, bits in self._clause_masks:
            if assignment & mask == bits:
                return False
        return True

    def variable_degrees(self):
        """Occurrence count per variable, tautologies excluded."""
        return [len(self.by_var.get(v, ())) for v in range(self.n)]


def _pack(pinning):
    """A pinning (variable -> value, read with bool) as two masks in the
    encoding of `CnfFormula._clause_masks`: bit v of `pinned` is set for a
    pinned v, and of `values` for one pinned True.  A clause with masks
    (m, f) is satisfied under it iff m & pinned & (values ^ f) != 0, or it
    is a tautology, (0, 1), the only clause with f > m.  A negative
    variable raises ValueError (a negative shift count)."""
    pinned = values = 0
    for v, value in pinning.items():
        pinned |= 1 << v
        if value:
            values |= 1 << v
    return pinned, values


def _grow(clauses, by_var, pinned, stack, seen, joins, members):
    """Grow `members` from the clause indices on `stack` through shared
    variables outside the mask `pinned`: pop a clause, and for each of its
    variables v with bit v clear in `pinned`, take each clause of
    `by_var.get(v, ())` not yet in `seen`, add it to `seen`, and test it
    once with `joins`; one that joins goes into `members` and onto the
    stack.  `stack`, `seen` and `members` are the caller's and are updated
    in place; the stack's clauses are taken as already seen and members.
    The one clause walk: `CnfFormula.components`, the reveal's associated
    component and `is_nice`'s residual component all grow through it."""
    while stack:
        for v in clauses[stack.pop()].vars:
            if not pinned >> v & 1:
                for w in by_var.get(v, ()):
                    if w not in seen:
                        seen.add(w)
                        if joins(w):
                            members.add(w)
                            stack.append(w)


def kds_parameters(formula: CnfFormula) -> KdsParams:
    """Exact (k_min, k_max, d_max, s_max) over non-tautological clauses.

    Zeros for the empty formula.  s_max is the largest variable-set overlap
    over distinct clause index pairs, read off the formula's pair overlap
    table.
    """
    sizes = [c.size for c in formula.clauses if not c.tautology]
    if not sizes:
        return KdsParams(0, 0, 0, 0)
    by_var = formula.by_var
    d_max = max(len(ix) for ix in by_var.values()) if by_var else 0
    s_max = max(formula._overlaps.values(), default=0)
    return KdsParams(min(sizes), max(sizes), d_max, s_max)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF.  Strict: bad headers, out-of-range variables and
    clause-count mismatches all raise ParseError naming the line."""
    n = None
    m = None
    clauses = []
    current = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ParseError("duplicate header (line %d)" % ln)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ParseError("malformed header %r (line %d)" % (line, ln))
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("malformed header %r (line %d)" % (line, ln)) from None
            if n < 0 or m < 0:
                raise ParseError("negative header counts (line %d)" % ln)
            continue
        if n is None:
            raise ParseError("clause data before header (line %d)" % ln)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError("bad token %r (line %d)" % (tok, ln)) from None
            if lit == 0:
                clauses.append(Clause.from_literals(current))
                current = []
            else:
                var = abs(lit) - 1
                if var >= n:
                    raise ParseError(
                        "variable %d out of range for n=%d (line %d)" % (abs(lit), n, ln)
                    )
                current.append((var, lit < 0))
    if n is None:
        raise ParseError("missing header")
    if current:
        raise ParseError("unterminated clause at end of input")
    if len(clauses) != m:
        raise ParseError("header declares %d clauses, found %d" % (m, len(clauses)))
    return CnfFormula(n, tuple(clauses))


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS; parse_dimacs(write_dimacs(F)) == F, clause order
    and tautology flags included.  A tautological clause is emitted as its
    variables positive plus the first variable repeated negated."""
    lines = ["p cnf %d %d" % (formula.n, len(formula.clauses))]
    for c in formula.clauses:
        if c.tautology:
            toks = [str(v + 1) for v in c.vars]
            toks.append(str(-(c.vars[0] + 1)))
        else:
            toks = [str(-(v + 1)) if neg else str(v + 1) for v, neg in c.literals()]
        toks.append("0")
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"
