"""Small shared helpers for building formulas and talking to the naive oracle."""

from cnflab import Clause, CnfFormula, solutions


def F(n, *clauses):
    """Formula from literal lists: F(3, [(0, False), (1, True)], ...)."""
    return CnfFormula(n, tuple(Clause.from_literals(c) for c in clauses))


def pos(*vs):
    """All-positive clause (forbidden assignment: all False)."""
    return [(v, False) for v in vs]


def neg(*vs):
    """All-negative clause (forbidden assignment: all True)."""
    return [(v, True) for v in vs]


def to_naive(formula):
    """(n, clauses) in the naive oracle's literal-list representation.

    A tautological clause is rendered as its variables positive plus the
    first variable negated again, which is a tautology there too.
    """
    clauses = []
    for c in formula.clauses:
        if c.tautology:
            lits = [(v, False) for v in c.vars]
            lits.append((c.vars[0], True))
        else:
            lits = list(c.literals())
        clauses.append(lits)
    return formula.n, clauses


def bits(assignment, n):
    """Packed assignment int -> tuple of bools, variable 0 first."""
    return tuple(bool((assignment >> v) & 1) for v in range(n))


def from_bits(values):
    a = 0
    for v, x in enumerate(values):
        if x:
            a |= 1 << v
    return a


def count_bitmap_builds(monkeypatch):
    """Record the variable count of every solution space built from here on
    (each call of the row builder solutions._solution_rows); returns the
    growing list."""
    builds = []
    build = solutions._solution_rows

    def counting(formula):
        builds.append(formula.n)
        return build(formula)

    monkeypatch.setattr(solutions, "_solution_rows", counting)
    return builds


def to_rows(n, bitmap):
    """A 2^n-bit bitmap as the engine's rows: 2^(n-L) slices of 2^L bits,
    lowest first, where L = min(n, solutions._LOW_BITS)."""
    low = min(n, solutions._LOW_BITS)
    mask = (1 << (1 << low)) - 1
    return tuple((bitmap >> (h << low)) & mask for h in range(1 << (n - low)))
