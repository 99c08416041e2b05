"""Revealing process, niceness predicate, and iterative clause elimination."""

import gc
import importlib
import math
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cnflab import (
    Clause,
    CnfError,
    CnfFormula,
    GadgetSpec,
    InfeasiblePinningError,
    RandomCnfSpec,
    RevealParams,
    SeededRng,
    UnsatisfiableError,
    enumerate_solutions,
    estimate_nice_probability,
    gen_disjoint_family,
    gen_gadget,
    gen_linear_cnf,
    gen_random_cnf,
    is_nice,
    reveal,
    wilson_interval,
)
from cnflab.reveal import RevealResult, _RevealState, _Root
from cnflab.structure import BadSets, EMPTY_BAD_SETS

import naive
from util import F, bits, pos, neg, from_bits, to_naive

# the package exports the function `reveal` under the module's name
reveal_module = importlib.import_module("cnflab.reveal")


# (v0 | v1), (v0 | v2), (v2 | v3), plus an untouched variable 4
CHAIN = F(5, pos(0, 1), pos(0, 2), pos(2, 3))


def _classes(f, sigma, bad, zeta, k):
    """The clause indices a reveal state under sigma holds frozen, blocked
    and satisfied (tautologies included), and the others."""
    state = _RevealState(f, sigma, bad, zeta, k)
    everything = set(range(len(f.clauses)))
    frozen = {i for i in everything if state.frozen >> i & 1}
    blocked = {i for i in everything if state.blocked(i)}
    satisfied = {i for i in everything if state.satisfied(i)}
    return frozen, blocked, satisfied, everything - frozen - blocked - satisfied


def _alive(f, sigma, bad, zeta, k):
    state = _RevealState(f, sigma, bad, zeta, k)
    return frozenset(v for v in range(f.n) if not state.dead() >> v & 1)


def _component(f, sigma, bad, zeta, c0, k):
    """c0's associated component and its extension after a state's first
    step, as sorted index tuples."""
    state = _RevealState(f, sigma, bad, zeta, k)
    component, _ = state.step(c0)
    return tuple(sorted(component)), tuple(sorted(state.ext))


def test_classify_frozen_and_blocked():
    frozen, blocked, satisfied, other = _classes(
        CHAIN, {1: False, 3: False}, EMPTY_BAD_SETS, 0.5, 2)
    # clauses 0 and 2 are down to one unpinned variable: frozen; clause 1's
    # unpinned variables both sit inside frozen clauses: blocked
    assert frozen == {0, 2}
    assert blocked == {1}
    assert satisfied == set()
    assert other == set()


def test_classify_satisfied_and_bad():
    _, _, satisfied, _ = _classes(CHAIN, {1: True}, EMPTY_BAD_SETS, 0.5, 2)
    assert 0 in satisfied
    bad = BadSets(frozenset(), frozenset({1}), ())
    _, _, _, other = _classes(CHAIN, {1: False, 3: False}, bad, 0.5, 2)
    assert 1 in other  # bad clauses are never frozen or blocked


def test_classify_tautology_counts_satisfied():
    taut = Clause.from_literals([(0, False), (0, True)])
    f = CnfFormula(2, (taut,))
    assert _classes(f, {}, EMPTY_BAD_SETS, 1.0, 2)[2] == {0}


def test_classify_bad_variables_shrink_good_sets():
    bad = BadSets(frozenset({0}), frozenset(), ())
    # with v0 bad, clauses 0 and 1 have one good unpinned variable each
    assert _classes(CHAIN, {}, bad, 0.5, 2)[0] == {0, 1}


def test_alive_variables_chain():
    alive = _alive(CHAIN, {1: False, 3: False}, EMPTY_BAD_SETS, 0.5, 2)
    # v0 and v2 would freeze their clauses further; v4 sits in no clause
    assert alive == frozenset({4})
    assert _alive(CHAIN, {}, EMPTY_BAD_SETS, 0.5, 2) == frozenset({0, 1, 2, 3, 4})


def test_alive_excludes_pinned_and_bad():
    bad = BadSets(frozenset({4}), frozenset(), ())
    alive = _alive(CHAIN, {0: True, 2: True}, bad, 0.5, 2)
    # clauses all satisfied; v1, v3 free; v0, v2 pinned; v4 bad
    assert alive == frozenset({1, 3})


def test_associated_component_isolated():
    f = F(6, pos(0, 1), pos(3, 4))
    bad = BadSets(frozenset(), frozenset({0}), ())
    assert _component(f, {}, bad, 1.0, 0, 2) == ((0,), (0,))


def test_associated_component_chain_closure():
    # bad clause 0 chains through frozen clauses 1 and 2 by shared unpinned
    # variables; clause 3 is too wide to freeze but neighbors the component
    f = F(7, pos(0, 1), pos(1, 2), pos(2, 3), pos(3, 4, 5, 6))
    bad = BadSets(frozenset(), frozenset({0}), ())
    assert _component(f, {}, bad, 1.0, 0, 2) == ((0, 1, 2), (0, 1, 2, 3))


def test_associated_component_idempotent_across_bad_members():
    f = F(7, pos(0, 1), pos(1, 2), pos(2, 3), pos(3, 4, 5, 6))
    bad = BadSets(frozenset(), frozenset({0, 1}), ())
    comp0, _ = _component(f, {}, bad, 1.0, 0, 2)
    comp1, _ = _component(f, {}, bad, 1.0, 1, 2)
    assert comp0 == comp1


# zeta*k is an integer at (2/3, 3), (0.5, 2), (1.0, k) and (1.5, 2): there the
# frozen test and the "more than zeta*k - 1 others" test meet the boundary
ZETAS = [0.1, 0.4, 0.5, 2 / 3, 1.0, 1.5, Fraction(2, 3), 2 * 4 ** -0.2]


@st.composite
def reveal_states(draw):
    """A formula at n <= 9 as naive literal lists (tautologies and repeated
    literals included), a partial assignment, bad sets, zeta and k."""
    n = draw(st.integers(1, 9))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())
    clauses = draw(st.lists(st.lists(literal, max_size=5), max_size=9))
    pinned = draw(st.lists(st.integers(0, n - 1), unique=True))
    sigma = {v: draw(st.booleans()) for v in pinned}
    v_bad = draw(st.frozensets(st.integers(0, n - 1)))
    c_bad = draw(st.frozensets(st.integers(0, len(clauses) - 1))) if clauses else frozenset()
    zeta = draw(st.sampled_from(ZETAS))
    k = draw(st.integers(1, 4))
    return n, clauses, sigma, v_bad, c_bad, zeta, k


@settings(max_examples=400, deadline=None)
@given(reveal_states())
def test_state_clause_tests_match_definition_oracles(state):
    # satisfied(i) and unpinned_good(i) read the packed pinning; a
    # tautology is satisfied under every pinning
    n, clauses, sigma, v_bad, c_bad, zeta, k = state
    s = _RevealState(F(n, *clauses), sigma, BadSets(v_bad, c_bad, ()), zeta, k)
    for i, c in enumerate(clauses):
        if naive._clause_key(c) is None:
            assert s.satisfied(i)
            continue
        assert s.satisfied(i) == naive._satisfied_by_partial(c, sigma)
        assert s.unpinned_good(i) == len(naive._good_unpinned(c, sigma, v_bad))


@settings(max_examples=400, deadline=None)
@given(reveal_states())
def test_alive_and_component_match_definition_oracles(state):
    n, clauses, sigma, v_bad, c_bad, zeta, k = state
    f = F(n, *clauses)
    bad = BadSets(v_bad, c_bad, ())
    assert _alive(f, sigma, bad, zeta, k) == naive.alive_variables(
        n, clauses, sigma, v_bad, c_bad, zeta, k
    )
    for c in sorted(c_bad):
        assert _component(f, sigma, bad, zeta, c, k) == (
            naive.associated_component(n, clauses, sigma, v_bad, c_bad, zeta, k, c)
        )


GADGET = gen_gadget(GadgetSpec(3, 2))
PARAMS = RevealParams(alpha=0.5, p_hd=100.0, eps_bd=0.5, zeta=0.4)


@st.composite
def revealing_runs(draw):
    """A formula at n <= 9 that the drawn solution tau (a bool tuple)
    satisfies, with tautologies and repeated literals; a target, a prefix
    agreeing with tau, and RevealParams (sparse alphas, explicit k and a
    candidate clause included).  Early elements of each sampled list are
    drawn most, so they are the ones under which runs take several steps."""
    n = draw(st.sampled_from(range(9, 0, -1)))
    tau = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())
    clauses = []
    for c in draw(st.lists(st.lists(literal, min_size=2, max_size=5), min_size=3,
                           max_size=12)):
        if not naive.clause_satisfied(c, tau):
            v = draw(st.integers(0, n - 1))
            c = c + [(v, not tau[v])]
        clauses.append(c)
    used = sorted({v for c in clauses for v, _ in c})
    target = draw(st.sampled_from(used) | st.integers(0, n - 1))
    pinned = draw(st.lists(st.integers(0, n - 1).filter(lambda v: v != target),
                           unique=True, max_size=3))
    prefix = {v: tau[v] for v in pinned}
    cstar = draw(st.none() | st.lists(literal, min_size=1, max_size=6))
    k = draw(st.sampled_from([2, None, 3, 1, 4]))
    params = RevealParams(
        alpha=draw(st.sampled_from([1.0, 2.0, 3.0, 0.01])),
        p_hd=draw(st.sampled_from([100.0, 2.0, 0.5])),
        eps_bd=draw(st.sampled_from([0.5, 1.0, 0.2])),
        zeta=draw(st.sampled_from(ZETAS)),
        k=k,
        cstar=None if cstar is None else Clause.from_literals(cstar),
    )
    return n, clauses, tau, target, prefix, params


@settings(max_examples=400, deadline=None)
@given(revealing_runs())
def test_reveal_matches_per_step_oracle(run):
    n, clauses, tau, target, prefix, params = run
    f = F(n, *clauses)
    cstar = None if params.cstar is None else params.cstar.vars
    S, tau_S, c0, trace, early = naive.reveal(
        n, clauses, tau, target, prefix, params.alpha, params.p_hd,
        params.eps_bd, params.zeta, k=params.k, cstar=cstar,
    )
    for check in (False, True):
        r = reveal(f, from_bits(tau), target, prefix, params, check_invariants=check)
        assert (list(r.S), r.c0, list(r.trace), r.early_reason) == (S, c0, trace, early)
        # prefix first, then the revealed variables in order
        assert list(r.tau_S.items()) == list(tau_S.items())


def _state_fields(state):
    return set(state.component), set(state.ext), state.ext_vars, state.frozen_vars


def _run_state(f, tau, c0, state, oracle=None):
    """Step and pin the state to the end of its run; with oracle given as
    (naive clauses, v_bad, c_bad, zeta, k), check at every step that the
    component and extension equal the from-scratch definition and the
    picked variable is the smallest alive one of the extension.  Returns
    the variables pinned."""
    pinned = []
    while True:
        component, v = state.step(c0)
        if oracle is not None:
            clauses, v_bad, c_bad, zeta, k = oracle
            # the state's packed pinning as the oracles' {var: bool}
            sigma = {u: bool(state.values >> u & 1) for u in range(f.n)
                     if state.pinned >> u & 1}
            a, ext = naive.associated_component(
                f.n, clauses, sigma, v_bad, c_bad, zeta, k, c0)
            assert (tuple(sorted(component)), tuple(sorted(state.ext))) == (a, ext)
            ext_vars = {u for i in ext for u, _ in clauses[i] if u not in sigma}
            alive = naive.alive_variables(f.n, clauses, sigma, v_bad, c_bad, zeta, k)
            assert v == min(alive & ext_vars, default=None)
        if v is None:
            return pinned
        state.pin(v, bool((tau >> v) & 1))
        pinned.append(v)


@settings(max_examples=400, deadline=None)
@given(revealing_runs())
def test_incremental_state_matches_component_oracle_at_every_step(run):
    n, clauses, tau, target, prefix, params = run
    f = F(n, *clauses)
    root = _Root(f, target, prefix, params)
    if root.early is not None:
        return
    bad = root.state.bad
    oracle = (clauses, set(bad.v_bad), set(bad.c_bad), params.zeta, root.k)
    pinned = _run_state(f, from_bits(tau), root.c0, root.state, oracle)
    assert tuple(pinned) == reveal(f, from_bits(tau), target, prefix, params).trace


def test_stepping_a_copy_leaves_the_original_unchanged():
    f = gen_linear_cnf(3, 2, 12, "oracle-linear")
    degrees = f.variable_degrees()
    target = max(range(f.n), key=lambda v: (degrees[v], -v))
    params = RevealParams(alpha=1.0, p_hd=100.0, eps_bd=0.5, zeta=0.4)
    _, clauses = to_naive(f)
    steps = 0
    for tau in enumerate_solutions(f).solutions[::7]:
        root = _Root(f, target, {}, params)
        c0, state, bad = root.c0, root.state, root.state.bad
        oracle = (clauses, set(bad.v_bad), set(bad.c_bad), params.zeta, root.k)
        expected = reveal(f, tau, target, {}, params).trace
        pinned = []
        while True:
            # a copy run to the end from here must not touch this state; the
            # first one also runs the oracle, over runs longer than drawn ones
            before = _state_fields(state)
            rest = _run_state(f, tau, c0, state.copy(), None if pinned else oracle)
            assert rest == list(expected[len(pinned):])
            assert _state_fields(state) == before
            _, v = state.step(c0)
            if v is None:
                break
            state.pin(v, bool((tau >> v) & 1))
            pinned.append(v)
        assert tuple(pinned) == expected
        steps += len(pinned)
    assert steps > 50


@pytest.mark.parametrize("f", [
    gen_linear_cnf(3, 2, 12, "oracle-linear"),
    gen_random_cnf(RandomCnfSpec(3, 10, 1.5, "oracle-random")),
], ids=["linear", "random"])
def test_reveal_matches_per_step_oracle_on_generated_formulas(f):
    # runs of several steps, which the small drawn formulas rarely reach
    n, clauses = to_naive(f)
    degrees = f.variable_degrees()
    target = max(range(n), key=lambda v: (degrees[v], -v))
    steps = 0
    for zeta in (0.4, 2 / 3):
        params = RevealParams(alpha=1.0, p_hd=100.0, eps_bd=0.5, zeta=zeta)
        for tau in enumerate_solutions(f).solutions[::7]:
            r = reveal(f, tau, target, {}, params, check_invariants=True)
            S, tau_S, c0, trace, early = naive.reveal(
                n, clauses, bits(tau, n), target, {}, 1.0, 100.0, 0.5, zeta)
            assert (list(r.S), r.tau_S, r.c0, list(r.trace), r.early_reason) == (
                S, tau_S, c0, trace, early)
            steps += len(r.trace)
    assert steps > 100


def _agreeing(f, prefix):
    return [tau for tau in enumerate_solutions(f).solutions
            if all(bool((tau >> v) & 1) == bool(x) for v, x in prefix.items())]


@settings(max_examples=200, deadline=None)
@given(revealing_runs(), st.randoms(use_true_random=False))
def test_memoised_reveal_matches_oracle_and_a_fresh_formula(run, rnd):
    # every agreeing solution in a shuffled order, alternating the checks,
    # on one formula object whose memo warms up as the calls go
    n, clauses, _, target, prefix, params = run
    f = F(n, *clauses)
    cstar = None if params.cstar is None else params.cstar.vars
    solutions = _agreeing(f, prefix)
    rnd.shuffle(solutions)
    for i, tau in enumerate(solutions):
        check = i % 2 == 1
        r = reveal(f, tau, target, prefix, params, check_invariants=check)
        fresh = reveal(F(n, *clauses), tau, target, prefix, params,
                       check_invariants=check)
        S, tau_S, c0, trace, early = naive.reveal(
            n, clauses, bits(tau, n), target, prefix, params.alpha, params.p_hd,
            params.eps_bd, params.zeta, k=params.k, cstar=cstar,
        )
        assert r == fresh
        assert (list(r.S), r.c0, list(r.trace), r.early_reason) == (S, c0, trace, early)
        assert list(r.tau_S.items()) == list(fresh.tau_S.items()) == list(tau_S.items())


def test_reveal_results_carry_the_callers_prefix_values():
    # {v: 1} and {v: True} share one memo entry, but each result's tau_S
    # holds the caller's own objects, in the estimator's traces too
    f = gen_linear_cnf(3, 2, 12, "oracle-linear")
    degrees = f.variable_degrees()
    target = max(range(f.n), key=lambda v: (degrees[v], -v))
    params = RevealParams(alpha=1.0, p_hd=100.0, eps_bd=0.5, zeta=0.4)
    v = next(u for u in range(f.n) if u != target)
    solutions = _agreeing(f, {v: True})
    for order in ((1, True), (True, 1)):
        g = CnfFormula(f.n, f.clauses)
        for value in order:
            prefix = {v: value}
            for tau in solutions:
                r = reveal(g, tau, target, prefix, params, check_invariants=value is True)
                assert type(r.tau_S[v]) is type(value)
                assert list(r.tau_S.items()) == list(
                    reveal(CnfFormula(f.n, f.clauses), tau, target, prefix,
                           params).tau_S.items())
            est = estimate_nice_probability(g, target, prefix, 20, "own", params,
                                            traces=20)
            assert all(type(result.tau_S[v]) is type(value)
                       for _, result, _ in est.traces)
    assert len(g._reveal_roots) == 1


def test_reveal_memo_tells_equal_parameters_of_different_types_apart():
    # 0.7 * 10 rounds to 7.0, while Fraction(0.7) * 10 is exactly below 7,
    # so the variable of degree 7 is bad under the Fraction only
    f = F(10, *[pos(0, i) for i in range(1, 8)], pos(7, 8), pos(8, 9))
    as_float = RevealParams(alpha=10, p_hd=0.7, eps_bd=1.0, zeta=0.4)
    as_fraction = RevealParams(alpha=10, p_hd=Fraction(0.7), eps_bd=1.0, zeta=0.4)
    assert as_float == as_fraction
    solutions = enumerate_solutions(f).solutions
    for order in ((as_float, as_fraction), (as_fraction, as_float)):
        g = CnfFormula(f.n, f.clauses)
        for params in order:
            for tau in solutions:
                assert reveal(g, tau, 8, {}, params) == reveal(
                    CnfFormula(f.n, f.clauses), tau, 8, {}, params)
    assert reveal(f, solutions[0], 8, {}, as_float).trace == (0, 9)
    assert reveal(f, solutions[0], 8, {}, as_fraction).trace == (1, 2, 3, 4, 5, 6, 9)


def test_reveal_validation_with_a_warm_memo():
    f = gen_linear_cnf(3, 2, 12, "oracle-linear")
    target = f.clauses[0].vars[0]
    other = next(v for v in range(f.n) if v != target)
    solutions = enumerate_solutions(f).solutions
    non_solution = next(a for a in range(1 << f.n) if not f.satisfied_by(a))
    tau = solutions[0]
    prefix = {other: bool((tau >> other) & 1)}
    for check in (False, True):
        for t in solutions:
            reveal(f, t, target, {}, PARAMS, check_invariants=check)
        reveal(f, tau, target, prefix, PARAMS, check_invariants=check)
        bad_calls = [
            (tau + (1 << f.n), target, {}, r"tau \d+ out of range"),
            (-1, target, {}, r"tau -1 out of range"),
            (non_solution, target, {}, "tau must be a satisfying assignment"),
            (tau, target, {other: not prefix[other]}, "tau disagrees with the prefix"),
            (tau, target, {f.n: False}, "prefix variable %d out of range" % f.n),
            (tau, other, prefix, "the target variable is already pinned"),
            (tau, f.n, {}, "target variable out of range"),
            (tau, -1, {}, "target variable out of range"),
        ]
        for t, tgt, pre, message in bad_calls:
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    reveal(f, t, tgt, pre, PARAMS, check_invariants=check)
    with pytest.raises(ValueError, match="already pinned"):
        estimate_nice_probability(f, other, prefix, 5, "s", PARAMS)
    with pytest.raises(ValueError, match="target variable out of range"):
        estimate_nice_probability(f, f.n, {}, 5, "s", PARAMS)


def _generated_run():
    f = gen_linear_cnf(3, 2, 12, "oracle-linear")
    degrees = f.variable_degrees()
    target = max(range(f.n), key=lambda v: (degrees[v], -v))
    params = RevealParams(alpha=1.0, p_hd=100.0, eps_bd=0.5, zeta=0.4)
    return f, target, params, enumerate_solutions(f).solutions


def _planted_checks(floor_shift, end_parity):
    """Stand-ins for `_check_step` and `_check_end` that fail on more
    paths, each still a function of the path alone: the step check with
    its floor raised by floor_shift, and the end check failing too when
    the run pinned a number of variables of parity end_parity."""
    check_step, check_end = reveal_module._check_step, reveal_module._check_end

    def step(state, v, floor_needed):
        return check_step(state, v, floor_needed + floor_shift)

    def end(state):
        pins = state.pinned.bit_count()
        if pins % 2 == end_parity:
            return "planted end failure at %d pins" % pins
        return check_end(state)

    return step, end


def _checked(f, tau, target, prefix, params):
    """A checked reveal's result, or the message of the CnfError it raised."""
    try:
        return reveal(f, tau, target, prefix, params, check_invariants=True)
    except CnfError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(revealing_runs(), st.sampled_from([0, 1, math.inf]),
       st.sampled_from([None, 0, 1]), st.randoms(use_true_random=False))
def test_a_checked_call_on_a_filled_tree_equals_one_on_a_fresh_formula(
        run, floor_shift, end_parity, rnd):
    # unchecked calls and an estimate fill the tree, which also settles the
    # checks of every path they expand; a checked call then raises or
    # returns exactly as on a formula whose tree it fills itself
    n, clauses, _, target, prefix, params = run
    f = F(n, *clauses)
    solutions = _agreeing(f, prefix)
    step, end = _planted_checks(floor_shift, end_parity)
    with mock.patch.object(reveal_module, "_check_step", step), \
            mock.patch.object(reveal_module, "_check_end", end):
        for tau in rnd.sample(solutions, (len(solutions) + 1) // 2):
            reveal(f, tau, target, prefix, params)
        estimate_nice_probability(f, target, prefix, 8, "fill", params)
        for tau in solutions:
            r = _checked(f, tau, target, prefix, params)
            assert r == _checked(F(n, *clauses), tau, target, prefix, params)
            if not isinstance(r, str):
                assert r == reveal(f, tau, target, prefix, params)


def test_end_check_flags_an_unsatisfied_clause_sharing_an_unpinned_variable():
    # the component {0} still shares the unpinned v0 with the unsatisfied
    # clause 1; pinning v0 True satisfies both clauses 0 and 1
    state = _RevealState(CHAIN, {}, EMPTY_BAD_SETS, 0.5, 2)
    assert state.step(0)[0] == {0}
    assert reveal_module._check_end(state) == (
        "clause 1 stays unpinned-adjacent to the component and unsatisfied")
    state.pin(0, True)
    assert reveal_module._check_end(state) is None


def _counting_copies(monkeypatch):
    """A list that gains an entry each time a reveal state is copied,
    i.e. each time a path is expanded."""
    copies = []
    copy = _RevealState.copy

    def counting_copy(state):
        copies.append(1)
        return copy(state)

    monkeypatch.setattr(_RevealState, "copy", counting_copy)
    return copies


@pytest.mark.parametrize("planted", ["_check_step", "_check_end"])
def test_a_planted_check_failure_is_kept_in_its_leaf(monkeypatch, planted):
    # a check that fails at the last step of a long run, or at its end, is
    # recorded when an unchecked call expands the path, and a checked call
    # reads it there
    f, target, params, solutions = _generated_run()
    tau = max(solutions, key=lambda t: len(reveal(f, t, target, {}, params).trace))
    expected = reveal(f, tau, target, {}, params, check_invariants=True)
    last = expected.trace[-1]
    assert len(expected.trace) >= 2
    check_step = reveal_module._check_step

    def failing_at_last(state, v, floor_needed):
        if v == last:
            return "planted failure at %d" % v
        return check_step(state, v, floor_needed)

    def failing_end(state):
        return "planted failure at %d" % last

    g = CnfFormula(f.n, f.clauses)
    monkeypatch.setattr(reveal_module, planted, {
        "_check_step": failing_at_last, "_check_end": failing_end}[planted])
    copies = _counting_copies(monkeypatch)
    assert reveal(g, tau, target, {}, params) == expected
    assert copies == [1]
    with pytest.raises(CnfError, match="planted failure at %d" % last):
        reveal(g, tau, target, {}, params, check_invariants=True)
    assert copies == [1]
    monkeypatch.undo()
    fresh = CnfFormula(f.n, f.clauses)
    assert reveal(fresh, tau, target, {}, params, check_invariants=True) == expected


def test_a_formula_with_a_warm_memo_is_freed_without_the_cycle_collector():
    f, target, params, solutions = _generated_run()
    gc.collect()
    gc.disable()
    try:
        for check in (False, True):
            for tau in solutions[::5]:
                reveal(f, tau, target, {}, params, check_invariants=check)
        estimate_nice_probability(f, target, {}, 10, "s", params)
        for tau in solutions[::5]:
            r = reveal(f, tau, target, {}, params)
            is_nice(f, r, target, {}, params.zeta, target_value=True)
        assert f._reveal_roots and f._nice_verdicts
        ref = weakref.ref(f)
        del f
        assert ref() is None
    finally:
        gc.enable()


def test_a_pinning_in_two_insertion_orders_shares_one_root():
    f, target, params, solutions = _generated_run()
    a, b = [v for v in range(f.n) if v != target][:2]
    tau = solutions[0]
    x, y = bool(tau >> a & 1), bool(tau >> b & 1)
    g = CnfFormula(f.n, f.clauses)
    agreeing = _agreeing(f, {a: x, b: y})
    for prefix in ({a: x, b: y}, {b: y, a: x}):
        for check in (False, True):
            for t in agreeing:
                r = reveal(g, t, target, prefix, params, check_invariants=check)
                assert r == reveal(CnfFormula(f.n, f.clauses), t, target, prefix,
                                   params, check_invariants=check)
                # tau_S still starts with the caller's own prefix order
                assert list(r.tau_S)[:2] == list(prefix)
        est = estimate_nice_probability(g, target, prefix, 20, "orders", params)
        assert est == estimate_nice_probability(
            CnfFormula(f.n, f.clauses), target, prefix, 20, "orders", params)
    assert len(g._reveal_roots) == 1


def test_every_key_of_a_filled_tree_is_an_int():
    f, target, params, solutions = _generated_run()
    for check in (False, True):
        for tau in solutions:
            reveal(f, tau, target, {}, params, check_invariants=check)
    early = F(12, pos(1, 2))
    reveal(early, 0b110, 0, {}, params)
    trees = [root.tree for g in (f, early) for root in g._reveal_roots.values()]
    assert len(trees) == 2 and all(trees)
    assert all(type(key) is int for tree in trees for key in tree)
    # a node is the next variable or a leaf (S, trace, error); these pass
    assert all(type(node) is int or len(node) == 3 and node[2] is None
               for tree in trees for node in tree.values())
    assert trees[1] == {0: ((), (), None)}


def _check_estimate_against_trials(f, target, prefix, params, target_value):
    """The estimate with every trial traced equals reveal + is_nice on the
    solutions redrawn from the seed."""
    trials = 12
    est = estimate_nice_probability(
        f, target, prefix, trials, "oracle", params,
        target_value=target_value, traces=trials,
    )
    agreeing = [
        tau for tau in enumerate_solutions(f).solutions
        if all(bool((tau >> v) & 1) == x for v, x in prefix.items())
    ]
    rng = SeededRng("oracle")
    counts = {}
    assert len(est.traces) == trials
    # the estimate filled f's own tree, so the reference runs on another
    g = CnfFormula(f.n, f.clauses)
    for tau, result, report in est.traces:
        assert tau == agreeing[rng.randbelow(len(agreeing))]
        expect = reveal(g, tau, target, prefix, params)
        assert result == expect
        assert list(result.tau_S.items()) == list(expect.tau_S.items())
        assert report == is_nice(g, expect, target, prefix, params.zeta,
                                 k=params.k, target_value=target_value)
        counts[report.diagnosis] = counts.get(report.diagnosis, 0) + 1
    assert est.diagnosis_counts == counts
    assert est.successes == sum(report.nice for _, _, report in est.traces)
    # each trial owns its tau_S, though trials may end at one leaf
    assert len({id(result.tau_S) for _, result, _ in est.traces}) == trials
    return est


@settings(max_examples=150, deadline=None)
@given(revealing_runs(), st.sampled_from([None, False, True]))
def test_estimate_matches_per_trial_reveal(run, target_value):
    n, clauses, _, target, prefix, params = run
    _check_estimate_against_trials(F(n, *clauses), target, prefix, params, target_value)


@pytest.mark.parametrize("reason, alpha, f, prefix", [
    ("sparse-alpha", 1 / 12, F(12, pos(0, 1)), {}),
    ("no-unsatisfied-clause", 1.0, F(12, pos(1, 2)), {}),
    ("no-unsatisfied-clause", 1.0, F(6, pos(0, 1), pos(0, 2, 3)), {1: True, 2: True}),
])
def test_estimate_early_returns_match_per_trial_reveal(reason, alpha, f, prefix):
    params = RevealParams(alpha=alpha, p_hd=100.0, eps_bd=0.5, zeta=1.0)
    est = _check_estimate_against_trials(f, 0, prefix, params, None)
    assert {r.early_reason for _, r, _ in est.traces} == {reason}


def test_reveal_after_an_estimate_expands_no_new_path(monkeypatch):
    # the estimator and reveal walk one tree per root: every run an
    # estimate measured is a known path for reveal afterwards, checked or not
    f, target, params, solutions = _generated_run()
    copies = _counting_copies(monkeypatch)
    est = estimate_nice_probability(f, target, {}, 60, "shared", params, traces=60)
    assert copies and len(copies) < 60
    copies.clear()
    for tau, result, _ in est.traces:
        assert reveal(f, tau, target, {}, params) == result
        # the leaf keeps the checks' outcome, so a checked call copies no state
        assert reveal(f, tau, target, {}, params, check_invariants=True) == result
    assert copies == []


def test_an_estimate_fills_the_verdict_memo():
    f, target, params, _ = _generated_run()
    assert not f._nice_verdicts
    est = estimate_nice_probability(f, target, {}, 40, "memo", params,
                                    target_value=True, traces=40)
    verdicts = f._nice_verdicts
    # one verdict per distinct pinning the trials revealed
    assert len(verdicts) == len({frozenset(r.tau_S.items()) for _, r, _ in est.traces})
    stored = set(map(id, verdicts.values()))
    assert all(id(report) in stored for _, _, report in est.traces)
    # is_nice on a measured run reads the estimate's verdict
    _, result, report = est.traces[0]
    assert is_nice(f, result, target, {}, params.zeta, target_value=True) is report
    assert len(f._nice_verdicts) == len(verdicts)


@settings(max_examples=150, deadline=None)
@given(revealing_runs(), st.sampled_from([None, False, True]))
def test_an_estimate_on_a_warm_formula_equals_one_on_a_fresh_formula(run, target_value):
    # warm the tree and the verdict memo through the same root, with
    # prefix values of another type ({v: 1} shares the root of {v: True})
    n, clauses, _, target, prefix, params = run
    warm = F(n, *clauses)
    as_ints = {v: int(x) for v, x in prefix.items()}
    for tau in _agreeing(warm, prefix):
        for check in (False, True):
            r = reveal(warm, tau, target, as_ints, params, check_invariants=check)
            is_nice(warm, r, target, as_ints, params.zeta, k=params.k,
                    target_value=target_value)
    assert len(warm._reveal_roots) == 1
    args = (target, prefix, 12, "warm", params)
    est = estimate_nice_probability(warm, *args, target_value=target_value, traces=12)
    fresh = estimate_nice_probability(F(n, *clauses), *args,
                                      target_value=target_value, traces=12)
    assert est == fresh
    assert len(warm._reveal_roots) == 1
    for (_, r, _), (_, g, _) in zip(est.traces, fresh.traces):
        assert list(r.tau_S.items()) == list(g.tau_S.items())
        assert all(r.tau_S[v] is prefix[v] for v in prefix)


def test_reveal_early_sparse_alpha():
    sparse = RevealParams(alpha=0.01, p_hd=100.0, eps_bd=0.5, zeta=0.4)
    r = reveal(GADGET, 0, 0, {1: False}, sparse)
    assert r.early_reason == "sparse-alpha"
    assert r.S == (1,) and r.tau_S == {1: False}
    assert r.c0 is None and r.trace == ()


def test_reveal_early_no_unsatisfied_clause():
    f = gen_disjoint_family(3, 9, "rv")
    target = f.clauses[0].vars[0]
    other = f.clauses[0].vars[1]
    # one true variable per clause, including the prefix variable
    true_vars = {other, f.clauses[1].vars[0], f.clauses[2].vars[0]}
    tau = from_bits([v in true_vars for v in range(9)])
    assert f.satisfied_by(tau)
    r = reveal(f, tau, target, {other: True}, RevealParams(1.0, 100.0, 0.5, 0.4))
    assert r.early_reason == "no-unsatisfied-clause"
    assert r.S == (other,)


def test_reveal_validation():
    with pytest.raises(ValueError):
        reveal(GADGET, 0b111111, 0, {}, PARAMS)  # not a solution
    with pytest.raises(ValueError):
        reveal(GADGET, 0, 0, {1: True}, PARAMS)  # tau disagrees with prefix
    with pytest.raises(ValueError):
        reveal(GADGET, 0, 1, {1: False}, PARAMS)  # target already pinned
    with pytest.raises(ValueError):
        reveal(GADGET, 0, 17, {}, PARAMS)


def test_reveal_rejects_tau_out_of_range():
    # GADGET has n = 6; tau beyond its bits would pass the clause check,
    # which reads only bits 0..5
    sol = max(enumerate_solutions(GADGET).solutions)
    for tau in (sol - 64, sol + (5 << 6)):
        assert GADGET.satisfied_by(tau)
        for check in (False, True):
            with pytest.raises(ValueError, match=r"tau %d out of range \[0, 2\^6\)" % tau):
                reveal(GADGET, tau, 0, {}, PARAMS, check_invariants=check)
    non_solution = next(a for a in range(64) if not GADGET.satisfied_by(a))
    with pytest.raises(ValueError, match="tau must be a satisfying assignment"):
        reveal(GADGET, non_solution, 0, {}, PARAMS)


@pytest.mark.parametrize("v", [6, 8, -1])
def test_reveal_rejects_prefix_variable_out_of_range(v):
    # GADGET has n = 6
    with pytest.raises(ValueError, match="prefix variable %d out of range" % v):
        reveal(GADGET, 0, 0, {v: False}, PARAMS)


def test_reveal_gadget_run_is_exact():
    r = reveal(GADGET, 0, 0, {}, PARAMS, check_invariants=True)
    # c0 is the first clause containing the target; its variables become bad.
    # Pinning v1 (smallest alive) satisfies both good clauses, after which
    # v3 and v5 are vacuously alive and get revealed in index order.
    assert r.c0 == 1
    assert r.trace == (1, 3, 5)
    assert r.S == (1, 3, 5)
    assert r.tau_S == {1: False, 3: False, 5: False}
    assert r.early_reason is None


def test_reveal_never_pins_target():
    for tau in enumerate_solutions(GADGET).solutions:
        r = reveal(GADGET, tau, 0, {}, PARAMS, check_invariants=True)
        assert 0 not in r.S


def test_reveal_deterministic_on_agreeing_solutions():
    base = reveal(GADGET, 0, 0, {}, PARAMS)
    for tau in enumerate_solutions(GADGET).solutions:
        if all(bool((tau >> v) & 1) == base.tau_S[v] for v in base.S):
            assert reveal(GADGET, tau, 0, {}, PARAMS) == base


def test_reveal_gibbs_set_equality():
    sols = enumerate_solutions(GADGET).solutions
    by_pinning = {}
    for tau in sols:
        r = reveal(GADGET, tau, 0, {}, PARAMS, check_invariants=True)
        key = (r.S, tuple(sorted(r.tau_S.items())))
        by_pinning.setdefault(key, set()).add(tau)
    for (S, items), produced in by_pinning.items():
        agreeing = {
            tau for tau in sols
            if all(bool((tau >> v) & 1) == val for v, val in items)
        }
        assert produced == agreeing


def test_is_nice_isolated():
    f = F(4, pos(0, 1))
    r = RevealResult(S=(1,), tau_S={1: True}, c0=0, trace=(1,))
    rep = is_nice(f, r, 0, {}, zeta=1.0, k=2)
    assert rep.nice and rep.diagnosis == "isolated"
    assert rep.component_size == 0


def test_is_nice_target_pinned_and_prefix_mismatch():
    f = F(4, pos(0, 1))
    pinned = RevealResult(S=(0,), tau_S={0: True}, c0=0, trace=(0,))
    assert is_nice(f, pinned, 0, {}, zeta=1.0, k=2).diagnosis == "target-pinned"
    r = RevealResult(S=(1,), tau_S={1: True}, c0=0, trace=())
    rep = is_nice(f, r, 0, {2: False}, zeta=1.0, k=2)
    assert rep.diagnosis == "prefix-mismatch"


def test_is_nice_size_diagnosis():
    r = RevealResult(S=(), tau_S={}, c0=1, trace=())
    rep = is_nice(GADGET, r, 0, {}, zeta=2 / 3, k=3)
    # the full gadget component has 3 clauses > log2(6)
    assert not rep.nice
    assert rep.diagnosis == "size"
    assert rep.component_size == 3


def test_is_nice_small_clauses_diagnosis():
    f = F(8, pos(0, 1), pos(1, 2))
    r = RevealResult(S=(), tau_S={}, c0=0, trace=())
    rep = is_nice(f, r, 0, {}, zeta=2.0, k=3)  # both clauses below 2*3-1
    assert not rep.nice
    assert rep.diagnosis == "small-clauses"


def test_is_nice_exceptional_depends_on_target_value():
    f = F(4, pos(0), pos(0, 1, 2, 3))
    r = RevealResult(S=(), tau_S={}, c0=0, trace=())
    unknown = is_nice(f, r, 0, {}, zeta=0.8, k=4)
    assert not unknown.nice and unknown.diagnosis == "exceptional"
    satisfied = is_nice(f, r, 0, {}, zeta=0.8, k=4, target_value=True)
    assert satisfied.nice and satisfied.diagnosis == "component"
    falsified = is_nice(f, r, 0, {}, zeta=0.8, k=4, target_value=False)
    assert not falsified.nice and falsified.diagnosis == "exceptional"


@st.composite
def nice_calls(draw, n):
    """Arguments of one `is_nice` call at n variables: (S, tau_S, target,
    prefix, zeta, k, target_value)."""
    target = draw(st.integers(0, n - 1))
    # one draw in ten pins the target, one in ten leaves it out of S though
    # tau_S pins it, one in ten breaks the prefix
    roll = draw(st.integers(0, 9))
    pinned = draw(st.lists(
        st.integers(0, n - 1).filter(lambda v: roll in (0, 2) or v != target),
        unique=True, max_size=4))
    tau_S = {v: draw(st.booleans()) for v in pinned}
    S = tuple(v for v in sorted(tau_S) if roll != 2 or v != target)
    prefix = {v: tau_S[v] for v in pinned[:draw(st.integers(0, len(pinned)))]}
    if roll == 1:
        v = draw(st.integers(0, n - 1))
        prefix[v] = not tau_S.get(v, False)
    # the large zetas first: they make the small clauses
    zeta = draw(st.sampled_from(ZETAS[::-1]))
    k = draw(st.sampled_from([None, 1, 2, 3, 4]))
    target_value = draw(st.sampled_from([None, False, True]))
    return S, tau_S, target, prefix, zeta, k, target_value


@st.composite
def nice_formulas(draw):
    """A formula at n <= 9 as naive literal lists (tautologies, repeated
    literals and empty clauses included)."""
    n = draw(st.sampled_from(range(9, 0, -1)))
    literal = st.tuples(st.integers(0, n - 1), st.booleans())
    return n, draw(st.lists(st.lists(literal, max_size=5), min_size=1, max_size=10))


def _naive_nice(n, clauses, S, tau_S, target, prefix, zeta, k, target_value):
    return naive.is_nice(
        n, clauses, S, {v: bool(x) for v, x in tau_S.items()}, target, prefix,
        zeta, naive.k_max(clauses) if k is None else k, target_value,
    )


def _fields(report):
    return report.nice, report.diagnosis, report.component_size, report.exceptional


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_is_nice_matches_simplify_oracle(data):
    n, clauses = data.draw(nice_formulas())
    S, tau_S, target, prefix, zeta, k, target_value = data.draw(nice_calls(n))
    r = RevealResult(S=S, tau_S=tau_S, c0=None, trace=())
    rep = is_nice(F(n, *clauses), r, target, prefix, zeta, k=k, target_value=target_value)
    assert _fields(rep) == _naive_nice(n, clauses, S, tau_S, target, prefix, zeta, k,
                                       target_value)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_memoised_is_nice_matches_oracle_and_a_fresh_formula(data):
    # several pinnings on one formula object whose verdict memo warms up,
    # each asked again: in another insertion order, with {v: 1} for
    # {v: True}, with every target_value, and with zeta as a float and as
    # the Fraction of the same value (0.5 and Fraction(1, 2) among them);
    # and the same variables pinned to the other values outside the prefix
    n, clauses = data.draw(nice_formulas())
    calls = data.draw(st.lists(nice_calls(n), min_size=1, max_size=4))
    f = F(n, *clauses)
    for S, tau_S, target, prefix, zeta, k, _ in calls:
        flipped = {v: x if v in prefix else not x for v, x in tau_S.items()}
        for target_value in (None, False, True):
            for z in (float(zeta), Fraction(zeta)):
                for pinning in (tau_S, dict(reversed(tau_S.items())),
                                {v: int(x) for v, x in tau_S.items()}, tau_S,
                                flipped):
                    r = RevealResult(S=S, tau_S=pinning, c0=None, trace=())
                    args = (r, target, prefix, z)
                    rep = is_nice(f, *args, k=k, target_value=target_value)
                    assert _fields(rep) == _naive_nice(
                        n, clauses, S, pinning, target, prefix, z, k, target_value)
                    assert rep == is_nice(F(n, *clauses), *args, k=k,
                                          target_value=target_value)
    # the first four pinnings of a call share one verdict
    assert len(f._nice_verdicts) <= len(calls) * 3 * 2 * 2


def test_is_nice_memo_tells_equal_zetas_of_different_types_apart():
    # 0.4 * 5 - 1 rounds to 1.0, while Fraction(0.4) * 5 - 1 is just above
    # 1, so the two one-variable clauses are small under the Fraction only
    f = F(8, pos(0, 1), pos(1, 2))
    r = RevealResult(S=(0, 2), tau_S={0: False, 2: False}, c0=None, trace=())
    as_float, as_fraction = 0.4, Fraction(0.4)
    assert as_float == as_fraction
    expected = {float: "component", Fraction: "small-clauses"}
    for order in ((as_float, as_fraction), (as_fraction, as_float)):
        g = CnfFormula(f.n, f.clauses)
        for zeta in order:
            assert is_nice(g, r, 1, {}, zeta, k=5).diagnosis == expected[type(zeta)]
        assert len(g._nice_verdicts) == 2


def test_is_nice_memo_keys_on_the_pinned_values_and_the_target_value():
    # the same pinned variables with other values, and the same pinning
    # with another target_value, are verdicts of their own
    f = F(4, pos(0, 1), pos(0, 2, 3))
    satisfied = RevealResult(S=(1,), tau_S={1: True}, c0=None, trace=())
    falsified = RevealResult(S=(1,), tau_S={1: False}, c0=None, trace=())
    assert is_nice(f, falsified, 0, {}, 1.0, k=3).diagnosis == "exceptional"
    assert is_nice(f, satisfied, 0, {}, 1.0, k=3).diagnosis == "component"
    assert is_nice(f, falsified, 0, {}, 1.0, k=3, target_value=True).nice
    assert is_nice(f, falsified, 0, {}, 1.0, k=3, target_value=1).nice
    assert not is_nice(f, falsified, 0, {}, 1.0, k=3, target_value=False).nice
    assert len(f._nice_verdicts) == 4


@pytest.mark.parametrize("target, tau_S, zeta, error, message", [
    (12, {}, 0.4, ValueError, "target variable out of range"),
    (99, {}, 0.4, ValueError, "target variable out of range"),
    (-1, {}, 0.4, ValueError, "target variable out of range"),
    (0, {12: True}, 0.4, ValueError, "pinned variable 12 out of range"),
    (0, {-1: False}, 0.4, ValueError, "pinned variable -1 out of range"),
    # the component search itself fails: zeta * k
    (0, {}, None, TypeError, "NoneType"),
])
def test_a_raising_is_nice_call_stores_no_verdict(target, tau_S, zeta, error, message):
    f = gen_linear_cnf(3, 2, 12, "oracle-linear")
    r = RevealResult(S=tuple(sorted(tau_S)), tau_S=tau_S, c0=None, trace=())
    for _ in range(2):
        with pytest.raises(error, match=message):
            is_nice(f, r, target, {}, zeta)
        assert f._nice_verdicts == {}
    is_nice(f, RevealResult(S=(), tau_S={}, c0=None, trace=()), 0, {}, 0.4)
    assert len(f._nice_verdicts) == 1


def test_is_nice_reports_exceptional_among_unsatisfied_clauses():
    # clauses 0 and 2 are satisfied by tau_S, so clause 3 ({v0} alone once
    # v4 is pinned false) is index 1 of the simplified formula
    f = F(6, pos(1), pos(0, 2, 3), neg(5), pos(0, 4))
    r = RevealResult(S=(1, 4, 5), tau_S={1: True, 4: False, 5: False}, c0=None, trace=())
    rep = is_nice(f, r, 0, {}, zeta=1.0, k=3)
    assert (rep.diagnosis, rep.component_size, rep.exceptional) == ("exceptional", 2, 1)


@pytest.mark.parametrize("v", [6, 8, -1])
def test_is_nice_rejects_pinned_variable_out_of_range(v):
    # GADGET has n = 6
    r = RevealResult(S=(v,), tau_S={v: False}, c0=None, trace=())
    with pytest.raises(ValueError, match="pinned variable %d out of range" % v):
        is_nice(GADGET, r, 0, {}, PARAMS.zeta)


def test_is_nice_component_pass():
    r = reveal(GADGET, 0, 0, {}, PARAMS)
    # after pinning v1 the simplified gadget still ties all three clauses
    # together: too big at n=6; use the verdict object to document it
    rep = is_nice(GADGET, r, 0, {}, zeta=0.4, k=3)
    assert rep.component_size >= 1


def test_estimate_nice_probability_sparse_easy_case():
    f = F(12, pos(0, 1))
    params = RevealParams(alpha=1 / 12, p_hd=100.0, eps_bd=0.5, zeta=1.0)
    est = estimate_nice_probability(f, 0, {}, 40, "easy", params)
    assert est.fraction == 1
    assert est.successes == 40 and est.trials == 40
    assert est.diagnosis_counts == {"component": 40}
    assert est.wilson_high == 1.0 and est.wilson_low < 1.0


def test_estimate_nice_probability_isolated_target():
    f = F(12, pos(1, 2))
    params = RevealParams(alpha=1 / 12, p_hd=100.0, eps_bd=0.5, zeta=1.0)
    est = estimate_nice_probability(f, 0, {}, 25, "iso", params)
    assert est.fraction == 1
    assert est.diagnosis_counts == {"isolated": 25}


def test_estimate_nice_probability_deterministic():
    a = estimate_nice_probability(GADGET, 0, {}, 30, "det", PARAMS)
    b = estimate_nice_probability(GADGET, 0, {}, 30, "det", PARAMS)
    assert a == b
    assert sum(a.diagnosis_counts.values()) == 30
    assert 0.0 <= a.wilson_low <= float(a.fraction) <= a.wilson_high <= 1.0


def test_estimate_nice_probability_errors():
    with pytest.raises(InfeasiblePinningError):
        estimate_nice_probability(F(2, pos(0)), 1, {0: False}, 5, "s", PARAMS)
    with pytest.raises(UnsatisfiableError):
        estimate_nice_probability(F(1, pos(0), neg(0)), 0, {}, 5, "s", PARAMS)
    with pytest.raises(ValueError):
        estimate_nice_probability(F(2, pos(0)), 1, {}, 0, "s", PARAMS)


def test_estimate_nice_probability_traces_are_the_measured_runs():
    prefix = {4: True}
    est = estimate_nice_probability(GADGET, 0, prefix, 30, "tr", PARAMS, traces=30)
    assert len(est.traces) == 30
    # oracle: redraw the same ranks from the seed over the agreeing solutions
    agreeing = [
        tau for tau in enumerate_solutions(GADGET).solutions
        if all(bool((tau >> v) & 1) == x for v, x in prefix.items())
    ]
    rng = SeededRng("tr")
    for tau, result, report in est.traces:
        assert tau == agreeing[rng.randbelow(len(agreeing))]
        assert all(bool((tau >> v) & 1) == x for v, x in prefix.items())
        assert result == reveal(GADGET, tau, 0, prefix, PARAMS)
        assert report == is_nice(GADGET, result, 0, prefix, PARAMS.zeta, k=PARAMS.k)
    assert len({result.trace for _, result, _ in est.traces}) > 1
    assert estimate_nice_probability(
        GADGET, 0, prefix, 30, "tr", PARAMS, traces=5
    ).traces == est.traces[:5]
    assert estimate_nice_probability(
        GADGET, 0, prefix, 3, "tr", PARAMS, traces=9
    ).traces == est.traces[:3]
    assert estimate_nice_probability(GADGET, 0, prefix, 3, "tr", PARAMS).traces == ()


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and 0 < hi < 0.4
    lo, hi = wilson_interval(10, 10)
    assert 0.6 < lo < 1 and hi == 1.0
    lo, hi = wilson_interval(8, 10)
    assert lo < 0.8 < hi
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    for successes, trials in ((5, 3), (-1, 100)):
        with pytest.raises(ValueError, match=r"successes must lie in \[0, trials\]"):
            wilson_interval(successes, trials)
