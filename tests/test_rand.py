"""Seeded PRNG wrapper: determinism, bounds, and stream independence."""

import random

import pytest

from cnflab import ALGORITHM, SeededRng, derived_seed


def test_algorithm_identifier():
    assert ALGORITHM == "mt19937+fisher-yates"


def test_seed_required():
    with pytest.raises(ValueError):
        SeededRng(None)


def test_same_seed_same_stream():
    a = SeededRng("abc")
    b = SeededRng("abc")
    assert [a.getrandbits(16) for _ in range(20)] == [
        b.getrandbits(16) for _ in range(20)
    ]
    assert a.permutation(10) == b.permutation(10)


def test_matches_stdlib_mersenne_twister():
    # the generator is CPython's MT19937; only the consumption pattern is ours
    assert SeededRng(1234).getrandbits(32) == random.Random(1234).getrandbits(32)


def test_different_seeds_differ():
    xs = [SeededRng(s).getrandbits(64) for s in ("a", "b", 3, 4)]
    assert len(set(xs)) == len(xs)


def test_randbelow_bounds_and_coverage():
    rng = SeededRng(7)
    draws = [rng.randbelow(5) for _ in range(2000)]
    assert set(draws) == {0, 1, 2, 3, 4}
    rng2 = SeededRng(8)
    assert all(rng2.randbelow(1) == 0 for _ in range(10))
    with pytest.raises(ValueError):
        rng.randbelow(0)


@pytest.mark.parametrize(
    "bound", [1, 2, 3, 1 << 5, (1 << 5) + 1, 1 << 17, (1 << 17) + 1, (1 << 31) + 1]
)
@pytest.mark.parametrize("T", [0, 1, 64, 1000])
def test_randbelows_is_randbelow_draw_for_draw(bound, T):
    # the same values from the same getrandbits calls: the stream goes on
    # where T single draws would leave it
    one, batch = SeededRng("randbelows/%d" % bound), SeededRng("randbelows/%d" % bound)
    assert batch.randbelows(bound, T) == [one.randbelow(bound) for _ in range(T)]
    assert batch.getrandbits(32) == one.getrandbits(32)


@pytest.mark.parametrize("bound", [0, -3])
def test_randbelows_rejects_a_bound_below_one(bound):
    with pytest.raises(ValueError, match="bound must be positive"):
        SeededRng(0).randbelows(bound, 1)
    assert SeededRng(0).randbelows(bound, 0) == []


def test_randbelow_roughly_uniform():
    rng = SeededRng("uniformity")
    n = 6000
    counts = [0] * 3
    for _ in range(n):
        counts[rng.randbelow(3)] += 1
    for c in counts:
        assert abs(c - n / 3) < 200  # ~5 sigma


def test_coin_is_boolean():
    rng = SeededRng(0)
    flips = {rng.coin() for _ in range(100)}
    assert flips == {False, True}


def test_shuffle_is_permutation():
    rng = SeededRng("sh")
    items = list(range(30))
    rng.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))


def test_permutation_deterministic():
    assert SeededRng("p").permutation(8) == SeededRng("p").permutation(8)


def test_derived_seed_format():
    assert derived_seed("base", 3) == "base#3"
    assert derived_seed("x#1", 2) == "x#1#2"
