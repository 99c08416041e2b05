"""Seeded randomness with a pinned-down algorithm.

Every random choice in the package flows through SeededRng so that outputs
are reproducible across platforms and Python versions.  The generator is
Mersenne Twister (CPython's random.Random), consumed only through
getrandbits; integer draws use unbiased rejection and permutations use an
explicit Fisher-Yates so the consumption pattern is part of this module, not
of the stdlib's convenience methods.  The one rejection loop is
`randbelows`, a batch of draws; `randbelow` is a batch of one.
"""

import random

ALGORITHM = "mt19937+fisher-yates"


class SeededRng:
    def __init__(self, seed):
        if seed is None:
            raise ValueError("a seed is required; there is no entropy default")
        self.seed = seed
        self._r = random.Random(seed)

    def getrandbits(self, bits):
        return self._r.getrandbits(bits)

    def randbelow(self, bound):
        """Uniform int in [0, bound) by rejection on getrandbits."""
        return self.randbelows(bound, 1)[0]

    def randbelows(self, bound, T):
        """The values of T randbelow(bound) calls, in order: each draws
        getrandbits(nbits) until a value below `bound`, nbits the bit length
        of bound - 1 (at least 1), so the stream is consumed exactly as by
        T calls.  T = 0 draws nothing, whatever the bound."""
        if bound <= 0 and T > 0:
            raise ValueError("bound must be positive")
        getrandbits = self._r.getrandbits
        nbits = (bound - 1).bit_length() or 1
        out = []
        for _ in range(T):
            x = getrandbits(nbits)
            while x >= bound:
                x = getrandbits(nbits)
            out.append(x)
        return out

    def coin(self):
        return bool(self._r.getrandbits(1))

    def shuffle(self, items):
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n):
        items = list(range(n))
        self.shuffle(items)
        return items


def derived_seed(seed_base, index):
    """Stable per-trial seed string used by experiment harnesses."""
    return "%s#%d" % (seed_base, index)
