"""Failure bounds for tests that run one check over many seeds.

A check that a correct program fails with probability ``rate`` on each of
``trials`` independent seeds fails Binomial(trials, rate) times in all. A
seed-sweep test bounds that count, before any seed is run, by the count a
correct program exceeds with probability at most ``tail``.
"""

from fractions import Fraction
from math import comb


def max_beyond(rate: float, trials: int, tail: float = 1e-4) -> int:
    """The smallest c with P(Binomial(trials, rate) > c) <= tail, summed in
    exact rational arithmetic on the given values."""
    if not 0 <= rate <= 1:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    p, limit = Fraction(rate), Fraction(tail)
    beyond = Fraction(1)  # P(X > c), starting from c = -1
    for c in range(trials):
        beyond -= comb(trials, c) * p**c * (1 - p) ** (trials - c)
        if beyond <= limit:
            return c
    return trials  # P(X > trials) is 0
