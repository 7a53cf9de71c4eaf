"""Failure bounds for statistical tests, fixed before any seed is run.

A check that a correct program fails with probability ``rate`` on each of
``trials`` independent seeds fails Binomial(trials, rate) times in all. A
seed-sweep test bounds that count by the count a correct program exceeds
with probability at most ``tail``. A chi-square test compares its statistic
with ``chi2_critical``, which a correct program exceeds with probability
about 1e-4.
"""

import math
from fractions import Fraction

CHI2_Z = 3.719  # upper 1e-4 point of the standard normal


def max_beyond(rate: float, trials: int, tail: float = 1e-4) -> int:
    """The smallest c with P(Binomial(trials, rate) > c) <= tail, summed in
    exact rational arithmetic on the given values."""
    if not 0 <= rate <= 1:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    p, limit = Fraction(rate), Fraction(tail)
    beyond = Fraction(1)  # P(X > c), starting from c = -1
    for c in range(trials):
        beyond -= math.comb(trials, c) * p**c * (1 - p) ** (trials - c)
        if beyond <= limit:
            return c
    return trials  # P(X > trials) is 0


def chi2_critical(df: int) -> float:
    """Upper 1e-4 point of chi-square(df), Wilson-Hilferty approximation."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + CHI2_Z * math.sqrt(c)) ** 3
