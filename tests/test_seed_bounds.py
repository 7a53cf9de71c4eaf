import math

import pytest

from seed_bounds import max_beyond


def upper_tail(rate, trials, c):
    """P(Binomial(trials, rate) > c) in floats, term by term."""
    return math.fsum(
        math.comb(trials, i) * rate**i * (1 - rate) ** (trials - i)
        for i in range(c + 1, trials + 1)
    )


class TestMaxBeyond:
    @pytest.mark.parametrize(
        "rate, trials, tail, expected, at_bound, below_bound",
        [
            # the 3-SE rate over 100 seeds: P(X >= 4) = 1.69e-4, P(X >= 5) = 8.7e-6
            (0.0027, 100, 1e-4, 4, 8.7276e-6, 1.6948e-4),
            (0.05, 20, 0.05, 3, 1.5902e-2, 7.5484e-2),
            (0.05, 100, 1e-4, 15, 3.7054e-5, 1.3585e-4),
        ],
    )
    def test_exact_tails(self, rate, trials, tail, expected, at_bound, below_bound):
        c = max_beyond(rate, trials, tail)
        assert c == expected
        assert upper_tail(rate, trials, c) == pytest.approx(at_bound, rel=1e-4)
        assert upper_tail(rate, trials, c - 1) == pytest.approx(below_bound, rel=1e-4)

    def test_tail_equal_to_the_bound_is_allowed(self):
        # P(X > 0) is exactly 1/2 for one fair trial
        assert max_beyond(0.5, 1, 0.5) == 0
        assert max_beyond(0.5, 1, 0.4999) == 1

    @pytest.mark.parametrize("trials", [0, 1, 10])
    def test_certain_rates(self, trials):
        assert max_beyond(0.0, trials) == 0
        assert max_beyond(1.0, trials) == trials

    @pytest.mark.parametrize("rate, trials", [(0.0027, 100), (0.01, 300), (0.2, 40)])
    def test_smallest_count_past_the_tail(self, rate, trials):
        for tail in (1e-2, 1e-4, 1e-6):
            c = max_beyond(rate, trials, tail)
            assert upper_tail(rate, trials, c) <= tail
            assert c == 0 or upper_tail(rate, trials, c - 1) > tail

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_rate_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match="rate"):
            max_beyond(rate, 10)
