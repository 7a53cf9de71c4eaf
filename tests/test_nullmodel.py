"""Sampler and baseline tests, including the exact-enumeration oracle checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperhomophily import (
    Hypergraph,
    InsufficientPopulationError,
    SamplerConfig,
    bulk_diversity,
    composition,
    derive_seed,
    estimate_baseline,
    k_degrees,
)
from hyperhomophily import nullmodel
from hyperhomophily.nullmodel import sample_weighted_k_sets
from null_oracle import exact_baseline, sequential_expected_diversity, sequential_set_probability
from seed_bounds import max_beyond


# the calls that take a size, and the two that take an edge index
INTEGER_CALLS = (
    "edges_of_size", "k_degrees", "estimate_baseline", "exact_baseline", "derive_seed",
    "edge", "composition",
)


def call_with_size(name, h, k):
    """The result of the named function at size (or edge index) ``k``, in a
    form that compares equal for equal results; a size the result records
    comes with its type."""
    if name == "edge":
        return h.edge(k).tolist()
    if name == "composition":
        return composition(h, k).tolist()
    if name == "edges_of_size":
        return [a.tolist() for a in h.edges_of_size(k)]
    if name == "k_degrees":
        index = k_degrees(h, k)
        return type(index.k), index.k, index.degrees.tolist()
    if name == "estimate_baseline":
        est = estimate_baseline(h, k, SamplerConfig(samples=50, seed=3))
        return type(est.k), est
    if name == "exact_baseline":
        return exact_baseline(h, k)
    return derive_seed(42, k)


class TestSampler:
    def test_full_population_forced(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert list(sample_weighted_k_sets(np.ones(4), 4, 1, rng)[0]) == [0, 1, 2, 3]

    def test_single_positive_weight(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert list(sample_weighted_k_sets(np.array([1.0, 0, 0]), 1, 1, rng)[0]) == [0]

    def test_zero_weight_never_drawn(self):
        rng = np.random.default_rng(1)
        draws = sample_weighted_k_sets(np.array([2.0, 0.0, 1.0, 1.0]), 2, 500, rng)
        assert not np.any(draws == 1)

    def test_pair_probability_matches_sequential_oracle(self):
        # weights (2,1,1): P({0,1}) = 2/4*1/2 + 1/4*2/3 = 5/12
        weights = np.array([2.0, 1.0, 1.0])
        expected = sequential_set_probability(weights, (0, 1))
        assert expected == pytest.approx(5 / 12, abs=1e-15)
        n = 1_000_000
        rng = np.random.default_rng(20240601)
        draws = sample_weighted_k_sets(weights, 2, n, rng)
        hits = np.count_nonzero((draws[:, 0] == 0) & (draws[:, 1] == 1))
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(hits / n - expected) <= 3 * se

    def test_insufficient_population(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InsufficientPopulationError):
            sample_weighted_k_sets(np.array([1.0, 0.0]), 2, 1, rng)[0]

    # an infinite weight crashed the draw and a NaN one was read as 0
    @pytest.mark.parametrize(
        "weights, error, message",
        [
            (np.ones((3, 1)), ValueError, "weights must be a 1-d array"),
            (np.array([1.0, np.inf, 1.0]), ValueError, "weights must be finite"),
            (np.array([1.0, -np.inf, 1.0]), ValueError, "weights must be finite"),
            (np.array([1.0, np.nan, 1.0]), ValueError, "weights must be finite"),
            (np.array([1.0, -1.0, 1.0]), ValueError, "weights must be non-negative"),
            (np.array([1.0, 0.0, 0.0]), InsufficientPopulationError,
             "need 2 positive-weight nodes, found 1"),
            # overflowed the cumulative sum and failed inside NumPy's bincount
            (np.array([1e308, 1e308, 1.0]), ValueError, "weights must have a finite total"),
        ],
        ids=["2-d", "inf", "-inf", "nan", "negative", "too-few", "total-overflows"],
    )
    @pytest.mark.parametrize("entry", [sample_weighted_k_sets], ids=lambda f: f.__name__)
    def test_negative_weights_rejected(self, entry, weights, error, message):
        with pytest.raises(ValueError) as raised:
            entry(weights, 2, 3, np.random.default_rng(0))
        assert (type(raised.value), str(raised.value)) == (error, message)

    @pytest.mark.parametrize(
        "k, count, match",
        [
            (2, 2.5, "count must be an integer"),  # raised TypeError
            (2, -1, "count must be >= 0"),  # raised "negative dimensions are not allowed"
            (2.5, 2, "k must be an integer"),  # raised "Partition index must be integer"
            (True, 2, "k must be an integer"),
            (0, 3, "k must be >= 1"),
        ],
    )
    def test_non_integer_k_and_count_rejected(self, k, count, match):
        with pytest.raises(ValueError, match=match):
            sample_weighted_k_sets(np.ones(4), k, count, np.random.default_rng(0))

    @pytest.mark.parametrize("name", INTEGER_CALLS)
    @pytest.mark.parametrize("k", [np.int64(2), np.uint8(2), 2.0, True, "2"], ids=repr)
    def test_size_arguments_are_integers(self, name, k):
        # a NumPy size crashed estimate_baseline and derive_seed with an
        # OverflowError, and a float size was answered by the package's exact
        # oracle; the test oracle reads its weights through the estimator's check.
        # A bool or float edge index raised NumPy's TypeError or IndexError
        h = Hypergraph([0, 0, 1, 1], [[0, 1], [2, 3], [1, 2]])
        if isinstance(k, np.integer):
            assert call_with_size(name, h, k) == call_with_size(name, h, int(k))
        else:
            with pytest.raises(ValueError, match="must be an integer"):
                call_with_size(name, h, k)

    def test_weight_scaling_leaves_draws_unchanged(self):
        weights = np.array([3.0, 1.0, 2.0, 5.0])
        a = sample_weighted_k_sets(weights, 2, 200, np.random.default_rng(7))
        b = sample_weighted_k_sets(17.5 * weights, 2, 200, np.random.default_rng(7))
        assert np.array_equal(a, b)


def two_bucket_graph():
    """Four nodes A,A,B,B with uniform pair degrees."""
    return Hypergraph([0, 0, 1, 1], [[0, 1], [2, 3]])


class TestEstimate:
    def test_pure_population(self):
        h = Hypergraph([0, 0, 0], [[0, 1], [1, 2]])
        est = estimate_baseline(h, 2, SamplerConfig(samples=500, seed=1))
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_two_attribute_uniform_pairs(self):
        # enumeration of the 6 unordered pairs: 2 pure, 4 mixed -> 5/3
        est = estimate_baseline(two_bucket_graph(), 2, SamplerConfig(samples=20_000, seed=5))
        assert abs(est.mean - 5 / 3) <= 3 * est.std_error

    def test_metadata_fields(self):
        # samples counts the draws the mean averages; the exact size 2 draws none
        cfg = SamplerConfig(samples=100, seed=9, diversity_order=2.0)
        h = Hypergraph([0, 0, 1, 1], [[0, 1], [2, 3], [0, 1, 2], [1, 2, 3]])
        for k, samples in ((2, 0), (3, 100)):
            est = estimate_baseline(h, k, cfg)
            assert (est.k, est.samples) == (k, samples)

    def test_seed_determinism(self):
        cfg = SamplerConfig(samples=2000, seed=77)
        a = estimate_baseline(two_bucket_graph(), 2, cfg)
        b = estimate_baseline(two_bucket_graph(), 2, cfg)
        assert a == b

    @pytest.mark.parametrize("samples", [2.5, 1000.0, "100", True])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            SamplerConfig(samples=samples)

    @pytest.mark.parametrize("samples", [1, 0])
    def test_fewer_than_two_samples_rejected(self, samples):
        # one draw reported a standard error of 0, the exact size 2's
        with pytest.raises(ValueError, match="samples must be >= 2"):
            SamplerConfig(samples=samples)

    @pytest.mark.parametrize("seed", [3.5, True, "7"])  # 3.5 crashed analyze with TypeError
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SamplerConfig(seed=seed)

    def test_numpy_integers_accepted(self):
        # samples=np.int64(100) was rejected; a NumPy seed draws the int seed's stream
        cfg = SamplerConfig(samples=np.int64(100), seed=np.uint64(9))
        est = estimate_baseline(two_bucket_graph(), 2, cfg)
        assert est == estimate_baseline(two_bucket_graph(), 2, SamplerConfig(samples=100, seed=9))

    @pytest.mark.parametrize("order", [2, np.float64(2.0), np.float32(2.0)])
    def test_real_orders_give_the_same_estimate(self, order):
        h = Hypergraph([0, 1, 2, 0, 1, 2], [[0, 1, 2], [2, 3, 4], [1, 4, 5]])
        est = estimate_baseline(h, 3, SamplerConfig(samples=200, seed=3, diversity_order=order))
        assert est == estimate_baseline(h, 3, SamplerConfig(samples=200, seed=3, diversity_order=2.0))

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            estimate_baseline(two_bucket_graph(), 1, SamplerConfig(samples=10))

    def test_bounds(self):
        rng = np.random.default_rng(3)
        attrs = rng.integers(0, 3, 8)
        edges = [list(rng.choice(8, 3, replace=False)) for _ in range(6)]
        h = Hypergraph(attrs, edges)
        est = estimate_baseline(h, 3, SamplerConfig(samples=3000, seed=2))
        present = len(set(int(a) for a in attrs))
        assert 1.0 <= est.mean <= min(3, present)

    def test_std_error_scaling(self):
        h = Hypergraph([0, 0, 1, 1, 2], [[0, 2, 4], [1, 3, 4]])
        ses = []
        for samples in (1_000, 10_000, 100_000):
            est = estimate_baseline(h, 3, SamplerConfig(samples=samples, seed=11))
            ses.append(est.std_error)
        for a, b in zip(ses, ses[1:]):
            ratio = a / b  # expect ~sqrt(10) ~ 3.16
            assert math.sqrt(10) / 2 <= ratio <= 2 * math.sqrt(10)


class TestExact:
    def test_pure_population(self):
        h = Hypergraph([0, 0, 0], [[0, 1], [1, 2]])
        assert exact_baseline(h, 2) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_pairs_exactly_five_thirds(self):
        # 12 ordered pairs: 4 same-attribute, 8 cross
        assert exact_baseline(two_bucket_graph(), 2) == pytest.approx(5 / 3, abs=1e-12)

    def test_monte_carlo_agrees_with_oracle(self):
        # weights (2,1,1) realized as 2-degrees via a multiset of pair edges;
        # estimate_baseline is exact at size 2, so the sampler's pairs are
        # drawn here, from the stream estimate_baseline drew them from before
        h = Hypergraph([0, 1, 1], [[0, 1], [0, 2]])
        weights = k_degrees(h, 2).degrees
        assert list(weights) == [2, 1, 1]
        rng = np.random.default_rng(derive_seed(13, 2))
        sets = sample_weighted_k_sets(weights, 2, 20_000, rng)
        values = bulk_diversity(h.attributes[sets], 1.0)[0]
        exact = exact_baseline(h, 2)
        assert abs(values.mean() - exact) <= 3 * values.std(ddof=1) / math.sqrt(values.size)

    def test_weight_scaling_invariance(self):
        attrs = np.array([0, 1, 0, 2])
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        a = sequential_expected_diversity(attrs, weights, 2)
        b = sequential_expected_diversity(attrs, weights * 0.25, 2)
        assert a == pytest.approx(b, abs=1e-12)


@st.composite
def pair_hypergraphs(draw):
    """Up to 8 nodes in up to 4 labels, joined by pairs."""
    n = draw(st.integers(2, 8))
    attrs = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    return Hypergraph(attrs, draw(st.lists(pair, min_size=1, max_size=12)))


class TestExactPair:
    @given(pair_hypergraphs())
    @example(Hypergraph([0, 0, 0, 1], [[0, 1], [1, 2], [2, 3]]))  # a label with one node
    @example(Hypergraph([0, 1, 1], [[0, 1], [0, 1, 2]]))  # n_2 = 2
    @example(Hypergraph([0, 0, 0, 0, 1], [[0, 1], [1, 2], [2, 3], [3, 0]] * 25 + [[3, 4]]))
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, h):
        # the last example's label 0 holds 201 of the 202 units of mass
        for order in (0.0, 1.0, 2.0):
            est = estimate_baseline(h, 2, SamplerConfig(samples=7, seed=1, diversity_order=order))
            assert est.std_error == 0.0
            assert est.mean == pytest.approx(exact_baseline(h, 2, order), abs=1e-12)

    def test_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the baseline drew random numbers")

        monkeypatch.setattr(nullmodel, "derive_seed", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        h = Hypergraph([0, 1, 0, 1], [[0, 1], [1, 2], [1, 2, 3]])
        cfg = SamplerConfig(samples=500, seed=4, diversity_order=2.0)
        est = estimate_baseline(h, 2, cfg)
        assert (est.samples, est.std_error) == (0, 0.0)
        with pytest.raises(AssertionError, match="drew random numbers"):
            estimate_baseline(h, 3, cfg)  # the larger size does reach the patched names


def random_realizable_instance(rng, max_degree=5):
    """Hypergraph whose k-degrees are bounded by ``max_degree``; returns (h, k)."""
    n = int(rng.integers(4, 11))
    k = int(rng.integers(2, 5))
    attrs = rng.integers(0, int(rng.integers(2, 5)), n)
    degrees = np.zeros(n, dtype=int)
    edges = []
    for _ in range(int(rng.integers(1, 9))):
        available = np.flatnonzero(degrees < max_degree)
        if available.size < k:
            break
        edge = rng.choice(available, k, replace=False)
        degrees[edge] += 1
        edges.append(list(edge))
    return Hypergraph(attrs, edges), k


def hundred_instances():
    """100 random realizable instances, each with its sampler seed."""
    rng = np.random.default_rng(424242)
    for _ in range(100):
        h, k = random_realizable_instance(rng)
        yield h, k, int(rng.integers(2**32))


# The most instances of 100 that may fall beyond 3 SE at an order other than
# 1: the upper 1e-4 point of Binomial(100, 0.0027), 0.0027 being the two-sided
# 3-SE rate (it is 4). Fixed before any run, as CHI2_Z in test_sampler_paths.py is.
ORDER_FAILURES = max_beyond(0.0027, 100)


class TestOracleAgreement:
    @staticmethod
    def failures(order):
        # the 1e-9 slack only absorbs float noise when SE is exactly 0
        count = 0
        for h, k, seed in hundred_instances():
            exact = exact_baseline(h, k, order)
            cfg = SamplerConfig(samples=10_000, seed=seed, diversity_order=order)
            est = estimate_baseline(h, k, cfg)
            count += abs(est.mean - exact) > 3 * est.std_error + 1e-9
        return count

    def test_hundred_seeds(self):
        # statistical contract: |MC mean - exact| <= 3 SE in >= 99% of runs
        assert self.failures(1.0) <= 1

    @pytest.mark.parametrize("order", [0.0, 0.9, 2.0])
    def test_other_orders(self, order):
        # _hill's count, log1p and general branches, at k = 3 and 4 too
        assert self.failures(order) <= ORDER_FAILURES
