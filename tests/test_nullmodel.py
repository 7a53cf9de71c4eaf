"""Baseline tests, including the exact-enumeration oracle checks, and the
weighted reference that draws the calibration graphs (``TestSampler``)."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperhomophily import (
    Hypergraph,
    InsufficientPopulationError,
    SamplerConfig,
    analyze,
    bulk_diversity,
    composition,
    derive_seed,
    estimate_baseline,
    hill_number,
    k_degrees,
)
from hyperhomophily import nullmodel
from null_oracle import exact_baseline, weighted_k_sets
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
            assert list(weighted_k_sets(np.ones(4), 4, 1, rng)[0]) == [0, 1, 2, 3]

    def test_single_positive_weight(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert list(weighted_k_sets(np.array([1.0, 0, 0]), 1, 1, rng)[0]) == [0]

    def test_zero_weight_never_drawn(self):
        rng = np.random.default_rng(1)
        draws = weighted_k_sets(np.array([2.0, 0.0, 1.0, 1.0]), 2, 500, rng)
        assert not np.any(draws == 1)

    def test_insufficient_population(self):
        # the weighted reference refuses rather than redraw forever
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="need 2 positive-weight nodes, found 1"):
            weighted_k_sets(np.array([1.0, 0.0, 0.0]), 2, 1, rng)

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
        a = weighted_k_sets(weights, 2, 200, np.random.default_rng(7))
        b = weighted_k_sets(17.5 * weights, 2, 200, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestDot:
    """``_dot`` is ``a @ b`` in blocks; the blocked products may round
    differently from one whole product, so the check is to 1e-13."""

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((300, 100), (100,)), ((10, 12), (12, 7)), ((80, 144), (144, 40))],
        ids=["vector", "under-bound", "column-blocks"],
    )
    def test_matches_the_whole_product(self, a_shape, b_shape):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        np.testing.assert_allclose(nullmodel._dot(a, b), a @ b, rtol=1e-13, atol=0)


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
        # enumeration of the 6 unordered pairs: 2 pure, 4 mixed -> 5/3; size
        # 2 is exact, so to the exact orders' 1e-12
        est = estimate_baseline(two_bucket_graph(), 2, SamplerConfig(samples=20_000, seed=5))
        assert (est.mean, est.std_error) == (pytest.approx(5 / 3, abs=1e-12), 0.0)

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

    @pytest.mark.parametrize(
        "edges", [[[0], [1]], [], [[0, 1], [1, 2]]], ids=["size-1-only", "no-edges", "pairs-only"]
    )
    def test_absent_size_has_no_population(self, edges):
        h = Hypergraph([0, 1, 1], edges)
        with pytest.raises(InsufficientPopulationError, match="^no hyperedges of size 3$"):
            estimate_baseline(h, 3, SamplerConfig())

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.0])
    def test_label_ids_are_only_names(self, order):
        # ids far past the node count, in the same order, give the baselines
        # of the dense ids; node 0 is in every size-4 edge, so in every group
        edges = [[0, 1, 2, 3], [0, 2, 4, 5], [0, 1, 3, 5], [0, 3, 4, 5], [1, 2], [4, 5]]
        dense = Hypergraph([0, 1, 1, 2, 0, 2], edges)
        sparse = Hypergraph([5, 10**9, 10**9, 10**12, 5, 10**12], edges)
        cfg = SamplerConfig(samples=500, seed=5, diversity_order=order)
        for k in (2, 4):
            assert estimate_baseline(sparse, k, cfg) == estimate_baseline(dense, k, cfg)

    def test_unused_ids_below_the_pair_count_cost_nothing(self):
        # two labels, ids 0 and 1,000, on a graph of more node-size pairs than
        # that: label tables as wide as the largest id held 1,001 columns a
        # distinct degree, a 7.7 MB peak here against the dense ids' 1.5 MB, and
        # rounded differently
        rng = np.random.default_rng(4)
        n = 2_000
        weights = 1.0 / np.arange(1, n + 1)
        weights /= weights.sum()
        edges = [rng.choice(n, k, replace=False, p=weights) for k in range(2, 10) for _ in range(600)]
        dense = Hypergraph(np.arange(n) % 2, edges)
        sparse = Hypergraph(np.arange(n) % 2 * 1_000, edges)
        pairs = sum(np.count_nonzero(k_degrees(dense, k).degrees) for k in range(2, 10))
        assert pairs > 1_000
        sparse.edges_of_size(2)  # both graphs' size blocks are built before tracing
        peaks = []
        for h in (dense, sparse):
            tracemalloc.start()
            try:
                means = [estimate_baseline(h, k, SamplerConfig()).mean for k in range(2, 10)]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert means == [estimate_baseline(dense, k, SamplerConfig()).mean for k in range(2, 10)]
        assert peaks[1] <= 1.25 * peaks[0]

    def test_fit_that_does_not_converge_raises_and_keeps_nothing(self, monkeypatch):
        # one pass is too few for this size 3; the half-fitted null is not
        # kept, so a later call fits again
        monkeypatch.setattr(nullmodel, "_FIT_PASSES", 1)
        h = Hypergraph([0, 1, 0, 1, 1], [[0, 1, 2], [0, 2, 3], [0, 3, 4], [1, 2, 4], [0, 1]])
        with pytest.raises(ArithmeticError, match="^the null of size 3 did not converge$"):
            estimate_baseline(h, 3, SamplerConfig())
        assert h._null is None

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
        # order 2 is drawn; orders 0 and 1 are exact, with standard error 0
        h = Hypergraph([0, 0, 1, 1, 2], [[0, 2, 4], [1, 3, 4]])
        ses = []
        for samples in (1_000, 10_000, 100_000):
            cfg = SamplerConfig(samples=samples, seed=11, diversity_order=2.0)
            est = estimate_baseline(h, 3, cfg)
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
        # order 2 is the mean of drawn groups, which follow the CPS law
        h = Hypergraph([0, 1, 1, 2, 0, 2], [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5], [0, 1, 5]])
        est = estimate_baseline(h, 3, SamplerConfig(samples=20_000, seed=13, diversity_order=2.0))
        assert est.samples == 20_000
        assert abs(est.mean - exact_baseline(h, 3, 2.0)) <= 3 * est.std_error


class TestExactOnSpreadAndHubDegrees:
    """Order 1 is exact whether the k-degrees are spread or a few hubs hold
    most of their mass."""

    @staticmethod
    def check(h, k):
        est = estimate_baseline(h, k, SamplerConfig())
        assert est.std_error == 0.0
        assert abs(est.mean - exact_baseline(h, k)) <= 1e-9

    def test_spread_degrees(self):
        # pairs on 8 nodes, no node near half the mass
        ring = [[i, (i + 1) % 8] for i in range(8)]
        h = Hypergraph([0, 0, 1, 1, 2, 2, 3, 0], ring + [[0, 4], [1, 5], [2, 6]])
        self.check(h, 2)

    def test_hub_concentrated_degrees(self):
        # two hubs in every triple hold 2/3 of the mass
        h = Hypergraph([0, 1, 2, 2, 0, 1, 3, 3, 2, 0], [[0, 1, x] for x in range(2, 10)])
        w = k_degrees(h, 3).degrees.astype(np.float64)
        assert np.sort(w)[-2:].sum() > 0.5 * w.sum()
        self.check(h, 3)


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
        # size 3's groups hold the certainty nodes 2 and 3 and one of 0 and 1
        h = Hypergraph([0, 1, 0, 1], [[0, 1], [1, 2], [1, 2, 3], [0, 2, 3]])
        cfg = SamplerConfig(samples=500, seed=4, diversity_order=2.0)
        est = estimate_baseline(h, 2, cfg)
        assert (est.samples, est.std_error) == (0, 0.0)
        with pytest.raises(AssertionError, match="drew random numbers"):
            estimate_baseline(h, 3, cfg)  # the larger size does reach the patched names

    def test_one_sum_at_every_order(self):
        # order 0 had its own sum: 0x1.fba9386822a6fp+0 on the wide graph,
        # 4.8e-14 from the oracle's 0x1.fba9386822b47p+0
        orders = (0.0, 0.5, 1.0, 2.0, 3.0)
        h = wide_hypergraph()
        means = {estimate_baseline(h, 2, SamplerConfig(diversity_order=q)).mean for q in orders}
        assert len(means) == 1
        assert means.pop() == pytest.approx(exact_baseline(h, 2, 0.0), abs=1e-14, rel=0)
        for seed in range(40):
            h = stream_hypergraph(seed)
            if 2 in h.sizes:
                means = {estimate_baseline(h, 2, SamplerConfig(diversity_order=q)).mean for q in orders}
                assert len(means) == 1, seed


class TestKnownGroups:
    """A size with fewer than two labels among its free nodes has one label
    count vector for every group: its baseline is that vector's
    ``hill_number`` at every order, with no draws."""

    def test_a_balanced_single_edge_scores_zero(self):
        # the order-1 product of (c/k)^(-c/k) read 0x1.ffffffffffffep+0, and phi -4.4e-16
        h = Hypergraph([0] * 26 + [1] * 26 + [0, 1, 0, 1], [list(range(52)), [52, 53], [54, 55]])
        report = analyze(h, SamplerConfig(), emit_per_edge=True)
        assert (estimate_baseline(h, 52, SamplerConfig()).mean, report.per_edge.phi[0]) == (2.0, 0.0)

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize(
        "labels, edges, counts",
        [
            # nodes 0 and 1 (labels 0 and 2) are in every triple, and its
            # third node is one of 2, 3 and 4, all of label 1
            ([0, 2, 1, 1, 1, 0, 1], [[0, 1, 2], [0, 1, 3], [0, 1, 4], [5, 6], [2, 5]], [1, 1, 1]),
            ([1, 1, 1, 1, 0], [[0, 1, 2], [1, 2, 3], [0, 2, 3], [3, 4]], [3]),
        ],
        ids=["one-free-label-beside-certainty-nodes", "one-label-population"],
    )
    def test_every_order_is_the_groups_hill_number(self, labels, edges, counts, order):
        est = estimate_baseline(Hypergraph(labels, edges), 3, SamplerConfig(diversity_order=order))
        assert (est.mean, est.std_error, est.samples) == (hill_number(counts, order), 0.0, 0)

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.0])
    def test_single_edge_sizes_match_their_edge(self, order):
        # one edge of each size 3..59 over 2..11 labels: every node of a size
        # is in its every group, so the baseline is the edge's own diversity
        cfg = SamplerConfig(diversity_order=order)
        missed = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, rng.integers(2, 12), 60)
            edges = [rng.choice(60, k, replace=False) for k in range(3, 60)]
            h = Hypergraph(labels, edges)
            for edge in edges:
                want = bulk_diversity(labels[edge][None, :], order)[0][0]
                missed += int(estimate_baseline(h, edge.size, cfg).mean != want)
        assert missed == 0


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
# 3-SE rate (it is 4). Fixed before any run, as CHI2_Z in seed_bounds.py is.
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


class TestBoundedMemory:
    def test_baseline_memory_does_not_grow_with_samples(self, monkeypatch):
        # the draws' diversities were all held at once: 16 bytes a sample.
        # Order 2 is drawn (orders 0 and 1 are exact), from the kept null
        monkeypatch.setattr(nullmodel, "_BATCH_CELLS", 3_000)  # 1,000 rows a batch at k = 3
        h = golden_hypergraph()
        estimate_baseline(h, 2, SamplerConfig())
        peaks = []
        for samples in (10**4, 10**5):
            tracemalloc.start()
            try:
                estimate_baseline(h, 3, SamplerConfig(samples=samples, seed=1, diversity_order=2.0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_a_full_batch_holds_at_most_four_count_matrices(self):
        # 80,000 samples at k = 30 is one full batch of 69,905 rows of 60
        # labels; copying its count matrix peaked at 5.4 such matrices
        h = wide_hypergraph()
        estimate_baseline(h, 2, SamplerConfig())  # the fit, kept on h
        rows = nullmodel._BATCH_CELLS // 60
        tracemalloc.start()
        try:
            estimate_baseline(h, 30, SamplerConfig(samples=80_000, diversity_order=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 69_905
        assert peak <= 4 * rows * 60 * 8

    @pytest.mark.parametrize("order", [0.5, 2.0, 3.0])
    def test_merged_batches_match_the_concatenated_draws(self, monkeypatch, order):
        # orders 0 and 1 are exact; the others merge the drawn batches
        monkeypatch.setattr(nullmodel, "_BATCH_CELLS", 3_000)  # 750 rows a batch of 4 labels
        h, k = golden_hypergraph(), 5
        cfg = SamplerConfig(samples=10_000, seed=9, diversity_order=order)
        est = estimate_baseline(h, k, cfg)
        # the same stream, all at once
        null = h._null
        i = int(np.searchsorted(null.sizes, k))
        rng = np.random.default_rng(derive_seed(cfg.seed, k))
        batches = [
            [hill_number(row[row > 0], order) for row in counts]
            for counts in null._label_counts(i, cfg.samples, rng)
        ]
        assert len(batches) > 1
        values = np.concatenate(batches)
        assert values.size == est.samples == cfg.samples
        assert est.mean == pytest.approx(np.mean(values), rel=1e-12, abs=0)
        expected = np.std(values, ddof=1) / math.sqrt(cfg.samples)
        assert est.std_error == pytest.approx(expected, rel=1e-12, abs=0)


# (k, order): (mean, std_error) of estimate_baseline on golden_hypergraph(),
# recorded when the conditional Poisson null replaced the sequential one;
# orders 0 and 1 are exact, and so is size 2, the same at every order
GOLDEN_BASELINES = {
    (2, 0.0): ("0x1.c0ea4f9c8abccp+0", "0x0.0p+0"),
    (2, 1.0): ("0x1.c0ea4f9c8abccp+0", "0x0.0p+0"),
    (2, 2.0): ("0x1.c0ea4f9c8abccp+0", "0x0.0p+0"),
    (5, 0.0): ("0x1.872713043235ep+1", "0x0.0p+0"),
    (5, 1.0): ("0x1.6b7462d317a62p+1", "0x0.0p+0"),
    (5, 2.0): ("0x1.58dc4bbf38c42p+1", "0x1.7b79838e38da2p-7"),
    (8, 0.0): ("0x1.cd13b09671670p+1", "0x0.0p+0"),
    (8, 1.0): ("0x1.a0a50a845ba79p+1", "0x0.0p+0"),
    (8, 2.0): ("0x1.82994e9085864p+1", "0x1.3cd2c6678bcc2p-7"),
}


def golden_hypergraph():
    rng = np.random.default_rng(5)
    attrs = rng.integers(0, 4, 300)
    edges = [rng.choice(300, size=s, replace=False) for s in rng.integers(2, 9, 2000)]
    return Hypergraph(attrs, edges)


class TestGoldenStream:
    """The baselines, pinned bit for bit: a change to how groups are drawn
    must leave every estimate as it was."""

    def test_baselines(self):
        h = golden_hypergraph()
        for (k, order), (mean, std_error) in GOLDEN_BASELINES.items():
            cfg = SamplerConfig(samples=3000, seed=9, diversity_order=order)
            est = estimate_baseline(h, k, cfg)
            assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error), (k, order)


# (k, order): (mean, std_error) of estimate_baseline on wide_hypergraph() at
# 300 samples, recorded before the label tables were built in one place per
# size; size 2 at order 0 re-recorded when a pair took the order-1 sum at every
# order. At 60 labels, sizes from 29 up take _dot's column blocks at orders 1 and 2
WIDE_BASELINES = {
    (2, 0.0): ("0x1.fba9386822b57p+0", "0x0.0p+0"),
    (2, 1.0): ("0x1.fba9386822b57p+0", "0x0.0p+0"),
    (2, 2.0): ("0x1.fba9386822b57p+0", "0x0.0p+0"),
    (3, 0.0): ("0x1.79095edfadaebp+1", "0x0.0p+0"),
    (3, 1.0): ("0x1.784748ffd0284p+1", "0x0.0p+0"),
    (3, 2.0): ("0x1.79db22d0e5603p+1", "0x1.bd9dcea0500b1p-7"),
    (17, 0.0): ("0x1.dbae7cef15a18p+3", "0x0.0p+0"),
    (17, 1.0): ("0x1.c8e2e3438384bp+3", "0x0.0p+0"),
    (17, 2.0): ("0x1.ac10bcd7bcc64p+3", "0x1.9a0118e12c47cp-4"),
    (29, 0.0): ("0x1.727965b4fa3c4p+4", "0x0.0p+0"),
    (29, 1.0): ("0x1.5afd48632e692p+4", "0x0.0p+0"),
    (29, 2.0): ("0x1.43f3a215121fap+4", "0x1.14e4bab9bb0c2p-3"),
    (40, 0.0): ("0x1.d5bfff2a50bbdp+4", "0x0.0p+0"),
    (40, 1.0): ("0x1.af73bf570c6adp+4", "0x0.0p+0"),
    (40, 2.0): ("0x1.87a1474870229p+4", "0x1.39c70fa15cfa1p-3"),
}


def wide_hypergraph():
    """3,000 nodes of 60 labels, 30 edges of each size 2..40."""
    n = 3_000
    rng = np.random.default_rng(40)
    edges = [rng.choice(n, k, replace=False) for k in range(2, 41) for _ in range(30)]
    return Hypergraph(np.arange(n) % 60, edges)


class TestWideStream:
    """The baselines of many labels and large sizes, pinned bit for bit."""

    def test_baselines(self, monkeypatch):
        blocked = []
        dot = nullmodel._dot

        def counted_dot(a, b):
            blocked.append(b.ndim == 2 and a.size * b.shape[1] > 1 << 18)
            return dot(a, b)

        monkeypatch.setattr(nullmodel, "_dot", counted_dot)
        h = wide_hypergraph()
        for (k, order), (mean, std_error) in WIDE_BASELINES.items():
            est = estimate_baseline(h, k, SamplerConfig(samples=300, diversity_order=order))
            assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error), (k, order)
        assert any(blocked)


def stream_hypergraph(seed):
    """A small graph of five sizes from 2..9, one of each kind: a hub node in
    every edge (a certainty node), one label alone, one edge (k' = 0), labels
    that no other size holds, and plain random edges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 25))
    labels = rng.integers(0, int(rng.integers(2, 6)), n).tolist()
    edges = []
    for k, kind in zip(rng.permutation(np.arange(2, 10)).tolist(), rng.permutation(5).tolist()):
        start = len(labels)
        if kind == 0:
            others = np.arange(1, n)
            edges += [[0, *rng.choice(others, k - 1, replace=False)] for _ in range(rng.integers(2, 6))]
        elif kind == 1:
            labels += [1] * (k + 2)
            edges += [rng.choice(np.arange(start, start + k + 2), k, replace=False) for _ in range(3)]
        elif kind == 2:
            edges.append(rng.choice(n, k, replace=False))
        elif kind == 3:
            labels += (rng.integers(7, 10, 3) * 11).tolist()
            pool = np.r_[:n, start : start + 3]
            edges += [rng.choice(pool, k, replace=False) for _ in range(rng.integers(2, 7))]
        else:
            edges += [rng.choice(n, k, replace=False) for _ in range(rng.integers(2, 7))]
    return Hypergraph(labels, edges)


# sha256 of every size's mean and standard error, in hex, over the 120
# stream_hypergraph graphs at 200 samples, recorded before the draws were
# scored in one pass over the labels each size holds
STREAM_DIGESTS = {
    0.5: "d63b56e2f087d45120a6491be57f7bea264007d282e1c04f6ca72dd9f3375f99",
    1.0: "836ffd1b465edec801ccb479ec1011222afa33bc3cbd63a278956ecb3188ba1c",
    2.0: "cd3f5536900cecef0612cd46ceefbe9193f8247d9225523d6b1c6cd34d014b57",
    3.0: "6e10b923f36b08accf02e004d5003cb07f59c4308670da401f2083f7416010e1",
}


class TestSampledStreams:
    """Certainty nodes, one-label and k' = 0 sizes and labels held by some
    sizes only, at sampled orders, pinned bit for bit."""

    def test_digests(self, monkeypatch):
        monkeypatch.setattr(nullmodel, "_BATCH_CELLS", 300)  # a few dozen rows a batch
        graphs = [stream_hypergraph(seed) for seed in range(120)]
        for order, want in STREAM_DIGESTS.items():
            cfg = SamplerConfig(samples=200, seed=7, diversity_order=order)
            digest = hashlib.sha256()
            for h in graphs:
                for k in np.unique(h.sizes).tolist():
                    est = estimate_baseline(h, k, cfg)
                    digest.update(f"{k} {est.mean.hex()} {est.std_error.hex()}\n".encode())
            assert digest.hexdigest() == want, order
