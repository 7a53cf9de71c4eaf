"""Perplexity and Hill-number tests, including the published worked examples."""

import decimal
import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhomophily import (
    Hypergraph,
    SamplerConfig,
    bulk_diversity,
    composition,
    hill_number,
    perplexity,
)


def entropy_oracle(counts):
    """Independent route: product form prod p_i^(-p_i)."""
    total = sum(counts)
    return math.prod((c / total) ** -(c / total) for c in counts)


def decimal_hill(counts, q):
    """The Hill number in 40-digit decimal arithmetic, for orders near 1."""
    with decimal.localcontext() as context:
        context.prec = 40
        q = decimal.Decimal(q)
        total = sum(counts)
        s_q = sum(((decimal.Decimal(c) / total).ln() * q).exp() for c in counts)
        return float((s_q.ln() / (1 - q)).exp())


def reference_hill(counts, q):
    """Plain-Python Hill number straight from the definition."""
    total = sum(counts)
    p = [c / total for c in counts]
    if q == 1.0:
        return 2.0 ** -sum(x * math.log2(x) for x in p)
    return sum(x**q for x in p) ** (1.0 / (1.0 - q))


DIVERSITIES = [perplexity, lambda counts: hill_number(counts, 2.0)]


class TestComposition:
    def test_mixed_department_group(self):
        # four members, two share one attribute, two others distinct
        h = Hypergraph([1, 1, 0, 2], [[0, 1, 2, 3]])
        c = composition(h, 0)
        assert c.dtype == np.int64
        assert c.tolist() == [1, 2, 1]  # in ascending attribute order

    def test_pure_edge(self):
        h = Hypergraph([3] * 5, [[0, 1, 2, 3, 4]], attribute_names=list("abcd"))
        assert composition(h, 0).tolist() == [5]

    def test_all_distinct(self):
        h = Hypergraph([0, 1, 2, 3], [[0, 1, 2, 3]])
        assert composition(h, 0).tolist() == [1, 1, 1, 1]

    def test_invalid_index(self):
        h = Hypergraph([0], [[0]])
        with pytest.raises(IndexError):
            composition(h, 1)

    def test_unlabeled_node_rejected(self):
        with pytest.raises(ValueError, match="unlabeled"):
            Hypergraph([0, -1], [[0, 1]])

    def test_counts_must_be_positive(self):
        for counts, diversity in itertools.product([[0, 2], [], [3, -1]], DIVERSITIES):
            with pytest.raises(ValueError, match="non-empty sequence of integers >= 1"):
                diversity(counts)

    @pytest.mark.parametrize(
        "counts", [[2.5, 1], [True, 1], [2.0], np.array([2.0, 1.0]), np.array([True, True])]
    )
    def test_counts_must_be_integers(self, counts):
        # 2.5 was accepted, and hill_number cast it to 2 but divided by 3.5
        for diversity in DIVERSITIES:
            with pytest.raises(ValueError, match="attribute counts must be integers"):
                diversity(counts)

    @pytest.mark.parametrize("counts", [3, [[2, 1]], np.ones((2, 2), dtype=np.int64)])
    def test_counts_must_be_flat(self, counts):
        for diversity in DIVERSITIES:
            with pytest.raises(ValueError, match="flat sequence of integers"):
                diversity(counts)

    @pytest.mark.parametrize(
        "counts", [[2**63, 1], np.array([2**63, 1], dtype=np.uint64)], ids=["int", "uint64"]
    )
    def test_counts_past_int64_rejected(self, counts):
        # read as float64 values, or wrapped negative by the int64 cast
        for diversity in DIVERSITIES:
            with pytest.raises(ValueError, match=r"attribute counts must lie in the int64 range"):
                diversity(counts)

    def test_counts_accept_numpy_integers(self):
        for q in (0.0, 0.5, 1.0, 2.0):
            assert hill_number(np.array([3, 1], dtype=np.uint8), q) == hill_number([3, 1], q)
            assert hill_number([np.int64(3), np.uint16(1)], q) == hill_number([3, 1], q)
            # widened to int64, so a narrow dtype does not overflow the total: 200 + 100 is 300
            assert hill_number(np.array([200, 100], dtype=np.uint8), q) == hill_number([2, 1], q)
        assert perplexity(np.array([200, 100], dtype=np.uint8)) == perplexity((2, 1))


class TestPerplexity:
    def test_two_one_one(self):
        # published worked example: effectively ~2.83 departments
        assert perplexity((2, 1, 1)) == pytest.approx(2.8284271247461903, abs=1e-12)

    def test_pure_is_exactly_one(self):
        assert perplexity((4,)) == 1.0

    def test_balanced_four_is_exactly_four(self):
        assert perplexity((1, 1, 1, 1)) == 4.0

    def test_eight_one_one(self):
        expected = entropy_oracle([8, 1, 1])
        value = perplexity((8, 1, 1))
        assert value == pytest.approx(expected, abs=1e-12)
        assert round(value, 2) == 1.89

    def test_matches_oracle(self):
        for counts in [(5, 3), (7, 2, 2, 1), (10, 1), (2, 2, 3)]:
            assert perplexity(counts) == pytest.approx(
                entropy_oracle(counts), abs=1e-12
            )


class TestHillNumber:
    def test_inverse_simpson_eight_one_one(self):
        # squared proportions: 1 / (0.64 + 0.01 + 0.01)
        assert hill_number((8, 1, 1), 2.0) == pytest.approx(1 / 0.66, abs=1e-12)

    def test_pure_any_order(self):
        for q in (0.0, 0.5, 1.0, 2.0, 17.0):
            assert hill_number((9,), q) == 1.0

    def test_richness(self):
        assert hill_number((1, 1, 1), 0.0) == 3.0

    def test_order_one_limit_matches_perplexity(self):
        c = (2, 1, 1)
        assert hill_number(c, 1.0) == perplexity(c)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hill_number((1, 1), -0.5)

    @pytest.mark.parametrize("q", [float("nan"), float("inf")])
    def test_non_finite_order_rejected(self, q):
        with pytest.raises(ValueError, match="finite"):
            hill_number((2, 1), q)
        with pytest.raises(ValueError, match="finite"):
            bulk_diversity(np.array([[0, 0, 1]]), q)
        with pytest.raises(ValueError, match="finite"):
            SamplerConfig(diversity_order=q)

    @pytest.mark.parametrize("q", [True, "1", None])
    def test_non_real_order_rejected(self, q):
        # True computed order 1; SamplerConfig kept "1" and copied it into estimates
        with pytest.raises(ValueError, match="diversity order must be a real number"):
            hill_number((2, 1), q)
        with pytest.raises(ValueError, match="diversity order must be a real number"):
            bulk_diversity(np.array([[0, 0, 1]]), q)
        with pytest.raises(ValueError, match="diversity order must be a real number"):
            SamplerConfig(diversity_order=q)

    @pytest.mark.parametrize("q", [2, np.float64(2.0), np.float32(2.0)])
    def test_real_orders_give_the_same_values(self, q):
        labels = np.array([[0, 0, 1, 2], [1, 1, 1, 0]])
        assert hill_number((2, 1, 1), q) == hill_number((2, 1, 1), 2.0)
        assert bulk_diversity(labels, q)[0].tolist() == bulk_diversity(labels, 2.0)[0].tolist()
        cfg = SamplerConfig(diversity_order=q)
        assert type(cfg.diversity_order) is float and cfg == SamplerConfig(diversity_order=2.0)

    def test_orders_near_one_keep_full_precision(self):
        # the log-sum form's rounding grows by 1/|1-q|: 2e-8 relative at 1+1e-8
        for q in (1.0 + 1e-8, 1.0 - 1e-5, 1.2):
            exact = decimal_hill([1, 2, 1, 1], q)
            for counts in itertools.permutations([1, 2, 1, 1]):
                assert hill_number(counts, q) == pytest.approx(exact, rel=1e-14)

    def test_huge_counts(self):
        # the scalar route works on the counts, never on one label per member
        assert hill_number((10**9, 10**9), 2.0) == 2.0
        assert hill_number((3 * 10**9, 10**9), 1.0) == pytest.approx(
            entropy_oracle([3, 1]), rel=1e-12
        )
        # the total, 2^63, would wrap in an int64 sum
        assert hill_number((3 * 2**61, 2**61), 1.0) == pytest.approx(
            entropy_oracle([3, 1]), rel=1e-12
        )

    def test_large_order_approaches_inverse_max_proportion(self):
        c = (8, 1, 1)
        assert hill_number(c, 200.0) == pytest.approx(1 / 0.8, rel=1e-2)

    @pytest.mark.parametrize("q", [1e300, 1e305, 1e308, sys.float_info.max])
    def test_orders_near_the_float_limit_give_inverse_max_proportion(self, q):
        # order * log(max p) overflowed past about 1e308, which read as richness
        counts = [2, 2] + [1] * 16
        assert hill_number(counts, q) == pytest.approx(10.0, rel=1e-14)
        labels = np.repeat(np.arange(len(counts)), counts)[np.newaxis]
        assert bulk_diversity(labels, q)[0][0] == pytest.approx(10.0, rel=1e-14)


counts_lists = st.lists(st.integers(1, 20), min_size=1, max_size=8)
orders = st.floats(0.0, 30.0, allow_nan=False)


class TestProperties:
    @given(counts_lists, orders)
    def test_bounds(self, counts, q):
        assert 1.0 <= hill_number(counts, q) <= len(counts)

    @given(counts_lists, st.floats(1e-6, 30.0, allow_nan=False))
    def test_equality_conditions(self, counts, q):
        # iff conditions hold for orders bounded away from 0, where floating
        # point can still separate near-balanced from balanced
        value = hill_number(counts, q)
        m = len(counts)
        balanced = len(set(counts)) == 1
        assert (value == m) == balanced
        assert (value == 1.0) == (m == 1)

    @given(counts_lists, orders, st.randoms())
    def test_permutation_invariance(self, counts, q, rnd):
        shuffled = list(counts)
        rnd.shuffle(shuffled)
        a = hill_number(counts, q)
        b = hill_number(shuffled, q)
        assert a == pytest.approx(b, abs=1e-12)

    @given(counts_lists, orders, st.integers(2, 9))
    def test_replication_invariance(self, counts, q, mult):
        a = hill_number(counts, q)
        b = hill_number([c * mult for c in counts], q)
        assert a == pytest.approx(b, abs=1e-12)

    @given(counts_lists, orders, orders)
    def test_monotone_in_order(self, counts, q1, q2):
        lo, hi = sorted((q1, q2))
        assert hill_number(counts, lo) >= hill_number(counts, hi) - 1e-9

    @given(st.lists(st.integers(1, 25), min_size=1, max_size=4))
    def test_continuity_at_order_one(self, counts):
        base = perplexity(counts)  # size <= 100 by construction
        assert abs(hill_number(counts, 1.0 + 1e-6) - base) <= 1e-4
        assert abs(hill_number(counts, 1.0 - 1e-6) - base) <= 1e-4

    def test_two_attribute_curve_shape(self):
        # symmetric around the even split, 1 at the extremes, peak of 2 at 50/50
        n = 100
        values = {}
        for i in range(0, n + 1):
            counts = [c for c in (i, n - i) if c > 0]
            values[i] = perplexity(counts)
        assert values[0] == values[n] == 1.0
        assert values[n // 2] == 2.0
        for i in range(0, n + 1):
            assert values[i] == pytest.approx(values[n - i], abs=1e-12)
        for i in range(0, n // 2):
            assert values[i] < values[i + 1]


class TestBulkDiversity:
    @given(
        st.integers(1, 12),
        st.integers(1, 30),
        st.floats(0.0, 10.0, allow_nan=False),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_matches_scalar_route(self, k, rows, q, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 5, size=(rows, k))
        values, distinct = bulk_diversity(labels, q)
        for row, value, m in zip(labels, values, distinct):
            counts = np.unique(row, return_counts=True)[1]
            assert m == counts.size
            assert value == pytest.approx(hill_number(counts, q), abs=1e-9)

    def test_empty_input(self):
        values, distinct = bulk_diversity(np.empty((0, 3), dtype=int), 1.0)
        assert values.size == 0 and distinct.size == 0

    @pytest.mark.parametrize(
        "labels",
        [np.empty((2, 0), int), np.empty((0, 0), int), np.array([0, 1, 1]), np.zeros((2, 2, 2), int)],
    )
    def test_labels_must_be_2d_with_columns(self, labels):
        # no columns failed inside np.maximum.reduceat, a 1-d array in tuple unpacking
        with pytest.raises(ValueError, match=re.escape(f"got shape {labels.shape}")):
            bulk_diversity(labels, 1.0)

    @pytest.mark.parametrize(
        "labels",
        [np.array([[0.5, 0.25]]), np.array([[True, False]]), np.array([[1, 2]], dtype=object)],
        ids=["float", "bool", "object"],
    )
    def test_labels_must_be_integers(self, labels):
        # a float matrix was scored as two labels
        with pytest.raises(ValueError, match=f"labels must be integers, got {labels.dtype} values"):
            bulk_diversity(labels, 1.0)

    def test_nested_list_is_scored_as_its_int64_array(self):
        # a list failed on labels.ndim with AttributeError
        rows = [[0, 1, 1, 3], [2, 2, 2, 2], [5, 0, 1, 3]]
        for q in (0.0, 1.0, 2.0):
            got, expected = bulk_diversity(rows, q), bulk_diversity(np.array(rows, np.int64), q)
            assert [a.dtype for a in got] == [a.dtype for a in expected]
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.parametrize(
        "labels, message",
        [([[0.5, 0.25]], "labels must be integers, got float64 values"),
         ([0, 1, 1], re.escape("got shape (3,)"))],
        ids=["float", "1-d"],
    )
    def test_bad_nested_lists_are_refused(self, labels, message):
        with pytest.raises(ValueError, match=message):
            bulk_diversity(labels, 1.0)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16])
    def test_narrow_integer_labels_give_the_int64_result(self, dtype):
        labels = np.array([[0, 1, 1, 3], [2, 2, 2, 2], [5, 0, 1, 3]])
        for q in (0.0, 1.0, 2.0):
            got, expected = bulk_diversity(labels.astype(dtype), q), bulk_diversity(labels, q)
            assert [a.dtype for a in got] == [a.dtype for a in expected]
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=8),
        st.sampled_from([0.0, 0.5, 2.0, 3.0, 7.5, 1.0]),
    )
    def test_matches_reference_formula(self, counts, q):
        labels = np.repeat(np.arange(len(counts)), counts)[None, :]
        value = bulk_diversity(labels, q)[0][0]
        assert value == pytest.approx(reference_hill(counts, q), rel=1e-12)

    @given(
        st.lists(
            st.lists(st.integers(0, 4), min_size=4, max_size=4)
            | st.integers(0, 4).map(lambda a: [a] * 4)  # pure
            | st.permutations([0, 0, 3, 3]),  # balanced
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.5]),
    )
    def test_scalar_route_is_bulk_row_bit_for_bit(self, rows, q):
        h = Hypergraph(
            np.array(rows).ravel(), [range(4 * i, 4 * i + 4) for i in range(len(rows))]
        )
        values, _ = bulk_diversity(np.array(rows), q)
        for e, value in enumerate(values):
            assert hill_number(composition(h, e), q) == value
