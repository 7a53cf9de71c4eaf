"""The null-model sampler's two paths: per-slot rejection and the key race.

``reference_key_race`` is the exponential key race that drew every size in
version 0.1.0. It stays here, test-only, as the reference for two-sample
checks of the current drawer. The oracle checks pin instances to each path
and compare them with the exact enumeration behind ``exact_baseline``.
"""

import math
import tracemalloc

import numpy as np
import pytest

from hyperhomophily import (
    Hypergraph,
    SamplerConfig,
    bulk_diversity,
    estimate_baseline,
    exact_baseline,
    k_degrees,
    sample_weighted_k_sets,
)
from hyperhomophily import nullmodel
from hyperhomophily.nullmodel import (
    _draw_batches,
    _exact_expected_diversity,
    _prefer_race,
    _sample_diversities,
)

CHI2_Z = 3.719  # upper 1e-4 point of the standard normal


def reference_key_race(weights, k, count, rng):
    """Keys Exp(1)/w over the positive weights; the k smallest, in key order."""
    pos = np.flatnonzero(weights > 0)
    keys = rng.exponential(size=(count, pos.size)) / weights[pos]
    return pos[np.argsort(keys, axis=1)[:, :k]]


def drawn(weights, k, count, rng):
    """The production drawer's sets (in draw order on the rejection path)."""
    return np.concatenate(list(_draw_batches(weights, k, count, rng)))


def chi2_critical(df):
    """Upper 1e-4 point of chi-square(df), Wilson-Hilferty approximation."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + CHI2_Z * math.sqrt(c)) ** 3


def mass_bins(weights, bins):
    """Bin of each node: nodes sorted by weight, cut into equal-mass groups."""
    order = np.argsort(-weights, kind="stable")
    before = np.cumsum(weights[order]) - weights[order]
    bin_of = np.empty(weights.size, dtype=np.int64)
    bin_of[order] = np.minimum((before / weights.sum() * bins).astype(np.int64), bins - 1)
    return bin_of


def pareto_weights(n, seed):
    """Node activity shaped like the benchmark's Pareto(1.5) + 1 fixture."""
    return np.random.default_rng(seed).pareto(1.5, n) + 1.0


def concentrated_weights(n, seed):
    """A few nodes hold most of the mass: the race path."""
    w = pareto_weights(n, seed)
    w[:5] = w.sum()
    return w


class TestTwoSampleAgainstKeyRace:
    @pytest.mark.parametrize(
        "make_weights,k,race",
        [
            (pareto_weights, 2, False),
            (pareto_weights, 10, False),
            (pareto_weights, 40, False),
            (concentrated_weights, 10, True),
        ],
    )
    def test_slot_frequencies_and_mean_diversity(self, make_weights, k, race):
        n, count, bins = 500, 10_000, 10
        weights = make_weights(n, 11 + k)
        assert _prefer_race(weights, k) == race
        sets = drawn(weights, k, count, np.random.default_rng(2 * k))
        ref_sets = reference_key_race(weights, k, count, np.random.default_rng(2 * k + 1))

        bin_of = mass_bins(weights, bins)
        ours, ref = bin_of[sets], bin_of[ref_sets]
        if race:
            # the race returns sets, not draw order: compare the j-th smallest bin of each set
            ours, ref = np.sort(ours, axis=1), np.sort(ref, axis=1)
        # on the rejection path, the same law for every slot, not only for the set
        for j in range(k):
            a = np.bincount(ours[:, j], minlength=bins)
            b = np.bincount(ref[:, j], minlength=bins)
            used = (a + b) > 0
            if used.sum() < 2:
                assert np.array_equal(a, b), (j, a, b)
                continue
            stat = float(np.sum((a - b)[used] ** 2 / (a + b)[used]))
            assert stat <= chi2_critical(int(used.sum()) - 1), (j, a, b)

        attrs = np.random.default_rng(k).integers(80, size=n)
        da = bulk_diversity(attrs[sets], 1.0)[0]
        db = bulk_diversity(attrs[ref_sets], 1.0)[0]
        se = math.sqrt(da.var(ddof=1) / count + db.var(ddof=1) / count)
        # 4 combined SE over 4 comparisons: family-wise false alarm < 3e-4
        assert abs(da.mean() - db.mean()) <= 4 * se

    def test_rows_hold_distinct_nodes(self):
        weights = pareto_weights(300, 5)
        for k in (2, 10, 40):
            sets = np.sort(drawn(weights, k, 2_000, np.random.default_rng(k)), axis=1)
            assert not np.any(sets[:, 1:] == sets[:, :-1])


class TestOracleOnEachPath:
    @staticmethod
    def check(h, k, race, seed):
        w = k_degrees(h, k).degrees.astype(np.float64)
        assert _prefer_race(w[w > 0], k) == race
        exact = exact_baseline(h, k)
        est = estimate_baseline(h, k, SamplerConfig(samples=20_000, seed=seed))
        assert abs(est.mean - exact) <= 3 * est.std_error + 1e-9

    def test_rejection_path(self):
        # pairs on 8 nodes, no node near half the mass
        ring = [[i, (i + 1) % 8] for i in range(8)]
        h = Hypergraph([0, 0, 1, 1, 2, 2, 3, 0], ring + [[0, 4], [1, 5], [2, 6]])
        self.check(h, 2, race=False, seed=31)

    def test_race_path_by_concentration(self):
        # two hubs in every triple hold 2/3 of the mass
        h = Hypergraph([0, 1, 2, 2, 0, 1, 3, 3, 2, 0], [[0, 1, x] for x in range(2, 10)])
        w = k_degrees(h, 3).degrees.astype(np.float64)
        assert np.sort(w)[-2:].sum() > 0.5 * w.sum()
        self.check(h, 3, race=True, seed=33)


class CountingRng:
    """Generator stand-in that counts the variates it hands out.

    Past ``limit`` variates it fails the test, so a sampler that would loop
    for ~1e9 redraws fails fast instead of hanging.
    """

    def __init__(self, seed, limit):
        self._rng = np.random.default_rng(seed)
        self.limit = limit
        self.variates = 0

    def _count(self, size):
        self.variates += int(np.prod(size))
        assert self.variates <= self.limit, f"over {self.limit} variates"

    def random(self, size):
        self._count(size)
        return self._rng.random(size)

    def exponential(self, size):
        self._count(size)
        return self._rng.exponential(size=size)


class TestAdversarialWeights:
    """Weights that would make naive rejection loop for ~1e9 draws."""

    @staticmethod
    def check(attrs, weights, k, race, seed):
        n = int(np.count_nonzero(weights))
        samples = 20_000
        assert _prefer_race(weights[weights > 0], k) == race
        # the race reads n keys per sample; rejection averages <= 2 draws per slot
        work = samples * n if race else 2 * samples * k
        rng = CountingRng(seed, limit=2 * work)
        values = _sample_diversities(attrs, weights, k, samples, 1.0, rng)
        if race:
            assert rng.variates == work
        exact = _exact_expected_diversity(attrs, weights, k, 1.0)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - exact) <= 3 * se + 1e-9

    def test_few_huge_among_many_tiny_pairs(self):
        # three heavy nodes of a hundred: one holds a third, so rejection accepts >= 2/3
        weights = np.full(100, 1e-3)
        weights[[3, 6, 40]] = 1e6
        attrs = np.arange(100) % 3
        self.check(attrs, weights, 2, race=False, seed=41)

    def test_few_huge_among_many_tiny_triples(self):
        # the third slot must land on a tiny node: acceptance ~1e-8 per draw
        weights = np.full(25, 1e-3)
        weights[[0, 12]] = 1e6
        attrs = np.array([0, 1, 2, 3] * 6 + [0])
        self.check(attrs, weights, 3, race=True, seed=42)

    def test_whole_population_with_near_zero_weight(self):
        # n_k == k: the last slot is the near-zero node, acceptance ~2e-10;
        # a power of two keeps the oracle's running remainder exact
        weights = np.array([1.0, 1.0, 2.0**-32, 1.0, 1.0])
        attrs = np.array([0, 1, 1, 2, 0])
        self.check(attrs, weights, 5, race=True, seed=43)


class TestBoundedMemory:
    def test_batches_respect_cell_budget(self):
        weights = pareto_weights(2_000, 3)
        for k, count in ((2, 10**6), (10, 10**6)):
            rows = [len(b) for b in _draw_batches(weights, k, count, np.random.default_rng(k))]
            assert sum(rows) == count
            assert max(rows) * k <= nullmodel._BATCH_CELLS
        race = concentrated_weights(2_000, 3)
        for batch in _draw_batches(race, 10, 3_000, np.random.default_rng(1)):
            assert len(batch) * race.size <= nullmodel._BATCH_CELLS

    def test_million_sets_stay_within_budget(self, monkeypatch):
        monkeypatch.setattr(nullmodel, "_BATCH_CELLS", 1 << 16)
        weights = pareto_weights(1_000, 4)
        count, k = 10**6, 4
        tracemalloc.start()
        try:
            out = sample_weighted_k_sets(weights, k, count, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (count, k)
        # the output plus a few batch-sized temporaries, never count x k of them
        assert peak <= out.nbytes + 32 * 8 * (1 << 16)
