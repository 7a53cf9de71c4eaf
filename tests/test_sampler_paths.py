"""The null-model sampler: per-slot rejection, its one path.

``reference_key_race`` is the exponential key race that drew every size in
version 0.1.0, and the concentrated sizes until it was removed. It stays
here, test-only, as the reference for two-sample checks of the drawer. The
oracle checks compare draws on spread and on concentrated weights with the
exact enumeration of ``null_oracle``.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperhomophily import (
    HsbmConfig,
    Hypergraph,
    SamplerConfig,
    bulk_diversity,
    derive_seed,
    estimate_baseline,
    generate_hsbm,
    k_degrees,
)
from hyperhomophily import nullmodel
from hyperhomophily.nullmodel import (
    _draw_batches,
    _guide_table,
    _guided_search,
    _rejection_batch,
)
from null_oracle import exact_baseline, sequential_expected_diversity, weighted_k_sets

CHI2_Z = 3.719  # upper 1e-4 point of the standard normal


def reference_key_race(weights, k, count, rng):
    """Keys Exp(1)/w over the positive weights; the k smallest, in key order."""
    pos = np.flatnonzero(weights > 0)
    keys = rng.exponential(size=(count, pos.size)) / weights[pos]
    return pos[np.argsort(keys, axis=1)[:, :k]]


def used_to_race(w, k):
    """Do the k-1 largest of the positive weights ``w`` hold more than half
    the mass? The sampler sent such sizes to the key race until it was
    removed; the tests below keep their inputs on the side they were on."""
    n = w.size
    return k > 1 and bool(np.partition(w, n - k + 1)[n - k + 1 :].sum() > 0.5 * w.sum())


def reference_rejection_batch(cdf, k, rows, rng):
    """Per-slot rejection with one RNG call per slot and per redraw round:
    the stream the batched draw must reproduce, value for value."""
    out = np.empty((k, rows), dtype=np.int64)
    for j in range(k):
        out[j] = cdf.searchsorted(rng.random(rows), "right")
        redo = (out[:j] == out[j]).any(axis=0).nonzero()[0]
        while redo.size:
            col = cdf.searchsorted(rng.random(redo.size), "right")
            out[j, redo] = col
            redo = redo[(out[:j, redo] == col).any(axis=0)]
    return out.T


def drawn(weights, k, count, rng):
    """The production drawer's sets, in draw order."""
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
    """A few nodes hold most of the mass: the sizes that used to race."""
    w = pareto_weights(n, seed)
    w[:5] = w.sum()
    return w


class TestTwoSampleAgainstKeyRace:
    @pytest.mark.parametrize(
        "make_weights,k,concentrated",
        [
            (pareto_weights, 2, False),
            (pareto_weights, 10, False),
            (pareto_weights, 40, False),
            (concentrated_weights, 10, True),
        ],
    )
    def test_slot_frequencies_and_mean_diversity(self, make_weights, k, concentrated):
        n, count, bins = 500, 10_000, 10
        weights = make_weights(n, 11 + k)
        assert used_to_race(weights, k) == concentrated
        sets = drawn(weights, k, count, np.random.default_rng(2 * k))
        ref_sets = reference_key_race(weights, k, count, np.random.default_rng(2 * k + 1))

        bin_of = mass_bins(weights, bins)
        ours, ref = bin_of[sets], bin_of[ref_sets]
        # the same law for every slot, not only for the set
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
            sets = weighted_k_sets(weights, k, 2_000, np.random.default_rng(k))
            assert not np.any(sets[:, 1:] == sets[:, :-1])


class TestOracleOnEachPath:
    """Spread and concentrated k-degrees: the two sides of the line that
    split the sampler into rejection and the key race until the race was
    removed. Both now draw by rejection."""

    @staticmethod
    def check(h, k, concentrated, seed):
        w = k_degrees(h, k).degrees.astype(np.float64)
        assert used_to_race(w[w > 0], k) == concentrated
        exact = exact_baseline(h, k)
        est = estimate_baseline(h, k, SamplerConfig(samples=20_000, seed=seed))
        assert abs(est.mean - exact) <= 3 * est.std_error + 1e-9

    def test_rejection_path(self):
        # pairs on 8 nodes, no node near half the mass
        ring = [[i, (i + 1) % 8] for i in range(8)]
        h = Hypergraph([0, 0, 1, 1, 2, 2, 3, 0], ring + [[0, 4], [1, 5], [2, 6]])
        self.check(h, 2, concentrated=False, seed=31)

    def test_race_path_by_concentration(self):
        # two hubs in every triple hold 2/3 of the mass
        h = Hypergraph([0, 1, 2, 2, 0, 1, 3, 3, 2, 0], [[0, 1, x] for x in range(2, 10)])
        w = k_degrees(h, 3).degrees.astype(np.float64)
        assert np.sort(w)[-2:].sum() > 0.5 * w.sum()
        self.check(h, 3, concentrated=True, seed=33)


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


class TestAdversarialWeights:
    """Weights twelve orders of magnitude apart that still meet the input
    rule: rejection stays cheap."""

    def test_few_huge_among_many_tiny_pairs(self):
        # three heavy nodes of a hundred: one holds a third, so rejection accepts >= 2/3
        weights = np.full(100, 1e-3)
        weights[[3, 6, 40]] = 1e6
        attrs = np.arange(100) % 3
        samples, k = 20_000, 2
        assert not used_to_race(weights, k)
        # rejection averages <= 2 draws per slot
        rng = CountingRng(41, limit=4 * samples * k)
        values = bulk_diversity(attrs[weighted_k_sets(weights, k, samples, rng)], 1.0)[0]
        exact = sequential_expected_diversity(attrs, weights, k)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - exact) <= 3 * se + 1e-9


def hub_graph(n_k, k):
    """k-1 hubs in every size-k edge, whose last slot is a node of its own.

    The most concentrated k-degrees a graph can have: each hub holds exactly
    1/k of the mass, the edge of the sampler's input rule. Returns the graph
    and its k-degrees as weights.
    """
    hubs = list(range(k - 1))
    h = Hypergraph(np.arange(n_k) % 3, [hubs + [x] for x in range(k - 1, n_k)])
    return h, k_degrees(h, k).degrees.astype(np.float64)


class TestWorkBound:
    """Under the input rule a sample needs at most k*H_k draws on average.

    A drawer that reads n_k keys per sample, as the exponential race did,
    would use 4M variates at (2,000, 3), against a limit of 22k here."""

    @pytest.mark.parametrize("n_k,k", [(2_000, 3), (500, 10)])
    def test_hub_graph_draws_within_k_harmonic(self, n_k, k):
        samples = 2_000
        _, weights = hub_graph(n_k, k)
        assert used_to_race(weights, k)
        k_harmonic = k * sum(1.0 / j for j in range(1, k + 1))
        rng = CountingRng(n_k + k, limit=2 * samples * k_harmonic)
        sets = weighted_k_sets(weights, k, samples, rng)
        assert sets.shape == (samples, k)
        assert not np.any(sets[:, 1:] == sets[:, :-1])

    def test_hub_graph_mean_diversity(self):
        h, weights = hub_graph(12, 3)
        samples = 20_000
        sets = weighted_k_sets(weights, 3, samples, np.random.default_rng(47))
        values = bulk_diversity(h.attributes[sets], 1.0)[0]
        exact = sequential_expected_diversity(h.attributes, weights, 3)
        se = values.std(ddof=1) / math.sqrt(samples)
        assert abs(values.mean() - exact) <= 3 * se


@st.composite
def mixed_size_hypergraphs(draw):
    """Up to 10 nodes in up to 3 labels, joined by edges of sizes 1 to 6."""
    n = draw(st.integers(2, 10))
    attrs = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 6), unique=True)
    return Hypergraph(attrs, draw(st.lists(edge, min_size=1, max_size=15)))


class TestRealizedDegreeShare:
    """Why rejection stays cheap on the library's own weights: a k-degree is
    at most E_k, the number of size-k edges, and the k-degrees sum to
    k * E_k, so the k-1 largest hold at most (k-1)/k of the mass and every
    rejection slot accepts with probability at least 1/k."""

    @given(mixed_size_hypergraphs())
    @example(Hypergraph([0, 1, 0, 1], [[0, 1, 2], [0, 1, 3]]))  # two nodes in every edge: equality
    @settings(max_examples=200, deadline=None)
    def test_largest_k_minus_one_hold_at_most_their_share(self, h):
        for k in sorted(set(h.sizes.tolist()) - {1}):
            degrees = sorted(k_degrees(h, k).degrees.tolist(), reverse=True)
            assert k * sum(degrees[: k - 1]) <= (k - 1) * sum(degrees)


class TestBoundedMemory:
    def test_batches_respect_cell_budget(self):
        weights = pareto_weights(2_000, 3)
        for k, count in ((2, 10**6), (10, 10**6)):
            rows = [len(b) for b in _draw_batches(weights, k, count, np.random.default_rng(k))]
            assert sum(rows) == count
            assert max(rows) * k <= nullmodel._BATCH_CELLS

    def test_million_sets_stay_within_budget(self, monkeypatch):
        monkeypatch.setattr(nullmodel, "_BATCH_CELLS", 1 << 16)
        cfg = HsbmConfig(num_nodes=1000, num_attributes=10, k=4, num_edges=250_000, p=0.0, seed=3)
        tracemalloc.start()
        try:
            h = generate_hsbm(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        edges = h.edge_nodes.nbytes
        assert edges == cfg.num_edges * cfg.k * 8
        # the edges, the sampled copy that fills them, the mode uniforms and
        # the uniform rows' indices (2.5 x the edges), plus a few batches;
        # concatenating the batches before the fill peaks 3.5 x the edges
        assert peak <= 2.5 * edges + 8 * 8 * (1 << 16)

    def test_baseline_memory_does_not_grow_with_samples(self, monkeypatch):
        # the draws' diversities were all held at once: 16 bytes a sample
        monkeypatch.setattr(nullmodel, "_BATCH_CELLS", 3_000)  # 1,000 rows a batch at k = 3
        h = golden_hypergraph()
        peaks = []
        for samples in (10**4, 10**5):
            tracemalloc.start()
            try:
                estimate_baseline(h, 3, SamplerConfig(samples=samples, seed=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.0])
    def test_merged_batches_match_the_concatenated_draws(self, monkeypatch, order):
        monkeypatch.setattr(nullmodel, "_BATCH_CELLS", 3_000)  # 600 rows a batch at k = 5
        h, k = golden_hypergraph(), 5
        cfg = SamplerConfig(samples=10_000, seed=9, diversity_order=order)
        est = estimate_baseline(h, k, cfg)
        # the same stream, drawn and scored all at once
        rng = np.random.default_rng(derive_seed(cfg.seed, k))
        batches = _draw_batches(k_degrees(h, k).degrees.astype(np.float64), k, cfg.samples, rng)
        values = np.concatenate([bulk_diversity(h.attributes[s], order)[0] for s in batches])
        assert est.mean == pytest.approx(np.mean(values), rel=1e-12, abs=0)
        expected = np.std(values, ddof=1) / math.sqrt(cfg.samples)
        assert est.std_error == pytest.approx(expected, rel=1e-12, abs=0)


def digest(sets):
    return hashlib.sha256(np.ascontiguousarray(sets, dtype="<i8").tobytes()).hexdigest()[:16]


GOLDEN_WEIGHTS = {
    "skewed": (np.random.default_rng(2024).pareto(1.1, 3000) + 1e-3, 12),
    "uniform": (np.ones(400), 25),
    "concentrated": (np.concatenate([[500.0, 400.0, 300.0], np.ones(60)]), 4),
    "tiny": (np.array([1e-300, 1.0, 1.0, 1.0, 1e-300, 1.0, 1.0]), 3),
}

# sha256 prefixes of weighted_k_sets(weights, k, count, default_rng(count))
GOLDEN_SETS = {
    ("skewed", 1): "f105063962c7517d",
    ("skewed", 7): "b260f904b74559ec",
    ("skewed", 2500): "461ccbd98458691e",
    ("uniform", 1): "7421fe58fd4baf26",
    ("uniform", 7): "6025690e513b298a",
    ("uniform", 2500): "42148838deb71daa",
    ("concentrated", 1): "ff5814bbd3bf36eb",
    ("concentrated", 7): "e6754283ae12dc2c",
    ("concentrated", 2500): "d0bb69d30b83248a",
    ("tiny", 1): "ae3ea7e89aa8a861",
    ("tiny", 7): "903ef7e2e86c53b1",
    ("tiny", 2500): "3244734ef3294c12",
}

# (k, order): (mean, std_error) of estimate_baseline on golden_hypergraph();
# size 2 is the exact closed form, the same at every order
GOLDEN_BASELINES = {
    (2, 0.0): ("0x1.c0ea1214848a6p+0", "0x0.0p+0"),
    (2, 1.0): ("0x1.c0ea1214848a6p+0", "0x0.0p+0"),
    (2, 2.0): ("0x1.c0ea1214848a6p+0", "0x0.0p+0"),
    (5, 0.0): ("0x1.87a32846ff514p+1", "0x1.81ab81af056b6p-7"),
    (5, 1.0): ("0x1.6b8fca5b40d0dp+1", "0x1.7d31b8fe946fdp-7"),
    (5, 2.0): ("0x1.552734e15f0fap+1", "0x1.73955d57c7ceap-7"),
    (8, 0.0): ("0x1.cbfd44f307826p+1", "0x1.4289785c53befp-7"),
    (8, 1.0): ("0x1.9e924735c3c77p+1", "0x1.3936bb9917cb5p-7"),
    (8, 2.0): ("0x1.7ffe0a7c44fa6p+1", "0x1.46e3f079dd16dp-7"),
}


def golden_hypergraph():
    rng = np.random.default_rng(5)
    attrs = rng.integers(0, 4, 300)
    edges = [rng.choice(300, size=s, replace=False) for s in rng.integers(2, 9, 2000)]
    return Hypergraph(attrs, edges)


class TestGoldenStream:
    """The sampler's draws, pinned bit for bit: a change to how slots are
    searched must leave the RNG stream and every drawn set as they were."""

    @pytest.mark.parametrize("name,count", sorted(GOLDEN_SETS))
    def test_sets(self, name, count):
        weights, k = GOLDEN_WEIGHTS[name]
        assert used_to_race(weights, k) == (name == "concentrated")
        sets = weighted_k_sets(weights, k, count, np.random.default_rng(count))
        assert digest(sets) == GOLDEN_SETS[name, count]

    def test_sets_across_batches(self, monkeypatch):
        monkeypatch.setattr(nullmodel, "_BATCH_CELLS", 1 << 10)  # 85 rows a batch
        weights, k = GOLDEN_WEIGHTS["skewed"]
        sets = weighted_k_sets(weights, k, 2500, np.random.default_rng(2500))
        assert digest(sets) == "905a54a3e83956ba"

    @pytest.mark.parametrize(
        "name,cells,after",
        [
            ("skewed", None, "0x1.e391725d0ce94p-3"),  # one batch
            ("skewed", 1 << 10, "0x1.cbff441912731p-1"),  # 30 batches
            ("concentrated", None, "0x1.7422155f7edf9p-1"),  # three heavy nodes
        ],
    )
    def test_rng_position_after_draw(self, monkeypatch, name, cells, after):
        # callers such as generate_hsbm share one generator across draws, so
        # each draw must leave it exactly where slot-by-slot drawing does
        if cells is not None:
            monkeypatch.setattr(nullmodel, "_BATCH_CELLS", cells)
        weights, k = GOLDEN_WEIGHTS[name]
        rng = np.random.default_rng(2500)
        weighted_k_sets(weights, k, 2500, rng)
        assert rng.random().hex() == after

    def test_baselines(self):
        h = golden_hypergraph()
        for (k, order), (mean, std_error) in GOLDEN_BASELINES.items():
            cfg = SamplerConfig(samples=3000, seed=9, diversity_order=order)
            est = estimate_baseline(h, k, cfg)
            assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error), (k, order)


WEIGHTS = st.one_of(
    st.sampled_from([1e-300, 1e-12, 0.5, 1.0, 3.0, 1e6]),
    st.floats(1e-300, 1e100),
)


class TestGuideTable:
    @given(
        weights=st.lists(WEIGHTS, min_size=1, max_size=60),
        u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
    )
    @example(weights=[1.0], u=[])
    @example(weights=[1e-300, 1.0, 1e-300, 1e-300, 1.0], u=[1e-300])
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted(self, weights, u):
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        guide = _guide_table(cdf)
        m = guide.size
        assert m & (m - 1) == 0 and 4 * cdf.size <= m < 8 * cdf.size
        below = cdf[cdf < 1.0]
        u = np.concatenate([
            u,
            [0.0, 1.0 - 2.0**-53],
            below,  # every breakpoint, and the double just before it
            np.nextafter(below, 0.0),
            np.arange(m) / m,  # every cell boundary
        ])
        expected = np.searchsorted(cdf, u, side="right")
        assert np.array_equal(_guided_search(cdf, guide, u), expected)


class TestBatchedUniforms:
    @given(
        weights=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=50),
        k=st.integers(1, 50),
        rows=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(weights=[1.0] * 4, k=4, rows=300, seed=0)  # redraws run far past
    @settings(max_examples=200, deadline=None)
    def test_matches_per_slot_draws(self, weights, k, rows, seed):
        w = np.array(weights)
        assume(k <= w.size and not used_to_race(w, k))
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        sets = _rejection_batch(cdf, _guide_table(cdf), k, rows, ours)
        assert np.array_equal(sets, reference_rejection_batch(cdf, k, rows, ref))
        assert ours.random() == ref.random()  # the generator stands where it would
