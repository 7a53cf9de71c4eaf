"""Edge scoring, report aggregation, curve, and assortativity tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from hyperhomophily import (
    DegenerateMixingError,
    EmptyAnalysisError,
    Hypergraph,
    SamplerConfig,
    analyze,
    estimate_baseline,
    newman_assortativity,
)
from hyperhomophily import nullmodel
from hyperhomophily.homophily import _score


def score_edge(observed, baseline, m_e):
    """One edge through the columnar scorer, as analyze scores it against
    its size's baseline mean."""
    columns = (np.array([float(observed)]), np.array([baseline]), np.array([m_e]))
    row = _score(*columns)
    return SimpleNamespace(**{name: col.item() for name, col in row.items()})


class TestScoreEdge:
    def test_pure_edge_scores_one(self):
        r = score_edge(1.0, 5 / 3, m_e=2)
        assert r.phi == 1.0
        assert r.gap == r.gap_max

    def test_score_zero_at_baseline(self):
        r = score_edge(5 / 3, 5 / 3, m_e=2)
        assert r.phi == 0.0
        assert not r.degenerate

    def test_balanced_pair_against_uniform_baseline(self):
        # gap (5/3 - 2) over gap_max (5/3 - 1) = -0.5
        r = score_edge(2.0, 5 / 3, m_e=2)
        assert r.phi == pytest.approx(-0.5, abs=1e-12)
        assert r.phi_min == pytest.approx(-0.5, abs=1e-12)

    def test_eighty_percent_reduction(self):
        b = 3.7
        observed = b - 0.8 * (b - 1.0)
        r = score_edge(observed, b, m_e=4)
        assert r.phi == pytest.approx(0.8, abs=1e-12)

    def test_degenerate_baseline(self):
        r = score_edge(1.0, 1.0, m_e=1)
        assert r.degenerate
        assert r.phi == 0.0

    def test_degenerate_and_scored_sizes_in_one_call(self):
        # rows of a pure-baseline size next to rows of a scored size: the
        # degenerate rows read 0 and no 0/0 is computed (warnings are errors)
        r = _score(
            np.array([1.0, 1.0, 1.0, 2.0]),
            np.array([1.0, 1.0, 5 / 3, 5 / 3]),
            np.array([1, 1, 1, 2]),
        )
        assert r["degenerate"].tolist() == [True, True, False, False]
        assert r["phi"].tolist() == [0.0, 0.0, 1.0, pytest.approx(-0.5, abs=1e-12)]
        assert r["phi_min"][:2].tolist() == [0.0, 0.0]
        assert r["phi_min"][2:] == pytest.approx([1.0, -0.5], abs=1e-12)

    def test_identities(self):
        r = score_edge(1.4, 2.2, m_e=3)
        assert r.gap == pytest.approx(r.baseline - r.observed, abs=1e-12)
        assert r.gap_max == pytest.approx(r.baseline - 1.0, abs=1e-12)
        assert r.gap_min == pytest.approx(r.baseline - 3, abs=1e-12)
        assert r.phi_min <= r.phi <= 1.0


def mixed_graph(seed=0, n=60, num_attrs=3, sizes=(2, 3, 4), edges_per_size=40):
    rng = np.random.default_rng(seed)
    attrs = rng.integers(0, num_attrs, n)
    edges = []
    for k in sizes:
        for _ in range(edges_per_size):
            edges.append(list(rng.choice(n, k, replace=False)))
    return Hypergraph(attrs, edges)


class TestAnalyze:
    def test_all_pure_edges_score_one(self):
        h = Hypergraph([0, 0, 1, 1], [[0, 1], [2, 3], [0, 1], [2, 3]])
        report = analyze(h, SamplerConfig(samples=500, seed=1))
        assert report.global_phi == 1.0
        assert report.edges_scored == 4
        assert report.edges_excluded == 0

    def test_size_one_edges_excluded(self):
        h = Hypergraph([0, 1, 1], [[0], [1], [0, 1], [1, 2]])
        report = analyze(h, SamplerConfig(samples=500, seed=1))
        assert report.edge_total == 4
        assert report.edges_scored == 2
        assert report.edges_excluded == 2
        reasons = {e.reason: e.count for e in report.exclusions}
        assert reasons == {"size_1": 2}

    def test_degenerate_bucket_excluded(self):
        # pair bucket lives inside one attribute class; triple bucket is mixed
        h = Hypergraph([0, 0, 1, 1], [[0, 1], [0, 2, 3], [1, 2, 3]])
        report = analyze(h, SamplerConfig(samples=500, seed=2), emit_per_edge=True)
        reasons = {e.reason: (e.k, e.count) for e in report.exclusions}
        assert reasons == {"degenerate_baseline": (2, 1)}
        assert report.edges_scored == 2
        pe = report.per_edge
        flagged = np.flatnonzero(pe.degenerate)
        assert len(flagged) == 1 and pe.k[flagged[0]] == 2 and pe.phi[flagged[0]] == 0.0

    def test_counts_add_up(self):
        h = mixed_graph()
        report = analyze(h, SamplerConfig(samples=1000, seed=3))
        assert report.edges_scored + report.edges_excluded == report.edge_total

    def test_global_is_mean_of_per_edge(self):
        h = mixed_graph(seed=5)
        report = analyze(h, SamplerConfig(samples=1000, seed=3), emit_per_edge=True)
        phis = report.per_edge.phi[~report.per_edge.degenerate]
        assert report.global_phi == pytest.approx(np.mean(phis), abs=1e-12)
        assert len(phis) == report.edges_scored

    def test_per_k_rows_are_bucket_means(self):
        h = mixed_graph(seed=6)
        report = analyze(h, SamplerConfig(samples=1000, seed=4), emit_per_edge=True)
        for row in report.per_k:
            bucket = report.per_edge.phi[report.per_edge.k == row.k]
            assert row.phi_k == pytest.approx(np.mean(bucket), abs=1e-12)
            assert row.edge_count == len(bucket)

    def test_decomposition(self):
        h = mixed_graph(seed=7)
        report = analyze(h, SamplerConfig(samples=1000, seed=5))
        recombined = (
            sum(r.phi_k * r.edge_count for r in report.per_k) / report.edges_scored
        )
        assert report.global_phi == pytest.approx(recombined, abs=1e-12)

    def test_per_edge_matches_score_edge(self):
        h = mixed_graph(seed=8, edges_per_size=10)
        cfg = SamplerConfig(samples=500, seed=6)
        report = analyze(h, cfg, emit_per_edge=True)
        baselines = {row.k: estimate_baseline(h, row.k, cfg) for row in report.per_k}
        from hyperhomophily import composition, perplexity

        pe = report.per_edge
        for idx, k, phi, phi_min in zip(pe.edge_index, pe.k, pe.phi, pe.phi_min):
            c = composition(h, int(idx))
            redo = score_edge(perplexity(c), baselines[int(k)].mean, len(c))
            assert phi == pytest.approx(redo.phi, abs=1e-9)
            assert phi_min == pytest.approx(redo.phi_min, abs=1e-9)

    def test_attribute_relabeling_invariance(self):
        h = mixed_graph(seed=9)
        perm = np.array([2, 0, 1])  # attribute id permutation
        relabeled = Hypergraph(perm[h.attributes], h.edge_list())
        cfg = SamplerConfig(samples=2000, seed=7)
        a = analyze(h, cfg)
        b = analyze(relabeled, cfg)
        assert a.global_phi == pytest.approx(b.global_phi, abs=1e-12)
        for ra, rb in zip(a.per_k, b.per_k):
            assert ra.phi_k == pytest.approx(rb.phi_k, abs=1e-12)
            assert ra.baseline_mean == pytest.approx(rb.baseline_mean, abs=1e-12)

    def test_worker_count_does_not_change_results(self):
        h = mixed_graph(seed=10)
        cfg = SamplerConfig(samples=1000, seed=8)
        serial = analyze(h, cfg, workers=1, emit_per_edge=True)
        threaded = analyze(h, cfg, workers=4, emit_per_edge=True)
        assert serial == threaded

    def test_range_invariant(self):
        h = mixed_graph(seed=11)
        report = analyze(h, SamplerConfig(samples=1000, seed=9), emit_per_edge=True)
        pe = report.per_edge
        for phi, phi_min, observed, degenerate in zip(
            pe.phi, pe.phi_min, pe.observed, pe.degenerate
        ):
            if not degenerate:
                assert phi_min - 1e-12 <= phi <= 1.0 + 1e-12
                assert (phi == 1.0) == (observed == 1.0)

    def test_empty_hypergraph(self):
        with pytest.raises(EmptyAnalysisError):
            analyze(Hypergraph([0, 1], []), SamplerConfig(samples=10))

    def test_only_size_one(self):
        with pytest.raises(EmptyAnalysisError):
            analyze(Hypergraph([0, 1], [[0], [1]]), SamplerConfig(samples=10))

    def test_all_degenerate(self):
        h = Hypergraph([0, 0, 0], [[0, 1], [1, 2]])
        with pytest.raises(EmptyAnalysisError):
            analyze(h, SamplerConfig(samples=100, seed=1))

    def test_one_scorable_edge(self):
        # one score has no standard error; the global SE read 0, the exact baseline's
        h = Hypergraph([0, 1], [[0, 1]])
        with pytest.raises(EmptyAnalysisError, match="need 2 scorable hyperedges"):
            analyze(h, SamplerConfig(samples=100, seed=1))

    def test_unlabeled_scorable_edge_rejected(self):
        with pytest.raises(ValueError, match="unlabeled"):
            Hypergraph([0, -1, 1], [[0, 1], [0, 2]])


def one_label_size(k):
    """Sizes 2 and 3, size ``k``'s edges on nodes that all hold label 0 and
    the other size's edges mixed: size k's baseline is exactly 1.0."""
    pure = [[0, 1, 2], [1, 2, 3], [0, 1, 3]] if k == 3 else [[0, 1], [1, 2], [2, 3]]
    mixed = [[0, 4], [1, 5], [4, 5], [2, 4]] if k == 3 else [[0, 4, 5], [1, 4, 6], [2, 5, 6]]
    return Hypergraph([0, 0, 0, 0, 1, 1, 2], pure + mixed)


class TestOneLabelSizeIsExact:
    """A size whose null population holds one label has a baseline of exactly
    1.0, by the size-2 closed form and by the Monte Carlo merge over one batch
    or several, so a fixed threshold flags it degenerate and scores it 0."""

    @pytest.mark.parametrize(
        "k, batch_cells", [(2, None), (3, None), (3, 3 * 8)], ids=["k2", "k3", "k3-batches"]
    )
    def test_baseline_is_one_and_size_is_degenerate(self, monkeypatch, k, batch_cells):
        if batch_cells is not None:  # 8 rows a batch: 50 samples take 7 batches
            monkeypatch.setattr(nullmodel, "_BATCH_CELLS", batch_cells)
        report = analyze(one_label_size(k), SamplerConfig(samples=50, seed=3), emit_per_edge=True)
        row = next(row for row in report.curve if row.k == k)
        assert (row.baseline_mean, row.phi_k) == (1.0, 0.0)
        assert [(e.reason, e.k, e.count) for e in report.exclusions] == [
            ("degenerate_baseline", k, 3)
        ]
        assert k not in [row.k for row in report.per_k]
        pe = report.per_edge
        assert pe.degenerate.tolist() == (pe.k == k).tolist()
        assert not pe.phi[pe.degenerate].any() and not pe.phi_min[pe.degenerate].any()


class TestCurve:
    def test_pure_single_size(self):
        h = Hypergraph([0, 0, 1, 1], [[0, 1], [2, 3]])
        rows = analyze(h, SamplerConfig(samples=500, seed=1)).curve
        assert len(rows) == 1
        assert rows[0].k == 2
        assert rows[0].mean_observed == 1.0
        assert rows[0].edge_count == 2

    def test_matches_analyze_buckets(self):
        # no size is degenerate here, so per_k is the whole curve
        report = analyze(mixed_graph(seed=12), SamplerConfig(samples=1000, seed=10))
        assert [row.k for row in report.curve] == [2, 3, 4]
        assert report.per_k == report.curve

    def test_degenerate_bucket_still_has_row(self):
        h = Hypergraph([0, 0, 1, 1], [[0, 1], [0, 2, 3], [1, 2, 3]])
        report = analyze(h, SamplerConfig(samples=200, seed=2))
        degenerate, scored = report.curve
        assert (degenerate.k, degenerate.baseline_mean, degenerate.phi_k) == (2, 1.0, 0.0)
        assert degenerate.mean_observed == 1.0
        assert report.per_k == (scored,)
        assert [(e.reason, e.k, e.count) for e in report.exclusions] == [
            ("degenerate_baseline", 2, 1)
        ]


class TestNewman:
    def test_perfectly_assortative(self):
        h = Hypergraph([0, 0, 1, 1], [[0, 1], [2, 3]])
        assert newman_assortativity(h) == pytest.approx(1.0, abs=1e-12)

    def test_perfectly_disassortative(self):
        h = Hypergraph([0, 1], [[0, 1], [0, 1]])
        assert newman_assortativity(h) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_mixing(self):
        # edges A-A, B-B, A-B: e = [[1/3,1/6],[1/6,1/3]] -> r = 1/3
        h = Hypergraph([0, 0, 1, 1], [[0, 1], [2, 3], [1, 2]])
        assert newman_assortativity(h) == pytest.approx(1 / 3, abs=1e-12)

    def test_larger_edges_ignored(self):
        h = Hypergraph([0, 0, 1, 1], [[0, 1], [2, 3], [0, 1, 2]])
        assert newman_assortativity(h) == pytest.approx(1.0, abs=1e-12)

    def test_no_pairs(self):
        h = Hypergraph([0, 1, 2], [[0, 1, 2]])
        with pytest.raises(EmptyAnalysisError):
            newman_assortativity(h)

    def test_single_attribute_degenerate(self):
        h = Hypergraph([0, 0], [[0, 1]])
        with pytest.raises(DegenerateMixingError):
            newman_assortativity(h)
