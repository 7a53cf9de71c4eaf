"""Block-model generator and sweep tests."""

import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperhomophily import (
    HsbmConfig,
    SamplerConfig,
    analyze,
    generate_hsbm,
    load_hypergraph,
    sweep_phi_vs_k,
    write_hypergraph,
)
from hyperhomophily import hsbm
from null_oracle import weighted_k_sets


class TestConfig:
    def test_divisibility_required(self):
        with pytest.raises(ValueError, match="divisible"):
            HsbmConfig(num_nodes=1001, num_attributes=10, k=5, num_edges=10, p=0.0)

    def test_pure_edge_must_fit_partition(self):
        with pytest.raises(ValueError, match="partition"):
            HsbmConfig(num_nodes=100, num_attributes=10, k=11, num_edges=10, p=0.5)

    def test_large_k_fine_when_not_homophilic(self):
        HsbmConfig(num_nodes=100, num_attributes=10, k=11, num_edges=10, p=-0.5)

    def test_p_range(self):
        with pytest.raises(ValueError):
            HsbmConfig(num_nodes=100, num_attributes=10, k=5, num_edges=10, p=1.5)

    def test_positive_edge_count(self):
        with pytest.raises(ValueError):
            HsbmConfig(num_nodes=100, num_attributes=10, k=5, num_edges=0, p=0.0)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            # checked before num_nodes % num_attributes, which would divide by zero
            ({"num_attributes": 0}, "num_nodes and num_attributes must be >= 1"),
            ({"num_nodes": 0}, "num_nodes and num_attributes must be >= 1"),
            ({"k": 0}, "k must be >= 1"),
            ({"k": 11}, "k cannot exceed the number of nodes"),  # 10 nodes, p = 0
        ],
    )
    def test_sizes_out_of_range_rejected(self, sizes, message):
        kwargs = dict(num_nodes=10, num_attributes=2, k=2, num_edges=5, p=0.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            HsbmConfig(**{**kwargs, **sizes})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", 2.5),  # was accepted, and generate_hsbm raised TypeError
            ("num_edges", 5.7),
            ("num_nodes", 10.0),
            ("num_attributes", 2.0),
            ("k", True),
            ("seed", 2.5),
            ("seed", True),
        ],
    )
    def test_non_integer_sizes_rejected(self, field, value):
        kwargs = dict(num_nodes=10, num_attributes=2, k=2, num_edges=5, p=0.0)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            HsbmConfig(**{**kwargs, field: value})

    def test_numpy_integer_sizes_accepted(self):
        sizes = dict(num_nodes=np.int64(10), num_attributes=np.int32(2), k=np.uint8(2))
        cfg = HsbmConfig(**sizes, num_edges=np.int64(5), p=0.0, seed=np.uint64(4))
        plain = HsbmConfig(num_nodes=10, num_attributes=2, k=2, num_edges=5, p=0.0, seed=4)
        assert generate_hsbm(cfg).edge_list() == generate_hsbm(plain).edge_list()

    @pytest.mark.parametrize("p", [True, "0.5", None])
    def test_non_real_p_rejected(self, p):
        # True built an all-pure graph and "0.5" raised TypeError
        kwargs = dict(num_nodes=10, num_attributes=2, k=2, num_edges=5)
        with pytest.raises(ValueError, match="p must be a real number"):
            HsbmConfig(**kwargs, p=p)

    @pytest.mark.parametrize("p", [1, np.float64(1.0), np.float32(1.0)])
    def test_real_p_stored_as_float(self, p):
        kwargs = dict(num_nodes=10, num_attributes=2, k=2, num_edges=5, seed=4)
        cfg = HsbmConfig(**kwargs, p=p)
        assert type(cfg.p) is float and cfg == HsbmConfig(**kwargs, p=1.0)
        assert generate_hsbm(cfg).edge_list() == generate_hsbm(HsbmConfig(**kwargs, p=1.0)).edge_list()


def partition_of(cfg, node):
    return node // (cfg.num_nodes // cfg.num_attributes)


class TestGenerate:
    def test_every_edge_has_k_distinct_nodes(self):
        cfg = HsbmConfig(num_nodes=200, num_attributes=10, k=7, num_edges=300, p=0.3, seed=3)
        h = generate_hsbm(cfg)
        assert h.num_edges == 300
        for e in h.edge_list():
            assert len(e) == 7
            assert len(set(int(v) for v in e)) == 7

    def test_attributes_are_equal_partitions(self):
        cfg = HsbmConfig(num_nodes=100, num_attributes=4, k=3, num_edges=10, p=0.0, seed=1)
        h = generate_hsbm(cfg)
        assert list(np.bincount(h.attributes)) == [25, 25, 25, 25]
        assert h.attribute_names is not None and len(h.attribute_names) == 4

    def test_p_one_all_pure_within_partition(self):
        cfg = HsbmConfig(num_nodes=120, num_attributes=6, k=4, num_edges=200, p=1.0, seed=2)
        h = generate_hsbm(cfg)
        for e in h.edge_list():
            parts = {partition_of(cfg, int(v)) for v in e}
            assert len(parts) == 1

    def test_p_minus_one_balanced(self):
        cfg = HsbmConfig(num_nodes=100, num_attributes=5, k=10, num_edges=100, p=-1.0, seed=4)
        h = generate_hsbm(cfg)
        for e in h.edge_list():
            counts = np.bincount(h.attributes[list(e)], minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_balanced_when_attrs_do_not_divide_k(self):
        cfg = HsbmConfig(num_nodes=90, num_attributes=3, k=7, num_edges=150, p=-1.0, seed=5)
        h = generate_hsbm(cfg)
        for e in h.edge_list():
            counts = np.bincount(h.attributes[list(e)], minlength=3)
            assert sorted(counts) == [2, 2, 3]

    def test_balanced_with_k_below_attrs(self):
        cfg = HsbmConfig(num_nodes=100, num_attributes=10, k=4, num_edges=100, p=-1.0, seed=6)
        h = generate_hsbm(cfg)
        for e in h.edge_list():
            assert len(set(int(a) for a in h.attributes[list(e)])) == 4

    def test_balanced_memory_does_not_grow_with_attributes(self):
        # each balanced row held an int64 count and start per attribute, and
        # every attribute took two sampler calls: 1.3 GB here. Now about 44 MB,
        # 9.4 x the 4.8 MB of edges, at 10 attributes as at 400
        cfg = HsbmConfig(num_nodes=4000, num_attributes=400, k=3, num_edges=200_000, p=-1.0, seed=3)
        tracemalloc.start()
        try:
            h = generate_hsbm(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.edge_nodes.nbytes == 4_800_000
        assert peak < 100e6

    @pytest.mark.parametrize("p", [0.0, 1.0], ids=["all-uniform", "all-pure"])
    def test_one_mode_fills_the_edges_in_place(self, monkeypatch, p):
        # every row from one mode: the sampled sets went to a table of their
        # own that was copied into the edges, with an int64 index per edge,
        # peaking at 23.0 MB (p = 0) and 32.1 MB (p = 1) for 8.0 MB of edges.
        # The bound, set before the in-place fill was measured: the edges,
        # half again for the mode uniforms, and eight batches
        monkeypatch.setattr(hsbm, "_BATCH_CELLS", 1 << 16)
        cfg = HsbmConfig(num_nodes=1000, num_attributes=10, k=4, num_edges=250_000, p=p, seed=3)
        tracemalloc.start()
        try:
            h = generate_hsbm(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        edges = h.edge_nodes.nbytes
        assert edges == cfg.num_edges * cfg.k * 8
        assert peak <= 1.5 * edges + 8 * 8 * (1 << 16)

    def test_million_sets_stay_within_budget(self, monkeypatch):
        # a million node slots split between the uniform and the pure mode:
        # each mode's sets go to a table of their own that is copied into
        # its rows. The edges, that copy, the mode uniforms and masks and
        # the rows' indices (2.5 x the edges), plus a few batches;
        # concatenating the batches before the copy peaks 3.5 x the edges
        monkeypatch.setattr(hsbm, "_BATCH_CELLS", 1 << 16)
        cfg = HsbmConfig(num_nodes=1000, num_attributes=10, k=4, num_edges=250_000, p=0.5, seed=3)
        tracemalloc.start()
        try:
            h = generate_hsbm(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        edges = h.edge_nodes.nbytes
        assert edges == cfg.num_edges * cfg.k * 8
        assert peak <= 2.5 * edges + 8 * 8 * (1 << 16)

    def test_seed_determinism(self):
        cfg = HsbmConfig(num_nodes=100, num_attributes=10, k=5, num_edges=100, p=0.4, seed=9)
        assert generate_hsbm(cfg).edge_list() == generate_hsbm(cfg).edge_list()

    def test_different_seeds_differ(self):
        base = dict(num_nodes=100, num_attributes=10, k=5, num_edges=100, p=0.4)
        a = generate_hsbm(HsbmConfig(seed=1, **base))
        b = generate_hsbm(HsbmConfig(seed=2, **base))
        assert a.edge_list() != b.edge_list()

    def test_structured_fraction_tracks_p(self):
        # pure edges should appear in ~|p| of draws (random pure-by-chance
        # probability is ~1e-4 at k=5 over 10 partitions)
        p = 0.6
        cfg = HsbmConfig(num_nodes=1000, num_attributes=10, k=5, num_edges=4000, p=p, seed=7)
        h = generate_hsbm(cfg)
        pure = sum(
            1 for e in h.edge_list() if len({partition_of(cfg, int(v)) for v in e}) == 1
        )
        se = math.sqrt(p * (1 - p) / cfg.num_edges)
        assert abs(pure / cfg.num_edges - p) <= 4 * se + 1e-3

    def test_round_trip_through_text_format(self, tmp_path):
        cfg = HsbmConfig(num_nodes=60, num_attributes=6, k=3, num_edges=50, p=0.5, seed=8)
        h = generate_hsbm(cfg)
        paths = [tmp_path / name for name in ("e.txt", "l.txt", "n.txt")]
        files = [open(path, "w", encoding="utf-8", newline="\n") for path in paths]
        with files[0], files[1], files[2]:
            write_hypergraph(h, *files)
        back = load_hypergraph(*paths)
        assert back.node_count == h.node_count
        assert np.array_equal(back.attributes, h.attributes)
        assert back.edge_list() == h.edge_list()
        assert back.attribute_names == h.attribute_names

    # sha256 of the edges, labels and names streams joined by NUL. At p < 0,
    # k % A != 0 gives rows with runs of one and of two slots (A = 4, k = 6)
    # and rows of single slots only (A = 8, k = 3). p = 1 was recorded before
    # a one-mode graph's edges were filled in place
    @pytest.mark.parametrize(
        "p, attrs, k, digest",
        [
            (1.0, 4, 6, "a3d92ae43242046c0b7c5911989b0f57f9321449aeec32f8b5ab8131f5d81087"),
            (0.5, 4, 6, "97fb0506238f86b0499fb02cda4606ef8d26df3fa6040b28ab18b00e71b70ca4"),
            (0.0, 4, 6, "3f241f2b117ddbd3d23444a9761b69a5d2cff6d8db1b4d86a9e16e091b497d35"),
            (-0.5, 4, 6, "0471d50c04f5df74e21aafb112599412ca1e09dec87c1125659b8f33debc1034"),
            (-1.0, 8, 3, "b27d5cc86ef353cb1351271b6f0fd2429f0a65b43280b2923dab6b7347fa01d8"),
        ],
        ids=["all-pure", "pure", "uniform", "balanced", "balanced-k-below-attrs"],
    )
    def test_output_bytes_are_pinned(self, p, attrs, k, digest):
        cfg = HsbmConfig(num_nodes=120, num_attributes=attrs, k=k, num_edges=300, p=p, seed=5)
        streams = [io.StringIO() for _ in range(3)]
        write_hypergraph(generate_hsbm(cfg), *streams)
        text = "\0".join(s.getvalue() for s in streams)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestUniformSets:
    @given(
        n=st.integers(1, 50),
        k=st.integers(1, 50),
        rows=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=4, k=4, rows=300, seed=0)  # many rounds of redraws
    @settings(max_examples=200, deadline=None)
    def test_matches_per_slot_draws(self, n, k, rows, seed):
        # the weighted reference at equal weights: the same sets from the
        # same stream, and the generator left where it would be
        assume(k <= n)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        sets = hsbm._k_subsets(n, k, rows, ours)
        assert np.array_equal(sets, weighted_k_sets(np.ones(n), k, rows, ref))
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("k", [2, 10])
    def test_batches_respect_cell_budget(self, monkeypatch, k):
        # 8 MB of sets (1.6 MB at k = 2) drawn into a table of the caller's,
        # one batch of 128 kB at a time; a draw of the whole table at once
        # would hold at least the table twice over
        monkeypatch.setattr(hsbm, "_BATCH_CELLS", 1 << 14)
        out = np.full((100_000, k), -1, dtype=np.int64)
        rng = np.random.default_rng(k)
        tracemalloc.start()
        try:
            hsbm._k_subsets(2_000, k, len(out), rng, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * hsbm._BATCH_CELLS
        # every row filled, with k distinct nodes in ascending order
        assert out[:, 0].min() >= 0 and out[:, -1].max() < 2_000
        assert np.all(out[:, 1:] > out[:, :-1])


def digest(sets):
    return hashlib.sha256(np.ascontiguousarray(sets, dtype="<i8").tobytes()).hexdigest()[:16]


GOLDEN_WEIGHTS = {
    "skewed": (np.random.default_rng(2024).pareto(1.1, 3000) + 1e-3, 12),
    "uniform": (np.ones(400), 25),
    "concentrated": (np.concatenate([[500.0, 400.0, 300.0], np.ones(60)]), 4),
    "tiny": (np.array([1e-300, 1.0, 1.0, 1.0, 1e-300, 1.0, 1.0]), 3),
}

# sha256 prefixes of golden_draw(name, count, default_rng(count))
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


def golden_draw(name, count, rng):
    """The block model's own draw for the uniform weights; the weighted
    reference, which draws the calibration graphs, for the others."""
    weights, k = GOLDEN_WEIGHTS[name]
    if name == "uniform":
        return hsbm._k_subsets(weights.size, k, count, rng)
    return weighted_k_sets(weights, k, count, rng)


class TestGoldenStream:
    """Drawn sets, pinned bit for bit: a change to how slots are drawn must
    leave the RNG stream and every drawn set as they were."""

    @pytest.mark.parametrize("name,count", sorted(GOLDEN_SETS))
    def test_sets(self, name, count):
        sets = golden_draw(name, count, np.random.default_rng(count))
        assert digest(sets) == GOLDEN_SETS[name, count]

    def test_sets_across_batches(self, monkeypatch):
        monkeypatch.setattr(hsbm, "_BATCH_CELLS", 1 << 10)  # 40 rows a batch
        sets = golden_draw("uniform", 2500, np.random.default_rng(2500))
        assert digest(sets) == "1b6572b7494b389a"

    @pytest.mark.parametrize(
        "name,cells,after",
        [
            ("skewed", None, "0x1.e391725d0ce94p-3"),  # one batch
            ("uniform", 1 << 10, "0x1.a3dc1776deeadp-1"),  # 63 batches
            ("concentrated", None, "0x1.7422155f7edf9p-1"),  # three heavy nodes
        ],
    )
    def test_rng_position_after_draw(self, monkeypatch, name, cells, after):
        # generate_hsbm shares one generator across its draws, so each draw
        # must leave it exactly where slot-by-slot drawing does
        if cells is not None:
            monkeypatch.setattr(hsbm, "_BATCH_CELLS", cells)
        rng = np.random.default_rng(2500)
        golden_draw(name, 2500, rng)
        assert rng.random().hex() == after


FAST_SAMPLER = SamplerConfig(samples=1500, seed=11)


class TestSweeps:
    def test_empty_grid(self):
        cfg = HsbmConfig(num_nodes=100, num_attributes=10, k=5, num_edges=100, p=0.0)
        assert sweep_phi_vs_k(cfg, [cfg.k], [], FAST_SAMPLER) == ()

    def test_endpoints(self):
        cfg = HsbmConfig(num_nodes=200, num_attributes=10, k=5, num_edges=800, p=0.0, seed=1)
        points = sweep_phi_vs_k(cfg, [cfg.k], [-1.0, 0.0, 1.0], FAST_SAMPLER)
        assert [pt.p for pt in points] == [-1.0, 0.0, 1.0]
        assert points[0].phi < points[1].phi < points[2].phi
        assert points[2].phi == 1.0
        assert abs(points[1].phi) < 0.1

    def test_repetition_stability_across_seeds(self):
        cfg_a = HsbmConfig(num_nodes=500, num_attributes=10, k=5, num_edges=4000, p=0.0, seed=21)
        cfg_b = HsbmConfig(num_nodes=500, num_attributes=10, k=5, num_edges=4000, p=0.0, seed=22)
        a = sweep_phi_vs_k(cfg_a, [cfg_a.k], [0.5], SamplerConfig(samples=4000, seed=31))
        b = sweep_phi_vs_k(cfg_b, [cfg_b.k], [0.5], SamplerConfig(samples=4000, seed=32))
        assert abs(a[0].phi - b[0].phi) <= 0.05

    def test_grid_shape_and_pure_column(self):
        cfg = HsbmConfig(num_nodes=200, num_attributes=10, k=10, num_edges=500, p=0.0, seed=2)
        points = sweep_phi_vs_k(cfg, [2, 5, 10], [0.0, 1.0], FAST_SAMPLER)
        assert len(points) == 6
        for pt in points:
            if pt.p == 1.0:
                assert pt.phi == 1.0

    def test_invalid_cell_propagates(self):
        cfg = HsbmConfig(num_nodes=100, num_attributes=10, k=5, num_edges=100, p=0.0, seed=3)
        with pytest.raises(ValueError, match="partition"):
            sweep_phi_vs_k(cfg, [50], [1.0], FAST_SAMPLER)

    @pytest.mark.parametrize(
        "k_grid, p_grid, match",
        [
            ([2, 1], [0.0], ">= 2"),  # a size-1 graph has nothing to score
            ([2, 50], [0.0, 1.0], "partition"),  # only the last point is invalid
            ([2.5], [0.0], "must be an integer"),  # would run and report k = 2
            ([2, True], [0.0], "must be an integer"),
            ([3], [True], "p must be a real number"),  # ran at p = 1.0
            ([3], ["0.5"], "p must be a real number"),  # was cast with float()
        ],
    )
    def test_grid_checked_before_any_point(self, monkeypatch, k_grid, p_grid, match):
        def no_generation(cfg):
            raise AssertionError("a point was generated before the grid was checked")

        monkeypatch.setattr(hsbm, "generate_hsbm", no_generation)
        cfg = HsbmConfig(num_nodes=100, num_attributes=10, k=2, num_edges=50, p=0.0)
        with pytest.raises(ValueError, match=match):
            sweep_phi_vs_k(cfg, k_grid, p_grid, FAST_SAMPLER)

    def test_real_p_values_give_the_same_points(self):
        cfg = HsbmConfig(num_nodes=40, num_attributes=4, k=3, num_edges=30, p=0.0, seed=2)
        grids = ([0, 1], [0.0, 1.0], [np.float64(0.0), np.float32(1.0)])
        runs = [sweep_phi_vs_k(cfg, [3], grid, FAST_SAMPLER) for grid in grids]
        assert runs[0] == runs[1] == runs[2]
        assert all(type(point.p) is float for run in runs for point in run)

    def test_sweep_matches_direct_analysis(self):
        # a sweep point is just generate + analyze with derived seeds
        from hyperhomophily.nullmodel import derive_seed
        from dataclasses import replace

        cfg = HsbmConfig(num_nodes=100, num_attributes=10, k=5, num_edges=200, p=0.7, seed=5)
        points = sweep_phi_vs_k(cfg, [cfg.k], [0.7], FAST_SAMPLER)
        h = generate_hsbm(replace(cfg, seed=derive_seed(cfg.seed, 0, 0)))
        report = analyze(h, replace(FAST_SAMPLER, seed=derive_seed(FAST_SAMPLER.seed, 1, 0)))
        assert points[0].phi == report.global_phi
        assert points[0].edges_scored == report.edges_scored
