"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criteria 6 and 7 need the real benchmark dataset files on disk (see
README for the expected layout); they skip with a message otherwise.
"""

import os
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hyperhomophily as hh
from hyperhomophily.nullmodel import derive_seed
from hyperhomophily.cli import main
from null_oracle import exact_baseline, weighted_k_sets


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException as exc:
        kind = "SKIP" if exc.__class__.__name__ == "Skipped" else "FAIL"
        print(f"ACCEPTANCE {num} [{name}]: {kind}", flush=True)
        raise
    print(f"ACCEPTANCE {num} [{name}]: PASS", flush=True)


def test_criterion_1_unit_diversity_values():
    with criterion(1, "unit diversity values"):
        assert abs(hh.perplexity((2, 1, 1)) - 2.8284) <= 1e-3
        assert abs(hh.hill_number((8, 1, 1), 2.0) - 1.5152) <= 1e-3
        assert hh.perplexity((7,)) == 1.0
        for m in (2, 3, 5, 8):
            assert hh.perplexity([3] * m) == float(m)
        # (0.8, 0.1, 0.1) has H = 0.921928 bits, so 2^H = 1.894646 (the
        # same as e^H in nats); the published value is 1.89. The earlier pin
        # 1.8957 was a one-digit slip for 1.8947. The band excludes the
        # mixed-base values 2.514 and 1.557, order 2 (1.5152) and richness 3.
        value = hh.perplexity((8, 1, 1))
        assert abs(value - 1.8947) <= 1e-3, (
            f"perplexity((8,1,1)) = {value:.6f}; target 1.8947 +/- 1e-3"
        )


def test_criterion_2_null_model_oracle_equivalence():
    with criterion(2, "null-model oracle equivalence"):
        # the baseline is exact at orders 0 and 1: it must equal the brute-force
        # CPS enumeration to 1e-9 on every graph (it was 3 SE of a Monte Carlo mean)
        rng = np.random.default_rng(20240817)
        disagreements = []
        for _ in range(200):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(2, 5))
            attrs = rng.integers(0, int(rng.integers(2, 5)), n)
            degrees = np.zeros(n, dtype=int)
            edges = []
            for _ in range(int(rng.integers(1, 9))):
                available = np.flatnonzero(degrees < 5)
                if available.size < k:
                    break
                edge = rng.choice(available, k, replace=False)
                degrees[edge] += 1
                edges.append(list(edge))
            h = hh.Hypergraph(attrs, edges)
            seed = int(rng.integers(2**32))
            for order in (0.0, 1.0):
                cfg = hh.SamplerConfig(samples=10_000, seed=seed, diversity_order=order)
                estimate = hh.estimate_baseline(h, k, cfg)
                error = abs(estimate.mean - exact_baseline(h, k, order))
                if estimate.std_error != 0.0 or error > 1e-9:
                    disagreements.append((edges, order, error))
        assert not disagreements, f"{len(disagreements)} of 400 off: {disagreements[:3]}"


def test_criterion_3_null_calibration():
    with criterion(3, "null calibration"):
        rng = np.random.default_rng(90210)
        n, k = 400, 5
        attrs = rng.choice(4, size=n, p=[0.4, 0.3, 0.2, 0.1])
        planted = rng.integers(1, 6, size=n).astype(float)
        edges = weighted_k_sets(planted, k, 10_000, rng)
        h = hh.Hypergraph(attrs, edges)
        report = hh.analyze(h, hh.SamplerConfig(samples=10_000, seed=42))
        assert -0.05 <= report.global_phi <= 0.05, report.global_phi


def test_criterion_4_synthetic_sweep_vs_p():
    with criterion(4, "synthetic sweep vs p"):
        cfg = hh.HsbmConfig(
            num_nodes=1000, num_attributes=10, k=10, num_edges=5000, p=0.0, seed=42
        )
        grid = [round(-1 + 0.25 * i, 10) for i in range(9)]
        points = hh.sweep_phi_vs_k(cfg, [cfg.k], grid, hh.SamplerConfig(samples=10_000, seed=42))
        phis = [pt.phi for pt in points]
        assert phis[-1] == 1.0  # p = 1 scores exactly 1
        assert -0.05 <= phis[4] <= 0.05  # p = 0
        for a, b in zip(phis, phis[1:]):
            assert b > a - 0.05, f"not increasing within tolerance: {phis}"
        x, y = np.asarray(grid), np.asarray(phis)
        slope, intercept = np.polyfit(x, y, 1)
        r2 = 1 - np.sum((y - (slope * x + intercept)) ** 2) / np.sum((y - y.mean()) ** 2)
        print(f"  sweep linear fit: slope={slope:.4f} intercept={intercept:.4f} R2={r2:.4f}")


def test_criterion_5_grid_k_by_p():
    with criterion(5, "grid over k and p"):
        cfg = hh.HsbmConfig(
            num_nodes=1000, num_attributes=10, k=10, num_edges=5000, p=0.0, seed=42
        )
        p_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        points = hh.sweep_phi_vs_k(cfg, [2, 5, 10], p_grid, hh.SamplerConfig(samples=10_000, seed=42))
        by_k = {}
        for pt in points:
            by_k.setdefault(pt.k, []).append(pt)
        assert sorted(by_k) == [2, 5, 10]
        for k, row in by_k.items():
            phis = [pt.phi for pt in sorted(row, key=lambda pt: pt.p)]
            assert phis[-1] == 1.0, f"k={k}: p=1 must score exactly 1"
            for a, b in zip(phis, phis[1:]):
                assert b >= a - 0.05, f"k={k} not non-decreasing: {phis}"


# -- dataset-backed criteria ---------------------------------------------------

TABLE_TARGETS = {
    "walmart-trips": 0.47,
    "trivago-clicks": 0.98,
    "contact-primary-school": 0.43,
    "contact-high-school": 0.73,
    "house-bills": 0.32,
    "senate-bills": 0.24,
    "house-committees": -0.03,
    "senate-committees": -0.05,
}


def data_root() -> Path:
    return Path(os.environ.get("HYPERHOMOPHILY_DATA", Path(__file__).parent.parent / "data"))


def find_dataset(key):
    root = data_root()
    for folder in (root / key, root):
        for stem in (f"-{key}.txt", ".txt"):
            edges = folder / f"hyperedges{stem}"
            labels = folder / f"node-labels{stem}"
            names = folder / f"label-names{stem}"
            if edges.exists() and labels.exists():
                return edges, labels, (names if names.exists() else None)
    return None


_dataset_cache = {}


def dataset_analysis(key):
    """The report of one dataset, computed once per session."""
    if key not in _dataset_cache:
        paths = find_dataset(key)
        if paths is None:
            pytest.skip(
                f"dataset {key!r} not found under {data_root()} "
                "(see README: Reproducing the published table)"
            )
        h = hh.load_hypergraph(*paths)
        _dataset_cache[key] = hh.analyze(h, hh.SamplerConfig(samples=10_000, seed=42))
    return _dataset_cache[key]


@pytest.mark.parametrize("key", sorted(TABLE_TARGETS))
def test_criterion_6_published_table(key):
    with criterion(6, f"published table: {key}"):
        report = dataset_analysis(key)
        target = TABLE_TARGETS[key]
        assert abs(report.global_phi - target) <= 0.03, (
            f"{key}: phi={report.global_phi:.4f} target={target} "
            f"exclusions={[(e.reason, e.k, e.count) for e in report.exclusions]}"
        )


def test_criterion_7_bill_cosponsorship_shape():
    with criterion(7, "per-size shape: bill co-sponsorship"):
        for key in ("house-bills", "senate-bills"):
            report = dataset_analysis(key)
            rows = sorted(report.per_k, key=lambda r: r.k)
            small = [r.phi_k for r in rows if r.k <= 4]
            ks = [r.k for r in rows]
            large_cut = ks[int(0.75 * (len(ks) - 1))]
            large = [r.phi_k for r in rows if r.k >= large_cut]
            assert max(small) >= 0.3, f"{key}: small groups not homophilic"
            assert abs(np.mean(large)) <= 0.15, f"{key}: large groups not near random"
            assert max(small) > np.mean(large) + 0.2, f"{key}: no decline with size"


def test_criterion_7_browsing_sessions_shape():
    with criterion(7, "per-size shape: browsing sessions"):
        curve = dataset_analysis("trivago-clicks").curve
        worst = max(row.mean_observed for row in curve)
        assert worst <= 1.05, f"observed diversity should stay at ~1, got {worst}"


def test_criterion_7_school_contact_shape():
    with criterion(7, "per-size shape: school contacts"):
        for key in ("contact-primary-school", "contact-high-school"):
            report = dataset_analysis(key)
            rows = [r for r in report.per_k if r.edge_count >= 30]
            peak = max(rows, key=lambda r: r.phi_k)
            assert peak.k in (3, 4), f"{key}: peak at k={peak.k}"


def test_criterion_8_pairwise_assortativity_correspondence():
    with criterion(8, "pairwise assortativity correspondence"):
        base = hh.HsbmConfig(
            num_nodes=200, num_attributes=2, k=2, num_edges=4000, p=0.0, seed=5
        )
        phis, rs = [], []
        for i, p in enumerate(np.linspace(-1.0, 1.0, 11)):
            h = hh.generate_hsbm(replace(base, p=float(p), seed=derive_seed(7, 0, i)))
            report = hh.analyze(h, hh.SamplerConfig(samples=4000, seed=derive_seed(7, 1, i)))
            phis.append(report.global_phi)
            rs.append(hh.newman_assortativity(h))
        for phi, r in zip(phis, rs):
            if abs(r) > 0.1:
                assert np.sign(phi) == np.sign(r), f"sign mismatch: phi={phi}, r={r}"
        rank = lambda v: np.argsort(np.argsort(v)).astype(float)
        rho = np.corrcoef(rank(phis), rank(rs))[0, 1]
        assert rho >= 0.99, f"rank correlation {rho}"


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "report determinism"):
        prefix = str(tmp_path / "syn")
        assert main(
            ["generate", "--nodes", "300", "--attrs", "6", "--k", "4",
             "--edges", "800", "--p", "0.35", "--seed", "11", "--out-prefix", prefix]
        ) == 0
        base = ["analyze", "--hyperedges", f"{prefix}-hyperedges.txt",
                "--labels", f"{prefix}-node-labels.txt",
                "--label-names", f"{prefix}-label-names.txt",
                "--samples", "4000", "--seed", "21"]
        outputs = []
        for tag in ("a", "b"):
            report = tmp_path / f"{tag}.json"
            edges_csv = tmp_path / f"{tag}-edges.csv"
            curve_csv = tmp_path / f"{tag}-curve.csv"
            assert main(
                [*base, "--out", str(report), "--per-edge-out", str(edges_csv),
                 "--perplexity-curve", str(curve_csv)]
            ) == 0
            outputs.append(
                (report.read_bytes(), edges_csv.read_bytes(), curve_csv.read_bytes())
            )
        assert outputs[0] == outputs[1]
