"""Block-model generator of k-uniform hypergraphs with tunable homophily.

Nodes are split into equal-size attribute partitions. Each edge is drawn
independently: with probability p (when p > 0) it is pure, i.e. sampled
inside a single random partition; with probability |p| (when p < 0) it is
balanced, spreading its k slots across the attributes as evenly as possible;
otherwise it is a uniform random k-subset of all nodes. The mixing parameter
p therefore sweeps the generated hypergraph from strongly heterophilic (-1)
through random (0) to fully homophilic (+1).

A fixed seed gives a fixed hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

from .diversity import _runs
from .homophily import analyze
from .hypergraph import Hypergraph, _check_int, _check_real
from .nullmodel import SamplerConfig, _check_seed, _draw_batches, derive_seed

_GEN_STREAM = 0  # seed-derivation tags, so generation and analysis
_ANALYZE_STREAM = 1  # streams of one sweep never collide


@dataclass(frozen=True)
class HsbmConfig:
    num_nodes: int = 1000
    num_attributes: int = 10
    k: int = 10
    num_edges: int = 5000
    p: float = 0.0
    seed: int = 42

    def __post_init__(self):
        for name in ("num_nodes", "num_attributes", "k", "num_edges"):  # stored as ints
            object.__setattr__(self, name, _check_int(getattr(self, name), name))
        object.__setattr__(self, "p", _check_real(self.p, "p"))
        if self.num_attributes < 1 or self.num_nodes < 1:
            raise ValueError("num_nodes and num_attributes must be >= 1")
        if self.num_nodes % self.num_attributes != 0:
            raise ValueError(
                f"num_nodes ({self.num_nodes}) must be divisible by "
                f"num_attributes ({self.num_attributes})"
            )
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.num_edges < 1:
            raise ValueError("num_edges must be >= 1")
        if not -1.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [-1, 1]")
        if self.k > self.num_nodes:
            raise ValueError("k cannot exceed the number of nodes")
        if self.p > 0 and self.k > self.num_nodes // self.num_attributes:
            raise ValueError(
                "a pure edge must fit in one partition: "
                f"k ({self.k}) > nodes per partition "
                f"({self.num_nodes // self.num_attributes})"
            )
        object.__setattr__(self, "seed", _check_seed(self.seed))


def generate_hsbm(cfg: HsbmConfig) -> Hypergraph:
    """Generate a hypergraph from the block model (deterministic per seed).

    All edges are drawn with array operations: one uniform per edge picks its
    mode, and each batch of draws without replacement comes from the null
    model's sampler with equal weights, its rows sorted as they are stored.
    """
    rng = np.random.default_rng(derive_seed(cfg.seed))
    num_attrs, k = cfg.num_attributes, cfg.k
    per_part = cfg.num_nodes // num_attrs
    attributes = np.repeat(np.arange(num_attrs), per_part)

    def k_subsets(n: int, size: int, count: int) -> np.ndarray:
        # filled batch by batch: the batches never coexist with a second copy
        out = np.empty((count, size), dtype=np.int64)
        done = 0
        for sets in _draw_batches(np.ones(n), size, count, rng):
            out[done : done + len(sets)] = np.sort(sets, axis=1)
            done += len(sets)
        return out

    u = rng.random(cfg.num_edges)
    pure = np.flatnonzero(u < cfg.p)  # empty unless p > 0
    balanced = np.flatnonzero(u < -cfg.p)  # empty unless p < 0
    uniform = np.flatnonzero(u >= abs(cfg.p))
    edges = np.empty((cfg.num_edges, k), dtype=np.int64)
    if uniform.size:
        edges[uniform] = k_subsets(cfg.num_nodes, k, uniform.size)
    if pure.size:
        part = rng.integers(num_attrs, size=pure.size)
        edges[pure] = k_subsets(per_part, k, pure.size) + (part * per_part)[:, None]
    if balanced.size:
        # as even as possible: each row's k slots hold every attribute k // A
        # times and k % A chosen ones once more, in ascending order, each slot
        # starting at its attribute's first node. Each run of one attribute
        # then gets a sorted set from that partition; the partitions are
        # contiguous, so every row stays sorted
        base, extra = divmod(k, num_attrs)
        nodes = np.tile(np.repeat(np.arange(num_attrs) * per_part, base), (balanced.size, 1))
        if extra:
            chosen = k_subsets(num_attrs, extra, balanced.size) * per_part
            nodes = np.concatenate((nodes, chosen), axis=1)
            nodes.sort(axis=1)
        lengths = _runs(nodes)[1]
        for length in (base, base + 1):
            in_run = lengths == length  # never true at length 0
            if in_run.any():
                sets = k_subsets(per_part, length, np.count_nonzero(in_run))
                nodes[np.repeat(in_run, lengths).reshape(nodes.shape)] += sets.ravel()
        edges[balanced] = nodes

    offsets = np.arange(cfg.num_edges + 1, dtype=np.int64) * k
    names = tuple(f"group-{i}" for i in range(num_attrs))
    return Hypergraph._from_csr(attributes, edges.ravel(), offsets, names)


@dataclass(frozen=True)
class GridPoint:
    k: int
    p: float
    phi: float
    phi_std_error: float
    edges_scored: int


def sweep_phi_vs_k(
    base_cfg: HsbmConfig,
    k_grid: Sequence[int],
    p_grid: Sequence[float],
    sampler: SamplerConfig | None = None,
) -> tuple[GridPoint, ...]:
    """Generate and analyze one hypergraph per (size, mixing level) point.

    Points run over the grid size by size. Point i generates and analyzes
    with seeds derived from index i, so the sweep over mixing levels alone
    is the one-size grid ``[base_cfg.k]``. Every point's configuration is
    checked before the first one is generated, and a size that is not an
    integer, or is below 2 (whose edges have nothing to score), is rejected.
    """
    sampler = sampler or SamplerConfig()
    k_grid = [_check_int(k, "every k in the grid") for k in k_grid]
    if any(k < 2 for k in k_grid):
        raise ValueError(f"every k in the grid must be an integer >= 2, got {k_grid}")
    configs = [replace(base_cfg, k=k, p=p) for k, p in product(k_grid, p_grid)]
    points = []
    for index, cfg in enumerate(configs):
        h = generate_hsbm(replace(cfg, seed=derive_seed(cfg.seed, _GEN_STREAM, index)))
        seed = derive_seed(sampler.seed, _ANALYZE_STREAM, index)
        report = analyze(h, replace(sampler, seed=seed))
        points.append(
            GridPoint(
                k=cfg.k,
                p=cfg.p,
                phi=report.global_phi,
                phi_std_error=report.global_phi_std_error,
                edges_scored=report.edges_scored,
            )
        )
    return tuple(points)
