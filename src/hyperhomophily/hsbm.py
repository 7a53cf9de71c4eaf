"""Block-model generator of k-uniform hypergraphs with tunable homophily.

Nodes are split into equal-size attribute partitions. Each edge is drawn
independently: with probability p (when p > 0) it is pure, i.e. sampled
inside a single random partition; with probability |p| (when p < 0) it is
balanced, spreading its k slots across the attributes as evenly as possible;
otherwise it is a uniform random k-subset of all nodes. The mixing parameter
p therefore sweeps the generated hypergraph from strongly heterophilic (-1)
through random (0) to fully homophilic (+1).

Every k-set without replacement is a uniform one from ``_k_subsets``, drawn
slot by slot with repeated nodes redrawn. A fixed seed gives a fixed
hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

from .diversity import _runs
from .homophily import analyze
from .hypergraph import Hypergraph, _check_int, _check_real
from .nullmodel import SamplerConfig, _check_seed, derive_seed

_GEN_STREAM = 0  # seed-derivation tags, so generation and analysis
_ANALYZE_STREAM = 1  # streams of one sweep never collide
_BATCH_CELLS = 1 << 22  # cells per sampling batch, rows x k slots (~32 MB)


def _k_subsets(
    n: int, k: int, count: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """``count`` uniform k-subsets of ``range(n)``, one sorted row each.

    Slot by slot, each row takes node floor(u*n) of a fresh uniform u, and a
    row whose node repeats an earlier slot's redraws it until none does; so
    every k-set is equally likely. Rows are drawn in batches whose
    capacity depends only on k, each sorted into ``out`` (a new table when
    None) as it is drawn, so memory stays within ``_BATCH_CELLS`` beside the
    table however large ``count`` is.
    """
    out = np.empty((count, k), dtype=np.int64) if out is None else out
    batch = max(1, _BATCH_CELLS // k)
    for done in range(0, count, batch):
        rows = min(batch, count - done)
        sets = np.empty((k, rows), dtype=np.int64)  # slot-major: sets[j] is slot j
        for j in range(k):
            sets[j] = rng.random(rows) * n  # stored as integers: floor(u*n)
            redo = (sets[:j] == sets[j]).any(axis=0).nonzero()[0]
            while redo.size:
                sets[j, redo] = rng.random(redo.size) * n
                redo = redo[(sets[:j, redo] == sets[j, redo]).any(axis=0)]
        out[done : done + rows] = np.sort(sets.T, axis=1)
    return out


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
    mode, and every draw without replacement is a batch of ``_k_subsets``.
    """
    rng = np.random.default_rng(derive_seed(cfg.seed))
    num_attrs, k = cfg.num_attributes, cfg.k
    per_part = cfg.num_nodes // num_attrs
    attributes = np.repeat(np.arange(num_attrs), per_part)

    u = rng.random(cfg.num_edges)
    pure = u < cfg.p  # none unless p > 0
    balanced = u < -cfg.p  # none unless p < 0
    uniform = u >= abs(cfg.p)
    del u
    edges = np.empty((cfg.num_edges, k), dtype=np.int64)
    # a mode that covers every edge draws its sets straight into the edges
    if uniform.all():
        _k_subsets(cfg.num_nodes, k, cfg.num_edges, rng, edges)
    elif uniform.any():
        edges[uniform] = _k_subsets(cfg.num_nodes, k, np.count_nonzero(uniform), rng)
    if pure.any():
        part = rng.integers(num_attrs, size=np.count_nonzero(pure))
        if pure.all():
            _k_subsets(per_part, k, cfg.num_edges, rng, edges)
            edges += (part * per_part)[:, None]
        else:
            edges[pure] = _k_subsets(per_part, k, part.size, rng) + (part * per_part)[:, None]
    if balanced.any():
        # as even as possible: each row's k slots hold every attribute k // A
        # times and k % A chosen ones once more, in ascending order, each slot
        # starting at its attribute's first node. Each run of one attribute
        # then gets a sorted set from that partition; the partitions are
        # contiguous, so every row stays sorted
        rows = np.count_nonzero(balanced)
        base, extra = divmod(k, num_attrs)
        nodes = np.tile(np.repeat(np.arange(num_attrs) * per_part, base), (rows, 1))
        if extra:
            chosen = _k_subsets(num_attrs, extra, rows, rng) * per_part
            nodes = np.concatenate((nodes, chosen), axis=1)
            nodes.sort(axis=1)
        lengths = _runs(nodes)[1]
        for length in (base, base + 1):
            in_run = lengths == length  # never true at length 0
            if in_run.any():
                sets = _k_subsets(per_part, length, np.count_nonzero(in_run), rng)
                nodes[np.repeat(in_run, lengths).reshape(nodes.shape)] += sets.ravel()
        edges[balanced] = nodes

    offsets = np.arange(cfg.num_edges + 1, dtype=np.int64)
    offsets *= k
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
