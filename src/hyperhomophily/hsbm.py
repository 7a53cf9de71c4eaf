"""Block-model generator of k-uniform hypergraphs with tunable homophily.

Nodes are split into equal-size attribute partitions. Each edge is drawn
independently: with probability p (when p > 0) it is pure, i.e. sampled
inside a single random partition; with probability |p| (when p < 0) it is
balanced, spreading its k slots across the attributes as evenly as possible;
otherwise it is a uniform random k-subset of all nodes. The mixing parameter
p therefore sweeps the generated hypergraph from strongly heterophilic (-1)
through random (0) to fully homophilic (+1).

Every k-set without replacement comes from ``_draw_batches``: sequentially
weighted draws by per-slot rejection, whose law with equal weights is the
uniform one. A fixed seed gives a fixed hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .diversity import _runs
from .exceptions import InsufficientPopulationError
from .homophily import analyze
from .hypergraph import Hypergraph, _check_int, _check_real
from .nullmodel import SamplerConfig, _check_seed, derive_seed

_GEN_STREAM = 0  # seed-derivation tags, so generation and analysis
_ANALYZE_STREAM = 1  # streams of one sweep never collide
_BATCH_CELLS = 1 << 22  # cells per sampling batch, rows x k slots (~32 MB)


def _population(weights: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the positive ``weights``; fewer than k of them raise."""
    pos = np.flatnonzero(weights > 0)
    if pos.size < k:
        raise InsufficientPopulationError(f"need {k} positive-weight nodes, found {pos.size}")
    return pos, weights[pos]


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table (Chen & Asau's indexed search) for ``cdf`` over m cells.

    Cell c covers [c/m, (c+1)/m). Its entry is the number of values of
    ``cdf`` at or below c/m when at most one value lies inside the cell, and
    -1 otherwise. m is the power of two at or above 4n: a power of two keeps
    u*m and c/m exact, and about four cells per value leave few cells crowded.
    """
    m = 1 << (4 * cdf.size - 1).bit_length()
    # the values x at or below c/m are those with ceil(x*m) <= c
    below = np.cumsum(np.bincount(np.ceil(cdf * m).astype(np.intp), minlength=m + 1))
    return np.where(below[1:] - below[:-1] <= 1, below[:-1], -1)


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, "right")`` for u in [0, 1), via the guide table."""
    found = guide[(u * guide.size).astype(np.intp)]
    # the first value past the cell's start is the only one that can be <= u;
    # a -1 entry compares u with cdf[-1] == 1 and stays -1
    found += cdf[found] <= u
    crowded = np.flatnonzero(found < 0)
    found[crowded] = np.searchsorted(cdf, u[crowded], side="right")
    return found


def _rejection_batch(
    cdf: np.ndarray, guide: np.ndarray, k: int, rows: int, rng: np.random.Generator
) -> np.ndarray:
    """Slot-by-slot cumulative-weight draws; redraw rows that repeat a node.

    The k*rows uniforms that every batch consumes at least are drawn and
    searched in one call. Slot j takes the next ``rows`` of them and its
    redraws the ones after that, as drawing slot by slot would. Draws that
    run past the end draw exactly what they need, so the RNG ends where the
    slot-by-slot order leaves it.
    """
    ahead = _guided_search(cdf, guide, rng.random(k * rows))
    used = 0

    def take(count: int) -> np.ndarray:
        nonlocal used
        got = ahead[used : used + count]
        used += count
        if got.size < count:
            # past the end: plain binary search, on the few redraws it leaves
            fresh = cdf.searchsorted(rng.random(count - got.size), "right")
            got = np.concatenate((got, fresh))
        return got

    out = np.empty((k, rows), dtype=np.int64)  # slot-major: out[j] is slot j
    for j in range(k):
        out[j] = take(rows)
        redo = (out[:j] == out[j]).any(axis=0).nonzero()[0]
        while redo.size:
            col = take(redo.size)
            out[j, redo] = col
            redo = redo[(out[:j, redo] == col).any(axis=0)]
    return out.T


def _draw_batches(
    weights: np.ndarray, k: int, count: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Iterate over ``count`` sequentially weighted k-sets in batches of rows.

    ``weights`` is a 1-d float array in which no node holds more than 1/k of
    the total; ``generate_hsbm`` passes equal weights. Each batch is an int array of shape
    (rows, k) holding indices into ``weights``; column j is the j-th node
    drawn. The batch capacity depends only on k, so memory stays within
    ``_BATCH_CELLS`` however large ``count`` is, and the draws never depend
    on how calls are scheduled.
    """
    pos, w = _population(weights, k)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]  # exactly 1 at the end, so every u in [0, 1) lands
    guide = _guide_table(cdf)
    batch = max(1, _BATCH_CELLS // k)
    # a generator expression, so the checks above run at the call
    return (
        pos[_rejection_batch(cdf, guide, k, min(batch, count - done), rng)]
        for done in range(0, count, batch)
    )


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
    mode, and each batch of draws without replacement comes from
    ``_draw_batches`` with equal weights, its rows sorted as they are stored.
    """
    rng = np.random.default_rng(derive_seed(cfg.seed))
    num_attrs, k = cfg.num_attributes, cfg.k
    per_part = cfg.num_nodes // num_attrs
    attributes = np.repeat(np.arange(num_attrs), per_part)

    def k_subsets(n: int, size: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        # filled batch by batch: the batches never coexist with a second copy
        out = np.empty((count, size), dtype=np.int64) if out is None else out
        done = 0
        for sets in _draw_batches(np.ones(n), size, count, rng):
            out[done : done + len(sets)] = np.sort(sets, axis=1)
            done += len(sets)
        return out

    u = rng.random(cfg.num_edges)
    pure = u < cfg.p  # none unless p > 0
    balanced = u < -cfg.p  # none unless p < 0
    uniform = u >= abs(cfg.p)
    del u
    edges = np.empty((cfg.num_edges, k), dtype=np.int64)
    # a mode that covers every edge draws its sets straight into the edges
    if uniform.all():
        k_subsets(cfg.num_nodes, k, cfg.num_edges, out=edges)
    elif uniform.any():
        edges[uniform] = k_subsets(cfg.num_nodes, k, np.count_nonzero(uniform))
    if pure.any():
        part = rng.integers(num_attrs, size=np.count_nonzero(pure))
        if pure.all():
            k_subsets(per_part, k, cfg.num_edges, out=edges)
            edges += (part * per_part)[:, None]
        else:
            edges[pure] = k_subsets(per_part, k, part.size) + (part * per_part)[:, None]
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
            chosen = k_subsets(num_attrs, extra, rows) * per_part
            nodes = np.concatenate((nodes, chosen), axis=1)
            nodes.sort(axis=1)
        lengths = _runs(nodes)[1]
        for length in (base, base + 1):
            in_run = lengths == length  # never true at length 0
            if in_run.any():
                sets = k_subsets(per_part, length, np.count_nonzero(in_run))
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
