"""Seeded, NumPy-only fixture generator for the benchmark.

The fixtures are written in the package's text format (one comma-separated,
1-based hyperedge per line; one 1-based label per node line; one label name
per line). They are built here rather than with the package's own samplers
and block-model generator, so a change to the package's algorithms or RNG
streams changes neither the inputs nor the set-up time.

Edge counts per size are fixed by the spec (not sampled), so every seed gives
the same amount of work; the seed only decides which nodes each edge holds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class FixtureSpec:
    """Shape of one planted-homophily hypergraph.

    Sizes follow P(s) ~ s**size_exponent over [min_size, max_size]. Node
    activity is Pareto(activity_shape) + 1. A ``pure_share`` of the edges of
    every size is pure (all nodes from one label); the rest draw nodes by
    activity from the whole node set, so the planted index is ~pure_share.
    """

    nodes: int
    edges: int
    labels: int
    min_size: int
    max_size: int
    size_exponent: float
    activity_shape: float
    pure_share: float


@dataclass(frozen=True)
class Fixture:
    hyperedges: Path
    labels: Path
    label_names: Path
    nodes: int
    edges: int
    sizes: int
    population_sum: int  # sum over sizes k of n_k, nodes with positive k-degree
    population_max: int
    input_bytes: int
    sha256: dict


def edges_per_size(spec: FixtureSpec) -> dict[int, int]:
    """Deterministic edge count per size (largest-remainder rounding)."""
    sizes = np.arange(spec.min_size, spec.max_size + 1)
    share = sizes.astype(np.float64) ** spec.size_exponent
    exact = spec.edges * share / share.sum()
    counts = np.floor(exact).astype(np.int64)
    short = spec.edges - int(counts.sum())
    counts[np.argsort(counts - exact, kind="stable")[:short]] += 1
    return {int(s): int(c) for s, c in zip(sizes, counts) if c > 0}


def _mixed_rows(rng, cum: np.ndarray, rows: int, size: int) -> np.ndarray:
    """Rows of ``size`` distinct ids drawn by cumulative weight ``cum``.

    Rows that repeat an id are redrawn whole; weight shares are small over
    the whole node set, so few rounds are needed.
    """

    def draw(n):
        u = rng.random((n, size)) * cum[-1]
        return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)

    out = draw(rows)
    while True:
        out.sort(axis=1)
        bad = np.flatnonzero((out[:, 1:] == out[:, :-1]).any(axis=1))
        if bad.size == 0:
            return out
        out[bad] = draw(bad.size)


def _pure_rows(rng, members, activity, label_of_row, size: int) -> np.ndarray:
    """Rows of ``size`` distinct ids from one label each, by exponential race.

    Within a label a few nodes can hold most of the weight, which would make
    whole-row rejection loop, so each label's rows race over its members.
    """
    out = np.empty((label_of_row.size, size), dtype=np.int64)
    for label in np.unique(label_of_row):
        rows = np.flatnonzero(label_of_row == label)
        nodes = members[label]
        keys = rng.exponential(size=(rows.size, nodes.size)) / activity[nodes]
        out[rows] = nodes[np.argpartition(keys, size - 1, axis=1)[:, :size]]
    out.sort(axis=1)
    return out


def generate(spec: FixtureSpec, seed: int):
    """Return (0-based label per node, edge blocks, file order).

    Each block is a matrix with the sorted 0-based node ids of one edge per
    row. The file order is a seeded shuffle of all edges, given as a pair of
    arrays (block index, row index).
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(spec.labels, size=spec.nodes)
    activity = rng.pareto(spec.activity_shape, size=spec.nodes) + 1.0
    cum = np.cumsum(activity)
    members = [np.flatnonzero(labels == label) for label in range(spec.labels)]
    smallest = min(m.size for m in members)
    if smallest < spec.max_size:
        raise ValueError(f"a label has {smallest} nodes, fewer than max_size")

    blocks = []
    for size, count in edges_per_size(spec).items():
        pure = int(round(spec.pure_share * count))
        blocks.append(_pure_rows(rng, members, activity, rng.integers(spec.labels, size=pure), size))
        blocks.append(_mixed_rows(rng, cum, count - pure, size))

    # interleave sizes in a seeded order, as real edge lists are not size-sorted
    flat_block = np.concatenate([np.full(b.shape[0], i) for i, b in enumerate(blocks)])
    flat_row = np.concatenate([np.arange(b.shape[0]) for b in blocks])
    order = rng.permutation(flat_row.size)
    return labels, blocks, (flat_block[order], flat_row[order])


def _edge_lines(blocks, order, nodes: int) -> bytes:
    names = [str(i + 1) for i in range(nodes)]
    text = [[",".join([names[v] for v in row]) for row in b.tolist()] for b in blocks]
    return ("\n".join(text[b][r] for b, r in zip(order[0].tolist(), order[1].tolist())) + "\n").encode()


def write(spec: FixtureSpec, seed: int, directory: Path) -> Fixture:
    """Generate the fixture for ``seed`` and write its three files."""
    labels, blocks, order = generate(spec, seed)
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "hyperedges": (directory / "hyperedges.txt", _edge_lines(blocks, order, spec.nodes)),
        "labels": (directory / "node-labels.txt", ("\n".join(map(str, (labels + 1).tolist())) + "\n").encode()),
        "label_names": (
            directory / "label-names.txt",
            "".join(f"label-{i + 1}\n" for i in range(spec.labels)).encode(),
        ),
    }
    for path, data in files.values():
        path.write_bytes(data)
    # blocks come in (pure, mixed) pairs, one pair per size
    populations = [np.unique(np.concatenate([pure.ravel(), mixed.ravel()])).size
                   for pure, mixed in zip(blocks[::2], blocks[1::2])]
    return Fixture(
        hyperedges=files["hyperedges"][0],
        labels=files["labels"][0],
        label_names=files["label_names"][0],
        nodes=spec.nodes,
        edges=spec.edges,
        sizes=len(populations),
        population_sum=int(sum(populations)),
        population_max=int(max(populations)),
        input_bytes=sum(len(data) for _, data in files.values()),
        sha256={key: hashlib.sha256(data).hexdigest() for key, (_, data) in files.items()},
    )
