"""The block-model generator's law, against the per-edge loop it replaced.

``reference_generate_hsbm`` is the loop that drew each edge of
``generate_hsbm`` with its own ``rng.choice`` calls, before the generator drew
all edges with array operations. It stays here, test-only, as the reference
for a two-sample check of the vectorized generator: on graphs small enough
that every k-set can be counted, both must give each k-set the same
frequency.
"""

from dataclasses import replace

import numpy as np
import pytest

from hyperhomophily import HsbmConfig, Hypergraph, generate_hsbm
from hyperhomophily.nullmodel import derive_seed
from test_sampler_paths import chi2_critical


def reference_generate_hsbm(cfg: HsbmConfig) -> Hypergraph:
    """Generate a hypergraph from the block model (deterministic per seed)."""
    rng = np.random.default_rng(derive_seed(cfg.seed))
    per_part = cfg.num_nodes // cfg.num_attributes
    attributes = np.repeat(np.arange(cfg.num_attributes), per_part)

    base, extra = divmod(cfg.k, cfg.num_attributes)
    edges = np.empty((cfg.num_edges, cfg.k), dtype=np.int64)
    for i in range(cfg.num_edges):
        u = rng.random()
        if cfg.p > 0 and u < cfg.p:
            part = int(rng.integers(cfg.num_attributes))
            edge = part * per_part + rng.choice(per_part, size=cfg.k, replace=False)
        elif cfg.p < 0 and u < -cfg.p:
            # as even as possible: each attribute gets base or base+1 slots
            take = np.full(cfg.num_attributes, base, dtype=np.int64)
            if extra:
                take[rng.choice(cfg.num_attributes, size=extra, replace=False)] += 1
            parts = []
            for attr in range(cfg.num_attributes):
                if take[attr]:
                    parts.append(
                        attr * per_part
                        + rng.choice(per_part, size=int(take[attr]), replace=False)
                    )
            edge = np.concatenate(parts)
        else:
            edge = rng.choice(cfg.num_nodes, size=cfg.k, replace=False)
        edges[i] = np.sort(edge)

    offsets = np.arange(cfg.num_edges + 1, dtype=np.int64) * cfg.k
    names = tuple(f"group-{i}" for i in range(cfg.num_attributes))
    return Hypergraph._from_csr(attributes, edges.ravel(), offsets, names)


def edge_rows(generate, cfg, graphs, stream):
    """The edges of ``graphs`` graphs from derived seeds, one row per edge."""
    rows = [
        generate(replace(cfg, seed=derive_seed(stream, i))).edge_nodes
        for i in range(graphs)
    ]
    return np.concatenate(rows).reshape(-1, cfg.k)


CONFIGS = {
    # (nodes, attributes, k, p): every k-set of the nodes is one cell
    "uniform": (8, 2, 3, 0.0),
    "pure": (8, 2, 3, 0.6),
    "balanced-extra": (6, 3, 4, -0.7),
    "balanced-k-below-attrs": (8, 4, 2, -1.0),
    # k - 1 > n / 2: by the last slot the nodes already taken hold over half
    # the mass, which sent these draws to the key race until it was removed
    "uniform-raced": (6, 2, 5, 0.0),
    "balanced-extra-raced": (10, 5, 4, -0.7),  # which 4 of 5 attributes get a slot
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_edge_set_frequencies_match_the_loop(name):
    nodes, attrs, k, p = CONFIGS[name]
    cfg = HsbmConfig(num_nodes=nodes, num_attributes=attrs, k=k, num_edges=250, p=p)
    ours = edge_rows(generate_hsbm, cfg, 40, 1)
    ref = edge_rows(reference_generate_hsbm, cfg, 40, 2)

    # the CSR invariant _from_csr trusts: each row strictly increasing
    assert np.all(np.diff(ours, axis=1) > 0)

    cells, inverse = np.unique(np.vstack([ours, ref]), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    a = np.bincount(inverse[: len(ours)], minlength=len(cells))
    b = np.bincount(inverse[len(ours) :], minlength=len(cells))
    stat = float(np.sum((a - b) ** 2 / (a + b)))
    assert stat <= chi2_critical(len(cells) - 1), (name, cells, a, b)
