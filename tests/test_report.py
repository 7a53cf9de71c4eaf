"""Per-edge CSV serialization tests."""

import io

import numpy as np
import pytest

from hyperhomophily import Hypergraph, InsufficientPopulationError, SamplerConfig, analyze
from hyperhomophily import homophily
from hyperhomophily import report as rpt
from hyperhomophily.homophily import EDGE_COLUMNS


def reference_per_edge_csv(scores) -> str:
    """One ``format_number`` call per cell, row by row."""
    lines = [
        "# one row per scored or degenerate hyperedge\n",
        ",".join(EDGE_COLUMNS) + "\n",
    ]
    for i in range(len(scores)):
        cells = [getattr(scores, name)[i].item() for name in EDGE_COLUMNS]
        lines.append(",".join(rpt.format_number(c) for c in cells) + "\n")
    return "".join(lines)


def interleaved_graph() -> Hypergraph:
    # size 2 stays inside label 0 (a degenerate baseline), size 3 mixes
    # labels 0-2, size 4 is made insufficient below; edge sizes interleave
    attrs = [0, 0, 0, 0, 0, 1, 2, 0, 1, 2, 1, 2]
    pairs = [[0, 1], [1, 2], [2, 3], [0, 3]]
    triples = [[4, 5, 6], [4, 7, 8], [5, 9, 10], [6, 7, 11], [8, 9, 10], [4, 6, 11]]
    quads = [[4, 5, 6, 7], [8, 9, 10, 11], [4, 8, 9, 11]]
    edges = []
    for i in range(6):
        edges.append(triples[i])
        if i < len(pairs):
            edges.append(pairs[i])
        if i < len(quads):
            edges.append(quads[i])
    return Hypergraph(attrs, edges)


@pytest.fixture
def size_four_insufficient(monkeypatch):
    estimate = homophily.estimate_baseline

    def without_size_four(h, k, cfg):
        if k == 4:
            raise InsufficientPopulationError("size 4 left without a population")
        return estimate(h, k, cfg)

    monkeypatch.setattr(homophily, "estimate_baseline", without_size_four)


@pytest.mark.parametrize("chunk_rows", [3, rpt._PER_EDGE_CHUNK_ROWS])
def test_per_edge_csv_bytes_match_format_number(
    size_four_insufficient, monkeypatch, chunk_rows
):
    monkeypatch.setattr(rpt, "_PER_EDGE_CHUNK_ROWS", chunk_rows)
    h = interleaved_graph()
    report = analyze(h, SamplerConfig(samples=300, seed=4), emit_per_edge=True)
    reasons = {e.reason: (e.k, e.count) for e in report.exclusions}
    assert reasons == {
        "degenerate_baseline": (2, 4),
        "insufficient_population": (4, 3),
    }

    scores = report.per_edge
    assert list(scores.edge_index) == sorted(
        i for i in range(h.num_edges) if h.sizes[i] != 4
    )
    assert set(np.unique(scores.k)) == {2, 3}  # no rows for the insufficient size
    assert list(scores.degenerate) == [bool(k == 2) for k in scores.k]
    assert not np.any(scores.phi[scores.degenerate])

    out = io.StringIO()
    rpt.write_per_edge_csv(scores, out)
    text = out.getvalue()
    assert text == reference_per_edge_csv(scores)
    assert text.count(",true\n") == 4 and text.count(",false\n") == 6


def test_per_edge_columns_are_read_only():
    h = interleaved_graph()
    scores = analyze(h, SamplerConfig(samples=100, seed=1), emit_per_edge=True).per_edge
    for name in EDGE_COLUMNS:
        with pytest.raises(ValueError):
            getattr(scores, name)[0] = 0
