"""Per-edge CSV serialization tests."""

import io
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperhomophily import Hypergraph, SamplerConfig, analyze
from hyperhomophily import report as rpt
from hyperhomophily.homophily import EDGE_COLUMNS, EdgeScores


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
    # size 2 stays inside label 0 (a degenerate baseline), sizes 3 and 4 mix
    # labels 0-2; edge sizes interleave
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


@pytest.mark.parametrize("chunk_rows", [3, rpt._PER_EDGE_CHUNK_ROWS])
def test_per_edge_csv_bytes_match_format_number(monkeypatch, chunk_rows):
    monkeypatch.setattr(rpt, "_PER_EDGE_CHUNK_ROWS", chunk_rows)
    h = interleaved_graph()
    report = analyze(h, SamplerConfig(samples=300, seed=4), emit_per_edge=True)
    reasons = {e.reason: (e.k, e.count) for e in report.exclusions}
    assert reasons == {"degenerate_baseline": (2, 4)}

    scores = report.per_edge
    assert list(scores.edge_index) == list(range(h.num_edges))
    assert set(np.unique(scores.k)) == {2, 3, 4}
    assert list(scores.degenerate) == [bool(k == 2) for k in scores.k]
    assert not np.any(scores.phi[scores.degenerate])

    out = io.StringIO()
    rpt.write_per_edge_csv(scores, out)
    text = out.getvalue()
    assert text == reference_per_edge_csv(scores)
    assert text.count(",true\n") == 4 and text.count(",false\n") == 9


def test_per_edge_columns_are_read_only():
    h = interleaved_graph()
    scores = analyze(h, SamplerConfig(samples=100, seed=1), emit_per_edge=True).per_edge
    for name in EDGE_COLUMNS:
        with pytest.raises(ValueError):
            getattr(scores, name)[0] = 0


def scores_from_tails(edge_index, tails) -> EdgeScores:
    """EdgeScores whose row i has edge index ``edge_index[i]`` and the cells
    ``tails[i]`` (k, the seven float columns, degenerate)."""
    columns = list(zip(*tails))
    return EdgeScores(
        edge_index=np.array(edge_index, dtype=np.int64),
        k=np.array(columns[0], dtype=np.int64),
        **{
            name: np.array(col, dtype=np.float64)
            for name, col in zip(EDGE_COLUMNS[2:-1], columns[1:-1])
        },
        degenerate=np.array(columns[-1], dtype=bool),
    )


def test_per_edge_scores_compare_only_with_per_edge_scores():
    scores = scores_from_tails([0], [(2, *[0.5] * 7, False)])
    assert scores == scores_from_tails([0], [(2, *[0.5] * 7, False)])
    # __eq__ answers NotImplemented, and Python falls back to identity
    assert (scores == 1) is False


# a small value set makes cells such as 0.0 and -0.0 meet in one column;
# they print differently
_cell = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, math.nan, math.inf, -math.inf]),
    st.floats(),
)
_tail_cells = (st.integers(2, 40), *[_cell] * 7, st.booleans())


@st.composite
def edge_scores(draw):
    # tails that differ from the first one in one to three cells
    pool = [draw(st.tuples(*_tail_cells))]
    for _ in range(draw(st.integers(0, 39))):
        tail = list(pool[0])
        for j in draw(st.sets(st.integers(0, 8), min_size=1, max_size=3)):
            tail[j] = draw(_tail_cells[j])
        pool.append(tuple(tail))
    picks = draw(
        st.one_of(
            st.permutations(range(len(pool))),  # each tail once: rows distinct
            st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60),
        )
    )
    edge_index = draw(
        st.lists(st.integers(0, 10**9), min_size=len(picks), max_size=len(picks))
    )
    return scores_from_tails(edge_index, [pool[i] for i in picks])


_SIGNED_ZEROS = scores_from_tails(
    [0, 1, 2, 3, 4],
    [
        (2, 0.0, 1.5, 1.5, 0.5, 0.5, 1.0, 1.0, False),
        (2, -0.0, 1.5, 1.5, 0.5, 0.5, 1.0, 1.0, False),
        (3, math.nan, math.inf, -math.inf, 0.0, -0.0, 0.0, 0.0, True),
        (2, 0.0, 1.5, 1.5, 0.5, 0.5, 1.0, 1.0, False),
        (3, math.nan, math.inf, -math.inf, 0.0, -0.0, 0.0, 0.0, True),
    ],
)


@given(edge_scores(), st.sampled_from([1, 3, rpt._PER_EDGE_CHUNK_ROWS]))
@example(_SIGNED_ZEROS, 1)
@example(scores_from_tails([7], [(5, *[0.25] * 7, False)]), 3)
@settings(max_examples=150, deadline=None)
def test_per_edge_csv_bytes_match_reference(scores, chunk_rows):
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rpt, "_PER_EDGE_CHUNK_ROWS", chunk_rows)
        rpt.write_per_edge_csv(scores, out)
    assert out.getvalue() == reference_per_edge_csv(scores)


# an edge index's text is the digits of index // 100 (none below 100) and
# its last two digits, zero-padded only after leading digits
_INDEX_BOUNDARIES = [0, 9, 10, 99, 100, 101, 999, 1000, 2**63 - 1]
_INT64 = st.integers(-(2**63), 2**63 - 1)


@pytest.mark.parametrize("chunk_rows", [1, 3, rpt._PER_EDGE_CHUNK_ROWS])
def test_per_edge_csv_index_digit_boundaries(monkeypatch, chunk_rows):
    monkeypatch.setattr(rpt, "_PER_EDGE_CHUNK_ROWS", chunk_rows)
    tails = [(2 + i % 3, *[0.25 * i] * 7, i % 2 == 0) for i in range(len(_INDEX_BOUNDARIES))]
    scores = scores_from_tails(_INDEX_BOUNDARIES, tails)
    out = io.StringIO()
    rpt.write_per_edge_csv(scores, out)
    assert out.getvalue() == reference_per_edge_csv(scores)


@given(
    st.lists(
        st.one_of(_INT64, st.sampled_from(_INDEX_BOUNDARIES), st.integers(-1, 1)),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([1, 3, rpt._PER_EDGE_CHUNK_ROWS]),
)
@settings(max_examples=150, deadline=None)
def test_per_edge_csv_whole_int64_index_range(edge_index, chunk_rows):
    tails = [(3, *[1.5] * 7, False)] * len(edge_index)
    if min(edge_index) < 0:
        # an edge index is a position in the edge list
        with pytest.raises(ValueError, match="edge_index"):
            scores_from_tails(edge_index, tails)
        return
    scores = scores_from_tails(edge_index, tails)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rpt, "_PER_EDGE_CHUNK_ROWS", chunk_rows)
        rpt.write_per_edge_csv(scores, out)
    assert out.getvalue() == reference_per_edge_csv(scores)


def test_per_edge_csv_time_does_not_grow_with_the_largest_index():
    # tables sized by the largest index would hold 2**62 / 100 entries
    scores = scores_from_tails([2**62], [(2, *[0.5] * 7, False)])
    out = io.StringIO()
    started = time.perf_counter()
    rpt.write_per_edge_csv(scores, out)
    assert time.perf_counter() - started < 0.5
    assert out.getvalue().splitlines()[2].startswith(f"{2**62},2,")
