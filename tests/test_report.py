"""CSV serialization tests: every table against a cell-by-cell reference."""

import io
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperhomophily import Hypergraph, SamplerConfig, analyze
from hyperhomophily import report as rpt
from hyperhomophily.homophily import EDGE_COLUMNS, EdgeScores, PerKRow
from hyperhomophily.hsbm import GridPoint


def format_number(value) -> str:
    """The reference rule for one CSV cell: integers as digits, floats to
    17 significant digits, booleans as ``true``/``false``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def reference_per_edge_csv(scores) -> str:
    """One ``format_number`` call per cell, row by row."""
    lines = [
        "# one row per scored or degenerate hyperedge\n",
        ",".join(EDGE_COLUMNS) + "\n",
    ]
    for i in range(len(scores)):
        cells = [getattr(scores, name)[i].item() for name in EDGE_COLUMNS]
        lines.append(",".join(format_number(c) for c in cells) + "\n")
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


@pytest.mark.parametrize("chunk_rows", [3, rpt._CHUNK_ROWS])
def test_per_edge_csv_bytes_match_format_number(monkeypatch, chunk_rows):
    monkeypatch.setattr(rpt, "_CHUNK_ROWS", chunk_rows)
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


def _valid_columns(rows=4) -> dict:
    scores = scores_from_tails(range(rows), [(2, *[0.5] * 7, False)] * rows)
    return {name: getattr(scores, name).copy() for name in EDGE_COLUMNS}


@pytest.mark.parametrize(
    "name, column, message",
    [
        ("phi", np.full(1, 0.5), "phi must be 1-d with len(edge_index) rows, got (1,)"),
        ("edge_index", np.arange(4).reshape(4, 1), "edge_index must be 1-d"),
        ("gap", np.float64(0.5), "gap must be 1-d"),
        ("degenerate", np.zeros(4, dtype=np.int64), "degenerate must hold bool, got int64"),
        ("k", np.full(4, 2.0), "k must hold integers, got float64"),
        ("edge_index", np.arange(4.0), "edge_index must hold integers, got float64"),
        ("phi_min", np.full(4, 0.5, dtype=np.float32), "phi_min must hold float64, got float32"),
        ("observed", np.full(4, 1, dtype=np.int64), "observed must hold float64, got int64"),
    ],
    ids=["short", "2-d", "0-d", "int-flag", "float-size", "float-index", "float32", "int-score"],
)
def test_per_edge_columns_must_fit_together(name, column, message):
    # a 1-row phi beside 4-row columns gave len() 4 and failed in the writer
    columns = {**_valid_columns(), name: column}
    with pytest.raises(ValueError, match=re.escape(message)):
        EdgeScores(**columns)


def test_unsigned_integer_columns_are_integers():
    columns = _valid_columns()
    columns["edge_index"] = columns["edge_index"].astype(np.uint32)
    columns["k"] = columns["k"].astype(np.uint8)
    out = io.StringIO()
    rpt.write_per_edge_csv(EdgeScores(**columns), out)
    assert out.getvalue() == reference_per_edge_csv(EdgeScores(**_valid_columns()))


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


@given(edge_scores(), st.sampled_from([1, 3, rpt._CHUNK_ROWS]))
@example(_SIGNED_ZEROS, 1)
@example(scores_from_tails([7], [(5, *[0.25] * 7, False)]), 3)
@settings(max_examples=150, deadline=None)
def test_per_edge_csv_bytes_match_reference(scores, chunk_rows):
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rpt, "_CHUNK_ROWS", chunk_rows)
        rpt.write_per_edge_csv(scores, out)
    assert out.getvalue() == reference_per_edge_csv(scores)


# an edge index's text is the digits of index // 100 (none below 100) and
# its last two digits, zero-padded only after leading digits
_INDEX_BOUNDARIES = [0, 9, 10, 99, 100, 101, 999, 1000, 2**63 - 1]
_INT64 = st.integers(-(2**63), 2**63 - 1)


@pytest.mark.parametrize("chunk_rows", [1, 3, rpt._CHUNK_ROWS])
def test_per_edge_csv_index_digit_boundaries(monkeypatch, chunk_rows):
    monkeypatch.setattr(rpt, "_CHUNK_ROWS", chunk_rows)
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
    st.sampled_from([1, 3, rpt._CHUNK_ROWS]),
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
        mp.setattr(rpt, "_CHUNK_ROWS", chunk_rows)
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


def reference_table(rows, columns, comments) -> str:
    """``#`` comments, the header, and one ``format_number`` call per cell."""
    lines = [f"# {line}\n" for line in comments] + [",".join(columns) + "\n"]
    for row in rows:
        lines.append(",".join(format_number(getattr(row, c)) for c in columns) + "\n")
    return "".join(lines)


_CURVE = (
    ("k", "mean_observed", "baseline_mean", "baseline_std_error", "edge_count"),
    ("per hyperedge size: mean observed diversity vs. null baseline",),
)
_GRID = (
    ("k", "p", "phi", "phi_std_error", "edges_scored"),
    (
        "homophily index over the (edge size k, mixing level p) grid",
        "phi_std_error is the standard error of the per-edge score mean",
    ),
)
# first cells on both sides of the heads/_LAST_TWO split, and float cells
# whose text is easy to get wrong
_TABLE_KS = [2, 99, 100, 101, 1234]
_TABLE_CELLS = [-0.0, math.nan, math.inf, -math.inf, 1e-300]


def curve_rows(ks, cells):
    return [
        PerKRow(k=k, edge_count=10 * i, baseline_mean=cells[i % len(cells)],
                baseline_std_error=cells[(i + 1) % len(cells)], phi_k=0.5,
                mean_observed=cells[(i + 2) % len(cells)])
        for i, k in enumerate(ks)
    ]


def grid_points(ks, cells):
    return [
        GridPoint(k=k, p=cells[i % len(cells)], phi=cells[(i + 1) % len(cells)],
                  phi_std_error=cells[(i + 3) % len(cells)], edges_scored=7 * i)
        for i, k in enumerate(ks)
    ]


_TABLES = [
    (rpt.write_curve_csv, curve_rows, _CURVE),
    (rpt.write_grid_csv, grid_points, _GRID),
]


@pytest.mark.parametrize("write, build, layout", _TABLES, ids=["curve", "grid"])
def test_row_tables_match_reference(write, build, layout):
    rows = build(_TABLE_KS, _TABLE_CELLS) + build([3, 3], [0.0, 0.25])
    out = io.StringIO()
    write(rows, out)
    text = out.getvalue()
    assert text == reference_table(rows, *layout)
    body = [line.split(",") for line in text.splitlines()[len(layout[1]) + 1 :]]
    assert [cells[0] for cells in body] == ["2", "99", "100", "101", "1234", "3", "3"]
    assert {"-0", "nan", "inf", "-inf", "1e-300"} <= {c for r in body for c in r}


@pytest.mark.parametrize("write, build, layout", _TABLES, ids=["curve", "grid"])
@given(
    ks=st.lists(st.integers(0, 10**12), max_size=12),
    cells=st.lists(st.floats(), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_row_tables_match_reference_for_any_cells(write, build, layout, ks, cells):
    rows = build(ks, cells)
    out = io.StringIO()
    write(rows, out)
    assert out.getvalue() == reference_table(rows, *layout)


@pytest.mark.parametrize("write, layout", [(rpt.write_curve_csv, _CURVE),
                                           (rpt.write_grid_csv, _GRID)], ids=["curve", "grid"])
def test_empty_row_table_is_comments_and_header(write, layout):
    out = io.StringIO()
    write([], out)
    columns, comments = layout
    assert out.getvalue() == "".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n"


@pytest.mark.parametrize("write, build", [(rpt.write_curve_csv, curve_rows),
                                          (rpt.write_grid_csv, grid_points)], ids=["curve", "grid"])
@pytest.mark.parametrize("k", [-1, 2.0, True], ids=["negative", "float", "bool"])
def test_first_column_must_hold_integers_at_least_zero(write, build, k):
    out = io.StringIO()
    with pytest.raises(ValueError, match="first column, k,"):
        write(build([k, k], [0.5]), out)
    assert out.getvalue() == ""  # nothing is written before the check


def test_unsigned_first_column_renders_its_digits():
    index = np.array([0, 99, 100, 2**64 - 1], dtype=np.uint64)
    out = io.StringIO()
    rpt.write_csv({"i": index, "x": np.full(4, 0.5), "b": index > 99}, (), out)
    assert out.getvalue() == (
        f"i,x,b\n0,0.5,false\n99,0.5,false\n100,0.5,true\n{2**64 - 1},0.5,true\n"
    )


def test_a_cell_that_is_no_number_is_refused():
    out = io.StringIO()
    with pytest.raises(ValueError, match="column x holds <U1"):
        rpt.write_csv({"i": np.arange(2), "x": np.array(["a", "b"])}, (), out)
    assert out.getvalue() == ""
