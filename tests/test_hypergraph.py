"""Container, ingestion, and structural-query tests."""

import ast
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperhomophily import (
    Hypergraph,
    IngestOptions,
    NodeRangeError,
    ParseError,
    UNLABELED,
    k_degrees,
    parse_hypergraph,
    write_hypergraph,
    load_hypergraph,
)
from hyperhomophily import hypergraph
from hyperhomophily.homophily import _edge_labels
from hyperhomophily.hypergraph import _ascii_ids, _edges_whole, _lf, _parse_labels
from line_parser import edges_by_line, labels_by_line


def parse(edges_text, labels_text, names_text=None, **kwargs):
    names = io.StringIO(names_text) if names_text is not None else None
    return parse_hypergraph(
        io.StringIO(edges_text), io.StringIO(labels_text), names, IngestOptions(**kwargs)
    )


class TestParse:
    def test_basic_one_indexed(self):
        h = parse("1,2\n2,3\n", "1\n1\n2\n")
        assert h.node_count == 3
        assert list(h.attributes) == [0, 0, 1]
        assert h.edge_list() == [(0, 1), (1, 2)]
        assert {type(v) for edge in h.edge_list() for v in edge} == {int}  # not np.int64

    def test_dedupe_within_line(self):
        h = parse("1,1,2\n", "1\n2\n")
        assert h.edge_list() == [(0, 1)]
        assert h.ingest.dedup_events == 1

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("1,2\n2,x\n", "1\n1\n")

    def test_node_id_out_of_range(self):
        with pytest.raises(NodeRangeError, match="line 1"):
            parse("1,4\n", "1\n1\n2\n")

    def test_zero_is_out_of_range_when_one_indexed(self):
        with pytest.raises(NodeRangeError):
            parse("0,1\n", "1\n1\n")

    def test_empty_interior_line_is_error(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("1,2\n\n2,3\n", "1\n1\n2\n")

    def test_trailing_blank_lines_tolerated(self):
        h = parse("1,2\n\n\n", "1\n2\n")
        assert h.num_edges == 1

    def test_carriage_returns_stripped(self):
        h = parse("1,2\r\n2,3\r\n", "1\r\n1\r\n2\r\n")
        assert h.edge_list() == [(0, 1), (1, 2)]

    def test_size_filters_counted(self):
        h = parse("1\n1,2\n1,2,3\n", "1\n1\n1\n", min_size=2, max_size=2)
        assert h.edge_list() == [(0, 1)]
        assert h.ingest.excluded_by_size == 2

    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError):
            IngestOptions(min_size=3, max_size=2)

    @pytest.mark.parametrize("field", ["min_size", "max_size"])
    @pytest.mark.parametrize("value", [2.5, True, "2"], ids=repr)
    def test_size_bounds_are_integers(self, field, value):
        # min_size=2.5 kept only sizes >= 3, True acted as 1, and "2" failed
        # in NumPy at parse time
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            IngestOptions(**{field: value})

    def test_numpy_size_bounds_stored_as_int(self):
        opts = IngestOptions(min_size=np.int64(2), max_size=np.uint8(2))
        assert (type(opts.min_size), type(opts.max_size)) == (int, int)
        h = parse("1\n1,2\n1,2,3\n", "1\n1\n1\n", min_size=np.int64(2), max_size=np.uint8(2))
        assert h.edge_list() == [(0, 1)]

    def test_unlabeled_dropped_by_default(self):
        h = parse("1,2\n2,3\n", "1\n\n2\n")
        assert h.num_edges == 0
        assert h.ingest.excluded_unlabeled == 2
        assert h.attributes[1] == UNLABELED

    def test_collapse_duplicate_edges(self):
        h = parse("1,2\n2,1\n1,3\n", "1\n1\n1\n", collapse_duplicate_edges=True)
        assert h.edge_list() == [(0, 1), (0, 2)]
        assert h.ingest.duplicate_edges_collapsed == 1

    def test_collapse_interleaved_duplicates(self):
        h = parse(
            "1,2\n1,3\n2,1\n1,3,4\n3,1\n", "1\n1\n1\n1\n", collapse_duplicate_edges=True
        )
        assert h.edge_list() == [(0, 1), (0, 2), (0, 2, 3)]
        assert h.ingest.duplicate_edges_collapsed == 2

    def test_duplicate_edges_kept_by_default(self):
        h = parse("1,2\n2,1\n", "1\n1\n")
        assert h.edge_list() == [(0, 1), (0, 1)]

    def test_label_names(self):
        h = parse("1,2\n", "1\n2\n", names_text="red\nblue\n")
        assert h.attribute_names == ("red", "blue")
        assert h.num_attributes == 2

    def test_label_exceeding_names_rejected(self):
        with pytest.raises(ValueError):
            parse("1,2\n", "1\n3\n", names_text="red\nblue\n")

    def test_label_zero_out_of_range_when_one_indexed(self):
        with pytest.raises(NodeRangeError):
            parse("1\n", "0\n")

    def test_parse_is_deterministic(self):
        text = ("1,2\n2,3\n1,3\n", "1\n2\n1\n")
        a = parse(*text)
        b = parse(*text)
        assert a.edge_list() == b.edge_list()
        assert np.array_equal(a.attributes, b.attributes)


@st.composite
def constructor_inputs(draw):
    """Labelled nodes and an edge list whose edges may be empty or repeat an id."""
    n = draw(st.integers(1, 6))
    attrs = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return attrs, draw(st.lists(st.lists(st.integers(0, n - 1), max_size=4), max_size=6))


class TestConstructor:
    @given(constructor_inputs())
    @example(([0, 1], [[0, 1], [1, 1], []]))  # a repeated id, then an empty edge
    @example(([0, 1], [[1, 0], [], [0, 0]]))  # an empty edge, then a repeated id
    def test_canonical_form_is_ingests(self, case):
        attrs, edges = case
        bad = [i for i, e in enumerate(edges) if not e or len(set(e)) < len(e)]
        if bad:
            fault = "is empty" if not edges[bad[0]] else "contains duplicate node ids"
            with pytest.raises(ValueError, match=f"^hyperedge {bad[0]} {fault}$"):
                Hypergraph(attrs, edges)
            return
        h = Hypergraph(attrs, edges)
        text = "".join(",".join(str(v + 1) for v in e) + "\n" for e in edges)
        parsed = parse(text, "".join(f"{a + 1}\n" for a in attrs))
        assert np.array_equal(h.edge_nodes, parsed.edge_nodes)
        assert np.array_equal(h.offsets, parsed.offsets)
        assert np.array_equal(h.attributes, parsed.attributes)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph([0, 1], [[0, 5]])

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            Hypergraph([0, 1], [[0], []])

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            Hypergraph([0, 1], [[0, 0]])

    @pytest.mark.parametrize(
        "attrs, edges",
        [
            ([0, 1, 0], [[0.9, 1.2]]),  # would truncate to edge (0, 1)
            ([0.7, 1.9, 0], [[0, 1]]),  # would truncate to attributes 0, 1, 0
            ([0, 1], [["0", "1"]]),
            (["0", "1"], [[0, 1]]),
            ([0, 1], [[False, True]]),
            ([True, False], [[0, 1]]),
            ([0, 1], [[0, True]]),  # a bool among ints: would read as edge (0, 1)
            ([0, True], [[0, 1]]),  # would read as attributes 0, 1
            ([0, 0], [[0, "a"]]),  # sorted() raised TypeError
            ([0, 0], [[0, None]]),
        ],
    )
    def test_rejects_non_integer_ids(self, attrs, edges):
        with pytest.raises(ValueError, match="must be integers"):
            Hypergraph(attrs, edges)

    def test_accepts_numpy_integer_ids(self):
        h = Hypergraph(np.array([0, 1], dtype=np.int32), [np.array([1, 0], dtype=np.uint8)])
        assert h.edge_list() == [(0, 1)]
        assert h.attributes.dtype == np.int64

    @pytest.mark.parametrize("edges", [[[1]], [[0], [0, 1]], [[0, 1, 2]]])
    def test_rejects_edges_touching_unlabeled_nodes(self, edges):
        # every size, size 1 included; ingest drops and counts such edges
        with pytest.raises(ValueError, match="unlabeled"):
            Hypergraph([0, UNLABELED, 1], edges)

    def test_edges_sorted(self):
        h = Hypergraph([0, 0, 0], [[2, 0, 1]])
        assert h.edge_list() == [(0, 1, 2)]

    def test_arrays_readonly(self):
        h = Hypergraph([0, 1], [[0, 1]])
        with pytest.raises(ValueError):
            h.attributes[0] = 3


class TestQueries:
    def test_k_degrees_path(self):
        h = Hypergraph([0, 0, 1], [[0, 1], [1, 2]])
        assert list(k_degrees(h, 2).degrees) == [1, 2, 1]
        assert list(k_degrees(h, 3).degrees) == [0, 0, 0]

    def test_k_degrees_star(self):
        # hand count: center node is in all 4 pair edges, each leaf in 1
        h = Hypergraph([0] * 5, [[0, i] for i in range(1, 5)])
        assert list(k_degrees(h, 2).degrees) == [4, 1, 1, 1, 1]

    def test_k_uniform_sub(self):
        h = Hypergraph([0, 1, 2, 0], [[0, 1], [0, 1, 2], [1, 2, 3]])
        sub = h.edges_of_size(3)[1]
        assert [tuple(row) for row in sub.tolist()] == [(0, 1, 2), (1, 2, 3)]
        assert h.edges_of_size(7)[0].size == 0

    def test_k_uniform_sub_pairs(self):
        h = Hypergraph([0, 0, 1], [[0, 1], [1, 2]])
        sub = h.edges_of_size(2)[1]
        assert [tuple(row) for row in sub.tolist()] == h.edge_list()

    def test_edge_sizes(self):
        h = Hypergraph([0, 1, 2, 0], [[0, 1], [0, 1, 2], [1, 2, 3]])
        assert size_counts(h) == {2: 1, 3: 2}

    def test_edge_sizes_empty(self):
        assert size_counts(Hypergraph([0, 1], [])) == {}


def size_counts(h):
    """{size: edge count} over the sizes present, read from the size index."""
    return {k: h.edges_of_size(k)[0].size for k in np.unique(h.sizes)}


@st.composite
def small_hypergraphs(draw):
    n = draw(st.integers(2, 10))
    num_attrs = draw(st.integers(1, 4))
    attrs = draw(
        st.lists(st.integers(0, num_attrs - 1), min_size=n, max_size=n)
    )
    num_edges = draw(st.integers(1, 10))
    edges = []
    for _ in range(num_edges):
        size = draw(st.integers(1, min(4, n)))
        edges.append(
            draw(
                st.lists(
                    st.integers(0, n - 1), min_size=size, max_size=size, unique=True
                )
            )
        )
    return Hypergraph(attrs, edges)


class TestInvariants:
    @given(small_hypergraphs(), st.integers(1, 5))
    def test_degree_sum_identity(self, h, k):
        total = int(k_degrees(h, k).degrees.sum())
        assert total == k * size_counts(h).get(k, 0)

    @given(small_hypergraphs(), st.integers(1, 5))
    def test_sub_then_sizes(self, h, k):
        indices, block = h.edges_of_size(k)
        count = size_counts(h).get(k, 0)
        assert block.shape == (count, k)
        assert np.array_equal(h.sizes[indices], np.full(count, k))

    @given(small_hypergraphs())
    @settings(max_examples=50)
    def test_round_trip(self, h):
        edges_io, labels_io = io.StringIO(), io.StringIO()
        write_hypergraph(h, edges_io, labels_io)
        back = parse(edges_io.getvalue() or "", labels_io.getvalue())
        if h.num_edges == 0:
            return  # an empty edges file has no round-trip representation
        assert back.node_count == h.node_count
        assert np.array_equal(back.attributes, h.attributes)
        assert sorted(back.edge_list()) == sorted(h.edge_list())


def reference_written_files(h, with_names):
    """The text format written one node and one label at a time."""
    edges = "".join(",".join(str(int(v) + 1) for v in e) + "\n" for e in h.edges())
    labels = "".join(
        ("" if a == UNLABELED else str(int(a) + 1)) + "\n" for a in h.attributes
    )
    names = h.attribute_names if with_names and h.attribute_names is not None else ()
    return edges, labels, "".join(name + "\n" for name in names)


@st.composite
def written_hypergraphs(draw):
    # ids past 100 give multi-digit tokens; UNLABELED nodes write empty lines
    n = draw(st.integers(1, 150))
    num_attrs = draw(st.integers(1, 12))
    attrs = draw(
        st.lists(st.integers(UNLABELED, num_attrs - 1), min_size=n, max_size=n)
    )
    # a hyperedge may touch only labeled nodes
    labeled = [v for v, a in enumerate(attrs) if a != UNLABELED]
    edges = draw(
        st.lists(
            st.lists(
                st.sampled_from(labeled), min_size=1, max_size=min(6, len(labeled)), unique=True
            ),
            max_size=12,
        )
        if labeled
        else st.just([])
    )
    names = draw(
        st.one_of(
            st.none(),
            st.lists(st.text(max_size=4), min_size=num_attrs, max_size=num_attrs),
        )
    )
    return Hypergraph(attrs, edges, names)


def names_read_back(names) -> bool:
    """Can a label-names file hold ``names``? Not if a name breaks its line
    or is not UTF-8 (a lone surrogate), nor if the last name is blank: ingest
    drops trailing blank lines."""
    if any("\n" in name or "\r" in name for name in names):
        return False
    if any("\ud800" <= c <= "\udfff" for name in names for c in name):
        return False
    return not names or bool(names[-1].strip(" \t\x0b\x0c"))


class TestWriteHypergraph:
    @given(written_hypergraphs(), st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(Hypergraph([0, 1], [[0, 1]], ("a\nb", "c")), True)
    @example(Hypergraph([0, 1], [[0, 1]], ("a", " ")), True)
    @example(Hypergraph([0, 1], [[0, 1]], ("a\ud800", "c")), True)
    def test_bytes_match_per_node_reference(self, h, with_names):
        files = io.StringIO(), io.StringIO(), io.StringIO()
        names = h.attribute_names if with_names else None
        if names is not None and not names_read_back(names):
            with pytest.raises(ValueError):
                write_hypergraph(h, *files)
            assert tuple(f.getvalue() for f in files) == ("", "", "")
            return
        write_hypergraph(h, files[0], files[1], files[2] if with_names else None)
        expected = reference_written_files(h, with_names)
        assert tuple(f.getvalue() for f in files) == expected

    @given(written_hypergraphs())
    @settings(max_examples=150, deadline=None)
    @example(Hypergraph([0, 1], [[0, 1]], ("a\rb", "c")))
    @example(Hypergraph([0, 1], [[0, 1]], ("a", "")))
    @example(Hypergraph([0, 1], [[0, 1]], ("a\ud800", "c")))
    def test_written_files_read_back(self, h):
        files = io.StringIO(), io.StringIO(), io.StringIO()
        try:
            write_hypergraph(h, *files)
        except ValueError:
            return  # the names the writer refuses; the test above pins which
        edges, labels, names = (io.StringIO(f.getvalue()) for f in files)
        back = parse_hypergraph(edges, labels, names if h.attribute_names is not None else None)
        assert back.attributes.tolist() == h.attributes.tolist()
        assert back.edge_list() == h.edge_list()
        assert back.attribute_names == h.attribute_names


class TestSizeIndex:
    """The size-grouped edge index against the per-size mask formulas."""

    @given(
        st.one_of(small_hypergraphs(), st.just(Hypergraph([0, 1, 2], []))),
        st.lists(st.integers(1, 6), min_size=1, max_size=8),
    )
    def test_matches_mask_formulas(self, h, queries):
        # one graph asked in the drawn order (absent sizes, repeats and size 1
        # among them), so the first query that builds the index varies
        sizes = h.sizes
        blocks = {}
        for k in queries:
            mask = np.repeat(sizes == k, sizes)
            degrees = np.bincount(h.edge_nodes[mask], minlength=h.node_count)
            assert np.array_equal(k_degrees(h, k).degrees, degrees)
            labels = h.attributes[h.edge_nodes[mask]].reshape(-1, k)
            assert np.array_equal(_edge_labels(h, k), labels)
            indices, block = h.edges_of_size(k)
            assert np.array_equal(indices, np.flatnonzero(sizes == k))
            assert block.shape == (indices.size, k)
            assert [tuple(row) for row in block.tolist()] == [
                tuple(h.edge(i).tolist()) for i in indices
            ]
            if indices.size:
                assert blocks.setdefault(k, block) is block  # built once, then looked up

    def test_size_one_edges_and_absent_sizes(self):
        h = Hypergraph([0, 1, 0, 1], [[2], [0, 1], [3], [1, 2, 3], [0, 3]])
        indices, block = h.edges_of_size(1)
        assert indices.tolist() == [0, 2]
        assert block.tolist() == [[2], [3]]
        assert h.edges_of_size(2)[0].tolist() == [1, 4]
        assert h.edges_of_size(7)[1].shape == (0, 7)
        assert list(k_degrees(h, 7).degrees) == [0, 0, 0, 0]

    @pytest.mark.parametrize("k", [0, -1])
    def test_size_below_one_rejected(self, k):
        # edges_of_size(0) answered a (0, 0) block, and edges_of_size(-1)
        # failed in NumPy on a negative dimension
        h = Hypergraph([0, 1], [[0, 1]])
        for query in (h.edges_of_size, lambda k: k_degrees(h, k)):
            with pytest.raises(ValueError, match="^k must be >= 1$"):
                query(k)

    def test_cached_blocks_are_read_only(self):
        h = Hypergraph([0, 1, 0, 1], [[0, 1], [1, 2, 3], [2, 3]])
        for k in (2, 3, 5):  # size 5 is absent: its empty arrays are read-only too
            indices, block = h.edges_of_size(k)
            if indices.size:
                assert h.edges_of_size(k)[1] is block  # built once, then looked up
            for arr in (indices, block):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0
        assert list(k_degrees(h, 2).degrees) == [1, 1, 1, 1]


# -- whole-file parser against the line-by-line parser --------------------------

# int() reads ids padded with these, signed with "+", split by "_" or written
# in other digits; the id grammar rejects all of them
PADS = ["", " ", "\t", "  ", "\u00a0", "\x0b"]
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
JUNK = ["x", "", " ", "1.5", "1__2", "_1", "1_", "--1", "+-1", "0x1", "1 2", "\ud800"]
HUGE = [2**63 - 1, 2**63, 2**64 + 1, -(2**63), -(2**63) - 1, 10**30]


@st.composite
def id_token(draw, node_count: int, clean: bool, ascii_only: bool = False) -> str:
    kind = draw(st.integers(0, 9)) if not clean else 0
    if kind == 7:
        return draw(st.sampled_from(["", "x"] if ascii_only else JUNK))
    if kind == 8:
        value = draw(st.sampled_from(HUGE))
    elif kind == 9:
        top = node_count + 1
        value = draw(st.sampled_from([0, -1, -12, top, top + 3]))
    else:
        value = draw(st.integers(1, node_count))
    digits = str(abs(value))
    if ascii_only:  # plain digits, some with leading zeros (to 18 or 19 digits)
        return digits.zfill(draw(st.sampled_from([0, 0, 0, 2, 3, 18, 19])))
    sign = "-" if value < 0 else ""
    if clean or draw(st.integers(0, 2)):
        return sign + digits
    # rejected forms
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    if draw(st.integers(0, 5)) == 0:
        digits = digits.translate(ARABIC_INDIC)
    sign = sign or draw(st.sampled_from(["", "", "+"]))
    return draw(st.sampled_from(PADS)) + sign + digits + draw(st.sampled_from(PADS))


@st.composite
def ingest_inputs(draw, ascii_only: bool = False):
    """(hyperedges text, labels text, min_size, max_size), with 1-based ids.

    With ``ascii_only`` every id is plain ASCII digits and every line ends
    in LF or CRLF, so most texts parse.
    """
    node_count = draw(st.integers(1, 6))
    # mostly labeled: an edge touching an unlabeled node is usually dropped
    label = st.sampled_from([None, 0, 1, 2, 0, 1, 2, 0])
    labels = draw(st.lists(label, min_size=node_count, max_size=node_count))
    labels_text = "".join("\n" if v is None else f"{v + 1}\n" for v in labels)

    clean = draw(st.booleans())
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 8))):
        if lines and draw(st.integers(0, 3)) == 0:  # a repeated edge, ids reordered
            earlier = draw(st.sampled_from(lines)).split(",")
            lines.append(",".join(draw(st.permutations(earlier))))
            continue
        if not clean and draw(st.integers(0, 9)) == 0:
            blank = [""] if ascii_only else ["", "  ", "\t"]
            lines.append(draw(st.sampled_from(blank)))  # blank interior line
            continue
        size = draw(st.integers(1, 4))
        token = id_token(node_count, clean, ascii_only)
        lines.append(",".join(draw(token) for _ in range(size)))
    if ascii_only:
        endings, tails = ["\n", "\r\n"], ["", "\n", "\n\n", "\r\n"]
    else:
        endings = ["\n", "\r\n"] if clean else ["\n", "\r\n", "\r"]
        tails = ["", "\n", "\n\n", " \n", "\r\n\r\n", "\r", "\t\n \n"]
    text = "".join(line + draw(st.sampled_from(endings)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline after the last line
    text += draw(st.sampled_from(tails))

    min_size = draw(st.sampled_from([None, 1, 2, 3]))
    max_size = draw(st.sampled_from([None, 2, 3, 4]))
    if min_size is not None and max_size is not None and max_size < min_size:
        min_size, max_size = max_size, min_size
    return text, labels_text, min_size, max_size


def _outcome(parse):
    try:
        return parse()
    except ParseError as exc:
        return exc


def check_against_line_parser(inputs, collapse):
    text, labels_text, min_size, max_size = inputs
    opts = IngestOptions(
        min_size=min_size, max_size=max_size, collapse_duplicate_edges=collapse
    )
    attributes = _parse_labels(labels_text.encode())
    expected = _outcome(lambda: edges_by_line(text, attributes, opts))
    fast = _outcome(
        lambda: _edges_whole(_lf(text.encode("utf-8", "surrogatepass")), attributes, opts)
    )
    got = _outcome(
        lambda: parse_hypergraph(io.StringIO(text), io.StringIO(labels_text), None, opts)
    )
    if isinstance(expected, ParseError):
        for error in (fast, got):  # the whole-file parser raises the oracle's error
            assert type(error) is type(expected)
            assert (error.line, str(error)) == (expected.line, str(expected))
        return
    flat, offsets, stats = expected
    for nodes, offs, ingest in (fast, (got.edge_nodes, got.offsets, got.ingest)):
        assert nodes.dtype == offs.dtype == np.int64
        assert np.array_equal(nodes, flat)
        assert np.array_equal(offs, offsets)
        assert ingest == stats


def byte_route_parses(text: str) -> bool:
    raw = np.frombuffer(text.rstrip().encode(), dtype=np.uint8)
    faults = _ascii_ids(raw, (raw == ord(",")) | (raw == ord("\n")))[2]
    return not faults.any()


class TestWholeFileParser:
    @pytest.mark.parametrize("collapse", [False, True])
    @given(inputs=ingest_inputs())
    # lines drop by size, then by an unlabeled node, then as a repeat of an
    # earlier kept line: a repeat in another id order among three sizes, next
    # to lines that share its first id only ...
    @example(
        inputs=("1,2\n3,2,1\n2,4,1,3\n1,3\n2,1\n1,3,2\n4,2,1\n3,1,4,2\n1,2\n",
                "1\n2\n1\n2\n", None, None)
    )
    # ... a repeat whose first copy the size filter drops is no collapse ...
    @example(inputs=("1,2,3\n4,1\n3,2,1,1\n1,4\n", "1\n2\n1\n2\n", None, 2))
    # ... nor one whose first copy touches an unlabeled node
    @example(inputs=("1,2\n1,3\n2,1\n3,1\n", "1\n\n2\n", None, None))
    @settings(max_examples=60, deadline=None)
    def test_matches_line_by_line(self, inputs, collapse):
        check_against_line_parser(inputs, collapse)

    @pytest.mark.parametrize("collapse", [False, True])
    @given(inputs=ingest_inputs(ascii_only=True))
    @settings(max_examples=60, deadline=None)
    def test_ascii_ids_match_line_by_line(self, inputs, collapse):
        text = _lf(inputs[0].encode()).decode()
        tokens = text.rstrip().replace("\n", ",").split(",")
        if text.strip() and all(t.isdigit() and len(t) <= 18 for t in tokens):
            assert byte_route_parses(text)
        check_against_line_parser(inputs, collapse)

    def test_sort_key_overflow_is_an_error(self):
        # lines x nodes past int64: the per-line sort key would overflow
        attributes = np.broadcast_to(np.int64(0), ((1 << 60) - 1,))
        flat, offsets, _ = _edges_whole(b"1,2\n" * 8, attributes, IngestOptions())
        assert flat.tolist() == [0, 1] * 8 and offsets.tolist() == list(range(0, 17, 2))
        with pytest.raises(ParseError, match="hyperedges file too large") as info:
            _edges_whole(b"1,2\n" * 9, attributes, IngestOptions())
        assert info.value.line is None


LABELS_10 = "1\n" * 10


class TestByteRoute:
    """Explicit inputs on both sides of the byte-level id parser."""

    @pytest.mark.parametrize(
        "text,edges,byte_route",
        [
            ("007,010\n", [(6, 9)], True),  # leading zeros
            ("000000000000000003,1\n", [(0, 2)], True),  # 18 digits
            # the bytes hold CR, which ingest turns into LF before reading them
            ("1,2\r2,3\n", [(0, 1), (1, 2)], False),
            ("1,2\r\n2,3\r\n", [(0, 1), (1, 2)], False),
        ],
    )
    def test_ids(self, text, edges, byte_route):
        assert byte_route_parses(text) == byte_route
        assert parse(text, LABELS_10).edge_list() == edges

    @pytest.mark.parametrize(
        "text,line,error",
        [
            ("1,,2\n", 1, ParseError),
            ("1,2\n2,3,\n", 2, ParseError),  # trailing comma
            ("2,3\n100000000000000000,1\n", 2, NodeRangeError),  # 18 digits
            ("1000000000000000000,1\n", 1, NodeRangeError),  # 19 digits
            ("0000000000000000003,1\n", 1, NodeRangeError),  # 19 digits, value 3
            ("1, 2\n", 1, ParseError),
            ("1,\x1f2\n", 1, ParseError),  # int() reads it once stripped
            ("1\n+2\n", 2, ParseError),
            ("1\n1_0\n", 2, ParseError),
            ("1\n\u0663\n", 2, ParseError),  # ARABIC-INDIC DIGIT THREE
        ],
    )
    def test_malformed_ids(self, text, line, error):
        with pytest.raises(error) as info:
            parse(text, LABELS_10)
        assert info.value.line == line

    def test_long_node_id_names_digit_limit(self):
        # the value 3 is in range of the labels file; the digit count is not
        with pytest.raises(NodeRangeError) as info:
            parse("0000000000000000003,1\n", LABELS_10)
        assert str(info.value) == (
            "line 1: node id 0000000000000000003 out of range: more than 18 digits"
        )

    def test_long_token_with_a_letter_is_not_an_id(self):
        # 20 bytes, the letter before the last 18: not an id, whatever its length
        token = "x" + "1" * 19
        with pytest.raises(ParseError) as info:
            parse(f"1\n{token},1\n", LABELS_10)
        assert type(info.value) is ParseError
        assert str(info.value) == f"line 2: invalid node id {token!r}"

    def test_long_label_id_names_digit_limit(self):
        with pytest.raises(NodeRangeError) as info:
            _parse_labels(b"1\n0000000000000000001\n")
        assert str(info.value) == (
            "line 2: labels file: label id 0000000000000000001 out of range: "
            "more than 18 digits"
        )

    @pytest.mark.parametrize(
        "text,labels",
        [
            ("", []),
            ("\n", [UNLABELED]),
            ("1\n\n2\n", [0, UNLABELED, 1]),
            ("1\n\n2", [0, UNLABELED, 1]),
            ("1\r\r2\r", [0, UNLABELED, 1]),
            ("01\r\n\r\n2\r\n", [0, UNLABELED, 1]),
            ("000000000000000001\n", [0]),
        ],
    )
    def test_labels(self, text, labels):
        assert parse("", text).attributes.tolist() == labels

    @pytest.mark.parametrize(
        "text,line",
        [
            ("1\n0\n", 2),
            ("1\n\nx\n", 3),
            ("1\n \n\t\n2\n", 2),  # whitespace is not an empty line
            ("000000000000000001\n0000000000000000002\n", 2),  # 19 digits
            ("1\n+2\n", 2),
            ("1\n\x1f2\n", 2),
        ],
    )
    def test_bad_label_reports_line(self, text, line):
        with pytest.raises(ParseError) as info:
            _parse_labels(text.encode())
        assert info.value.line == line


# empty and whitespace-only lines, signs, other digits, a lone surrogate, the
# id 0, leading zeros, ids of 19 and more digits and a 10,000-digit token
# with a letter in front
LABEL_TOKENS = [
    "", "", " ", "\t", "\xa0", "\x1f", "+1", "\u0663", "\ud800", "x", "0", "00",
    "007", "1", "2", "3", "12", "1" * 19, "0" * 18 + "1", "9" * 25, "x" + "1" * 10_000,
]


@st.composite
def label_texts(draw):
    """(labels text, number of label names or None for no names file)."""
    tokens = draw(st.lists(st.sampled_from(LABEL_TOKENS), max_size=8))
    text = "".join(token + draw(st.sampled_from(["\n", "\r\n", "\r"])) for token in tokens)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text, draw(st.sampled_from([None, 0, 1, 2, 3]))


class TestLabelsAgainstLineParser:
    @given(case=label_texts())
    @example(case=("1\n3\nx\n", 2))
    @example(case=("\n\n" + "x" + "1" * 10_000 + "\n", None))
    @settings(max_examples=300, deadline=None)
    def test_matches_line_by_line(self, case):
        text, names = case
        names_text = None if names is None else "".join(f"n{i}\n" for i in range(names))
        expected = _outcome(lambda: labels_by_line(text, names))
        got = _outcome(lambda: parse("", text, names_text))
        if isinstance(expected, ParseError):
            assert type(got) is type(expected)
            assert (got.line, str(got)) == (expected.line, str(expected))
        else:
            assert got.attributes.tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "text, line, message",
        [
            # line 2's label has no name; line 3, not an id, was reported instead
            ("1\n3\nx\n", 2, "label id 3 has no entry in the label names file (2 names)"),
            ("1\n007\n", 2, "label id 7 has no entry in the label names file (2 names)"),
            ("x\n3\n", 1, "invalid label 'x'"),
        ],
    )
    def test_first_bad_line_across_label_checks(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse("", text, names_text="red\nblue\n")
        assert (info.value.line, str(info.value)) == (line, f"line {line}: labels file: {message}")


# digits, separators, whitespace and control characters (some of which
# str.strip() removes and int() does not), signs, other digits, a lone
# surrogate and an id of 19 digits
HOSTILE = [
    *"0123456789", ",", "\n", "\r", " ", "\t", "\x0b", "\x1c", "\x1f", "\x85",
    "\u2028", "\xa0", "\u0663", "_", "+", "-", "x", "\ud800", "1" * 19,
]


class TestHostileText:
    @given(text=st.lists(st.sampled_from(HOSTILE), max_size=16).map("".join))
    @example(text="1,\x1f2\n")
    @settings(max_examples=300, deadline=None)
    def test_parses_or_raises_parse_error_with_line(self, text):
        for edges_text, labels_text in ((text, "1\n" * 12), ("", text)):
            try:
                parse(edges_text, labels_text)
            except ParseError as exc:
                assert exc.line is not None


def _graph_or_error(call):
    try:
        h = call()
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    arrays = (h.edge_nodes, h.offsets, h.attributes)
    return *(a.tolist() for a in arrays), h.attribute_names, h.ingest


class TestFileMatchesStream:
    # a UTF-8 file cannot hold a lone surrogate
    @given(
        text=st.lists(st.sampled_from([t for t in HOSTILE if t != "\ud800"]), max_size=16)
        .map("".join)
    )
    @example(text="1,2\nx,1\n1,\xa0\n")
    @settings(max_examples=200, deadline=None)
    def test_same_graph_or_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            for texts in ((text, "1\n" * 12, None), ("", text, None), ("1,2\n", "1\n1\n", text)):
                paths = [None if t is None else Path(tmp, f"{i}.txt") for i, t in enumerate(texts)]
                for path, t in zip(paths, texts):
                    if t is not None:
                        path.write_bytes(t.encode("utf-8"))
                streams = [None if t is None else io.StringIO(t) for t in texts]
                from_files = _graph_or_error(lambda: load_hypergraph(*paths))
                assert from_files == _graph_or_error(lambda: parse_hypergraph(*streams))


class TestLoad:
    def test_universal_newlines(self, tmp_path):
        edges, labels = tmp_path / "e.txt", tmp_path / "l.txt"
        edges.write_bytes(b"1,2\r2,3\r\n1,3\n\r\n")
        labels.write_bytes(b"1\r2\r\n1\r")
        h = load_hypergraph(edges, labels)
        assert h.edge_list() == [(0, 1), (1, 2), (0, 2)]
        assert list(h.attributes) == [0, 1, 0]

    def test_undecodable_byte_names_its_line(self, tmp_path):
        edges, labels = tmp_path / "e.txt", tmp_path / "l.txt"
        edges.write_bytes(b"1,2\r\n2,3\r1,\xc3\x28\n")
        labels.write_text("1\n1\n2\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_hypergraph(edges, labels)
        assert type(info.value) is ParseError
        assert info.value.line == 3
        # the token is quoted with the byte that is not UTF-8 escaped
        assert str(info.value) == "line 3: invalid node id " + repr("\\xc3(")

    @pytest.mark.parametrize(
        "edges, labels, names, line, message",
        [
            # a byte that is not UTF-8 is one more fault, after the one on line 2
            (b"1,2\nx,1\n1,\xff\n", b"1\n1\n", None, 2, "invalid node id 'x'"),
            (b"1,2\n", b"1\nx\n\xff\n", None, 2, "labels file: invalid label 'x'"),
            (b"1,2\n", b"1\n1\n", b"red\n\xffblue\n", 2,
             "label names file: byte 0xff is not valid UTF-8"),
            (b"1,\xff\n", b"1\n1\n", None, 1, "invalid node id " + repr("\\xff")),
            (b"1,2\n", b"1\r\n\xfe\n", None, 2, "labels file: invalid label " + repr("\\xfe")),
        ],
    )
    def test_first_bad_line_is_reported(self, tmp_path, edges, labels, names, line, message):
        paths = [tmp_path / "e.txt", tmp_path / "l.txt", tmp_path / "n.txt"]
        for path, data in zip(paths, (edges, labels, names)):
            if data is not None:
                path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            load_hypergraph(*paths[:2], paths[2] if names is not None else None)
        assert type(info.value) is ParseError
        assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize(
        "edges, names, line, message",
        [
            # the whitespace ingest ignores at the end of the file is ASCII
            ("1,2\xa0", None, 1, "invalid node id '2\\xa0'"),
            ("1,2\n\x1c\n", None, 2, "empty hyperedge line"),
            ("1,2\n\u2028", None, 2, "empty hyperedge line"),
            # a lone surrogate is encoded as its three bytes, which are not UTF-8
            ("1,\ud800\n", None, 1, "invalid node id " + repr("\\xed\\xa0\\x80")),
            ("1,2\n", "red\n\ud800\n", 2, "label names file: byte 0xed is not valid UTF-8"),
        ],
    )
    def test_streams_are_read_as_utf8_bytes(self, edges, names, line, message):
        with pytest.raises(ParseError) as info:
            parse(edges, "1\n1\n", names)
        assert type(info.value) is ParseError
        assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize(
        "edges_text, collapse, stats",
        [
            ("1,2,2\n3,4,1,3\n2,3\n", False, {"dedup_events": 2}),
            ("1,2\n2,1\n3,4\n1,2\n", True, {"duplicate_edges_collapsed": 2}),
        ],
    )
    def test_repeats_leave_numpy_ma_unimported(self, tmp_path, edges_text, collapse, stats):
        # a flag-less np.unique imports numpy.ma, about 15 ms of a cold start
        edges, labels = tmp_path / "e.txt", tmp_path / "l.txt"
        edges.write_text(edges_text, encoding="utf-8")
        labels.write_text("1\n1\n2\n2\n", encoding="utf-8")
        script = (
            "import sys\n"
            "from hyperhomophily import IngestOptions, load_hypergraph\n"
            f"opts = IngestOptions(collapse_duplicate_edges={collapse})\n"
            f"h = load_hypergraph({str(edges)!r}, {str(labels)!r}, opts=opts)\n"
            "print(h.ingest.to_dict(), 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(hypergraph.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        counts, ma_imported = run.stdout.rsplit(" ", 1)
        assert ast.literal_eval(counts).items() >= stats.items()
        assert ma_imported.strip() == "False"
