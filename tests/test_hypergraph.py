"""Container, ingestion, and structural-query tests."""

import io
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhomophily import (
    DuplicateNodeError,
    Hypergraph,
    IngestOptions,
    NodeRangeError,
    ParseError,
    UNLABELED,
    edge_sizes,
    k_degrees,
    k_uniform_sub,
    parse_hypergraph,
    write_hypergraph,
    load_hypergraph,
)
from hyperhomophily import hypergraph
from hyperhomophily.homophily import _edge_labels
from hyperhomophily.hypergraph import (
    _ascii_ids,
    _edges_by_line,
    _edges_whole,
    _parse_labels,
)


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

    def test_dedupe_within_line(self):
        h = parse("1,1,2\n", "1\n2\n")
        assert h.edge_list() == [(0, 1)]
        assert h.ingest.dedup_events == 1

    def test_duplicate_without_dedupe_is_error(self):
        with pytest.raises(DuplicateNodeError, match="line 1"):
            parse("1,1,2\n", "1\n2\n", dedupe_edges=False)

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

    def test_zero_indexed_option(self):
        h = parse("0,1\n", "0\n1\n", one_indexed=False)
        assert h.edge_list() == [(0, 1)]
        assert list(h.attributes) == [0, 1]

    def test_size_filters_counted(self):
        h = parse("1\n1,2\n1,2,3\n", "1\n1\n1\n", min_size=2, max_size=2)
        assert h.edge_list() == [(0, 1)]
        assert h.ingest.excluded_by_size == 2

    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError):
            IngestOptions(min_size=3, max_size=2)

    def test_unlabeled_dropped_by_default(self):
        h = parse("1,2\n2,3\n", "1\n\n2\n")
        assert h.num_edges == 0
        assert h.ingest.excluded_unlabeled == 2
        assert h.attributes[1] == UNLABELED

    def test_unlabeled_kept_when_disabled(self):
        h = parse("1,2\n", "1\n\n", drop_unlabeled=False)
        assert h.num_edges == 1

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


class TestConstructor:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph([0, 1], [[0, 5]])

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            Hypergraph([0, 1], [[0], []])

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            Hypergraph([0, 1], [[0, 0]])

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
        sub = k_uniform_sub(h, 3)
        assert sub.edge_list() == [(0, 1, 2), (1, 2, 3)]
        assert np.array_equal(sub.attributes, h.attributes)
        assert k_uniform_sub(h, 7).num_edges == 0

    def test_k_uniform_sub_pairs(self):
        h = Hypergraph([0, 0, 1], [[0, 1], [1, 2]])
        sub = k_uniform_sub(h, 2)
        assert sub.edge_list() == h.edge_list()
        assert np.array_equal(sub.attributes, h.attributes)

    def test_edge_sizes(self):
        h = Hypergraph([0, 1, 2, 0], [[0, 1], [0, 1, 2], [1, 2, 3]])
        assert edge_sizes(h) == {2: 1, 3: 2}

    def test_edge_sizes_empty(self):
        assert edge_sizes(Hypergraph([0, 1], [])) == {}


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
        assert total == k * edge_sizes(h).get(k, 0)

    @given(small_hypergraphs(), st.integers(1, 5))
    def test_sub_then_sizes(self, h, k):
        sizes = edge_sizes(k_uniform_sub(h, k))
        count = edge_sizes(h).get(k, 0)
        assert sizes == ({k: count} if count else {})

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


class TestSizeIndex:
    """The size-grouped edge index against the per-size mask formulas."""

    @given(
        st.one_of(small_hypergraphs(), st.just(Hypergraph([0, 1, 2], []))),
        st.integers(1, 6),
    )
    def test_matches_mask_formulas(self, h, k):
        sizes = h.sizes
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

    def test_size_one_edges_and_absent_sizes(self):
        h = Hypergraph([0, 1, 0, 1], [[2], [0, 1], [3], [1, 2, 3], [0, 3]])
        indices, block = h.edges_of_size(1)
        assert indices.tolist() == [0, 2]
        assert block.tolist() == [[2], [3]]
        assert h.edges_of_size(2)[0].tolist() == [1, 4]
        assert h.edges_of_size(7)[1].shape == (0, 7)
        assert list(k_degrees(h, 7).degrees) == [0, 0, 0, 0]

    def test_cached_blocks_are_read_only(self):
        h = Hypergraph([0, 1, 0, 1], [[0, 1], [1, 2, 3], [2, 3]])
        for k in (2, 3):
            indices, block = h.edges_of_size(k)
            assert h.edges_of_size(k)[1] is block  # built once, then looked up
            for arr in (indices, block):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0
        assert list(k_degrees(h, 2).degrees) == [1, 1, 1, 1]


# -- whole-file parser against the line-by-line parser --------------------------

PADS = ["", " ", "\t", "  ", "\u00a0", "\x0b"]
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
JUNK = ["x", "", " ", "1.5", "1__2", "_1", "1_", "--1", "+-1", "0x1", "1 2", "\ud800"]
HUGE = [2**63 - 1, 2**63, 2**64 + 1, -(2**63), -(2**63) - 1, 10**30]


@st.composite
def id_token(
    draw, node_count: int, base: int, clean: bool, ascii_only: bool = False
) -> str:
    kind = draw(st.integers(0, 9)) if not clean else 0
    if kind == 7:
        return draw(st.sampled_from(["", "x"] if ascii_only else JUNK))
    if kind == 8:
        value = draw(st.sampled_from(HUGE))
    elif kind == 9:
        top = node_count + base
        value = draw(st.sampled_from([0, -1, -12, top, top + 3]))
    else:
        value = draw(st.integers(base, node_count - 1 + base))
    digits = str(abs(value))
    if ascii_only:  # plain digits, some with leading zeros (to 18 or 19 digits)
        return digits.zfill(draw(st.sampled_from([0, 0, 0, 2, 3, 18, 19])))
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    if draw(st.integers(0, 5)) == 0:
        digits = digits.translate(ARABIC_INDIC)
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    return draw(st.sampled_from(PADS)) + sign + digits + draw(st.sampled_from(PADS))


@st.composite
def ingest_inputs(draw, ascii_only: bool = False):
    """(hyperedges text, labels text, one_indexed, min_size, max_size).

    With ``ascii_only`` every id is plain ASCII digits and every line ends
    in LF, so the byte-level parser handles most texts.
    """
    one_indexed = draw(st.booleans())
    base = 1 if one_indexed else 0
    node_count = draw(st.integers(1, 6))
    # mostly labeled: an edge touching an unlabeled node is usually dropped
    label = st.sampled_from([None, 0, 1, 2, 0, 1, 2, 0])
    labels = draw(st.lists(label, min_size=node_count, max_size=node_count))
    labels_text = "".join("\n" if v is None else f"{v + base}\n" for v in labels)

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
        token = id_token(node_count, base, clean, ascii_only)
        lines.append(",".join(draw(token) for _ in range(size)))
    if ascii_only:
        endings, tails = ["\n"], ["", "\n", "\n\n"]
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
    return text, labels_text, one_indexed, min_size, max_size


def _outcome(parse):
    try:
        return parse()
    except ParseError as exc:
        return exc


FLAG_COMBINATIONS = list(itertools.product([False, True], repeat=3))


def check_against_line_parser(inputs, dedupe, drop_unlabeled, collapse, block_chars):
    text, labels_text, one_indexed, min_size, max_size = inputs
    opts = IngestOptions(
        one_indexed=one_indexed,
        dedupe_edges=dedupe,
        drop_unlabeled=drop_unlabeled,
        min_size=min_size,
        max_size=max_size,
        collapse_duplicate_edges=collapse,
    )
    attributes = _parse_labels(labels_text, one_indexed)
    expected = _outcome(lambda: _edges_by_line(text, attributes, opts))
    # small token blocks put block edges inside these short texts
    with mock.patch.object(hypergraph, "_TOKEN_BLOCK_CHARS", block_chars):
        fast = _edges_whole(text, attributes, opts)
        got = _outcome(
            lambda: parse_hypergraph(
                io.StringIO(text), io.StringIO(labels_text), None, opts
            )
        )
    if isinstance(expected, ParseError):
        assert fast is None  # malformed input goes to the line-by-line parser
        assert type(got) is type(expected)
        assert (got.line, str(got)) == (expected.line, str(expected))
        return
    assert fast is not None
    flat, offsets, stats = expected
    for nodes, offs, ingest in (fast, (got.edge_nodes, got.offsets, got.ingest)):
        assert nodes.dtype == offs.dtype == np.int64
        assert np.array_equal(nodes, flat)
        assert np.array_equal(offs, offsets)
        assert ingest == stats


def byte_route_parses(text: str) -> bool:
    raw = np.frombuffer(text.rstrip().encode(), dtype=np.uint8)
    parsed = _ascii_ids(raw, (raw == ord(",")) | (raw == ord("\n")))
    return parsed is not None and parsed[1].min() > 0


class TestWholeFileParser:
    @pytest.mark.parametrize("dedupe,drop_unlabeled,collapse", FLAG_COMBINATIONS)
    @given(inputs=ingest_inputs(), block_chars=st.sampled_from([1, 5, 1 << 16]))
    @settings(max_examples=60, deadline=None)
    def test_matches_line_by_line(
        self, inputs, block_chars, dedupe, drop_unlabeled, collapse
    ):
        check_against_line_parser(inputs, dedupe, drop_unlabeled, collapse, block_chars)

    @pytest.mark.parametrize("dedupe,drop_unlabeled,collapse", FLAG_COMBINATIONS)
    @given(inputs=ingest_inputs(ascii_only=True))
    @settings(max_examples=60, deadline=None)
    def test_ascii_ids_match_line_by_line(self, inputs, dedupe, drop_unlabeled, collapse):
        text = inputs[0]
        tokens = text.rstrip().replace("\n", ",").split(",")
        if text.strip() and all(t.isdigit() and len(t) <= 18 for t in tokens):
            assert byte_route_parses(text)
        check_against_line_parser(inputs, dedupe, drop_unlabeled, collapse, 1 << 16)


LABELS_10 = "1\n" * 10


class TestByteRoute:
    """Explicit inputs on both sides of the byte-level id parser."""

    @pytest.mark.parametrize(
        "text,edges,byte_route",
        [
            ("007,010\n", [(6, 9)], True),  # leading zeros
            ("000000000000000003,1\n", [(0, 2)], True),  # 18 digits
            ("0000000000000000003,1\n", [(0, 2)], False),  # 19 digits: int()
            ("1,2\r\n2,3\r\n", [(0, 1), (1, 2)], False),  # CRLF: int() strips CR
            ("1, 2\n", [(0, 1)], False),
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
        ],
    )
    def test_malformed_ids(self, text, line, error):
        with pytest.raises(error) as info:
            parse(text, LABELS_10)
        assert info.value.line == line

    @pytest.mark.parametrize(
        "text,labels",
        [
            ("", []),
            ("\n", [UNLABELED]),
            ("1\n\n2\n", [0, UNLABELED, 1]),
            ("1\n\n2", [0, UNLABELED, 1]),
            ("1\n \n\t\n2\n", [0, UNLABELED, UNLABELED, 1]),
            ("01\r\n\r\n2\r\n", [0, UNLABELED, 1]),
            ("000000000000000001\n0000000000000000002\n", [0, 1]),
        ],
    )
    def test_labels(self, text, labels):
        assert _parse_labels(text, one_indexed=True).tolist() == labels
        zero_based = [UNLABELED if v == UNLABELED else v + 1 for v in labels]
        assert _parse_labels(text, one_indexed=False).tolist() == zero_based

    @pytest.mark.parametrize("text,line", [("1\n0\n", 2), ("1\n\nx\n", 3)])
    def test_bad_label_reports_line(self, text, line):
        with pytest.raises(ParseError) as info:
            _parse_labels(text, one_indexed=True)
        assert info.value.line == line


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
        with pytest.raises(ParseError, match="line 3: hyperedges file") as info:
            load_hypergraph(edges, labels)
        assert info.value.line == 3
