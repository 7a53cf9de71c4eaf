"""Attributed hypergraph container, benchmark text-format ingestion, and
structural queries (size filters, per-size degrees).

The on-disk format is the common benchmark layout: a hyperedges file with one
comma-separated list of node ids per line, a labels file with one label id per
line (line i labels node i), and an optional label-names file with one name
per line. Ids are 1-based by default.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import DuplicateNodeError, NodeRangeError, ParseError

log = logging.getLogger(__name__)

UNLABELED = -1
_TOKEN_BLOCK_CHARS = 1 << 16  # characters of hyperedges text tokenized at once
_MAX_DIGITS = 18  # every id of up to 18 digits fits in int64


@dataclass(frozen=True)
class IngestStats:
    """Counters recorded while parsing; attached to the resulting hypergraph."""

    dedup_events: int = 0
    excluded_by_size: int = 0
    excluded_unlabeled: int = 0
    duplicate_edges_collapsed: int = 0
    size_one_edges: int = 0

    def to_dict(self) -> dict:
        return {
            "dedup_events": self.dedup_events,
            "excluded_by_size": self.excluded_by_size,
            "excluded_unlabeled": self.excluded_unlabeled,
            "duplicate_edges_collapsed": self.duplicate_edges_collapsed,
            "size_one_edges": self.size_one_edges,
        }


@dataclass(frozen=True)
class IngestOptions:
    """Knobs for :func:`parse_hypergraph`.

    one_indexed: node and label ids in the files start at 1.
    dedupe_edges: drop repeated node ids within a line (counted); when False a
        repeated id is an error.
    drop_unlabeled: exclude hyperedges touching nodes without a label.
    min_size / max_size: keep only hyperedges whose size (after dedup) is in
        the closed interval.
    collapse_duplicate_edges: keep only the first occurrence of an identical
        hyperedge (the default keeps repeats, treating the edge list as a
        multiset).
    """

    one_indexed: bool = True
    dedupe_edges: bool = True
    drop_unlabeled: bool = True
    min_size: int | None = None
    max_size: int | None = None
    collapse_duplicate_edges: bool = False

    def __post_init__(self):
        if (
            self.min_size is not None
            and self.max_size is not None
            and self.min_size > self.max_size
        ):
            raise ValueError(
                f"min_size ({self.min_size}) must not exceed max_size ({self.max_size})"
            )


class Hypergraph:
    """Immutable node-attributed hypergraph.

    Nodes are integers 0..node_count-1, each carrying an attribute id
    (``UNLABELED`` for nodes without one). Hyperedges are stored in CSR-like
    form (a flat index array plus offsets); each edge is a sorted set of
    distinct node indices. The edge list is a multiset: identical edges may
    repeat.
    """

    __slots__ = ("_attributes", "_edge_nodes", "_offsets", "_names", "_ingest", "_by_size")

    def __init__(
        self,
        attributes: Sequence[int] | np.ndarray,
        edges: Iterable[Iterable[int]],
        attribute_names: Sequence[str] | None = None,
        ingest: IngestStats | None = None,
    ):
        attrs = np.array(attributes, dtype=np.int64)  # copy: caller keeps theirs
        if attrs.ndim != 1:
            raise ValueError("attributes must be one id per node")
        edge_arrays = []
        for pos, edge in enumerate(edges):
            arr = np.asarray(sorted(edge), dtype=np.int64)
            if arr.size == 0:
                raise ValueError(f"hyperedge {pos} is empty")
            if np.any(arr[1:] == arr[:-1]):
                raise ValueError(f"hyperedge {pos} contains duplicate node ids")
            edge_arrays.append(arr)
        flat = (
            np.concatenate(edge_arrays) if edge_arrays else np.empty(0, dtype=np.int64)
        )
        offsets = np.zeros(len(edge_arrays) + 1, dtype=np.int64)
        np.cumsum([a.size for a in edge_arrays], out=offsets[1:])
        self._init_arrays(attrs, flat, offsets, attribute_names, ingest)

    @classmethod
    def _from_csr(
        cls,
        attributes: np.ndarray,
        edge_nodes: np.ndarray,
        offsets: np.ndarray,
        attribute_names: tuple[str, ...] | None,
        ingest: IngestStats | None = None,
    ) -> "Hypergraph":
        # Fast path for internal callers that guarantee sortedness/validity.
        h = cls.__new__(cls)
        h._init_arrays(attributes, edge_nodes, offsets, attribute_names, ingest)
        return h

    def _init_arrays(self, attrs, flat, offsets, names, ingest):
        if flat.size and (flat.min() < 0 or flat.max() >= attrs.size):
            raise ValueError("hyperedge node index out of range")
        if names is not None:
            names = tuple(str(n) for n in names)
            labeled = attrs[attrs != UNLABELED]
            if labeled.size and labeled.max() >= len(names):
                raise ValueError("attribute id exceeds the number of attribute names")
        if attrs.size and attrs.min() < UNLABELED:
            raise ValueError("attribute ids must be >= 0 (or UNLABELED)")
        for a in (attrs, flat, offsets):
            a.setflags(write=False)
        self._attributes = attrs
        self._edge_nodes = flat
        self._offsets = offsets
        self._names = names
        self._ingest = ingest
        self._by_size = None  # built on first use by _size_groups

    # -- basic accessors -----------------------------------------------------

    @property
    def node_count(self) -> int:
        return int(self._attributes.size)

    @property
    def num_edges(self) -> int:
        return int(self._offsets.size - 1)

    @property
    def attributes(self) -> np.ndarray:
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...] | None:
        return self._names

    @property
    def ingest(self) -> IngestStats | None:
        return self._ingest

    @property
    def sizes(self) -> np.ndarray:
        """Array of hyperedge sizes, aligned with edge indices."""
        return np.diff(self._offsets)

    @property
    def edge_nodes(self) -> np.ndarray:
        """Concatenated node indices of all edges (offsets delimit edges)."""
        return self._edge_nodes

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def num_attributes(self) -> int:
        """|M|: number of attribute classes."""
        if self._names is not None:
            return len(self._names)
        labeled = self._attributes[self._attributes != UNLABELED]
        return int(labeled.max()) + 1 if labeled.size else 0

    def edges_of_size(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The size-``k`` edges: their indices in ascending order, and their
        nodes as a read-only (count, k) block whose row i is edge indices[i].
        """
        groups = self._size_groups()
        if k in groups:
            return groups[k]
        return np.empty(0, dtype=np.int64), np.empty((0, k), dtype=np.int64)

    def _size_groups(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """{k: edges_of_size(k)} for every size present, in ascending order.
        The first call groups every edge by size at once (one stable sort of
        the sizes and one gather of the nodes); later calls return the same.
        """
        if self._by_size is not None:
            return self._by_size
        sizes = self.sizes
        order = np.argsort(sizes, kind="stable")
        grouped_sizes = sizes[order]
        grouped = _offsets(grouped_sizes)
        # token t of the grouped layout is token t + shift of the CSR layout
        shift = np.repeat(self._offsets[:-1][order] - grouped[:-1], grouped_sizes)
        nodes = self._edge_nodes[np.arange(shift.size) + shift]
        order.setflags(write=False)
        nodes.setflags(write=False)  # the slices below are read-only views
        ks, first, counts = np.unique(grouped_sizes, return_index=True, return_counts=True)
        groups = {}
        for k, i, count in zip(ks.tolist(), first.tolist(), counts.tolist()):
            start = int(grouped[i])
            block = nodes[start : start + count * k].reshape(count, k)
            groups[k] = (order[i : i + count], block)
        self._by_size = groups
        return groups

    def edge(self, index: int) -> np.ndarray:
        if not 0 <= index < self.num_edges:
            raise IndexError(f"edge index {index} out of range (0..{self.num_edges - 1})")
        return self._edge_nodes[self._offsets[index] : self._offsets[index + 1]]

    def edges(self) -> Iterator[np.ndarray]:
        for i in range(self.num_edges):
            yield self._edge_nodes[self._offsets[i] : self._offsets[i + 1]]

    def edge_list(self) -> list[tuple[int, ...]]:
        return [tuple(int(v) for v in e) for e in self.edges()]

    def __repr__(self) -> str:
        return (
            f"Hypergraph(nodes={self.node_count}, edges={self.num_edges}, "
            f"attributes={self.num_attributes})"
        )


@dataclass(frozen=True)
class KDegreeIndex:
    """Per-node count of size-k hyperedges containing the node."""

    k: int
    degrees: np.ndarray

    def __post_init__(self):
        self.degrees.setflags(write=False)


def k_degrees(h: Hypergraph, k: int) -> KDegreeIndex:
    """Count, for each node, the hyperedges of size exactly ``k`` it belongs to."""
    if k < 1:
        raise ValueError("k must be >= 1")
    degrees = np.bincount(h.edges_of_size(k)[1].ravel(), minlength=h.node_count)
    return KDegreeIndex(k=k, degrees=degrees.astype(np.int64, copy=False))


def total_degrees(h: Hypergraph) -> np.ndarray:
    """Per-node count of hyperedges of any size containing the node."""
    return np.bincount(h.edge_nodes, minlength=h.node_count).astype(np.int64)


def k_uniform_sub(h: Hypergraph, k: int) -> Hypergraph:
    """Sub-hypergraph over the same node set keeping only size-k edges."""
    if k < 1:
        raise ValueError("k must be >= 1")
    block = h.edges_of_size(k)[1]
    offsets = np.arange(block.shape[0] + 1, dtype=np.int64) * k
    return Hypergraph._from_csr(h.attributes, block.ravel(), offsets, h.attribute_names)


def edge_sizes(h: Hypergraph) -> dict[int, int]:
    """Histogram of hyperedge sizes: {size: count}, in ascending size."""
    return {k: indices.size for k, (indices, _) in h._size_groups().items()}


# -- ingestion ----------------------------------------------------------------


def _content_lines(text: str) -> list[str]:
    """All lines with CR stripped, trailing blank lines removed."""
    lines = [line.rstrip("\r") for line in text.split("\n")]
    while lines and lines[-1].strip() == "":
        lines.pop()
    return lines


def _ascii_ids(raw: np.ndarray, is_sep: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Values and lengths of the tokens of the bytes ``raw`` between the
    separators ``is_sep`` marks, computed by place value; an empty token has
    value 0. None unless every other byte is an ASCII digit and no token has
    more than 18 digits, so that each value fits in int64.
    """
    ends = np.flatnonzero(np.append(is_sep, True))  # the last token ends at raw.size
    lengths = np.diff(ends, prepend=-1) - 1
    width = int(lengths.max())
    if width > _MAX_DIGITS:
        return None
    lengths = lengths.astype(np.uint8)
    values = np.zeros(ends.size, dtype=np.int64)
    # Horner's rule over right-aligned columns, most significant first; a
    # column left of a token's start (an index that may wrap to the end of
    # raw) counts as a leading zero, and every byte of a token is read once
    at = ends - width  # each token's byte in the current column
    for place in range(width - 1, -1, -1):
        digit = raw[at] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
        digit[lengths <= place] = 0
        if digit.max() > 9:
            return None
        values *= 10
        values += digit
        at += 1
    return values, lengths


def _parse_labels(text: str, one_indexed: bool) -> np.ndarray:
    # blank lines are unlabeled nodes, so every line counts (no trailing strip)
    base = 1 if one_indexed else 0
    if not text:
        return np.empty(0, dtype=np.int64)
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    if raw[-1] == ord("\n"):
        raw = raw[:-1]  # the newline ending the last line starts no new one
    parsed = _ascii_ids(raw, raw == ord("\n"))
    if parsed is not None:
        values, lengths = parsed
        labeled = lengths > 0
        if np.all(values[labeled] >= base):
            return np.where(labeled, values - base, UNLABELED)
    # padded or signed ids, or an error to report with its line number
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # as above
    out = []
    for lineno, raw_line in enumerate(lines, start=1):
        token = raw_line.strip()
        if token == "":
            out.append(UNLABELED)  # node exists but carries no label
            continue
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"labels file: invalid label {token!r}", lineno) from None
        value -= base
        if value < 0:
            raise NodeRangeError(f"labels file: label id {token} out of range", lineno)
        out.append(value)
    return np.asarray(out, dtype=np.int64)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _edges_by_line(
    text: str, attributes: np.ndarray, opts: IngestOptions
) -> tuple[np.ndarray, np.ndarray, IngestStats]:
    """Line-by-line parse of the hyperedges text into CSR arrays and counters.

    Raises the line-numbered input errors. :func:`_edges_whole` gives the
    same result faster and hands malformed input to this parser.
    """
    node_count = attributes.size
    base = 1 if opts.one_indexed else 0

    dedup_events = 0
    excluded_by_size = 0
    excluded_unlabeled = 0
    collapsed = 0
    size_one = 0
    seen: set[tuple[int, ...]] = set()
    edge_nodes: list[int] = []
    lengths: list[int] = []

    for lineno, raw in enumerate(_content_lines(text), start=1):
        line = raw.strip()
        if line == "":
            raise ParseError("empty hyperedge line", lineno)
        nodes = []
        for token in line.split(","):
            token = token.strip()
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"invalid node id {token!r}", lineno) from None
            value -= base
            if not 0 <= value < node_count:
                raise NodeRangeError(
                    f"node id {token} out of range of labels file ({node_count} nodes)",
                    lineno,
                )
            nodes.append(value)
        unique = sorted(set(nodes))
        if len(unique) != len(nodes):
            if not opts.dedupe_edges:
                raise DuplicateNodeError("duplicate node id in hyperedge", lineno)
            dedup_events += 1
        size = len(unique)
        if (opts.min_size is not None and size < opts.min_size) or (
            opts.max_size is not None and size > opts.max_size
        ):
            excluded_by_size += 1
            continue
        if opts.drop_unlabeled and np.any(attributes[unique] == UNLABELED):
            excluded_unlabeled += 1
            continue
        if opts.collapse_duplicate_edges:
            key = tuple(unique)
            if key in seen:
                collapsed += 1
                continue
            seen.add(key)
        if size == 1:
            size_one += 1
        edge_nodes.extend(unique)
        lengths.append(size)

    stats = IngestStats(
        dedup_events=dedup_events,
        excluded_by_size=excluded_by_size,
        excluded_unlabeled=excluded_unlabeled,
        duplicate_edges_collapsed=collapsed,
        size_one_edges=size_one,
    )
    offsets = _offsets(np.asarray(lengths, dtype=np.int64))
    return np.asarray(edge_nodes, dtype=np.int64), offsets, stats


def _repeated_edges(
    nodes: np.ndarray, line: np.ndarray, sizes: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """Mask of the kept lines whose node set equals that of an earlier kept line."""
    repeated = np.zeros(sizes.size, dtype=bool)
    token_size = np.where(keep, sizes, 0)[line]
    for k in np.unique(token_size[token_size > 0]):
        rows = nodes[token_size == k].reshape(-1, k)
        lines = np.flatnonzero(keep & (sizes == k))
        order = np.lexsort(rows.T[::-1])  # stable: the first occurrence leads its run
        same = np.all(rows[order[1:]] == rows[order[:-1]], axis=1)
        repeated[lines[order[1:][same]]] = True
    return repeated


def _token_blocks(body: str) -> Iterator[list[str]]:
    """The comma- and newline-separated tokens of ``body``, split a block of
    whole lines at a time, so only one block's strings are alive at once."""
    start = 0
    while start <= len(body):
        end = body.find("\n", start + _TOKEN_BLOCK_CHARS)
        end = len(body) if end < 0 else end
        yield body[start:end].replace("\n", ",").split(",")
        start = end + 1


def _edge_tokens(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The ids of the hyperedges text in order, and for each whether it ends
    its line; None when ``int()`` rejects a token."""
    # without trailing blank lines, as _content_lines drops them
    raw = np.frombuffer(text.rstrip().encode("utf-8", "surrogatepass"), dtype=np.uint8)
    is_sep = (raw == ord(",")) | (raw == ord("\n"))
    ends_line = raw[is_sep] == ord("\n")  # token i ends its line iff separator i does
    parsed = _ascii_ids(raw, is_sep)
    if parsed is not None and parsed[1].min() > 0:
        return parsed[0], ends_line
    # padded, signed or non-ASCII ids: what int() accepts
    tokens = chain.from_iterable(_token_blocks(text.rstrip()))
    try:
        nodes = np.fromiter(map(int, tokens), dtype=np.int64, count=ends_line.size + 1)
    except (ValueError, OverflowError):
        return None
    return nodes, ends_line


def _edges_whole(
    text: str, attributes: np.ndarray, opts: IngestOptions
) -> tuple[np.ndarray, np.ndarray, IngestStats] | None:
    """Parse the hyperedges text as one array: the result of
    :func:`_edges_by_line`, or None when a line is malformed (a token
    ``int()`` rejects, an id out of range, a blank interior line, or a
    repeated id without dedup), which that parser then reports. Ids that are
    ASCII digits only are read from the bytes by place value.
    """
    if not text or text.isspace():
        empty = np.empty(0, dtype=np.int64)
        return empty, _offsets(empty), IngestStats()
    parsed = _edge_tokens(text)
    if parsed is None:
        return None
    nodes, ends_line = parsed
    node_count = attributes.size
    nodes -= 1 if opts.one_indexed else 0
    if nodes.min() < 0 or nodes.max() >= node_count:
        return None
    line = np.zeros(nodes.size, dtype=np.int64)
    np.cumsum(ends_line, out=line[1:])
    line_count = int(line[-1]) + 1
    if line_count * node_count > np.iinfo(np.int64).max:
        return None  # the sort key below would overflow

    # sort each line; lines stay in order, and a repeated id repeats its key
    key = line * node_count
    key += nodes
    key.sort()
    repeat = np.zeros(key.size, dtype=bool)
    repeat[1:] = key[1:] == key[:-1]
    nodes = np.remainder(key, node_count, out=key)  # in place: the keys are done
    dedup_events = 0
    if repeat.any():
        if not opts.dedupe_edges:
            return None
        dedup_events = int(np.unique(line[repeat]).size)
        nodes, line = nodes[~repeat], line[~repeat]
    sizes = np.bincount(line, minlength=line_count)

    # the line-by-line order of precedence: size, then unlabeled, then repeats
    keep = np.ones(line_count, dtype=bool)
    if opts.min_size is not None:
        keep &= sizes >= opts.min_size
    if opts.max_size is not None:
        keep &= sizes <= opts.max_size
    excluded_by_size = line_count - int(keep.sum())
    excluded_unlabeled = 0
    if opts.drop_unlabeled:
        unlabeled = np.zeros(line_count, dtype=bool)
        unlabeled[line[attributes[nodes] == UNLABELED]] = True
        excluded_unlabeled = int(np.count_nonzero(keep & unlabeled))
        keep &= ~unlabeled
    collapsed = 0
    if opts.collapse_duplicate_edges:
        repeated = _repeated_edges(nodes, line, sizes, keep)
        collapsed = int(repeated.sum())
        keep &= ~repeated

    stats = IngestStats(
        dedup_events=dedup_events,
        excluded_by_size=excluded_by_size,
        excluded_unlabeled=excluded_unlabeled,
        duplicate_edges_collapsed=collapsed,
        size_one_edges=int(np.count_nonzero(keep & (sizes == 1))),
    )
    return nodes[keep[line]], _offsets(sizes[keep]), stats


def _parse_texts(
    edges_text: str, labels_text: str, names_text: str | None, opts: IngestOptions
) -> Hypergraph:
    attributes = _parse_labels(labels_text, opts.one_indexed)
    parsed = _edges_whole(edges_text, attributes, opts)
    if parsed is None:  # malformed: the line-by-line parser raises the error
        parsed = _edges_by_line(edges_text, attributes, opts)
    flat, offsets, stats = parsed

    names = None if names_text is None else tuple(_content_lines(names_text))
    if (
        stats.excluded_by_size
        or stats.excluded_unlabeled
        or stats.duplicate_edges_collapsed
        or stats.dedup_events
    ):
        log.info(
            "ingest: %d deduped lines, %d size-filtered, %d unlabeled-dropped, "
            "%d duplicate edges collapsed",
            stats.dedup_events,
            stats.excluded_by_size,
            stats.excluded_unlabeled,
            stats.duplicate_edges_collapsed,
        )
    return Hypergraph._from_csr(attributes, flat, offsets, names, ingest=stats)


def parse_hypergraph(
    hyperedges_text: IO[str],
    labels_text: IO[str],
    label_names_text: IO[str] | None = None,
    opts: IngestOptions = IngestOptions(),
) -> Hypergraph:
    """Parse the benchmark text format into a :class:`Hypergraph`.

    ``hyperedges_text`` holds one hyperedge per line as comma-separated node
    ids; ``labels_text`` holds one label id per line, line i labeling node i.
    Trailing blank lines are ignored; a blank line elsewhere in the hyperedges
    file is an error, and in the labels file denotes an unlabeled node.
    Exclusion and dedup counts are retrievable via ``Hypergraph.ingest``.
    Each stream is read whole; its lines end at ``\n`` after the stream's own
    newline translation.
    """
    names = None if label_names_text is None else label_names_text.read()
    return _parse_texts(hyperedges_text.read(), labels_text.read(), names, opts)


def _read_text(path: str | Path, what: str) -> str:
    """The file as ``open(path, encoding="utf-8")`` reads it (universal
    newlines); a byte that is not UTF-8 is a ParseError naming its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(
            f"{what} file: byte 0x{data[exc.start]:02x} is not valid UTF-8", line
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_hypergraph(
    hyperedges_path: str | Path,
    labels_path: str | Path,
    label_names_path: str | Path | None = None,
    opts: IngestOptions = IngestOptions(),
) -> Hypergraph:
    """File-path convenience wrapper around :func:`parse_hypergraph`."""
    edges_text = _read_text(hyperedges_path, "hyperedges")
    labels_text = _read_text(labels_path, "labels")
    names_text = (
        None if label_names_path is None else _read_text(label_names_path, "label names")
    )
    return _parse_texts(edges_text, labels_text, names_text, opts)


def write_hypergraph(
    h: Hypergraph,
    hyperedges_out: IO[str],
    labels_out: IO[str],
    label_names_out: IO[str] | None = None,
    one_indexed: bool = True,
) -> None:
    """Serialize back to the ingestion text format (LF line endings).

    Round-trips: parsing the written files with matching options reproduces
    the node count, attributes, and edge multiset.
    """
    base = 1 if one_indexed else 0
    for e in h.edges():
        hyperedges_out.write(",".join(str(int(v) + base) for v in e))
        hyperedges_out.write("\n")
    for a in h.attributes:
        labels_out.write("" if a == UNLABELED else str(int(a) + base))
        labels_out.write("\n")
    if label_names_out is not None and h.attribute_names is not None:
        for name in h.attribute_names:
            label_names_out.write(name)
            label_names_out.write("\n")
