"""Attributed hypergraph container, benchmark text-format ingestion, and
structural queries (size filters, per-size degrees).

The on-disk format is the common benchmark layout: a hyperedges file with one
comma-separated list of node ids per line, a labels file with one label id per
line (line i labels node i), and an optional label-names file with one name
per line. Ids are 1-based and made of ASCII digits only.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .exceptions import NodeRangeError, ParseError

log = logging.getLogger(__name__)

UNLABELED = -1
_MAX_DIGITS = 18  # every id of up to 18 digits fits in int64
_TOO_LONG = f"out of range: more than {_MAX_DIGITS} digits"
_INT64_MAX = (1 << 63) - 1
_NOT_ID, _LONG = 1, 2  # the fault codes of _ascii_ids; 0 is an id
_OUT_OF_RANGE, _UNNAMED = 3, 4  # the faults its callers add


@dataclass(frozen=True)
class IngestStats:
    """Counters recorded while parsing; attached to the resulting hypergraph."""

    dedup_events: int = 0
    excluded_by_size: int = 0
    excluded_unlabeled: int = 0
    duplicate_edges_collapsed: int = 0
    size_one_edges: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IngestOptions:
    """Knobs for :func:`parse_hypergraph`.

    Ingest always reads 1-based ids of ASCII digits, drops repeated node ids
    within a line (counted), and drops hyperedges touching a node without a
    label (counted).

    min_size / max_size: keep only hyperedges whose size (after dedup) is in
        the closed interval.
    collapse_duplicate_edges: keep only the first occurrence of an identical
        hyperedge (the default keeps repeats, treating the edge list as a
        multiset).
    """

    min_size: int | None = None
    max_size: int | None = None
    collapse_duplicate_edges: bool = False

    def __post_init__(self):
        for name in ("min_size", "max_size"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _check_int(getattr(self, name), name))
        if None not in (self.min_size, self.max_size) and self.min_size > self.max_size:
            raise ValueError(
                f"min_size ({self.min_size}) must not exceed max_size ({self.max_size})"
            )


def _int_ids(values, what: str) -> np.ndarray:
    """A copy of the flat sequence ``values`` as int64; float, str and bool
    values are rejected, not truncated or cast, a bool among ints too, and
    so are integers outside int64, not wrapped."""
    arr = np.array(values)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a flat sequence of integers")
    listed = not isinstance(values, np.ndarray)
    if listed and any(isinstance(v, (bool, np.bool_)) for v in values):
        arr = arr.astype(bool)  # np.array reads a bool among ints as an int
    out_of_range = f"{what} must lie in the int64 range [-2**63, 2**63)"
    if arr.size and arr.dtype.kind not in "iu":
        # np.array reads ints past int64 as float64 or object values
        if arr.dtype.kind in "fO" and listed and all(isinstance(v, numbers.Integral) for v in values):
            raise ValueError(out_of_range)
        raise ValueError(f"{what} must be integers, got {arr.dtype} values")
    if arr.dtype == np.uint64 and arr.size and arr.max() > _INT64_MAX:
        raise ValueError(out_of_range)  # the int64 cast would wrap it negative
    return arr.astype(np.int64, copy=False)


def _check_int(value, what: str) -> int:
    """``value``, a Python or NumPy integer but not a bool, as an int."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_real(value, what: str) -> float:
    """``value``, a Python or NumPy real number but not a bool, as a float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


class Hypergraph:
    """Immutable node-attributed hypergraph.

    Nodes are integers 0..node_count-1, each carrying an integer attribute
    id (``UNLABELED`` for nodes without one, which no hyperedge may touch).
    Hyperedges are stored in CSR-like form (a flat index array plus offsets);
    each edge is a sorted set of distinct node indices. The edge list is a
    multiset: identical edges may repeat.
    """

    __slots__ = ("_attributes", "_edge_nodes", "_offsets", "_names", "_ingest", "_by_size")

    def __init__(
        self,
        attributes: Sequence[int] | np.ndarray,
        edges: Iterable[Iterable[int]],
        attribute_names: Sequence[str] | None = None,
    ):
        attrs = _int_ids(attributes, "attribute ids")
        edges = [list(edge) for edge in edges]
        sizes = np.array([len(edge) for edge in edges], dtype=np.int64)
        flat = _int_ids([v for edge in edges for v in edge], "hyperedge node ids")
        if flat.size and (flat.min() < 0 or flat.max() >= attrs.size):  # before the sort keys
            raise ValueError("hyperedge node index out of range")
        line = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        flat, repeat = _sorted_lines(line, flat, attrs.size)
        bad = sizes == 0
        bad[line[repeat]] = True  # the first bad edge in list order is reported
        if bad.any():
            pos = int(np.argmax(bad))
            fault = "is empty" if sizes[pos] == 0 else "contains duplicate node ids"
            raise ValueError(f"hyperedge {pos} {fault}")
        self._init_arrays(attrs, flat, _offsets(sizes), attribute_names, None)

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
        if attrs.size and attrs.min() < UNLABELED:
            raise ValueError("attribute ids must be >= 0 (or UNLABELED)")
        if flat.size and attrs[flat].min() == UNLABELED:
            raise ValueError(
                "hyperedges touch unlabeled nodes; label every node or drop "
                "those edges (file ingest drops them)"
            )
        if names is not None:
            names = tuple(str(n) for n in names)
            labeled = attrs[attrs != UNLABELED]
            if labeled.size and labeled.max() >= len(names):
                raise ValueError("attribute id exceeds the number of attribute names")
        for a in (attrs, flat, offsets):
            a.setflags(write=False)
        self._attributes = attrs
        self._edge_nodes = flat
        self._offsets = offsets
        self._names = names
        self._ingest = ingest
        self._by_size = None  # built on first use by edges_of_size

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
        nodes as a (count, k) block whose row i is edge indices[i]; both are
        read-only, empty for a size the graph lacks. The first call groups
        every edge by size (:func:`_size_blocks`); later calls look up.
        """
        k = _check_int(k, "k")
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._by_size is None:
            self._by_size = _size_blocks(self._edge_nodes, self._offsets)
        arrays = self._by_size.get(k) or (np.empty(0, np.int64), np.empty((0, k), np.int64))
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def edge(self, index: int) -> np.ndarray:
        index = _check_int(index, "edge index")
        if not 0 <= index < self.num_edges:
            raise IndexError(f"edge index {index} out of range (0..{self.num_edges - 1})")
        return self._edge_nodes[self._offsets[index] : self._offsets[index + 1]]

    def edge_list(self) -> list[tuple[int, ...]]:
        ids, bounds = self._edge_nodes.tolist(), self._offsets.tolist()
        return [tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:])]

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
    block = h.edges_of_size(k)[1]  # checks k; its width is k as an int
    degrees = np.bincount(block.ravel(), minlength=h.node_count)
    return KDegreeIndex(k=block.shape[1], degrees=degrees.astype(np.int64, copy=False))


# -- ingestion ----------------------------------------------------------------


def _ascii_ids(raw: np.ndarray, is_sep: np.ndarray) -> tuple[np.ndarray, ...]:
    """Values, lengths (19 for any longer) and fault codes of the tokens of
    the bytes ``raw`` between the separators ``is_sep`` marks. Fault 0 is an
    id: 18 ASCII digits at most, so its place value fits in int64. _NOT_ID is
    an empty token or one with any other byte, _LONG an id of more than 18
    digits; a faulty token's value means nothing. Every byte is checked only
    when a column or a length shows a fault."""
    ends = np.flatnonzero(np.append(is_sep, True))  # the last token ends at raw.size
    lengths = np.diff(ends, prepend=-1) - 1
    lengths = np.minimum(lengths, _MAX_DIGITS + 1, out=lengths).astype(np.uint8)
    faults = np.zeros(ends.size, dtype=np.uint8)
    faults[lengths == 0] = _NOT_ID
    width = int(lengths.max())
    scan = width > _MAX_DIGITS
    width = min(width, _MAX_DIGITS)
    values = np.zeros(ends.size, dtype=np.int64)
    # Horner's rule over right-aligned columns, most significant first; a
    # column left of a token's start (an index that may wrap to the end of
    # raw) counts as a leading zero, and a token's last 18 bytes are read once
    at = ends - width  # each token's byte in the current column
    for place in range(width - 1, -1, -1):
        digit = raw[at] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
        digit[lengths <= place] = 0
        scan = scan or digit.max() > 9
        values *= 10
        values += digit
        at += 1
    if scan:
        faults[lengths > _MAX_DIGITS] = _LONG
        other = np.flatnonzero(~is_sep & ((raw < ord("0")) | (raw > ord("9"))))
        faults[np.searchsorted(ends, other)] = _NOT_ID  # the token holding each byte
    return values, lengths, faults


def _raise_first_fault(data: bytes, is_sep, faults, values, errors: dict, count: int):
    """Raise the error of the first faulty token of ``data``, if any, at its
    line: ``errors[fault]`` with the token (its bytes that are not UTF-8
    escaped), its value and ``count`` filled in, or ``errors["blank"]``,
    where there is one, for a token alone on a blank line."""
    if not faults.any():
        return
    first = int(np.argmax(faults > 0))
    bounds = np.concatenate(([-1], np.flatnonzero(is_sep), [len(data)]))
    start, end = int(bounds[first]) + 1, int(bounds[first + 1])
    token = data[start:end].decode("utf-8", "backslashreplace")
    alone = b"," not in (data[start - 1 : start], data[end : end + 1])
    blank = "blank" in errors and alone and not token.strip()
    key = "blank" if blank else int(faults[first])
    message = errors[key].format(token=token, value=values[first], count=count)
    error = ParseError if key in ("blank", _NOT_ID) else NodeRangeError
    raise error(message, data.count(b"\n", 0, start) + 1)


_EDGE_ERRORS = {
    "blank": "empty hyperedge line",
    _NOT_ID: "invalid node id {token!r}",
    _LONG: "node id {token} " + _TOO_LONG,
    _OUT_OF_RANGE: "node id {token} out of range of labels file ({count} nodes)",
}
_LABEL_ERRORS = {
    _NOT_ID: "labels file: invalid label {token!r}",
    _LONG: "labels file: label id {token} " + _TOO_LONG,
    _OUT_OF_RANGE: "labels file: label id {token} out of range",
    _UNNAMED: "labels file: label id {value} has no entry in the label names file "
    "({count} names)",
}


def _parse_labels(data: bytes, names: tuple[str, ...] | None = None) -> np.ndarray:
    # an empty line is an unlabeled node, so every line counts (no trailing strip)
    if not data:
        return np.empty(0, dtype=np.int64)
    data = data[:-1] if data[-1] == ord("\n") else data  # it starts no new line
    raw = np.frombuffer(data, dtype=np.uint8)
    is_sep = raw == ord("\n")
    values, lengths, faults = _ascii_ids(raw, is_sep)
    labeled = lengths > 0
    faults[~labeled] = 0  # an empty line is an unlabeled node, not a fault
    named = _INT64_MAX if names is None else len(names)
    faults[(faults == 0) & labeled & (values == 0)] = _OUT_OF_RANGE
    faults[(faults == 0) & (values > named)] = _UNNAMED
    _raise_first_fault(data, is_sep, faults, values, _LABEL_ERRORS, named)
    return np.where(labeled, values - 1, UNLABELED)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _sorted_lines(line: np.ndarray, nodes: np.ndarray, node_count: int):
    """Each line's ids sorted (the lines in order) and the mask of the ids equal to the
    one before: one stable sort of the keys line * node_count + id, linear when sorted."""
    key = line * node_count
    key += nodes
    key.sort(kind="stable")
    repeat = np.zeros(key.size, dtype=bool)
    repeat[1:] = key[1:] == key[:-1]  # a repeated id repeats its key
    return np.remainder(key, node_count, out=key), repeat  # in place: the keys are done


def _size_blocks(nodes: np.ndarray, offsets: np.ndarray) -> dict:
    """For each size k of the CSR edges ``nodes``, ``offsets``: the ascending
    indices of the size-k edges and their nodes as a (count, k) block whose
    row i is edge indices[i]; one stable sort of the sizes (as the narrowest unsigned
    type that holds them, which NumPy radix-sorts up to 16 bits), one gather per size."""
    sizes = np.diff(offsets)
    order = np.argsort(sizes.astype(np.min_scalar_type(sizes.max(initial=0))), kind="stable")
    cuts = np.flatnonzero(np.diff(sizes[order])) + 1  # where the size changes
    blocks = {}
    for indices in np.split(order, cuts) if order.size else ():
        k = int(sizes[indices[0]])
        blocks[k] = indices, nodes[offsets[indices][:, None] + np.arange(k)]
    return blocks


def _edges_whole(
    data: bytes, attributes: np.ndarray, opts: IngestOptions
) -> tuple[np.ndarray, np.ndarray, IngestStats]:
    """Parse the whole LF-ended hyperedges bytes at once into CSR arrays and
    counters.

    The body, the bytes without their trailing ASCII whitespace, is read by
    place value: each line is ``id(,id)*``, an id being ASCII digits; the
    first token that is not an id in range (a byte that is not UTF-8 is one
    more such token) raises its line's error. Each line's ids are sorted and
    made distinct (one dedup event per line that repeats an id). Lines are
    then dropped by size, by an unlabeled node, and as a repeat of an earlier
    kept line, in that order, each counted where it is dropped.
    """
    data = data.rstrip()
    if not data:
        empty = np.empty(0, dtype=np.int64)
        return empty, _offsets(empty), IngestStats()
    raw = np.frombuffer(data, dtype=np.uint8)
    is_sep = (raw == ord(",")) | (raw == ord("\n"))
    nodes, _, faults = _ascii_ids(raw, is_sep)
    node_count = attributes.size
    if nodes.min() < 1 or nodes.max() > node_count:
        faults[(faults == 0) & ((nodes < 1) | (nodes > node_count))] = _OUT_OF_RANGE
    _raise_first_fault(data, is_sep, faults, nodes, _EDGE_ERRORS, node_count)
    nodes -= 1
    ends_line = raw[is_sep] == ord("\n")  # token i ends its line iff separator i does
    line = np.zeros(nodes.size, dtype=np.int64)
    np.cumsum(ends_line, out=line[1:])
    line_count = int(line[-1]) + 1
    if line_count * node_count > _INT64_MAX:  # the sort key below would overflow
        raise ParseError(
            f"hyperedges file too large: {line_count} lines on {node_count} nodes "
            "overflow the int64 sort key"
        )

    nodes, repeat = _sorted_lines(line, nodes, node_count)
    dedup_events = 0
    if repeat.any():
        repeat_line = line[repeat]  # sorted, as the lines are
        dedup_events = 1 + int(np.count_nonzero(repeat_line[1:] != repeat_line[:-1]))
        nodes, line = nodes[~repeat], line[~repeat]
    sizes = np.bincount(line, minlength=line_count)

    keep = np.ones(line_count, dtype=bool)
    if opts.min_size is not None:
        keep &= sizes >= opts.min_size
    if opts.max_size is not None:
        keep &= sizes <= opts.max_size
    excluded_by_size = line_count - int(keep.sum())
    unlabeled = np.zeros(line_count, dtype=bool)
    unlabeled[line[attributes[nodes] == UNLABELED]] = True
    excluded_unlabeled = int(np.count_nonzero(keep & unlabeled))
    keep &= ~unlabeled
    collapsed = 0
    if opts.collapse_duplicate_edges:
        kept = np.flatnonzero(keep)
        for indices, rows in _size_blocks(nodes[keep[line]], _offsets(sizes[kept])).values():
            order = np.lexsort(rows.T[::-1])  # stable: the first occurrence leads its run
            same = np.all(rows[order[1:]] == rows[order[:-1]], axis=1)
            repeats = indices[order[1:][same]]
            keep[kept[repeats]] = False
            collapsed += repeats.size

    stats = IngestStats(
        dedup_events=dedup_events,
        excluded_by_size=excluded_by_size,
        excluded_unlabeled=excluded_unlabeled,
        duplicate_edges_collapsed=collapsed,
        size_one_edges=int(np.count_nonzero(keep & (sizes == 1))),
    )
    return nodes[keep[line]], _offsets(sizes[keep]), stats


def _lf(data: bytes) -> bytes:
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _label_names(data: bytes) -> tuple[str, ...]:
    """The lines of the LF-ended label-names bytes, trailing blank lines
    removed, each decoded as UTF-8; a line that is not is a ParseError."""
    lines = data.split(b"\n")
    while lines and not lines[-1].strip():
        lines.pop()
    for i, line in enumerate(lines):
        try:
            lines[i] = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"label names file: byte 0x{line[exc.start]:02x} is not valid UTF-8", i + 1
            ) from None
    return tuple(lines)


def _parse_bytes(
    edges: bytes, labels: bytes, label_names: bytes | None, opts: IngestOptions
) -> Hypergraph:
    # CRLF and a lone CR end a line, as LF does
    names = None if label_names is None else _label_names(_lf(label_names))
    attributes = _parse_labels(_lf(labels), names)
    flat, offsets, stats = _edges_whole(_lf(edges), attributes, opts)

    counts = (stats.dedup_events, stats.excluded_by_size, stats.excluded_unlabeled,
              stats.duplicate_edges_collapsed)
    if any(counts):
        log.info("ingest: %d deduped lines, %d size-filtered, %d unlabeled-dropped, "
                 "%d duplicate edges collapsed", *counts)
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
    An id is 1-based and made of ASCII digits, at most 18 of them; no spaces,
    signs or other digits. Trailing ASCII whitespace of the hyperedges text
    is ignored; a blank line before it is an error. In the labels text an
    empty line denotes an unlabeled node. Each stream is read whole and its
    UTF-8 bytes parsed as a file's; LF, CRLF and a lone CR each end a line.
    Exclusion and dedup counts are retrievable via ``Hypergraph.ingest``.
    """
    edges, labels, names = (
        None if f is None else f.read().encode("utf-8", "surrogatepass")
        for f in (hyperedges_text, labels_text, label_names_text)
    )
    return _parse_bytes(edges, labels, names, opts)


def load_hypergraph(
    hyperedges_path: str | Path,
    labels_path: str | Path,
    label_names_path: str | Path | None = None,
    opts: IngestOptions = IngestOptions(),
) -> Hypergraph:
    """File-path form of :func:`parse_hypergraph`; each file is parsed from its bytes."""
    edges, labels, names = (
        None if path is None else Path(path).read_bytes()
        for path in (hyperedges_path, labels_path, label_names_path)
    )
    return _parse_bytes(edges, labels, names, opts)


def write_hypergraph(
    h: Hypergraph,
    hyperedges_out: IO[str],
    labels_out: IO[str],
    label_names_out: IO[str] | None = None,
) -> None:
    """Serialize back to the ingestion text format (LF line endings, 1-based ids).

    Parsing the written files with default options reproduces the node count,
    attributes, edge multiset and label names. A label name that holds a line
    break, a name that UTF-8 cannot encode (a lone surrogate), or a blank last
    name (which ingest drops as a trailing blank line), raises ValueError
    before anything is written.
    """
    names = h.attribute_names if label_names_out is not None else None
    for name in names or ():
        if "\n" in name or "\r" in name:
            raise ValueError(f"label name {name!r} holds a line break")
        name.encode("utf-8")  # UnicodeEncodeError is a ValueError
    # blank as ingest reads it: nothing but ASCII whitespace
    if names and not names[-1].encode("utf-8").strip():
        raise ValueError(f"the last label name {names[-1]!r} is blank")
    ids = list(map(str, (h.edge_nodes + 1).tolist()))
    bounds = h.offsets.tolist()
    lines = [",".join(ids[a:b]) for a, b in zip(bounds, bounds[1:])]
    hyperedges_out.write("\n".join([*lines, ""]))
    labels = ["" if a == UNLABELED else str(a + 1) for a in h.attributes.tolist()]
    labels_out.write("\n".join([*labels, ""]))
    if names is not None:
        label_names_out.write("\n".join([*names, ""]))
