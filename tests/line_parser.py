"""Test-only references for ingestion: line-by-line parsers of the
hyperedges and labels texts that the whole-file parsers in
``hyperhomophily.hypergraph`` are compared against."""

import re

import numpy as np

from hyperhomophily import NodeRangeError, ParseError
from hyperhomophily.hypergraph import UNLABELED, IngestOptions, IngestStats, _offsets

NEWLINE = re.compile(r"\r\n|\r|\n")
ID = re.compile(r"[0-9]+")  # an id is ASCII digits, 18 at most (in int64)
ASCII_SPACE = " \t\n\r\x0b\x0c"  # the end-of-file whitespace ingest ignores


def quoted(token: str) -> str:
    """The token as an error message quotes it: its UTF-8 bytes (a lone
    surrogate as its three bytes) decoded with the undecodable ones escaped."""
    return repr(token.encode("utf-8", "surrogatepass").decode("utf-8", "backslashreplace"))


def edges_by_line(
    text: str, attributes: np.ndarray, opts: IngestOptions
) -> tuple[np.ndarray, np.ndarray, IngestStats]:
    """Line-by-line parse of the hyperedges text into CSR arrays and counters.

    LF, CRLF and a lone CR each end a line; trailing ASCII whitespace is not
    part of the text. Raises the line-numbered input errors. The library's
    whole-file parser must give the same arrays and counters for every text,
    and raise the same error class, message and line.
    """
    node_count = attributes.size
    lines = NEWLINE.split(text)
    while lines and lines[-1].strip(ASCII_SPACE) == "":
        lines.pop()
    if lines:
        lines[-1] = lines[-1].rstrip(ASCII_SPACE)

    dedup_events = 0
    excluded_by_size = 0
    excluded_unlabeled = 0
    collapsed = 0
    size_one = 0
    seen: set[tuple[int, ...]] = set()
    edge_nodes: list[int] = []
    lengths: list[int] = []

    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            raise ParseError("empty hyperedge line", lineno)
        nodes = []
        for token in line.split(","):
            if ID.fullmatch(token) is None:
                raise ParseError(f"invalid node id {quoted(token)}", lineno)
            if len(token) > 18:
                raise NodeRangeError(
                    f"node id {token} out of range: more than 18 digits", lineno
                )
            value = int(token) - 1
            if not 0 <= value < node_count:
                raise NodeRangeError(
                    f"node id {token} out of range of labels file ({node_count} nodes)",
                    lineno,
                )
            nodes.append(value)
        unique = sorted(set(nodes))
        if len(unique) != len(nodes):
            dedup_events += 1
        size = len(unique)
        if (opts.min_size is not None and size < opts.min_size) or (
            opts.max_size is not None and size > opts.max_size
        ):
            excluded_by_size += 1
            continue
        if np.any(attributes[unique] == UNLABELED):
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


def labels_by_line(text: str, names: int | None) -> np.ndarray:
    """Line-by-line parse of the labels text into one attribute per node
    (``UNLABELED`` for an empty line), given the number of label names.

    LF, CRLF and a lone CR each end a line, and the line end after the last
    line starts no new one. Raises the error of the first bad line: a line
    that is not an id, an id of more than 18 digits, the id 0, or an id with
    no line in the label-names file.
    """
    lines = NEWLINE.split(text)
    if lines[-1] == "":
        lines.pop()  # the text is empty or ends its last line
    attributes = []
    for lineno, token in enumerate(lines, start=1):
        if token == "":
            attributes.append(UNLABELED)
            continue
        if ID.fullmatch(token) is None:
            raise ParseError(f"labels file: invalid label {quoted(token)}", lineno)
        if len(token) > 18:
            raise NodeRangeError(
                f"labels file: label id {token} out of range: more than 18 digits", lineno
            )
        if int(token) == 0:
            raise NodeRangeError(f"labels file: label id {token} out of range", lineno)
        if names is not None and int(token) > names:
            raise NodeRangeError(
                f"labels file: label id {int(token)} has no entry in the label names "
                f"file ({names} names)",
                lineno,
            )
        attributes.append(int(token) - 1)
    return np.asarray(attributes, dtype=np.int64)
