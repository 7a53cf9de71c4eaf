"""Effective attribute diversity of a hyperedge.

The central quantity is the perplexity of the edge's attribute proportions:
2 raised to the Shannon entropy in bits, i.e. the effective number of equally
represented attribute classes. It generalizes to the one-parameter family of
Hill numbers, where order 1 recovers perplexity, order 0 the number of
distinct attributes, and order 2 the inverse Simpson index.
"""

from __future__ import annotations

import math

import numpy as np

from .hypergraph import Hypergraph, _check_real, _int_ids

Q_ONE_TOLERANCE = 1e-9  # orders within this of 1 use the entropy limit form
_NEAR_ONE = 0.25  # other orders within this of 1 use the log1p form


def composition(h: Hypergraph, edge_index: int) -> np.ndarray:
    """The int64 attribute counts of one hyperedge's nodes, in ascending
    attribute order."""
    counts = np.unique(h.attributes[h.edge(edge_index)], return_counts=True)[1]
    return counts.astype(np.int64, copy=False)


def _check_order(order: float) -> float:
    """The diversity order as a float; it must be a finite real number >= 0."""
    order = _check_real(order, "diversity order")
    if not (math.isfinite(order) and order >= 0):
        raise ValueError(f"diversity order must be finite and >= 0, got {order}")
    return order


def _hill(
    counts: np.ndarray, row: np.ndarray, rows: int, total: int, order: float
) -> tuple[np.ndarray, np.ndarray]:
    """Diversity of order ``order`` of ``rows`` count vectors, each summing
    to ``total``: the one implementation of the Hill number.

    ``counts`` holds the positive counts of every vector back to back, each
    vector's in ascending attribute order, and ``row`` the vector of each
    count (non-decreasing, every vector present). Returns (diversity per
    vector, distinct-attribute count m per vector). Balanced vectors give m
    exactly rather than going through exp/log, and every value is clamped to
    the true range [1, m] to keep the bounds exact under rounding.
    """
    order = _check_order(order)
    m = np.bincount(row, minlength=rows)
    if order == 0.0:
        return m.astype(np.float64), m
    if rows == 0:
        return np.empty(0), m
    row_start = np.cumsum(m) - m  # first count of each vector
    p = counts / total
    if abs(order - 1.0) < Q_ONE_TOLERANCE:
        values = np.exp2(np.bincount(row, weights=-p * np.log2(p), minlength=rows))
    elif abs(order - 1.0) < _NEAR_ONE:
        # sum p^q = 1 + sum p (p^(q-1) - 1) as the p sum to 1; summing the
        # small terms keeps the sum's rounding from growing by 1/(1-q)
        excess = np.bincount(row, weights=p * np.expm1((order - 1.0) * np.log(p)))
        values = np.exp(np.log1p(excess) / (1.0 - order))
    else:
        # log-space with the largest proportion factored out, so very large
        # orders stay finite; past 1e300 the value no longer changes in double
        # precision, and the cap keeps order * log(pmax) from overflowing
        order = min(order, 1e300)
        pmax = np.maximum.reduceat(p, row_start)
        s_q = np.add.reduceat((p / pmax[row]) ** order, row_start)
        values = np.exp((order * np.log(pmax) + np.log(s_q)) / (1.0 - order))
    balanced = np.maximum.reduceat(counts, row_start) == np.minimum.reduceat(
        counts, row_start
    )
    values = np.where(balanced, m, values)
    np.clip(values, 1.0, m, out=values)
    return values, m


def perplexity(counts) -> float:
    """Effective number of equally represented attributes in an edge with
    these attribute counts.

    Equals 1 for a pure edge and the number of distinct attributes for a
    balanced one; absent attributes contribute nothing (0 log 0 = 0).
    """
    return hill_number(counts, 1.0)


def hill_number(counts, q: float) -> float:
    """Diversity of order ``q`` of an edge with these attribute counts:
    (sum_i p_i^q)^(1/(1-q)).

    ``counts`` is a non-empty flat sequence of integers >= 1 (NumPy integers
    too, widened to int64). Order 0 is the number of distinct attributes,
    order 1 (taken as the limit) is :func:`perplexity`, and the value is
    non-increasing in ``q``. Given :func:`composition`'s counts it equals,
    bit for bit, the :func:`bulk_diversity` row of the same edge.
    """
    counts = _int_ids(counts, "attribute counts")
    if not counts.size or counts.min() < 1:
        raise ValueError("attribute counts must be a non-empty sequence of integers >= 1")
    row = np.zeros(counts.size, dtype=np.intp)
    total = sum(counts.tolist())  # a Python int: an int64 sum could wrap
    return float(_hill(counts, row, 1, total, q)[0][0])


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat start index and length of each run of equal values in the rows
    of a 2-d array; a run never crosses a row edge."""
    boundary = np.ones(rows.shape, dtype=bool)
    boundary[:, 1:] = rows[:, 1:] != rows[:, :-1]
    starts = np.flatnonzero(boundary)
    return starts, np.diff(starts, append=boundary.size)


def bulk_diversity(labels: np.ndarray, order: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise diversity of an integer label matrix.

    ``labels`` has shape (rows, k): each row is the attribute ids of one
    k-node group. Returns (diversity per row, distinct-attribute count per
    row): each row's runs of equal sorted labels are its attribute counts.
    """
    if labels.ndim != 2 or not labels.shape[1]:
        raise ValueError(f"labels must be 2-d with at least one column, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":  # a float or bool would be read as a label
        raise ValueError(f"labels must be integers, got {labels.dtype} values")
    rows, k = labels.shape
    starts, lengths = _runs(np.sort(labels, axis=1))
    return _hill(lengths, starts // k, rows, k, order)
