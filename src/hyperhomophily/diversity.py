"""Effective attribute diversity of a hyperedge.

The central quantity is the perplexity of the edge's attribute proportions:
2 raised to the Shannon entropy in bits, i.e. the effective number of equally
represented attribute classes. It generalizes to the one-parameter family of
Hill numbers, where order 1 recovers perplexity, order 0 the number of
distinct attributes, and order 2 the inverse Simpson index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .hypergraph import Hypergraph, _check_int, _check_real

Q_ONE_TOLERANCE = 1e-9  # orders within this of 1 use the entropy limit form
_NEAR_ONE = 0.25  # other orders within this of 1 use the log1p form


@dataclass(frozen=True)
class HyperedgeComposition:
    """Attribute counts of a single hyperedge.

    ``counts`` maps attribute id to a positive occurrence count; size and
    proportions are derived.
    """

    counts: Mapping[int, int]

    def __post_init__(self):
        if not self.counts:
            raise ValueError("composition must contain at least one attribute")
        counts = {}  # stored as ints: a narrow NumPy count would overflow a sum
        for attr, count in self.counts.items():
            count = counts[attr] = _check_int(count, f"count for attribute {attr}")
            if count < 1:
                raise ValueError(f"count for attribute {attr} must be >= 1")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_counts(cls, counts) -> "HyperedgeComposition":
        """Build from a bare count sequence, assigning attribute ids 0, 1, ..."""
        return cls(dict(enumerate(counts)))

    @property
    def size(self) -> int:
        return sum(self.counts.values())

    @property
    def num_attributes(self) -> int:
        """m_e: number of distinct attributes present."""
        return len(self.counts)

    @property
    def proportions(self) -> dict[int, float]:
        total = self.size
        return {attr: count / total for attr, count in self.counts.items()}


def composition(h: Hypergraph, edge_index: int) -> HyperedgeComposition:
    """Tally the attributes of one hyperedge's nodes."""
    values, counts = np.unique(h.attributes[h.edge(edge_index)], return_counts=True)
    return HyperedgeComposition({int(a): int(c) for a, c in zip(values, counts)})


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


def perplexity(c: HyperedgeComposition) -> float:
    """Effective number of equally represented attributes in the edge.

    Equals 1 for a pure edge and the number of distinct attributes for a
    balanced one; absent attributes contribute nothing (0 log 0 = 0).
    """
    return hill_number(c, 1.0)


def hill_number(c: HyperedgeComposition, q: float) -> float:
    """Diversity of order ``q``: (sum_i p_i^q)^(1/(1-q)).

    Order 0 is the number of distinct attributes, order 1 (taken as the
    limit) is :func:`perplexity`, and the value is non-increasing in ``q``.
    Equals, bit for bit, the :func:`bulk_diversity` row of the same edge.
    """
    counts = np.array([c.counts[a] for a in sorted(c.counts)], dtype=np.int64)
    row = np.zeros(counts.size, dtype=np.intp)
    return float(_hill(counts, row, 1, c.size, q)[0][0])


def bulk_diversity(labels: np.ndarray, order: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise diversity of an integer label matrix.

    ``labels`` has shape (rows, k): each row is the attribute ids of one
    k-node group. Returns (diversity per row, distinct-attribute count per
    row): each row's runs of equal sorted labels are its attribute counts.
    """
    rows, k = labels.shape
    s = np.sort(labels, axis=1)
    boundary = np.ones((rows, k), dtype=bool)
    boundary[:, 1:] = s[:, 1:] != s[:, :-1]
    flat = boundary.ravel()
    starts = np.flatnonzero(flat)
    lengths = np.diff(starts, append=flat.size)  # runs never cross row edges
    return _hill(lengths, starts // k, rows, k, order)
