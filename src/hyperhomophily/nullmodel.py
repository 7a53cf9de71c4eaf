"""Baseline diversity under degree-preserving random mixing.

The null model draws k nodes sequentially without replacement, each draw
proportional to the node's weight (its k-degree) among the nodes not yet
drawn. Whole batches of samples are drawn with array operations, by one of
two exact routes:

- Per-slot rejection (the default). Slot j of every sample is drawn from the
  cumulative weights of all nodes, and only the samples whose new node
  repeats one of their earlier slots draw that slot again. A draw
  proportional to weight over all nodes, conditioned on missing the nodes
  already taken, is a draw proportional to weight over the nodes that
  remain, so this is the sequential law. A guide table (Chen & Asau's
  indexed search) finds most slots' nodes with one lookup and hands the rest
  to ``searchsorted``; either way a uniform u gets the index that
  ``searchsorted`` gives it. Expected cost per sample: k draws, each O(1)
  once a batch holds about 4n draws and O(log n) at worst, plus k^2/2
  collision compares.
- The exponential race of Efraimidis & Spirakis (2006): with keys
  Exp(1)/w_i, the set of the k smallest keys follows the same law. It costs
  n keys per sample, and is used only where the k-1 largest weights hold
  more than half the mass: a rejection slot could then need many redraws.

The draws are fixed by the seed, the weights, k and the sample count, so
results are reproducible bit for bit. They differ from the draws of version
0.1.0, which raced every size.

Two routes to the expected diversity are provided: a Monte Carlo estimator for
real data and an exact ordered-tuple enumeration for small instances, used as
the estimator's oracle in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from .diversity import _hill_from_counts, bulk_diversity
from .exceptions import InsufficientPopulationError, StateSpaceError
from .hypergraph import Hypergraph, k_degrees, total_degrees

ENUMERATION_GUARD = 10_000_000  # max n**k for exact_baseline
_BATCH_CELLS = 1 << 22  # cells per sampling batch, rows x k slots or rows x n keys (~32 MB)
_SEED_MASK = (1 << 64) - 1


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one 64-bit stream seed (stable across runs)."""
    entropy = [p & _SEED_MASK for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SamplerConfig:
    """Monte Carlo settings for baseline estimation.

    ``use_total_degree`` switches the sampling weights from per-size degrees
    to whole-hypergraph degrees (diagnostic variant).
    """

    samples: int = 10_000
    seed: int = 42
    diversity_order: float = 1.0
    use_total_degree: bool = False

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.diversity_order < 0:
            raise ValueError("diversity order must be >= 0")


@dataclass(frozen=True)
class BaselineEstimate:
    """Estimated expected diversity of a random k-set, with its uncertainty."""

    k: int
    mean: float
    std_error: float
    samples: int
    seed: int
    diversity_order: float


def _positive_subset(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ValueError("weights must be a 1-d array")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    return np.flatnonzero(weights > 0)


def _prefer_race(w: np.ndarray, k: int) -> bool:
    """Should the exponential race, not rejection, draw these k-sets?

    True when the k-1 largest of the positive weights ``w`` hold more than
    half the mass. Below that bound every rejection slot accepts with
    probability >= 1/2, so it needs at most 2 draws on average; above it a
    slot may need arbitrarily many. The choice reads the weights alone, so
    the RNG stream never depends on the sample count or the call schedule.
    """
    n = w.size
    return k > 1 and bool(np.partition(w, n - k + 1)[n - k + 1 :].sum() > 0.5 * w.sum())


def _race_batch(w: np.ndarray, k: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Exponential race: the k smallest keys Exp(1)/w_i, in no particular order."""
    keys = rng.exponential(size=(rows, w.size)) / w
    return np.argpartition(keys, k - 1, axis=1)[:, :k]


def _guide_table(cdf: np.ndarray, draws: int) -> np.ndarray:
    """Guide table (Chen & Asau's indexed search) for ``cdf`` over m cells.

    Cell c covers [c/m, (c+1)/m). Its entry is the number of values of
    ``cdf`` at or below c/m when at most one value lies inside the cell, and
    -1 otherwise. m is the power of two at or above min(4n, draws): a power
    of two keeps u*m and c/m exact, and at most about one cell per draw
    keeps the O(n + m) build below the cost of the searches it replaces.
    """
    m = 1 << (min(4 * cdf.size, draws) - 1).bit_length()
    # the values x at or below c/m are those with ceil(x*m) <= c
    below = np.cumsum(np.bincount(np.ceil(cdf * m).astype(np.intp), minlength=m + 1))
    return np.where(below[1:] - below[:-1] <= 1, below[:-1], -1)


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, "right")`` for u in [0, 1), via the guide table."""
    found = guide[(u * guide.size).astype(np.intp)]
    # the first value past the cell's start is the only one that can be <= u;
    # a -1 entry compares u with cdf[-1] == 1 and stays -1
    found += cdf[found] <= u
    crowded = np.flatnonzero(found < 0)
    found[crowded] = np.searchsorted(cdf, u[crowded], side="right")
    return found


def _rejection_batch(
    cdf: np.ndarray, guide: np.ndarray, k: int, rows: int, rng: np.random.Generator
) -> np.ndarray:
    """Slot-by-slot cumulative-weight draws; redraw rows that repeat a node."""
    out = np.empty((k, rows), dtype=np.int64)  # slot-major: out[j] is slot j
    for j in range(k):
        out[j] = _guided_search(cdf, guide, rng.random(rows))
        # the few rows that repeat an earlier node draw again by plain binary
        # search: on such small sets the per-call cost is what counts
        redo = (out[:j] == out[j]).any(axis=0).nonzero()[0]
        while redo.size:
            col = cdf.searchsorted(rng.random(redo.size), "right")
            out[j, redo] = col
            redo = redo[(out[:j, redo] == col).any(axis=0)]
    return out.T


def _draw_batches(
    weights: np.ndarray, k: int, count: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Iterate over ``count`` sequentially weighted k-sets in batches of rows.

    Each batch is an int array of shape (rows, k) holding indices into
    ``weights``. On the rejection path column j is the j-th node drawn; the
    race returns each row's set in no particular order. The batch capacity
    depends only on k and the number of positive weights, so memory stays
    within ``_BATCH_CELLS`` however large ``count`` is, and the draws never
    depend on how calls are scheduled.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pos = _positive_subset(weights)
    if pos.size < k:
        raise InsufficientPopulationError(
            f"need {k} positive-weight nodes, found {pos.size}"
        )
    w = np.asarray(weights, dtype=np.float64)[pos]
    if _prefer_race(w, k):
        batch = max(1, _BATCH_CELLS // w.size)
        draw = partial(_race_batch, w, k, rng=rng)
    else:
        cdf = np.cumsum(w)
        cdf /= cdf[-1]  # exactly 1 at the end, so every u in [0, 1) lands
        batch = max(1, _BATCH_CELLS // k)
        guide = _guide_table(cdf, min(batch, count) * k)
        draw = partial(_rejection_batch, cdf, guide, k, rng=rng)
    # a generator expression, so the checks above run at the call
    return (pos[draw(min(batch, count - done))] for done in range(0, count, batch))


def sample_weighted_k_sets(
    weights: np.ndarray, k: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` sets of ``k`` distinct indices, sequentially weighted.

    Each set is distributed as k successive draws without replacement with
    probability proportional to weight among the not-yet-drawn indices.
    Returns an int array of shape (count, k); entries within a row are the
    selected node indices in ascending order.
    """
    batches = _draw_batches(weights, k, count, rng)
    out = np.empty((count, k), dtype=np.int64)
    done = 0
    for sets in batches:
        out[done : done + len(sets)] = np.sort(sets, axis=1)
        done += len(sets)
    return out


def _sample_diversities(
    attributes: np.ndarray,
    weights: np.ndarray,
    k: int,
    samples: int,
    order: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Diversity of each of ``samples`` weighted k-sets."""
    batches = _draw_batches(weights, k, samples, rng)
    if np.any(attributes[np.asarray(weights) > 0] < 0):
        raise ValueError("positive-weight nodes must all carry an attribute")
    return np.concatenate([bulk_diversity(attributes[sets], order)[0] for sets in batches])


def estimate_baseline(h: Hypergraph, k: int, cfg: SamplerConfig) -> BaselineEstimate:
    """Monte Carlo estimate of the expected diversity of a random size-k group.

    Weights are the k-degrees of ``h`` (or total degrees when configured).
    The RNG stream is derived from (cfg.seed, k), so estimates for different
    sizes are independent and a fixed seed reproduces the estimate bitwise no
    matter how calls are scheduled.
    """
    if k < 2:
        raise ValueError("k must be >= 2 (a size-1 baseline is identically 1)")
    weights = total_degrees(h) if cfg.use_total_degree else k_degrees(h, k).degrees
    rng = np.random.default_rng(derive_seed(cfg.seed, k))
    values = _sample_diversities(
        h.attributes, weights.astype(np.float64), k, cfg.samples, cfg.diversity_order, rng
    )
    mean = float(np.mean(values))
    if cfg.samples > 1:
        std_error = float(np.std(values, ddof=1) / math.sqrt(cfg.samples))
    else:
        std_error = 0.0
    return BaselineEstimate(
        k=k,
        mean=mean,
        std_error=std_error,
        samples=cfg.samples,
        seed=cfg.seed,
        diversity_order=cfg.diversity_order,
    )


def _exact_expected_diversity(
    attributes: np.ndarray, weights: np.ndarray, k: int, order: float
) -> float:
    """Exact expectation by enumerating every ordered k-tuple of distinct nodes.

    Each tuple (v_1..v_k) carries probability prod_j w_{v_j} / (W - sum of
    weights drawn before j). Intentionally simple; the n**k guard keeps it
    tractable.
    """
    pos = _positive_subset(weights)
    n = pos.size
    if n < k:
        raise InsufficientPopulationError(
            f"need {k} positive-weight nodes, found {pos.size}"
        )
    if n**k > ENUMERATION_GUARD:
        raise StateSpaceError(
            f"{n} nodes at k={k} exceeds the enumeration guard ({ENUMERATION_GUARD})"
        )
    w = np.asarray(weights, dtype=np.float64)[pos]
    attrs = attributes[pos]
    if attrs.min() < 0:
        raise ValueError("positive-weight nodes must all carry an attribute")
    num_attrs = int(attrs.max()) + 1
    counts = np.zeros(num_attrs, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    total_weight = float(w.sum())
    expectation = 0.0

    def descend(depth: int, prob: float, remaining: float) -> None:
        nonlocal expectation
        if depth == k:
            expectation += prob * _hill_from_counts(counts[counts > 0], order)
            return
        for j in range(n):
            if used[j]:
                continue
            used[j] = True
            counts[attrs[j]] += 1
            descend(depth + 1, prob * w[j] / remaining, remaining - w[j])
            counts[attrs[j]] -= 1
            used[j] = False

    descend(0, 1.0, total_weight)
    return expectation


def exact_baseline(h: Hypergraph, k: int, diversity_order: float = 1.0) -> float:
    """Exact counterpart of :func:`estimate_baseline` for small instances."""
    if k < 2:
        raise ValueError("k must be >= 2 (a size-1 baseline is identically 1)")
    weights = k_degrees(h, k).degrees.astype(np.float64)
    return _exact_expected_diversity(h.attributes, weights, k, diversity_order)
