"""Baseline diversity under degree-preserving random mixing.

The null model draws k nodes sequentially without replacement, each draw
proportional to the node's weight (its k-degree) among the nodes not yet
drawn. Whole batches of samples are drawn with array operations, by per-slot
rejection. Slot j of every sample is drawn from the cumulative weights of all
nodes, and only the samples whose new node repeats one of their earlier slots
draw that slot again. A draw proportional to weight over all nodes,
conditioned on missing the nodes already taken, is a draw proportional to
weight over the nodes that remain, so this is the sequential law. A guide
table (Chen & Asau's indexed search) finds most slots' nodes with one lookup
and hands the rest to ``searchsorted``; either way a uniform u gets the index
that ``searchsorted`` gives it. A batch draws and searches the k*rows uniforms
it needs at least in one call, and the slot loop reads them in the order
drawing slot by slot would, so the stream is the same as that of per-slot
draws.

The input rule: no node holds more than 1/k of the total weight. Realized
k-degrees meet it (a k-degree is at most E_k, the number of size-k edges, and
the k-degrees sum to k*E_k), and so do ``hsbm``'s equal weights (k <= n).
Under it the j nodes already taken hold at most j/k of the mass, so slot j
accepts with probability at least (k-j)/k, and a sample needs at most
k*H_k = k(1 + 1/2 + ... + 1/k) draws on average, plus k^2/2 collision
compares. Outside it a slot can need arbitrarily many redraws.

The draws are fixed by the seed, the weights, k and the sample count, so
results are reproducible bit for bit.

The expected diversity is exact at size 2 and a Monte Carlo estimate above
it. The tests check it on small instances against an enumeration of every
ordered k-tuple (``tests/null_oracle.py``), the one exact reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .diversity import _check_order, bulk_diversity
from .exceptions import InsufficientPopulationError
from .hypergraph import Hypergraph, _check_int, k_degrees

_BATCH_CELLS = 1 << 22  # cells per sampling batch, rows x k slots (~32 MB)


def derive_seed(*parts: int) -> int:
    """Mix integer parts in [0, 2**64) into one 64-bit stream seed (stable across runs)."""
    entropy = [_check_seed(p, "seed part") for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _check_seed(seed: int, what: str = "seed") -> int:
    seed = _check_int(seed, what)
    # the range of the seeds derive_seed returns, so a derived seed is a seed too
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{what} must lie in [0, 2**64), got {seed}")
    return seed


@dataclass(frozen=True)
class SamplerConfig:
    """Monte Carlo settings for baseline estimation."""

    samples: int = 10_000
    seed: int = 42
    diversity_order: float = 1.0

    def __post_init__(self):
        # a NumPy integer is stored as an int, a real order as a float
        object.__setattr__(self, "samples", _check_int(self.samples, "samples"))
        if self.samples < 2:  # a standard error needs two draws
            raise ValueError("samples must be >= 2")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        object.__setattr__(self, "diversity_order", _check_order(self.diversity_order))


@dataclass(frozen=True)
class BaselineEstimate:
    """Estimated expected diversity of a random k-set, with its uncertainty;
    ``samples`` counts the draws the mean averages (0 at the exact k = 2)."""

    k: int
    mean: float
    std_error: float
    samples: int


def _population(weights: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the positive ``weights``; fewer than k of them raise."""
    pos = np.flatnonzero(weights > 0)
    if pos.size < k:
        raise InsufficientPopulationError(f"need {k} positive-weight nodes, found {pos.size}")
    return pos, weights[pos]


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table (Chen & Asau's indexed search) for ``cdf`` over m cells.

    Cell c covers [c/m, (c+1)/m). Its entry is the number of values of
    ``cdf`` at or below c/m when at most one value lies inside the cell, and
    -1 otherwise. m is the power of two at or above 4n: a power of two keeps
    u*m and c/m exact, and about four cells per value leave few cells crowded.
    """
    m = 1 << (4 * cdf.size - 1).bit_length()
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
    """Slot-by-slot cumulative-weight draws; redraw rows that repeat a node.

    The k*rows uniforms that every batch consumes at least are drawn and
    searched in one call. Slot j takes the next ``rows`` of them and its
    redraws the ones after that, as drawing slot by slot would. Draws that
    run past the end draw exactly what they need, so the RNG ends where the
    slot-by-slot order leaves it.
    """
    ahead = _guided_search(cdf, guide, rng.random(k * rows))
    used = 0

    def take(count: int) -> np.ndarray:
        nonlocal used
        got = ahead[used : used + count]
        used += count
        if got.size < count:
            # past the end: plain binary search, on the few redraws it leaves
            fresh = cdf.searchsorted(rng.random(count - got.size), "right")
            got = np.concatenate((got, fresh))
        return got

    out = np.empty((k, rows), dtype=np.int64)  # slot-major: out[j] is slot j
    for j in range(k):
        out[j] = take(rows)
        redo = (out[:j] == out[j]).any(axis=0).nonzero()[0]
        while redo.size:
            col = take(redo.size)
            out[j, redo] = col
            redo = redo[(out[:j, redo] == col).any(axis=0)]
    return out.T


def _draw_batches(
    weights: np.ndarray, k: int, count: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Iterate over ``count`` sequentially weighted k-sets in batches of rows.

    ``weights`` is a 1-d float array in which no node holds more than 1/k of
    the total (the module's input rule); every caller passes realized k-degrees
    or ``hsbm``'s equal weights. Each batch is an int array of shape
    (rows, k) holding indices into ``weights``; column j is the j-th node
    drawn. The batch capacity depends only on k, so memory stays within
    ``_BATCH_CELLS`` however large ``count`` is, and the draws never depend
    on how calls are scheduled.
    """
    pos, w = _population(weights, k)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]  # exactly 1 at the end, so every u in [0, 1) lands
    guide = _guide_table(cdf)
    batch = max(1, _BATCH_CELLS // k)
    # a generator expression, so the checks above run at the call
    return (
        pos[_rejection_batch(cdf, guide, k, min(batch, count - done), rng)]
        for done in range(0, count, batch)
    )


def _size_weights(h: Hypergraph, k: int) -> tuple[int, np.ndarray]:
    """The checked size k and the k-degrees of ``h`` as float weights."""
    k = _check_int(k, "k")
    if k < 2:
        raise ValueError("k must be >= 2 (a size-1 baseline is identically 1)")
    return k, k_degrees(h, k).degrees.astype(np.float64)


def estimate_baseline(h: Hypergraph, k: int, cfg: SamplerConfig) -> BaselineEstimate:
    """Estimate of the expected diversity of a random size-k group.

    Weights are the k-degrees of ``h``. At k = 2 the estimate is exact, with
    standard error 0, and draws nothing: a pair's Hill number is 2 when its
    labels differ and 1 otherwise, at every order, so with W_a the weight of
    label a, B_2 = 1 + sum_i (w_i/W) (1 - (W_{a_i} - w_i) / (W - w_i)). Above
    that it is a Monte Carlo mean of ``cfg.samples`` (at least 2) draws, with
    the standard error of that mean, over an RNG stream derived from
    (cfg.seed, k), so estimates for different sizes are independent and a
    fixed seed reproduces the estimate bitwise no matter how calls are
    scheduled.
    """
    k, weights = _size_weights(h, k)
    if k == 2:
        pos, w = _population(weights, 2)
        labels, total = h.attributes[pos], w.sum()
        same = (np.bincount(labels, weights=w)[labels] - w) / (total - w)
        return BaselineEstimate(k, float(1.0 + np.sum(w / total * (1.0 - same))), 0.0, 0)
    rng = np.random.default_rng(derive_seed(cfg.seed, k))
    # the count, mean and sum of squared deviations of the draws so far: each
    # batch's are merged in by the pairwise update of Chan, Golub & LeVeque
    # (1979), so memory stays within one batch. From zero, one batch's merge is
    # exact: its mean is np.mean and its standard deviation np.std(ddof=1).
    count, mean, m2 = 0, 0.0, 0.0
    for sets in _draw_batches(weights, k, cfg.samples, rng):
        values = bulk_diversity(h.attributes[sets], cfg.diversity_order)[0]
        size, batch_mean = values.size, np.mean(values)
        batch_m2 = np.sum(np.square(values - batch_mean))
        delta, count = batch_mean - mean, count + size
        mean += delta * (size / count)
        m2 += batch_m2 + delta * delta * ((count - size) * size / count)
    std_error = math.sqrt(m2 / (count - 1)) / math.sqrt(count)
    return BaselineEstimate(k, float(mean), std_error, count)
