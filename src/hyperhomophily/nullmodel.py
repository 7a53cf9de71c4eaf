"""Baseline diversity under degree-preserving random mixing.

The null model of size k is conditional Poisson sampling (CPS; Hajek 1964):
every node i of positive k-degree d_i joins a group independently with
probability p_i, conditioned on the group holding exactly k nodes. The p_i
are fitted so that node i is in a group with probability d_i / E_k, E_k
being the number of size-k edges, so every node's expected share is its
realized share. Of all laws on k-sets with those inclusion probabilities,
CPS has the largest entropy (Chen, Dempster & Liu 1994). It departs from
drawing nodes one after another in proportion to degree, which includes
heavy nodes less often than their degree says (Rosen 1997).

The fit runs once per hypergraph for every size at once (``_fit``). Nodes of
equal degree share one p, so it is over the distinct k-degrees of all sizes,
stacked. Every generating function is evaluated at the M-th roots of unity,
M = 2 max k' + 65 (odd, so no factor 1 - p + p z vanishes there), in polar
form with real arithmetic; k' is k less the nodes that every group holds (the
certainty nodes, of degree E_k). A coefficient is read back by the real
inverse transform, and the few degrees past M that alias onto it have
negligible mass. Each pass evaluates the inclusion probabilities and takes
the step (target - pi) / (pi (1 - pi)) on each log-odds, which is Newton's
step under Hajek's approximation of the joint inclusion probabilities; at
k' = 1, and at one node left out, the fit has a closed form.

A size whose free nodes hold fewer than two labels gives every group the
same label counts, so its baseline is their ``hill_number``. Otherwise a
size's per-label generating functions (``_Null.tables``) give its baseline
exactly at orders 0 and 1 (``_Null.exact``), and at every order for k = 2.
Other orders are a Monte Carlo mean over CPS groups (``estimate_baseline``),
over an RNG stream derived from (seed, k): each group's label counts are
drawn label by label from their exact law through the same tables
(``_Null._label_counts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .diversity import Q_ONE_TOLERANCE, _check_order, _hill, hill_number
from .exceptions import InsufficientPopulationError
from .hypergraph import Hypergraph, _check_int, k_degrees

_BATCH_CELLS = 1 << 22  # cells per draw batch, rows x labels
_CIRCLE_PAD = 65  # roots of unity past 2 k': aliased coefficients stay below rounding
_FIT_TOLERANCE = 1e-13  # a size has converged when every |d / E_k - pi| is this small,
_FIT_FLOOR = 1e-10  # or is this small and fell by less than a tenth in a pass (rounding)
_FIT_PASSES = 1000  # a fit that has not converged by then raises


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
    """Baseline settings: the diversity order, and the Monte Carlo sample
    count and seed that orders other than 0 and 1 draw with."""

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
    """Expected diversity of a random k-set, with its uncertainty; ``samples``
    counts the draws the mean averages (0 where it is exact)."""

    k: int
    mean: float
    std_error: float
    samples: int


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-d ``a``, in blocks that OpenBLAS runs on the calling
    thread (a matrix product below 2^18 multiply-adds, a matrix-vector one
    below 2^13 cells): waking its thread pool costs more than these products
    take, and far more when the cores are shared."""
    if b.ndim == 1:
        step = max(1, (1 << 13) // max(1, a.shape[1]))
        return np.concatenate([a[j : j + step] @ b for j in range(0, a.shape[0], step)])
    step = max(1, (1 << 18) // max(1, a.shape[0] * a.shape[1]))
    if b.shape[1] <= step:
        return a @ b
    return np.concatenate([a @ b[:, j : j + step] for j in range(0, b.shape[1], step)], axis=1)


def _rect(log_magnitude: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """exp(log_magnitude + i angle), each value's real and imaginary parts
    side by side along the last axis, so that ``.view(np.complex128)`` reads
    it as complex.

    The cosine and sine come from t = tan(angle / 2), as (1 - t^2) / (1 + t^2)
    and 2t / (1 + t^2): NumPy runs tan in SIMD lanes on machines where it
    runs cos and sin one value at a time.
    """
    t = np.tan(0.5 * angle)
    u = t * t
    u += 1.0
    s = np.exp(log_magnitude)
    s /= u
    out = np.empty((*angle.shape[:-1], 2 * angle.shape[-1]))
    np.multiply(np.subtract(2.0, u, out=u), s, out=out[..., ::2])
    t *= s
    np.add(t, t, out=out[..., 1::2])
    return out


@dataclass(eq=False)
class _Null:
    """The fitted CPS null of every size >= 2 of one hypergraph (``_fit``).

    Size i is ``sizes[i]``, ascending, with k' = ``free[i]``. The distinct
    degrees of its free nodes, the "values", are rows ``bounds[i]:bounds[i +
    1]`` of ``counts`` and ``polar``. For f = 1 - p + p z at a value's fitted
    p, ``polar`` holds log|f| and arg f at the angles ``theta`` (2 pi m / M
    for m < h, M = 2h - 1) and then log(1 - p). ``total`` holds log|Q| and
    arg Q for Q the product of f over a size's free nodes, and ``scale`` its
    coefficient of z^k'. ``inverse`` maps values on the circle, real and
    imaginary parts side by side, to coefficients 0..max k', and ``forward``
    maps coefficients back. ``exact`` and ``_label_counts`` read one size's
    per-label generating functions, which ``tables`` builds, and keep nothing.
    """

    sizes: np.ndarray
    free: np.ndarray
    fixed: np.ndarray  # (S, L) label counts of the certainty nodes
    free_counts: np.ndarray  # (S, L) label counts of the free nodes
    counts: np.ndarray  # (U, L) label counts of each value's nodes
    bounds: np.ndarray
    polar: np.ndarray  # (U, 2h + 1)
    total: np.ndarray  # (S, 2h)
    scale: np.ndarray
    theta: np.ndarray
    inverse: np.ndarray  # (2h, max k' + 1)
    forward: np.ndarray  # (max k' + 1, 2h)

    def tables(self, i: int) -> np.ndarray:
        """log|F| and arg F at ``theta``, then log F(0), of every label of size
        index i, one row each, for F the product of f over the label's free
        nodes (F = 1 where it has none)."""
        values = slice(self.bounds[i], self.bounds[i + 1])
        return _dot(self.counts[values].T, self.polar[values])

    def exact(self, i: int, order: float) -> float:
        """Expected diversity of order 0 or 1 of size index i, whose free nodes
        hold two or more labels. A label's F has the coefficient of z^c, over
        [z^k'] Q, that weighs the groups holding c of its free nodes."""
        fixed, free, h = self.fixed[i], int(self.free[i]), self.theta.size
        log_f = self.tables(i)
        if order == 0.0:
            # a label is missed with probability F(0) [z^k'](Q / F) / [z^k'] Q
            angle = self.total[i, h:] - self.theta * free - log_f[:, h:-1]
            rest = _dot(_rect(self.total[i, :h] - log_f[:, :h], angle), self.inverse[:, 0])
            missed = np.exp(log_f[:, -1]) * rest / self.scale[i]
            return np.count_nonzero(fixed) + float(np.sum(1.0 - missed[fixed == 0]))
        # exp(entropy) is the product over labels of phi(count), so the mean is
        # [z^k'] prod_a G_a / [z^k'] Q, G_a[c] = phi(c + fixed_a) F_a[c]
        x = np.arange(self.sizes[i] + 1) / self.sizes[i]
        phi = np.exp(-x * np.log(np.where(x > 0, x, 1.0)))  # (c/k)^(-c/k)
        coef = _dot(_rect(log_f[:, :h], log_f[:, h:-1]), self.inverse[:, : free + 1])
        coef *= phi[fixed[:, None] + np.arange(free + 1)]
        product = _dot(coef, self.forward[: free + 1]).view(np.complex128).prod(axis=0)
        return float(product.view(np.float64) @ self.inverse[:, free] / self.scale[i])

    def _label_counts(
        self, i: int, count: int, rng: np.random.Generator
    ) -> Iterator[np.ndarray]:
        """Label counts of CPS groups of size index i, certainty nodes
        included, one row each over the labels the size holds (ascending), in
        batches. The free nodes' counts are drawn label by label from their
        exact law, so no draw is rejected: given j free places left, label a
        takes c of them with probability F_a[c] R_a[j - c] / (F_a R_a)[j], R_a
        being the product of the F of the labels after it. One uniform per
        label and group finds c in a table of every j's cumulative
        probabilities, each row shifted by j."""
        h, free = self.theta.size, int(self.free[i])
        held = np.flatnonzero(self.fixed[i] + self.free_counts[i])
        drawn = np.flatnonzero(self.free_counts[i, held])  # columns with free nodes
        log_f = self.tables(i)[held[drawn]]
        circle = _rect(log_f[:, :h], log_f[:, h:-1])
        after = np.ones((drawn.size, h), dtype=np.complex128)
        after[:-1] = np.cumprod(circle.view(np.complex128)[:0:-1], axis=0)[::-1]
        own = np.maximum(_dot(circle, self.inverse[:, : free + 1]), 0.0)
        rest = np.maximum(_dot(after.view(np.float64), self.inverse[:, : free + 1]), 0.0)
        places = np.arange(free + 1)
        gap = places[:, None] - places  # j - c in row j, column c
        batch = max(1, _BATCH_CELLS // self.fixed.shape[1])
        for done in range(0, count, batch):
            rows = min(batch, count - done)
            left = np.full(rows, free)
            groups = np.tile(self.fixed[i, held], (rows, 1))
            for a, column in enumerate(drawn[:-1].tolist()):
                # row j holds the cumulative law of c given j, plus j, so that
                # the rows, end to end, ascend; a row that no draw reaches
                # (total 0) is left at 1
                cum = np.cumsum(own[a] * rest[a][np.maximum(gap, 0)] * (gap >= 0), axis=1)
                total = cum[:, -1:]
                cum = np.divide(cum, total, out=np.ones_like(cum), where=total > 0)
                table = (cum + places[:, None]).ravel()
                target, row_start = left + rng.random(rows), left * (free + 1)
                # most rows take none of a label: search only the others
                moved = np.flatnonzero(target >= table[row_start])
                taken = np.searchsorted(table, target[moved], side="right") - row_start[moved]
                groups[moved, column] += taken
                left[moved] -= taken
            groups[:, drawn[-1]] += left
            yield groups


def _fit(h: Hypergraph) -> _Null:
    """Fit the CPS null of every size >= 2 of ``h`` in one stacked loop, and
    keep it on ``h``.

    The k-degrees come from one ``k_degrees`` call per size. The distinct free
    degrees of all sizes are fitted together, and a pass evaluates only the
    sizes that have not converged.
    """
    histogram = np.bincount(h.sizes, minlength=2)
    sizes = np.flatnonzero(histogram[2:]) + 2
    edges = histogram[sizes]
    # each node of positive k-degree d gets the key start_k + d: one bincount
    # of the keys then gives each size's distinct degrees (its values),
    # ascending, and how many nodes hold each
    span = edges + 1
    start = np.cumsum(span) - span
    labels, keys = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for k, offset in zip(sizes.tolist(), start.tolist()):
        d = k_degrees(h, k).degrees
        nodes = np.flatnonzero(d > 0)  # faster than masking twice
        keys.append(d[nodes] + offset)
        labels.append(h.attributes[nodes])
    key, label = np.concatenate(keys), np.concatenate(labels)
    del keys, labels
    # number the labels densely when some id below the largest is unused, so
    # the label tables are as wide as the labels present
    if label.size and (label.max() >= label.size or not np.bincount(label).all()):
        label = np.unique(label, return_inverse=True)[1]
    S, L = sizes.size, int(label.max(initial=0)) + 1
    multiplicity = np.bincount(key, minlength=int(span.sum()))
    held = multiplicity > 0
    slot = np.flatnonzero(held)
    value = np.cumsum(held)[key]
    value -= 1
    value_size = np.searchsorted(start, slot, side="right") - 1
    counts = np.bincount(value * L + label, minlength=slot.size * L).reshape(-1, L)
    del key, label, value
    # a node of degree E_k is in every edge of its size, so in every group:
    # each size has at most one such value, and the fit leaves it out
    certain = slot - start[value_size] == edges[value_size]
    fixed = np.zeros((S, L), dtype=np.int64)
    fixed[value_size[certain]] = counts[certain]
    free_counts = np.add.reduceat(counts, np.searchsorted(value_size, np.arange(S)), axis=0) - fixed
    free = sizes - fixed.sum(axis=1)
    fitted = np.flatnonzero(~certain)
    target = (slot - start[value_size])[fitted] / edges[value_size[fitted]]
    m = multiplicity[slot[fitted]].astype(np.float64)
    value_size = value_size[fitted]

    top = int(free.max(initial=0))
    M = 2 * top + _CIRCLE_PAD
    half = M // 2 + 1
    theta = 2.0 * np.pi * np.arange(half) / M
    cos, sin = np.cos(theta), np.sin(theta)
    weight = np.full(half, 2.0 / M)  # the angles past half are the conjugates
    weight[0] = 1.0 / M
    arc = np.outer(np.arange(top + 1), theta)
    forward = np.stack((np.cos(arc), np.sin(arc)), axis=-1).reshape(top + 1, -1)
    inverse = (forward * np.repeat(weight, 2)).T

    # log-odds: from Hajek's approximation inverted, p = pi - g (pi - pi*) / D
    # with g = pi (1 - pi), D the size's sum of g and pi* its g-weighted mean
    # pi, kept within [pi / 2, (1 + pi) / 2]; or closed forms: at k' = 1 the
    # odds are in proportion to pi, and with one free node left out to 1 / (1 - pi)
    g = target * (1.0 - target)
    spread = np.bincount(value_size, weights=m * g, minlength=S)[value_size]
    centre = np.bincount(value_size, weights=m * g * target, minlength=S)[value_size] / spread
    guess = np.clip(target - g * (target - centre) / spread, 0.5 * target, 0.5 + 0.5 * target)
    lam = np.log(guess) - np.log1p(-guess)
    one_in = (free == 1)[value_size]
    lam[one_in] = np.log(target[one_in])
    one_out = (np.bincount(value_size, weights=m, minlength=S) - free == 1)[value_size]
    lam[one_out] = -np.log1p(-target[one_out])
    polar = np.empty((fitted.size, 2 * half + 1))
    total = np.zeros((S, 2 * half))
    scale = np.ones(S)  # k' = 0: Q = 1
    error = np.full(S, np.inf)
    fitting = np.arange(fitted.size)
    for _ in range(_FIT_PASSES):
        if not fitting.size:
            break
        p = 1.0 / (1.0 + np.exp(-lam[fitting]))
        q = 1.0 / (1.0 + np.exp(lam[fitting]))
        norm = np.multiply.outer(-2.0 * p * q, 1.0 - cos)
        norm += 1.0  # |f|^2
        f = np.empty((fitting.size, 2 * half))  # log |f|^2 and arg f
        np.log(norm, out=f[:, :half])
        real = np.multiply.outer(p, cos)
        real += q[:, None]
        np.arctan2(np.multiply.outer(p, sin), real, out=f[:, half:])
        polar[fitting, :-1] = f
        new = np.diff(value_size[fitting], prepend=-1) != 0
        first, group = np.flatnonzero(new), np.cumsum(new) - 1
        fit_sizes = value_size[fitting][first]
        f *= m[fitting, None]
        total[fit_sizes] = np.add.reduceat(f, first, axis=0)
        total[fit_sizes, :half] *= 0.5
        # Q z^-k' on the circle gives [z^k'] Q and then [z^(k'-1)] Q / f
        shifted = total[fit_sizes, half:] - np.outer(free[fit_sizes], theta)
        circle = _rect(total[fit_sizes, :half], shifted)
        re, im = circle[:, ::2], circle[:, 1::2]
        scale[fit_sizes] = _dot(re, weight)
        rest = np.stack((weight * (re * cos - im * sin), weight * re), axis=-1)
        np.reciprocal(norm, out=norm)
        below = np.empty((fitting.size, 2))
        for j, (a, b) in enumerate(zip(first.tolist(), [*first[1:].tolist(), fitting.size])):
            below[a:b] = norm[a:b] @ rest[j]
        pi = p * (q * below[:, 0] + p * below[:, 1]) / scale[fit_sizes][group]
        last, now = error[fit_sizes], np.maximum.reduceat(np.abs(target[fitting] - pi), first)
        error[fit_sizes] = now
        converged = (now <= _FIT_TOLERANCE) | ((now <= _FIT_FLOOR) & (now > 0.9 * last))
        going = ~converged[group]
        fitting, pi = fitting[going], pi[going]
        # Newton's step under Hajek's approximation of the joint inclusions
        lam[fitting] += (target[fitting] - pi) / (pi * (1.0 - pi))
    if fitting.size:
        raise ArithmeticError(f"the null of size {sizes[value_size[fitting[0]]]} did not converge")
    polar[:, :half] *= 0.5
    polar[:, -1] = -np.logaddexp(0.0, lam)  # log(1 - p)

    null = _Null(
        sizes=sizes,
        free=free,
        fixed=fixed,
        free_counts=free_counts,
        counts=counts[fitted].astype(np.float64),
        bounds=np.searchsorted(value_size, np.arange(S + 1)),
        polar=polar,
        total=total,
        scale=scale,
        theta=theta,
        inverse=inverse,
        forward=forward,
    )
    h._null = null
    return null


def estimate_baseline(h: Hypergraph, k: int, cfg: SamplerConfig) -> BaselineEstimate:
    """Expected diversity of a random size-k group under the CPS null.

    The first call on a hypergraph fits every size's null at once and keeps
    it on the hypergraph. When the free nodes hold fewer than two labels, at
    orders 0 and 1 and at k = 2, the value is exact, with standard error 0 and
    no draws; a pair reads the order-1 sum at every order. Other orders are
    the Monte Carlo mean of the diversities of ``cfg.samples`` CPS groups'
    label counts, drawn in batches, with the standard error of that mean,
    over an RNG stream derived from (cfg.seed, k), so a fixed seed
    reproduces the estimate bitwise.
    """
    k = _check_int(k, "k")
    if k < 2:
        raise ValueError("k must be >= 2 (a size-1 baseline is identically 1)")
    null = h._null or _fit(h)
    i = int(np.searchsorted(null.sizes, k))
    if i == null.sizes.size or null.sizes[i] != k:
        raise InsufficientPopulationError(f"no hyperedges of size {k}")
    order, free_labels = cfg.diversity_order, null.free_counts[i] > 0
    if np.count_nonzero(free_labels) < 2:  # every group holds the same label counts
        counts = null.fixed[i] + null.free[i] * free_labels
        return BaselineEstimate(k, hill_number(counts[counts > 0], order), 0.0, 0)
    if k == 2 or abs(order - 1.0) < Q_ONE_TOLERANCE:
        order = 1.0  # a pair's diversity is 1 or 2 at every order
    if order in (0.0, 1.0):
        return BaselineEstimate(k, null.exact(i, order), 0.0, 0)
    rng = np.random.default_rng(derive_seed(cfg.seed, k))
    # the count, mean and sum of squared deviations of the draws so far: each
    # batch's are merged in by the pairwise update of Chan, Golub & LeVeque
    # (1979), so memory stays within one batch. From zero, one batch's merge is
    # exact: its mean is np.mean and its standard deviation np.std(ddof=1).
    count, mean, m2 = 0, 0.0, 0.0
    for counts in null._label_counts(i, cfg.samples, rng):
        positive = counts > 0
        row = np.repeat(np.arange(len(counts)), np.count_nonzero(positive, axis=1))
        values = _hill(counts[positive], row, len(counts), k, order)[0]
        size, batch_mean = values.size, np.mean(values)
        batch_m2 = np.sum(np.square(values - batch_mean))
        delta, count = batch_mean - mean, count + size
        mean += delta * (size / count)
        m2 += batch_m2 + delta * delta * ((count - size) * size / count)
    std_error = math.sqrt(m2 / (count - 1)) / math.sqrt(count)
    return BaselineEstimate(k, float(mean), std_error, count)
