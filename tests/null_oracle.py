"""Test-only references for the null model.

``exact_baseline`` is the brute-force conditional Poisson (CPS) baseline: the
law that gives each k-set S of positive-degree nodes a probability in
proportion to prod_{i in S} r_i, with the odds r fitted by iterative scaling
so that node i is in the set with probability d_i / E_k, enumerated over every
k-set. ``hyperhomophily.nullmodel`` is compared against it on small
instances, and on ``heavy_tailed_null`` graphs, whose true phi is 0.
``weighted_k_sets`` draws the test graphs whose edges follow given node
weights: sequential weighted draws, slot by slot, which at equal weights are
the block model's uniform draws.
"""

import itertools
from collections import Counter

import numpy as np

from hyperhomophily import Hypergraph, hill_number, k_degrees

FIT_TOLERANCE = 1e-14  # largest |pi - d / E_k| of the fitted enumeration
FIT_ROUNDS = 200_000


def weighted_k_sets(weights, k, count, rng):
    """``count`` k-sets of the indices of ``weights``, one sorted row each.

    Slot by slot, each row takes the first node whose normalized cumulative
    weight exceeds a fresh uniform, and a row whose node repeats an earlier
    slot's redraws it until none does; one RNG call per slot and per round
    of redraws. Fewer than k positive weights are refused, since no row could
    then be completed.
    """
    weights = np.asarray(weights, dtype=np.float64)
    pos = np.flatnonzero(weights > 0)
    if pos.size < k:
        raise ValueError(f"need {k} positive-weight nodes, found {pos.size}")
    cdf = np.cumsum(weights[pos])
    cdf /= cdf[-1]  # exactly 1 at the end, so every u in [0, 1) lands
    sets = np.empty((k, count), dtype=np.int64)  # slot-major: sets[j] is slot j
    for j in range(k):
        sets[j] = cdf.searchsorted(rng.random(count), "right")
        redo = (sets[:j] == sets[j]).any(axis=0).nonzero()[0]
        while redo.size:
            col = cdf.searchsorted(rng.random(redo.size), "right")
            sets[j, redo] = col
            redo = redo[(sets[:j, redo] == col).any(axis=0)]
    return np.sort(pos[sets.T], axis=1)


def _expected_hill(attrs, law, order_q):
    """Expected Hill number of order ``order_q`` over ``law``, pairs of a
    k-set and its probability: each distinct label multiset's attribute
    counts go to ``hill_number`` once."""
    by_labels = {}
    for nodes, prob in law:
        labels = tuple(sorted(int(attrs[node]) for node in nodes))
        by_labels[labels] = by_labels.get(labels, 0.0) + prob
    # a Counter of sorted labels gives the counts in ascending attribute order
    return sum(p * hill_number(list(Counter(ls).values()), order_q) for ls, p in by_labels.items())


def cps_law(degrees, k):
    """Every k-set of the CPS null with these k-degrees, with its probability.

    A node of degree E_k (the number of size-k edges, sum(degrees) / k) is in
    every set, so only the sets that hold all such nodes are enumerated; over
    them the odds of the other nodes are scaled by target / inclusion until
    every inclusion probability is within ``FIT_TOLERANCE`` of d / E_k.
    """
    degrees = [int(d) for d in degrees]
    edges = sum(degrees) // k
    certain = [i for i, d in enumerate(degrees) if d == edges]
    free = [i for i, d in enumerate(degrees) if 0 < d < edges]
    subsets = list(itertools.combinations(range(len(free)), k - len(certain)))
    member = np.zeros((len(subsets), len(free)))
    for row, subset in enumerate(subsets):
        member[row, list(subset)] = 1.0
    target = np.array([degrees[i] / edges for i in free])
    log_odds = np.zeros(len(free))
    for _ in range(FIT_ROUNDS):
        log_weight = member @ log_odds
        prob = np.exp(log_weight - log_weight.max())
        prob /= prob.sum()
        inclusion = prob @ member
        if not free or np.abs(inclusion - target).max() <= FIT_TOLERANCE:
            break
        log_odds += np.log(target / inclusion)
    else:
        raise AssertionError("the oracle's iterative scaling did not converge")
    sets = [tuple(certain) + tuple(free[j] for j in subset) for subset in subsets]
    return list(zip(sets, prob.tolist()))


def exact_baseline(h, k, order=1.0):
    """The exact counterpart of ``estimate_baseline``: the expected diversity
    of order ``order`` of a size-k group of the CPS null."""
    index = k_degrees(h, k)
    return _expected_hill(h.attributes, cps_law(index.degrees, index.k), order)


def heavy_tailed_null(shape, seed, nodes=5_000, labels=10, edges=20_000, k=3):
    """A hypergraph with no homophily and degree-correlated labels: node
    activity is Pareto(``shape``) + 1, a node's label is its activity decile,
    and each size-k edge is drawn by ``weighted_k_sets`` with the activity as
    weights, so labels mix at random given the degrees (true phi 0)."""
    rng = np.random.default_rng(seed)
    activity = rng.pareto(shape, nodes) + 1.0
    label = np.empty(nodes, dtype=np.int64)
    label[np.argsort(activity, kind="stable")] = np.arange(nodes) * labels // nodes
    return Hypergraph(label, weighted_k_sets(activity, k, edges, rng))
