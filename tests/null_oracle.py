"""Test-only reference for the null model: the exact law of a k-set drawn by
successive weighted sampling (Hajek 1981), enumerated over every ordering of
the nodes. The estimator in ``hyperhomophily.nullmodel`` is compared against
it on small instances. ``weighted_k_sets`` draws sets from the sampler for
the tests that check the draws themselves."""

import itertools
from collections import Counter

import numpy as np

from hyperhomophily import hill_number
from hyperhomophily.nullmodel import _draw_batches, _size_weights


def weighted_k_sets(weights, k, count, rng):
    """``count`` sampled k-sets of the indices of ``weights``, one sorted row
    each: the null model's batches, drawn with ``weights`` as floats."""
    batches = _draw_batches(np.asarray(weights, dtype=np.float64), k, count, rng)
    return np.sort(np.concatenate(list(batches)), axis=1)


def sequential_set_probability(weights, target):
    """Sum the sequential draw probabilities over every ordering of the
    target set."""
    total = 0.0
    for order in itertools.permutations(target):
        prob = 1.0
        remaining = float(sum(weights))
        for node in order:
            prob *= weights[node] / remaining
            remaining -= weights[node]
        total += prob
    return total


def sequential_expected_diversity(attrs, weights, k, order_q=1.0):
    """Expected Hill number of order ``order_q`` of a sequentially weighted
    k-set: each ordered k-tuple of positive-weight nodes adds its probability
    to its sorted labels, and each distinct label multiset's attribute counts
    go to ``hill_number`` once."""
    weights, attrs = [float(w) for w in weights], [int(a) for a in attrs]
    idx = [i for i, w in enumerate(weights) if w > 0]
    total = sum(weights[i] for i in idx)
    law = {}
    for perm in itertools.permutations(idx, k):
        prob, remaining = 1.0, total
        for node in perm:
            prob *= weights[node] / remaining
            remaining -= weights[node]
        labels = tuple(sorted(attrs[node] for node in perm))
        law[labels] = law.get(labels, 0.0) + prob
    # a Counter of sorted labels gives the counts in ascending attribute order
    return sum(p * hill_number(list(Counter(ls).values()), order_q) for ls, p in law.items())


def exact_baseline(h, k, order=1.0):
    """The exact counterpart of ``estimate_baseline``, under its own weights."""
    k, w = _size_weights(h, k)
    return sequential_expected_diversity(h.attributes, w, k, order)
