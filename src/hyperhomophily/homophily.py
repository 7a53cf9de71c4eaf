"""Per-hyperedge homophily scores and their hypergraph-level aggregate.

Each hyperedge's observed diversity is compared with the null-model baseline
for its size. The shortfall, normalized by the largest shortfall a fully pure
edge could achieve, gives a score of 1 for pure edges, 0 for edges consistent
with random mixing, and negative values for edges more diverse than chance.
The hypergraph-level index is the mean score over all scorable edges.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .diversity import bulk_diversity
from .exceptions import DegenerateMixingError, EmptyAnalysisError
from .hypergraph import Hypergraph
from .nullmodel import SamplerConfig, estimate_baseline

# a one-label null population gives a baseline of exactly 1.0 (the size-2
# closed form and the Monte Carlo merge both do): a guard, not a setting
_EPSILON = 1e-9

EXCLUDED_SIZE_ONE = "size_1"
EXCLUDED_DEGENERATE = "degenerate_baseline"


@dataclass(frozen=True, eq=False)
class EdgeScores:
    """Per-hyperedge scores as read-only columns, one row per scored or
    degenerate hyperedge, sorted by ``edge_index``. An edge index is a
    position in the hypergraph's edge list, so a negative one is rejected."""

    edge_index: np.ndarray
    k: np.ndarray
    observed: np.ndarray
    baseline: np.ndarray
    gap: np.ndarray
    gap_max: np.ndarray
    gap_min: np.ndarray
    phi: np.ndarray
    phi_min: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self):
        if self.edge_index.size and self.edge_index.min() < 0:
            raise ValueError("edge_index must be >= 0")
        for name in EDGE_COLUMNS:
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return int(self.edge_index.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeScores):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in EDGE_COLUMNS
        )


EDGE_COLUMNS = tuple(f.name for f in fields(EdgeScores))


@dataclass(frozen=True)
class PerKRow:
    """Aggregates for the edges of one size (a degenerate size's phi_k is 0)."""

    k: int
    edge_count: int
    baseline_mean: float
    baseline_std_error: float
    phi_k: float
    mean_observed: float


@dataclass(frozen=True)
class Exclusion:
    reason: str
    k: int
    count: int


@dataclass(frozen=True)
class HomophilyReport:
    global_phi: float
    global_phi_std_error: float
    edge_total: int
    edges_scored: int
    edges_excluded: int
    per_k: tuple[PerKRow, ...]  # the curve's rows of the scored sizes
    exclusions: tuple[Exclusion, ...]
    curve: tuple[PerKRow, ...]  # every size >= 2, ascending, degenerate ones too
    per_edge: EdgeScores | None = None


def _score(observed: np.ndarray, baseline: np.ndarray, m_e: np.ndarray) -> dict[str, np.ndarray]:
    """Score edges of any sizes against their sizes' baseline means, as columns.

    An edge whose baseline is within ``_EPSILON`` of 1 has a pure null model,
    which offers no contrast; it is flagged degenerate and scored 0, and its
    scores are never divided.
    """
    gap = baseline - observed
    gap_max = baseline - 1.0
    gap_min = baseline - m_e
    degenerate = gap_max < _EPSILON
    scored = ~degenerate
    return {
        "observed": observed,
        "baseline": baseline,
        "gap": gap,
        "gap_max": gap_max,
        "gap_min": gap_min,
        "phi": np.divide(gap, gap_max, out=np.zeros_like(gap), where=scored),
        "phi_min": np.divide(gap_min, gap_max, out=np.zeros_like(gap), where=scored),
        "degenerate": degenerate,
    }


def _edge_labels(h: Hypergraph, k: int) -> np.ndarray:
    return h.attributes[h.edges_of_size(k)[1]]


def analyze(
    h: Hypergraph,
    cfg: SamplerConfig | None = None,
    emit_per_edge: bool = False,
    workers: int = 1,
) -> HomophilyReport:
    """Score every hyperedge of size >= 2 and aggregate.

    One baseline is estimated per size present, each from its own
    seed-derived stream, so sizes are independent and run one after another.
    The observed diversities of all scored sizes' edges are concatenated in
    ascending size order and scored in one pass. Size-1 edges and edges whose
    baseline is itself pure (degenerate) are excluded from the averages and
    reported with reasons. The global index averages the per-edge scores over
    the scored edges; fewer than two raise ``EmptyAnalysisError``, as one
    score has no standard error. The report's ``curve`` has one row per size
    >= 2, degenerate sizes included, and ``per_k`` holds the rows of the
    scored sizes.

    ``workers`` is ignored; it is kept only because ``perfbench/traced.py``
    calls ``analyze(..., workers=2)``.
    """
    cfg = cfg or SamplerConfig()
    if h.num_edges == 0:
        raise EmptyAnalysisError("hypergraph has no hyperedges")
    histogram = np.bincount(h.sizes)  # every edge holds a node, so histogram[1] exists
    sizes = (np.flatnonzero(histogram[2:]) + 2).tolist()  # the sizes >= 2, ascending
    if not sizes:
        raise EmptyAnalysisError("no hyperedges of size >= 2")
    counts = histogram[sizes]
    # a size-k edge holds k distinct nodes of positive k-degree, so every
    # size present has the population its baseline needs
    baselines = [estimate_baseline(h, k, cfg) for k in sizes]
    edge_index = np.concatenate([h.edges_of_size(k)[0] for k in sizes])
    per_size = [bulk_diversity(_edge_labels(h, k), cfg.diversity_order) for k in sizes]
    observed, m_e = (np.concatenate(col) for col in zip(*per_size))

    scores = _score(observed, np.repeat([b.mean for b in baselines], counts), m_e)
    phi, degenerate = scores["phi"], scores["degenerate"]
    starts = np.cumsum(counts) - counts  # each size's edges are one slice
    curve = tuple(
        PerKRow(
            k=b.k,
            edge_count=count,
            baseline_mean=b.mean,
            baseline_std_error=b.std_error,
            phi_k=float(np.mean(phi[start : start + count])),
            mean_observed=float(np.mean(observed[start : start + count])),
        )
        for b, start, count in zip(baselines, starts.tolist(), counts.tolist())
    )
    # a size's edges share its baseline: its first edge's flag is the size's
    flags = degenerate[starts].tolist()
    exclusions = [Exclusion(EXCLUDED_SIZE_ONE, 1, int(histogram[1]))] if histogram[1] else []
    exclusions += [
        Exclusion(EXCLUDED_DEGENERATE, row.k, row.edge_count)
        for row, flag in zip(curve, flags) if flag
    ]

    all_phis = phi[~degenerate]
    scored = int(all_phis.size)
    if scored < 2:  # a standard error needs two scores
        raise EmptyAnalysisError(f"need 2 scorable hyperedges after exclusions, found {scored}")
    global_phi = float(np.mean(all_phis))
    phi_se = float(np.std(all_phis, ddof=1) / np.sqrt(scored))

    per_edge = None
    if emit_per_edge:
        columns = {"edge_index": edge_index, "k": np.repeat(sizes, counts), **scores}
        order = np.argsort(edge_index, kind="stable")
        per_edge = EdgeScores(**{name: col[order] for name, col in columns.items()})

    return HomophilyReport(
        global_phi=global_phi,
        global_phi_std_error=phi_se,
        edge_total=h.num_edges,
        edges_scored=scored,
        edges_excluded=h.num_edges - scored,
        per_k=tuple(row for row, flag in zip(curve, flags) if not flag),
        exclusions=tuple(exclusions),
        curve=curve,
        per_edge=per_edge,
    )


def newman_assortativity(h: Hypergraph) -> float:
    """Categorical assortativity of the size-2 edges.

    Builds the attribute mixing matrix with each pair counted once per
    orientation and returns (trace - sum a_i b_i) / (1 - sum a_i b_i).
    """
    labels = _edge_labels(h, 2)
    if not labels.size:
        raise EmptyAnalysisError("no size-2 hyperedges")
    m = h.num_attributes
    mixing = np.zeros((m, m), dtype=np.float64)
    np.add.at(mixing, (labels[:, 0], labels[:, 1]), 1.0)
    np.add.at(mixing, (labels[:, 1], labels[:, 0]), 1.0)
    mixing /= mixing.sum()
    a = mixing.sum(axis=1)
    b = mixing.sum(axis=0)
    ab = float(a @ b)
    denominator = 1.0 - ab
    if abs(denominator) < 1e-15:
        raise DegenerateMixingError(
            "mixing matrix is concentrated on a single attribute"
        )
    return float((np.trace(mixing) - ab) / denominator)
