"""Per-hyperedge homophily scores and their hypergraph-level aggregate.

Each hyperedge's observed diversity is compared with the null-model baseline
for its size. The shortfall, normalized by the largest shortfall a fully pure
edge could achieve, gives a score of 1 for pure edges, 0 for edges consistent
with random mixing, and negative values for edges more diverse than chance.
The hypergraph-level index is the mean score over all scorable edges.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .diversity import bulk_diversity
from .exceptions import (
    DegenerateMixingError,
    EmptyAnalysisError,
    InsufficientPopulationError,
)
from .hypergraph import UNLABELED, Hypergraph, edge_sizes
from .nullmodel import BaselineEstimate, SamplerConfig, estimate_baseline

DEFAULT_EPSILON = 1e-9

EXCLUDED_SIZE_ONE = "size_1"
EXCLUDED_INSUFFICIENT = "insufficient_population"
EXCLUDED_DEGENERATE = "degenerate_baseline"


@dataclass(frozen=True)
class HomophilyRecord:
    """Score bundle for one hyperedge."""

    k: int
    observed: float
    baseline: float
    gap: float
    gap_max: float
    gap_min: float
    phi: float
    phi_min: float
    degenerate: bool
    edge_index: int = -1


@dataclass(frozen=True, eq=False)
class EdgeScores:
    """Per-hyperedge scores as read-only columns, one row per scored or
    degenerate hyperedge, sorted by ``edge_index``."""

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
    """Aggregates for the scored edges of one size."""

    k: int
    edge_count: int
    baseline_mean: float
    baseline_std_error: float
    phi_k: float
    mean_observed: float


@dataclass(frozen=True)
class CurveRow:
    """Observed vs. baseline diversity for one size (plot-ready)."""

    k: int
    mean_observed: float
    baseline_mean: float
    baseline_std_error: float
    edge_count: int


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
    per_k: tuple[PerKRow, ...]
    exclusions: tuple[Exclusion, ...]
    per_edge: EdgeScores | None = None


def _score(
    observed: np.ndarray, baseline: float, m_e: np.ndarray, epsilon: float
) -> dict[str, np.ndarray]:
    """Score the edges of one size against its baseline mean, as columns.

    When the baseline itself is within ``epsilon`` of 1 the null model is
    pure and offers no contrast; the edges are flagged degenerate and
    scored 0.
    """
    n = observed.shape
    gap = baseline - observed
    gap_max = baseline - 1.0
    gap_min = baseline - m_e
    degenerate = gap_max < epsilon
    if degenerate:
        phi, phi_min = np.zeros(n), np.zeros(n)
    else:
        phi, phi_min = gap / gap_max, gap_min / gap_max
    return {
        "observed": observed,
        "baseline": np.full(n, baseline),
        "gap": gap,
        "gap_max": np.full(n, gap_max),
        "gap_min": gap_min,
        "phi": phi,
        "phi_min": phi_min,
        "degenerate": np.full(n, degenerate),
    }


def _check_epsilon(epsilon: float) -> None:
    # a baseline of exactly 1 must count as degenerate, or its scores are 0/0
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


def score_edge(
    observed: float,
    baseline: BaselineEstimate,
    m_e: int,
    epsilon: float = DEFAULT_EPSILON,
) -> HomophilyRecord:
    """Score one hyperedge against its size's baseline (see :func:`_score`).
    ``epsilon`` must be positive, as in :func:`analyze`."""
    _check_epsilon(epsilon)
    if m_e < 1:
        raise ValueError("m_e must be >= 1")
    if observed < 1.0 - 1e-12 or observed > m_e + 1e-12:
        raise ValueError(
            f"observed diversity {observed} outside valid range [1, {m_e}]"
        )
    row = _score(np.array([float(observed)]), baseline.mean, np.array([m_e]), epsilon)
    return HomophilyRecord(
        k=baseline.k, **{name: col.item() for name, col in row.items()}
    )


@dataclass(frozen=True)
class _Bucket:
    """Everything computed for the edges of one size."""

    k: int
    edge_indices: np.ndarray
    observed: np.ndarray  # empty when the population was insufficient
    m_e: np.ndarray
    baseline: BaselineEstimate | None
    degenerate: bool


def _check_labeled(h: Hypergraph) -> None:
    sizes = h.sizes
    incident = h.edge_nodes[np.repeat(sizes >= 2, sizes)]
    if incident.size and h.attributes[incident].min() == UNLABELED:
        raise ValueError(
            "hyperedges of size >= 2 touch unlabeled nodes; "
            "re-ingest with drop_unlabeled=True or label every node"
        )


def _edge_labels(h: Hypergraph, k: int) -> np.ndarray:
    return h.attributes[h.edges_of_size(k)[1]]


def _compute_bucket(
    h: Hypergraph, k: int, cfg: SamplerConfig, epsilon: float
) -> _Bucket:
    edge_indices = h.edges_of_size(k)[0]
    try:
        baseline = estimate_baseline(h, k, cfg)
    except InsufficientPopulationError:
        return _Bucket(
            k=k,
            edge_indices=edge_indices,
            observed=np.empty(0),
            m_e=np.empty(0, dtype=np.int64),
            baseline=None,
            degenerate=False,
        )
    observed, m_e = bulk_diversity(_edge_labels(h, k), cfg.diversity_order)
    return _Bucket(
        k=k,
        edge_indices=edge_indices,
        observed=observed,
        m_e=m_e,
        baseline=baseline,
        degenerate=baseline.mean - 1.0 < epsilon,
    )


def _buckets(
    h: Hypergraph, cfg: SamplerConfig, epsilon: float, workers: int
) -> tuple[list[_Bucket], int]:
    """Per-size computations for all sizes >= 2, plus the size-1 edge count.

    Buckets are returned in ascending size order regardless of ``workers``;
    each bucket draws from its own seed-derived stream, so the worker count
    never affects any numeric result.
    """
    _check_epsilon(epsilon)
    if h.num_edges == 0:
        raise EmptyAnalysisError("hypergraph has no hyperedges")
    _check_labeled(h)
    counts = edge_sizes(h)  # builds the size index before any worker reads it
    size_one = counts.get(1, 0)
    ks = sorted(k for k in counts if k >= 2)
    if not ks:
        raise EmptyAnalysisError("no hyperedges of size >= 2")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            buckets = list(pool.map(lambda k: _compute_bucket(h, k, cfg, epsilon), ks))
    else:
        buckets = [_compute_bucket(h, k, cfg, epsilon) for k in ks]
    return buckets, size_one


def _report_from_buckets(
    h: Hypergraph,
    buckets: list[_Bucket],
    size_one: int,
    epsilon: float,
    emit_per_edge: bool,
) -> HomophilyReport:
    exclusions: list[Exclusion] = []
    if size_one:
        exclusions.append(Exclusion(EXCLUDED_SIZE_ONE, 1, size_one))
    per_k: list[PerKRow] = []
    phi_blocks: list[np.ndarray] = []
    edge_blocks: list[dict[str, np.ndarray]] = []

    for b in buckets:
        count = int(b.edge_indices.size)
        if b.baseline is None:
            exclusions.append(Exclusion(EXCLUDED_INSUFFICIENT, b.k, count))
            continue
        scores = _score(b.observed, b.baseline.mean, b.m_e, epsilon)
        if emit_per_edge:
            edge_blocks.append(
                {"edge_index": b.edge_indices, "k": np.full(count, b.k), **scores}
            )
        if b.degenerate:
            exclusions.append(Exclusion(EXCLUDED_DEGENERATE, b.k, count))
            continue
        phi_blocks.append(scores["phi"])
        per_k.append(
            PerKRow(
                k=b.k,
                edge_count=count,
                baseline_mean=b.baseline.mean,
                baseline_std_error=b.baseline.std_error,
                phi_k=float(np.mean(scores["phi"])),
                mean_observed=float(np.mean(b.observed)),
            )
        )

    if not phi_blocks:
        raise EmptyAnalysisError("no scorable hyperedges after exclusions")
    all_phis = np.concatenate(phi_blocks)
    scored = int(all_phis.size)
    global_phi = float(np.mean(all_phis))
    if scored > 1:
        phi_se = float(np.std(all_phis, ddof=1) / np.sqrt(scored))
    else:
        phi_se = 0.0

    per_edge = None
    if emit_per_edge:
        columns = {
            name: np.concatenate([block[name] for block in edge_blocks])
            for name in EDGE_COLUMNS
        }
        order = np.argsort(columns["edge_index"], kind="stable")
        per_edge = EdgeScores(**{name: col[order] for name, col in columns.items()})

    return HomophilyReport(
        global_phi=global_phi,
        global_phi_std_error=phi_se,
        edge_total=h.num_edges,
        edges_scored=scored,
        edges_excluded=h.num_edges - scored,
        per_k=tuple(per_k),
        exclusions=tuple(exclusions),
        per_edge=per_edge,
    )


def analyze(
    h: Hypergraph,
    cfg: SamplerConfig | None = None,
    epsilon: float = DEFAULT_EPSILON,
    emit_per_edge: bool = False,
    workers: int = 1,
) -> HomophilyReport:
    """Score every hyperedge of size >= 2 and aggregate.

    One baseline is estimated per size present. Size-1 edges, edges of sizes
    whose eligible population is smaller than the size, and edges whose
    baseline is itself pure (degenerate) are excluded from the averages and
    reported with reasons. The global index averages the per-edge scores over
    the scored edges. ``epsilon`` must be positive.
    """
    cfg = cfg or SamplerConfig()
    buckets, size_one = _buckets(h, cfg, epsilon, workers)
    return _report_from_buckets(h, buckets, size_one, epsilon, emit_per_edge)


def _curve_from_buckets(
    h: Hypergraph, order: float, buckets: list[_Bucket]
) -> tuple[CurveRow, ...]:
    rows = []
    for b in buckets:
        if b.observed.size:
            mean_obs = float(np.mean(b.observed))
        else:  # population was insufficient; observed still well-defined
            mean_obs = float(np.mean(bulk_diversity(_edge_labels(h, b.k), order)[0]))
        rows.append(
            CurveRow(
                k=b.k,
                mean_observed=mean_obs,
                baseline_mean=b.baseline.mean if b.baseline else float("nan"),
                baseline_std_error=b.baseline.std_error if b.baseline else float("nan"),
                edge_count=int(b.edge_indices.size),
            )
        )
    return tuple(rows)


def perplexity_curve(
    h: Hypergraph,
    cfg: SamplerConfig | None = None,
    epsilon: float = DEFAULT_EPSILON,
    workers: int = 1,
) -> tuple[CurveRow, ...]:
    """Mean observed diversity next to the baseline, per hyperedge size.

    Rows cover every size >= 2 present. Sizes whose population cannot support
    a baseline keep their observed mean and get NaN baseline columns.
    ``epsilon`` must be positive, as in :func:`analyze`.
    """
    cfg = cfg or SamplerConfig()
    buckets, _ = _buckets(h, cfg, epsilon, workers)
    return _curve_from_buckets(h, cfg.diversity_order, buckets)


def newman_assortativity(h: Hypergraph) -> float:
    """Categorical assortativity of the size-2 edges.

    Builds the attribute mixing matrix with each pair counted once per
    orientation and returns (trace - sum a_i b_i) / (1 - sum a_i b_i).
    """
    labels = _edge_labels(h, 2)
    if not labels.size:
        raise EmptyAnalysisError("no size-2 hyperedges")
    if labels.min() == UNLABELED:
        raise ValueError("size-2 hyperedges touch unlabeled nodes")
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
