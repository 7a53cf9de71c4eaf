"""Homophily measurement for attributed hypergraphs.

Quantifies how much less (or more) diverse group interactions are than a
degree-preserving random baseline, per hyperedge and aggregated over the
hypergraph, with a block-model generator for validation sweeps.
"""

__version__ = "0.1.0"

from .diversity import (
    bulk_diversity,
    composition,
    hill_number,
    perplexity,
)
from .exceptions import (
    DegenerateMixingError,
    EmptyAnalysisError,
    InsufficientPopulationError,
    NodeRangeError,
    ParseError,
)
from .homophily import (
    EdgeScores,
    Exclusion,
    HomophilyReport,
    PerKRow,
    analyze,
    newman_assortativity,
)
from .hsbm import (
    GridPoint,
    HsbmConfig,
    generate_hsbm,
    sweep_phi_vs_k,
)
from .hypergraph import (
    UNLABELED,
    Hypergraph,
    IngestOptions,
    IngestStats,
    KDegreeIndex,
    k_degrees,
    load_hypergraph,
    write_hypergraph,
)
from .nullmodel import (
    BaselineEstimate,
    SamplerConfig,
    derive_seed,
    estimate_baseline,
)

__all__ = [
    "__version__",
    "UNLABELED",
    "Hypergraph",
    "IngestOptions",
    "IngestStats",
    "KDegreeIndex",
    "load_hypergraph",
    "write_hypergraph",
    "k_degrees",
    "composition",
    "perplexity",
    "hill_number",
    "bulk_diversity",
    "SamplerConfig",
    "BaselineEstimate",
    "estimate_baseline",
    "derive_seed",
    "EdgeScores",
    "HomophilyReport",
    "PerKRow",
    "Exclusion",
    "analyze",
    "newman_assortativity",
    "HsbmConfig",
    "generate_hsbm",
    "sweep_phi_vs_k",
    "GridPoint",
    "ParseError",
    "NodeRangeError",
    "InsufficientPopulationError",
    "EmptyAnalysisError",
    "DegenerateMixingError",
]
