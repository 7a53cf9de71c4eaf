"""The package's public names."""

import hyperhomophily


def test_all_is_pinned():
    # adding or removing a public name is an API change: make it here too
    assert hyperhomophily.__all__ == [
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


def test_every_public_name_resolves():
    for name in hyperhomophily.__all__:
        assert getattr(hyperhomophily, name) is not None
