"""Market states from rolling correlation structure.

The pipeline: daily prices -> log returns -> rolling-epoch Pearson
correlation matrices -> optional power-map noise suppression -> optional
sector coarse graining -> seeded k-means states -> transition dynamics
and low-dimensional views.

Each public name below is imported from its home module on first use,
so the numpy-only modules (ingest, synth, markov, corrmat) load without
scipy, which only clustering and mds need.
"""

import importlib

__version__ = "0.1.0"

# public name -> home module
_EXPORTS = {
    "Clustering": "clustering",
    "GridCell": "clustering",
    "GridResult": "clustering",
    "SigmaIntraResult": "clustering",
    "kmeans": "clustering",
    "optimize_states": "clustering",
    "order_states": "clustering",
    "partition_d_intra": "clustering",
    "sigma_intra": "clustering",
    "CorrMatrix": "corrmat",
    "EpochSpec": "corrmat",
    "GuhrMatrix": "corrmat",
    "MatrixStack": "corrmat",
    "average_correlation": "corrmat",
    "coarse_grain": "corrmat",
    "epoch_correlation": "corrmat",
    "pipeline_matrices": "corrmat",
    "power_map": "corrmat",
    "rolling_correlations": "corrmat",
    "ComputationError": "errors",
    "DegenerateColumn": "errors",
    "DegradedRankWarning": "errors",
    "DimensionMismatch": "errors",
    "InsufficientData": "errors",
    "InsufficientSequence": "errors",
    "InvalidRegime": "errors",
    "MarketStatesError": "errors",
    "NonErgodic": "errors",
    "ParameterRange": "errors",
    "ParseError": "errors",
    "SingletonSectorWarning": "errors",
    "TieWarning": "errors",
    "UnmappedTicker": "errors",
    "ValidationError": "errors",
    "PriceTable": "ingest",
    "ReturnTable": "ingest",
    "SectorMap": "ingest",
    "filter_stocks": "ingest",
    "load_price_table": "ingest",
    "load_sector_map": "ingest",
    "log_returns": "ingest",
    "parse_price_table": "ingest",
    "parse_sector_map": "ingest",
    "BootstrapPolicy": "markov",
    "EquilibriumVector": "markov",
    "MarkovianityReport": "markov",
    "StateSequence": "markov",
    "TransitionMatrix": "markov",
    "equilibrium_distribution": "markov",
    "markovianity_check": "markov",
    "transition_matrix": "markov",
    "tridiagonality": "markov",
    "DistanceMatrix": "mds",
    "Embedding": "mds",
    "classical_mds": "mds",
    "distance_matrix": "mds",
    "embedding_svg": "mds",
    "embedding_table": "mds",
    "matrix_distance": "mds",
    "RegimeSpec": "synth",
    "generate_block_market": "synth",
    "generate_markov_sequence": "synth",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
