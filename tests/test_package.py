"""The package namespace: its export table and what importing it loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import marketstates
from marketstates import clustering, markov

# the 62 names of the package namespace: the 61 listed before the export
# table, and partition_d_intra
PUBLIC_NAMES = {
    "BootstrapPolicy", "Clustering", "ComputationError", "CorrMatrix",
    "DegenerateColumn", "DegradedRankWarning", "DimensionMismatch",
    "DistanceMatrix", "Embedding", "EpochSpec", "EquilibriumVector",
    "GridCell", "GridResult", "GuhrMatrix", "InsufficientData",
    "InsufficientSequence", "InvalidRegime", "MarketStatesError",
    "MarkovianityReport", "MatrixStack", "NonErgodic", "ParameterRange",
    "ParseError", "PriceTable", "RegimeSpec", "ReturnTable", "SectorMap",
    "SigmaIntraResult", "SingletonSectorWarning", "StateSequence",
    "TieWarning", "TransitionMatrix", "UnmappedTicker", "ValidationError",
    "average_correlation", "classical_mds", "coarse_grain",
    "distance_matrix", "embedding_svg", "embedding_table",
    "epoch_correlation", "equilibrium_distribution", "filter_stocks",
    "generate_block_market", "generate_markov_sequence", "kmeans",
    "load_price_table", "load_sector_map", "log_returns",
    "markovianity_check", "matrix_distance", "optimize_states",
    "order_states", "parse_price_table", "partition_d_intra", "parse_sector_map",
    "pipeline_matrices", "power_map", "rolling_correlations", "sigma_intra",
    "transition_matrix", "tridiagonality",
}


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 62
    assert set(marketstates.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(marketstates))


def test_each_name_is_the_object_its_home_module_defines():
    for name in sorted(PUBLIC_NAMES):
        obj = getattr(marketstates, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("marketstates."), name
        assert getattr(home, name) is obj, name


def test_state_sequence_is_one_class():
    assert marketstates.StateSequence is markov.StateSequence
    assert clustering.StateSequence is markov.StateSequence
    assert markov.StateSequence.__module__ == "marketstates.markov"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        marketstates.no_such_name  # noqa: B018


def test_data_layer_imports_without_scipy():
    src = Path(marketstates.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import marketstates.ingest, marketstates.synth, "
        "marketstates.markov, marketstates.corrmat\n"
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
