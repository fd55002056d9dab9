"""The package namespace: its export table and what importing it loads."""

import ast
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


# the module layers README states, each importing only from earlier ones;
# the package's __init__ (a lazy export table) and __main__ stand outside
LAYERS = (
    {"errors"},
    {"rng", "packed"},
    {"ingest"},
    {"corrmat", "markov"},
    {"synth"},
    {"clustering"},
    {"mds"},
    {"cli"},
)


def _relative_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules a file imports: ``from .m import x`` and
    ``from . import m``; ``from . import name`` of the package itself is
    not a module of a layer."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names} & modules
    return found


def test_each_module_imports_only_from_earlier_layers():
    home = Path(marketstates.__file__).parent
    modules = {p.stem for p in home.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set().union(*LAYERS)
    for i, layer in enumerate(LAYERS):
        earlier = set().union(*LAYERS[:i])
        for name in sorted(layer):
            imported = _relative_imports(home / f"{name}.py", modules)
            assert imported <= earlier, f"{name} imports {sorted(imported - earlier)}"
