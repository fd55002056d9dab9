"""End-to-end checks of the command line front end.

Every test drives ``main(argv)`` in process so exit codes and stderr are
observable; one test runs ``python -m marketstates`` for the wiring.
A small two-regime synthetic market generated by the ``synth`` command
feeds the data commands.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import weakref
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketstates import cli
from marketstates.cli import build_parser, main, merge_config
from marketstates.errors import ComputationError, InsufficientData, ParameterRange
from marketstates.ingest import load_price_table

# two regimes of 120 return days each: 241 price rows, 15 tickers,
# M = 240 - 20 + 1 = 221 epochs, majority truth flips at epoch 110
SYNTH_ARGS = [
    "synth",
    "--sector-sizes", "5,5,5",
    "--intra", "0.2,0.8",
    "--inter", "0.05,0.1",
    "--durations", "120,120",
    "--seed", "3",
]
N_EPOCHS = 221
FLIP_EPOCH = 110


def _run(argv):
    return main([str(a) for a in argv])


def _read_states(out_dir):
    lines = (out_dir / "states.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch_end,state"
    ends, states = [], []
    for line in lines[1:]:
        end, state = line.split(",")
        ends.append(date.fromisoformat(end))
        states.append(int(state))
    return ends, states


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    d = tmp_path_factory.mktemp("market")
    assert _run(SYNTH_ARGS + ["--out", d]) == 0
    return d


@pytest.fixture(scope="module")
def states_out(tmp_path_factory, market):
    d = tmp_path_factory.mktemp("states")
    rc = _run([
        "states", "--prices", market / "prices.csv", "--out", d,
        "--k", 2, "--n-init", 4, "--seed", 0, "--threads", 2,
    ])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def trans_out(tmp_path_factory, market):
    d = tmp_path_factory.mktemp("trans")
    rc = _run([
        "transitions", "--prices", market / "prices.csv", "--out", d,
        "--k", 2, "--n-init", 4, "--seed", 0, "--threads", 2,
    ])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def mds_out(tmp_path_factory, market):
    d = tmp_path_factory.mktemp("mds")
    rc = _run([
        "mds", "--prices", market / "prices.csv", "--out", d,
        "--k", 2, "--n-init", 4, "--seed", 0, "--threads", 2,
    ])
    assert rc == 0
    return d


# ---------------------------------------------------------------- synth

def test_synth_artifacts(market):
    for name in ("prices.csv", "regime_truth.csv", "sectors.csv", "run_meta.json"):
        assert (market / name).is_file()


def test_synth_prices_load(market):
    table = load_price_table(str(market / "prices.csv"))
    assert len(table.dates) == 241
    assert len(table.tickers) == 15
    assert np.all(table.prices[0] == 100.0)


def test_synth_truth_and_sectors(market):
    truth = (market / "regime_truth.csv").read_text().strip().splitlines()
    assert truth[0] == "date,regime"
    assert len(truth) == 1 + 241
    regimes = {int(line.split(",")[1]) for line in truth[1:]}
    assert regimes == {1, 2}

    sectors = (market / "sectors.csv").read_text().strip().splitlines()
    assert sectors[0] == "ticker,sector"
    assert len(sectors) == 1 + 15
    names = [line.split(",")[1] for line in sectors[1:]]
    assert sorted(set(names)) == ["SEC00", "SEC01", "SEC02"]
    assert all(names.count(s) == 5 for s in set(names))


def test_synth_deterministic_per_seed(market, tmp_path):
    """Same seed reproduces prices byte for byte; another seed does not."""
    again = tmp_path / "again"
    other = tmp_path / "other"
    assert _run(SYNTH_ARGS + ["--out", again]) == 0
    assert _run(SYNTH_ARGS[:-1] + ["4", "--out", other]) == 0
    reference = (market / "prices.csv").read_bytes()
    assert (again / "prices.csv").read_bytes() == reference
    assert (other / "prices.csv").read_bytes() != reference


def test_console_script(tmp_path):
    """The console script's wiring without an install: pyproject.toml
    names an importable, callable entry point, and ``python -m
    marketstates`` runs it from the source tree."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["marketstates"]
    assert target == "marketstates.cli:entry_point"
    module_name, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    out = tmp_path / "cli"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "marketstates", "synth", "--out", str(out),
         "--sector-sizes", "3,3", "--intra", "0.2,0.7",
         "--inter", "0.05,0.1", "--durations", "40,40"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "prices.csv").is_file()


# --------------------------------------------------------------- states

def test_states_csv_shape(states_out):
    ends, states = _read_states(states_out)
    assert len(states) == N_EPOCHS
    assert set(states) <= {1, 2}
    assert all(a < b for a, b in zip(ends, ends[1:]))


def test_states_track_planted_regimes(states_out):
    """Calm regime maps to state 1, correlated to state 2; the switch
    happens within one epoch length of the planted boundary."""
    _, states = _read_states(states_out)
    assert states[: FLIP_EPOCH - 20] == [1] * (FLIP_EPOCH - 20)
    assert states[FLIP_EPOCH + 20:] == [2] * (N_EPOCHS - FLIP_EPOCH - 20)


def test_states_summary(states_out):
    summary = json.loads((states_out / "states_summary.json").read_text())
    assert summary["k"] == 2
    assert summary["epsilon"] == 0.0
    assert summary["epochs"] == N_EPOCHS
    means = summary["state_mean_correlations"]
    assert len(means) == 2 and means[0] < means[1]
    assert sum(summary["state_counts"].values()) == N_EPOCHS
    assert summary["sigma_intra"] >= 0.0
    assert isinstance(summary["converged"], bool)


def test_states_k1_all_one(market, tmp_path):
    rc = _run([
        "states", "--prices", market / "prices.csv", "--out", tmp_path,
        "--k", 1, "--n-init", 2, "--seed", 0,
    ])
    assert rc == 0
    _, states = _read_states(tmp_path)
    assert states == [1] * N_EPOCHS


def test_run_meta(states_out, market):
    meta = json.loads((states_out / "run_meta.json").read_text())
    assert meta["command"] == "states"
    assert isinstance(meta["version"], str) and meta["version"]
    assert meta["config"]["k"] == 2
    assert meta["config"]["epsilon"] == 0.0
    assert meta["wall_time_s"] >= 0.0
    digest = hashlib.sha256((market / "prices.csv").read_bytes()).hexdigest()
    assert meta["input_hashes"]["prices"] == digest


# ------------------------------------------------------------- optimize

def test_optimize_grid_artifacts(market, tmp_path):
    rc = _run([
        "optimize", "--prices", market / "prices.csv", "--out", tmp_path,
        "--epsilon-grid", "0.0,0.5", "--k-range", "2,3", "--k-min", 2,
        "--n-init", 4, "--seed", 0, "--threads", 2,
    ])
    assert rc == 0
    lines = (tmp_path / "sigma_grid.csv").read_text().strip().splitlines()
    assert lines[0] == "k,epsilon,sigma_intra,mean_d_intra"
    assert len(lines) == 1 + 4

    summary = json.loads((tmp_path / "sigma_summary.json").read_text())
    assert summary["chosen_k"] in (2, 3)
    assert summary["chosen_epsilon"] in (0.0, 0.5)
    assert summary["sigma_intra"] >= 0.0
    assert summary["cell_errors"] == {}


def test_optimize_summary_holds_the_options_and_the_cell_errors(market, tmp_path):
    """sigma_summary.json takes k_min, n_init and seed from the options,
    the chosen cell's values from the grid, and one entry per failed cell."""
    rc = _run([
        "optimize", "--prices", market / "prices.csv", "--out", tmp_path,
        "--epsilon-grid", "0", "--k-range", f"2,{N_EPOCHS + 1}", "--k-min", 2,
        "--n-init", 3, "--seed", 5,
    ])
    assert rc == 0
    rows = (tmp_path / "sigma_grid.csv").read_text().splitlines()
    assert rows[2] == f"{N_EPOCHS + 1},0,nan,nan"
    _, _, sigma, mean = rows[1].split(",")
    assert json.loads((tmp_path / "sigma_summary.json").read_text()) == {
        "chosen_k": 2,
        "chosen_epsilon": 0.0,
        "sigma_intra": float(sigma),
        "mean_d_intra": float(mean),
        "k_min_admissible": 2,
        "n_init": 3,
        "seed": 5,
        "cell_errors": {
            f"k={N_EPOCHS + 1},epsilon=0.0":
                f"InsufficientData: k={N_EPOCHS + 1} exceeds {N_EPOCHS} matrices",
        },
    }


def test_optimize_threads_do_not_change_artifacts(market, tmp_path):
    """Restart parallelism is an implementation detail; artifacts match
    byte for byte across thread counts, at stock and at sector level."""
    guhr = ["--pipeline", "guhr", "--sectors", market / "sectors.csv"]
    for name, pipeline in (("pearson", []), ("guhr", guhr)):
        outs = []
        for threads in (1, 3):
            d = tmp_path / f"{name}-t{threads}"
            rc = _run([
                "optimize", "--prices", market / "prices.csv", "--out", d, *pipeline,
                "--epsilon-grid", "0.0,0.5", "--k-range", "2,3", "--k-min", 2,
                "--n-init", 5, "--seed", 0, "--threads", threads,
            ])
            assert rc == 0
            outs.append([(d / f).read_bytes()
                         for f in ("sigma_grid.csv", "sigma_summary.json")])
        assert outs[0] == outs[1]


def test_grid_syntax_colon_equals_comma():
    parser = build_parser()
    base = ["optimize", "--prices", "p", "--out", "o", "--k-min", "2"]
    a = merge_config("optimize", parser.parse_args(
        base + ["--epsilon-grid", "0:0.5:0.25", "--k-range", "2:4"]))
    b = merge_config("optimize", parser.parse_args(
        base + ["--epsilon-grid", "0.0,0.25,0.5", "--k-range", "2,3,4"]))
    assert a.epsilon_grid == b.epsilon_grid == [0.0, 0.25, 0.5]
    assert a.k_range == b.k_range == [2, 3, 4]
    # grid values come out clean, no accumulated float dust
    c = merge_config("optimize", parser.parse_args(
        base + ["--epsilon-grid", "0:1:0.1", "--k-range", "2:3"]))
    assert 0.3 in c.epsilon_grid and len(c.epsilon_grid) == 11


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-1e3, 1e3),
    step=st.floats(1e-3, 1e2),
    span=st.floats(0.0, 199.0),
)
def test_float_range_equals_its_comma_form(lo, step, span):
    """At most about 200 values: each rounded to 12 decimals, none above
    hi, and the comma list of them parses back to the same list."""
    hi = lo + span * step
    vals = cli._float_list(f"{lo!r}:{hi!r}:{step!r}")
    assert cli._float_list(",".join(map(repr, vals))) == vals
    assert all(v == round(v, 12) and v <= hi + 1e-9 for v in vals)


@settings(max_examples=200, deadline=None)
@given(lo=st.integers(-10**6, 10**6), span=st.integers(0, 199))
def test_int_range_equals_its_comma_form(lo, span):
    hi = lo + span
    vals = cli._int_list(f"{lo}:{hi}")
    assert vals == list(range(lo, hi + 1))
    assert cli._int_list(",".join(map(str, vals))) == vals


def test_ranges_up_to_the_cap_parse():
    cap = cli._MAX_RANGE_VALUES
    assert cli._int_list(f"1:{cap}") == list(range(1, cap + 1))
    assert cli._float_list(f"0:{cap - 1}:1") == [float(v) for v in range(cap)]


@pytest.mark.parametrize("command, option, value", [
    ("optimize", "k-range", "1:100000000"),
    ("optimize", "k-range", "2:10002"),
    ("optimize", "epsilon-grid", "0:1:1e-9"),
    ("optimize", "epsilon-grid", "0:10000:1"),
    ("synth", "intra", "0:1:1e-9"),
    ("synth", "durations", "1:100000000"),
])
def test_long_ranges_fail_fast(command, option, value, tmp_path, capsys):
    """A finite range is capped while it is expanded; an uncapped one
    built a list of 10^8 ints (a MemoryError under a small address-space
    limit) or looped for 10^9 floats."""
    argv = [command, "--out", tmp_path / "out", f"--{option}={value}"]
    if command == "optimize":
        argv += ["--prices", tmp_path / "p.csv", "--k-min", 2]
        argv += ["--k-range=2:3"] if option != "k-range" else ["--epsilon-grid=0"]
    assert _run(argv) == 1
    assert (f"error[ValidationError]: bad value for --{option} (from command line): "
            f"range has more than {cli._MAX_RANGE_VALUES} values") in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_meta.json").exists()


@pytest.mark.parametrize("source", ["command line", "config file"])
@pytest.mark.parametrize("option", ["epsilon-grid", "intra", "inter"])
@pytest.mark.parametrize("value", ["0:inf:0.1", "0:nan:0.1", "nan:1:0.1", "-inf:1:0.1",
                                   "0:1:nan"])
def test_non_finite_range_bounds_fail_fast(option, value, source, tmp_path, capsys):
    """A nan or infinite bound or step is rejected while parsing; it used
    to loop forever building the list."""
    if option == "epsilon-grid":
        argv = ["optimize", "--prices", tmp_path / "p.csv", "--k-range", "2:3",
                "--k-min", 2]
    else:
        argv = ["synth"]
    if source == "config file":
        config = tmp_path / "run.cfg"
        config.write_text(f"{option}={value}\n")
        argv += ["--config", config]
    else:
        # the = form, since "-inf:..." would otherwise read as a flag
        argv.append(f"--{option}={value}")
    out = tmp_path / "out"
    assert _run([*argv, "--out", out]) == 1
    assert (f"error[ValidationError]: bad value for --{option} (from {source}): "
            "range bounds and step must be finite") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["command line", "config file"])
@pytest.mark.parametrize("command, option, value, form", [
    ("optimize", "epsilon-grid", "0:1", "lo:hi:step"),
    ("optimize", "k-range", "2:3:1", "lo:hi"),
    ("synth", "intra", "0:1:0.1:1", "lo:hi:step"),
    ("synth", "durations", "1:2:3", "lo:hi"),
])
def test_malformed_ranges_name_their_form(command, option, value, form, source,
                                          tmp_path, capsys):
    """A range with the wrong number of parts says which form it needs;
    it used to report Python's unpacking error."""
    argv = [command]
    if command == "optimize":
        argv += ["--prices", tmp_path / "p.csv", "--k-min", 2]
        argv += ["--k-range=2:3"] if option != "k-range" else ["--epsilon-grid=0"]
    if source == "config file":
        config = tmp_path / "run.cfg"
        config.write_text(f"{option}={value}\n")
        argv += ["--config", config]
    else:
        argv.append(f"--{option}={value}")
    out = tmp_path / "out"
    assert _run([*argv, "--out", out]) == 1
    assert (f"error[ValidationError]: bad value for --{option} (from {source}): "
            f"expected {form}") in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------- transitions

def test_transitions_payload(trans_out, states_out):
    payload = json.loads((trans_out / "transitions.json").read_text())
    assert payload["k"] == 2
    counts = np.asarray(payload["counts"])
    # the same options give the same state run: the counts are the lag-1
    # pairs of the states command's sequence
    _, states = _read_states(states_out)
    pairs = np.zeros((2, 2), dtype=int)
    for a, b in zip(states, states[1:]):
        pairs[a - 1, b - 1] += 1
    assert counts.tolist() == pairs.tolist()
    probs = np.asarray(payload["probs"])
    assert counts.shape == probs.shape == (2, 2)
    assert counts.sum() == N_EPOCHS - 1
    assert np.allclose(probs.sum(axis=1), 1.0)
    eq = np.asarray(payload["equilibrium"])
    assert eq.shape == (2,) and eq.sum() == pytest.approx(1.0)
    assert payload["dangling_states"] == []
    assert 0.0 <= payload["tridiagonality"] <= 1.0
    mk = payload["markovianity"]
    for key in ("statistic", "threshold", "pass", "row_tv", "n_boot",
                "quantile", "seed", "note"):
        assert key in mk
    assert mk["n_boot"] == 200 and mk["quantile"] == 0.95


def test_transitions_stride(market, tmp_path):
    """stride subsamples the sequence before counting."""
    rc = _run([
        "transitions", "--prices", market / "prices.csv", "--out", tmp_path,
        "--k", 2, "--n-init", 4, "--seed", 0, "--stride", 2,
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "transitions.json").read_text())
    assert payload["n_transitions"] == (N_EPOCHS + 1) // 2 - 1


def test_transitions_bad_stride(market, tmp_path):
    rc = _run([
        "transitions", "--prices", market / "prices.csv", "--out", tmp_path,
        "--k", 2, "--stride", 0,
    ])
    assert rc == 1


def test_transitions_bad_k_or_damping_fail_before_loading(
    market, tmp_path, monkeypatch, capsys
):
    def unreachable(path):
        raise AssertionError("the price table was read")

    monkeypatch.setattr(cli, "load_price_table", unreachable)
    for extra, word in (
        (["--k", 1], "k >= 2"),
        (["--k", 2, "--damping", 1.0], "damping"),
        (["--k", 2, "--damping", -0.1], "damping"),
        (["--k", 2, "--stride", 0], "stride must be >= 1"),
    ):
        rc = _run([
            "transitions", "--prices", market / "prices.csv", "--out", tmp_path,
            *extra,
        ])
        assert rc == 1
        assert word in capsys.readouterr().err
    assert not (tmp_path / "run_meta.json").exists()


@pytest.mark.parametrize("command, extra, word", [
    ("states", ["--k", 0], "k must be >= 1"),
    ("states", ["--k", 2, "--n-init", 1], "n_init must be >= 2"),
    ("states", ["--k", 2, "--epsilon", 1.5], "epsilon must be in [0, 1]"),
    ("states", ["--k", 2, "--epsilon", -0.1], "epsilon must be in [0, 1]"),
    ("states", ["--k", 2, "--threads", 0], "threads must be >= 1"),
    ("mds", ["--k", 0], "k must be >= 1"),
    ("mds", ["--k", 2, "--n-init", 1], "n_init must be >= 2"),
    ("mds", ["--k", 2, "--epsilon", 2], "epsilon must be in [0, 1]"),
    ("mds", ["--k", 2, "--threads", -1], "threads must be >= 1"),
    ("optimize", ["--n-init", 1], "n_init must be >= 2"),
    ("optimize", ["--epsilon-grid", "0,1.5"], "epsilon must be in [0, 1]"),
    ("optimize", ["--threads", 0], "threads must be >= 1"),
    ("transitions", ["--k", 2, "--n-init", 1], "n_init must be >= 2"),
    ("transitions", ["--k", 2, "--epsilon", 1.5], "epsilon must be in [0, 1]"),
    ("states", ["--k", 2, "--epoch", 1], "epoch length must be >= 2"),
    ("optimize", ["--shift", 0], "epoch shift must be >= 1"),
    ("transitions", ["--k", 2, "--epoch", 1], "epoch length must be >= 2"),
    ("mds", ["--k", 2, "--shift", 0], "epoch shift must be >= 1"),
])
def test_bad_ranges_fail_before_loading(
    command, extra, word, tmp_path, monkeypatch, capsys
):
    """Out-of-range options are rejected before the price table is read,
    even when the price file does not exist."""
    def unreachable(path):
        raise AssertionError("the price table was read")

    monkeypatch.setattr(cli, "load_price_table", unreachable)
    base = {"optimize": ["--epsilon-grid", "0", "--k-range", "2:3", "--k-min", 2]}
    rc = _run([
        command, "--prices", tmp_path / "missing.csv", "--out", tmp_path / "out",
        *base.get(command, []), *extra,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ParameterRange" in err and word in err
    assert not (tmp_path / "out" / "run_meta.json").exists()


@pytest.mark.parametrize("command, extra, error, word", [
    ("optimize", ["--epsilon-grid", "", "--k-range", "2:3", "--k-min", 2],
     "ValidationError", "must be nonempty"),
    ("optimize", ["--epsilon-grid", "0", "--k-range", "", "--k-min", 2],
     "ValidationError", "must be nonempty"),
    ("optimize", ["--epsilon-grid", "0", "--k-range", "2:3", "--k-min", 4],
     "ValidationError", "no k in [2, 3] reaches the admissibility floor 4"),
    ("states", ["--k", 2, "--max-gap", -1], "ParameterRange", "max_gap must be >= 0"),
    ("optimize", ["--epsilon-grid", "0", "--k-range", "2:3", "--k-min", 2,
                  "--max-gap", -2], "ParameterRange", "max_gap must be >= 0"),
    ("optimize", ["--epsilon-grid", "0", "--k-range", "0:3", "--k-min", 2],
     "ParameterRange", "k must be >= 1, got 0"),
    ("optimize", ["--epsilon-grid", "0,0", "--k-range", "2,2", "--k-min", 2],
     "ValidationError", "epsilon grid [0.0, 0.0] repeats a value"),
    ("optimize", ["--epsilon-grid", "0,0.5", "--k-range", "2,3,2", "--k-min", 2],
     "ValidationError", "k range [2, 3, 2] repeats a value"),
    ("optimize", ["--epsilon-grid", "0:1:0", "--k-range", "2:3", "--k-min", 2],
     "ValidationError", "step must be positive"),
    ("optimize", ["--epsilon-grid", "0", "--k-range", "5:2", "--k-min", 2],
     "ValidationError", "range upper bound below lower bound"),
])
def test_grid_and_gap_values_fail_before_loading(
    command, extra, error, word, tmp_path, monkeypatch, capsys
):
    """Grid and gap options are checked before the price file is looked
    at, so a missing file does not mask them."""
    def unreachable(path):
        raise AssertionError("the price table was read")

    monkeypatch.setattr(cli, "load_price_table", unreachable)
    rc = _run([
        command, "--prices", tmp_path / "missing.csv", "--out", tmp_path / "out", *extra,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error[{error}]" in err and word in err
    assert not (tmp_path / "out" / "run_meta.json").exists()


@pytest.mark.parametrize("command", ["synth", "states", "optimize", "transitions", "mds"])
def test_negative_seed_fails_before_any_work(command, tmp_path, monkeypatch, capsys):
    """numpy takes no negative seed; every command rejects one as a
    ParameterRange before it reads or generates anything."""
    def unreachable(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "load_price_table", unreachable)
    monkeypatch.setattr(cli, "generate_block_market", unreachable)
    extra = {
        "synth": [],
        "optimize": ["--prices", tmp_path / "p.csv", "--epsilon-grid", "0",
                     "--k-range", "2:3", "--k-min", 2],
    }.get(command, ["--prices", tmp_path / "p.csv", "--k", 2])
    out = tmp_path / "out"
    rc = _run([command, "--out", out, "--seed", -1, *extra])
    assert rc == 1
    assert "error[ParameterRange]: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


# one out-of-range value per ranged option, and valid values for the
# options some command requires
_BAD = {"k": 0, "epsilon": 1.5, "n_init": 1, "threads": 0, "seed": -1, "max_gap": -1,
        "damping": 1.0, "stride": 0, "epoch": 1, "shift": 0, "metric": "l3",
        "pipeline": "bogus"}
_REQUIRED_OK = {"k": 2, "epsilon_grid": "0", "k_range": "2:3", "k_min": 2}


def _argv(command, options, tmp_path):
    """``command`` with its required options valid and ``options`` as given."""
    names = cli._COMMANDS[command][2]
    values = {key: v for key, v in _REQUIRED_OK.items() if key in names}
    if "prices" in names:
        values["prices"] = tmp_path / "p.csv"
    values.update(options)
    argv = [command, "--out", tmp_path / "out"]
    for key, value in values.items():
        argv += [f"--{key.replace('_', '-')}", value]
    return argv


@pytest.mark.parametrize("command, option", [
    (command, option) for command, (_, _, names) in cli._COMMANDS.items()
    for option in cli._RANGES if option in names
])
def test_every_ranged_option_fails_before_any_work_and_before_out(
        command, option, tmp_path, monkeypatch, capsys):
    """Each command's out-of-range option exits 1 with its own check's
    message, before any input is read or generated and before ``--out``
    is made."""
    def unreachable(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "load_price_table", unreachable)
    monkeypatch.setattr(cli, "generate_block_market", unreachable)
    with pytest.raises(ParameterRange) as expected:
        cli._RANGES[option](_BAD[option])
    assert _run(_argv(command, {option: _BAD[option]}, tmp_path)) == 1
    assert f"error[ParameterRange]: {expected.value}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["states", "mds", "optimize"])
def test_several_bad_options_report_the_first_in_range_order(
        command, tmp_path, monkeypatch, capsys):
    """With several options out of range, the first in ``_RANGES`` order
    is reported; a range error comes before a grid error."""
    def unreachable(path):
        raise AssertionError("the price table was read")

    monkeypatch.setattr(cli, "load_price_table", unreachable)
    ranged = [key for key in cli._RANGES if key in cli._COMMANDS[command][2]]
    for i, first in enumerate(ranged):
        bad = {key: _BAD[key] for key in ranged[i:]}
        if command == "optimize":
            bad["k_min"] = 9  # above the k range: a grid error
        with pytest.raises(ParameterRange) as expected:
            cli._RANGES[first](_BAD[first])
        assert _run(_argv(command, bad, tmp_path)) == 1
        assert f"error[ParameterRange]: {expected.value}\n" in capsys.readouterr().err


@pytest.mark.parametrize("noise, error, word", [
    ("nan", "ValidationError", "noise scale must be finite and positive"),
    ("inf", "ValidationError", "noise scale must be finite and positive"),
    ("1000", "InvalidRegime", "drives prices out of (0, inf)"),
])
def test_synth_writes_no_prices_its_loader_rejects(tmp_path, capsys, noise, error, word):
    out = tmp_path / "out"
    rc = _run(SYNTH_ARGS + ["--out", out, "--noise", noise])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error[{error}]: " in err and word in err
    assert not out.exists()


def test_synth_that_fails_late_writes_nothing(tmp_path, capsys):
    """A single sector passes the spec's own checks and fails when the
    sector map is built; no file is written."""
    out = tmp_path / "out"
    rc = _run(["synth", "--out", out, "--sector-sizes", 5, "--intra", "0.2,0.8",
               "--inter", "0.05,0.1", "--durations", "120,120"])
    assert rc == 1
    assert "error[ValidationError]: need at least 2 sectors" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, word", [
    (["--sectors", "missing.csv"], "sector file not found"),
    (["--pipeline", "guhr"], "pipeline 'guhr' requires --sectors"),
])
def test_sector_options_checked_before_loading(
    market, tmp_path, monkeypatch, capsys, extra, word
):
    def unreachable(path):
        raise AssertionError("the price table was read")

    monkeypatch.setattr(cli, "load_price_table", unreachable)
    monkeypatch.chdir(tmp_path)
    rc = _run(["states", "--prices", market / "prices.csv", "--out", tmp_path / "out",
               "--k", 2, *extra])
    assert rc == 1
    assert f"error[ValidationError]: {word}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["prices", "sectors", "config"])
def test_non_utf8_input_exits_one_with_typed_error(market, tmp_path, capsys, bad):
    files = {}
    for name in ("prices", "sectors"):
        data = (market / f"{name}.csv").read_bytes()
        if name == bad:
            # past the first line, so the header still reads
            data = data[:-40] + b"\xff" + data[-40:]
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_bytes(data)
    config = tmp_path / "run.cfg"
    config.write_bytes(b"k=2\nn_init=2\n" + (b"# \xff\n" if bad == "config" else b""))
    out = tmp_path / "out"
    rc = _run([
        "states", "--prices", files["prices"], "--sectors", files["sectors"],
        "--pipeline", "guhr", "--config", config, "--out", out,
    ])
    assert rc == 1
    error = "ValidationError" if bad == "config" else "ParseError"
    assert f"error[{error}]: " in capsys.readouterr().err
    assert not out.exists()


def test_transitions_large_stride_fails_before_clustering(
    market, tmp_path, monkeypatch, capsys
):
    """A stride that leaves fewer than 3 states is rejected once the epoch
    count is known, before any matrix is clustered."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the epochs were clustered")

    monkeypatch.setattr(cli, "sigma_intra", unreachable)
    for stride in (111, 200, 500):
        rc = _run([
            "transitions", "--prices", market / "prices.csv", "--out", tmp_path,
            "--k", 2, "--stride", stride,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InsufficientSequence" in err and f"of {N_EPOCHS} epochs" in err
    assert list(tmp_path.iterdir()) == []


def test_threads_below_one_exit_one(market, tmp_path, capsys):
    for threads in (0, -3):
        rc = _run([
            "states", "--prices", market / "prices.csv", "--out", tmp_path,
            "--k", 2, "--n-init", 2, "--threads", threads,
        ])
        assert rc == 1
        assert "threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run_meta.json").exists()


# ------------------------------------------------------------------ mds

def test_mds_artifacts(mds_out, states_out):
    lines = (mds_out / "embedding.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch_end,state,x,y,z"
    assert len(lines) == 1 + N_EPOCHS
    # same seed and restart count, so the state labels must agree with
    # the states command
    _, states = _read_states(states_out)
    embedded = [int(line.split(",")[1]) for line in lines[1:]]
    assert embedded == states

    svg = (mds_out / "embedding.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    assert "<circle" in svg and "axis 1" in svg


@pytest.mark.parametrize("command, artifacts", [
    ("states", ("states.csv", "states_summary.json")),
    ("transitions", ("transitions.json",)),
    ("mds", ("embedding.csv", "embedding.svg")),
], ids=["states", "transitions", "mds"])
def test_state_commands_threads_do_not_change_artifacts(command, artifacts, market,
                                                        tmp_path):
    """Restarts, and for mds the distance tiles, split over threads; every
    artifact matches byte for byte across thread counts."""
    outs = []
    for threads in (1, 3):
        d = tmp_path / f"t{threads}"
        rc = _run([
            command, "--prices", market / "prices.csv", "--out", d,
            "--k", 2, "--n-init", 4, "--seed", 0, "--threads", threads,
        ])
        assert rc == 0
        outs.append([(d / name).read_bytes() for name in artifacts])
    assert outs[0] == outs[1]


def test_mds_frees_the_stack_before_scaling(market, tmp_path, monkeypatch):
    """The return table is released before the distances are computed and
    the epoch stack before classical scaling starts, so neither adds to
    the peak of the n x n buffers. Checked through the arrays that own
    their memory, with no garbage collection, so it holds however an
    interpreter releases call arguments."""
    owners = []
    distance_matrix, classical_mds = cli.distance_matrix, cli.classical_mds
    log_returns = cli.log_returns

    def returns(table):
        rt = log_returns(table)
        owners.append(weakref.ref(rt.returns))
        return rt

    def distances(stack, threads):
        assert len(owners) == 1 and owners[0]() is None, "the return table is still alive"
        owners.append(weakref.ref(stack.data.base))
        return distance_matrix(stack, threads=threads)

    def scaling(*args, **kwargs):
        assert len(owners) == 2 and owners[1]() is None, "the stack is still alive"
        return classical_mds(*args, **kwargs)

    monkeypatch.setattr(cli, "log_returns", returns)
    monkeypatch.setattr(cli, "distance_matrix", distances)
    monkeypatch.setattr(cli, "classical_mds", scaling)
    assert _run(["mds", "--prices", market / "prices.csv", "--out", tmp_path,
                 "--k", 2, "--n-init", 2, "--seed", 0]) == 0


def test_mds_failing_after_its_table_writes_nothing(market, tmp_path, monkeypatch, capsys):
    """The embedding table is ready before the plot fails; neither is
    written, nor is run_meta.json."""
    def fail(emb, seq):
        raise ComputationError("plot failed")

    monkeypatch.setattr(cli, "embedding_svg", fail)
    out = tmp_path / "out"
    rc = _run(["mds", "--prices", market / "prices.csv", "--out", out,
               "--k", 2, "--n-init", 2, "--seed", 0])
    assert rc == 2
    assert "error[ComputationError]: plot failed" in capsys.readouterr().err
    assert not out.exists()


def _short_market(out, durations):
    assert _run(["synth", "--sector-sizes", "3,3", "--intra", "0.5", "--inter", "0.1",
                 "--durations", durations, "--seed", 1, "--out", out]) == 0
    return out / "prices.csv"


@pytest.mark.parametrize("argv, message", [
    (["mds", "--k", 2, "--n-init", 2], "mds needs at least 4 epochs for 3 axes, got 3"),
    (["mds", "--k", 4], "mds needs at least 4 epochs for 3 axes, got 3"),
    (["states", "--k", 4], "k=4 exceeds 3 matrices"),
    (["transitions", "--k", 4], "k=4 exceeds 3 matrices"),
])
def test_too_few_epochs_fail_before_the_pipeline(argv, message, tmp_path, monkeypatch,
                                                 capsys):
    """On a 3-epoch market the epoch count alone decides these; no epoch
    stack is built and nothing is written."""
    prices = _short_market(tmp_path / "market", 22)

    def unreachable(*args, **kwargs):
        raise AssertionError("the epoch stack was built")

    monkeypatch.setattr(cli, "pipeline_matrices", unreachable)
    out = tmp_path / "out"
    assert _run([*argv, "--prices", prices, "--out", out]) == 1
    assert f"error[InsufficientData]: {message}\n" == capsys.readouterr().err
    assert not out.exists()


def test_mds_runs_on_four_epochs(tmp_path):
    prices = _short_market(tmp_path / "market", 23)
    assert _run(["mds", "--k", 2, "--n-init", 2, "--prices", prices,
                 "--out", tmp_path / "out"]) == 0
    lines = (tmp_path / "out" / "embedding.csv").read_text().splitlines()
    assert len(lines) == 5


def test_optimize_keeps_a_k_above_the_epoch_count_as_a_cell_error(tmp_path):
    prices = _short_market(tmp_path / "market", 22)
    out = tmp_path / "out"
    assert _run(["optimize", "--k-range", "2:4", "--epsilon-grid", "0", "--k-min", 2,
                 "--n-init", 2, "--prices", prices, "--out", out]) == 0
    errors = json.loads((out / "sigma_summary.json").read_text())["cell_errors"]
    assert list(errors) == ["k=4,epsilon=0.0"]
    assert "k=4 exceeds 3 matrices" in errors["k=4,epsilon=0.0"]


# ----------------------------------------------------------- exit codes

def test_missing_price_file(tmp_path, capsys):
    rc = _run(["states", "--prices", tmp_path / "nope.csv",
               "--out", tmp_path, "--k", 2])
    assert rc == 1
    assert "price file not found" in capsys.readouterr().err


def test_unknown_flag_exits_one(tmp_path, capsys):
    rc = _run(["states", "--prices", "p", "--out", tmp_path,
               "--k", 2, "--bogus", 1])
    assert rc == 1


def test_missing_required_option(market, tmp_path, capsys):
    rc = _run(["states", "--prices", market / "prices.csv", "--out", tmp_path])
    assert rc == 1
    assert "--k" in capsys.readouterr().err


def test_bad_flag_value(market, tmp_path, capsys):
    rc = _run(["states", "--prices", market / "prices.csv",
               "--out", tmp_path, "--k", "two"])
    assert rc == 1
    assert "bad value for --k" in capsys.readouterr().err


def test_bad_metric_value(market, tmp_path, capsys):
    """The metric names have one owner, ``clustering._METRICS``, whose
    check runs in ``_RANGES`` order."""
    rc = _run(["states", "--prices", market / "prices.csv",
               "--out", tmp_path, "--k", 2, "--metric", "l3"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error[ParameterRange]: metric must be one of ('l1', 'l2'), got 'l3'\n")


def test_k_larger_than_epoch_count(market, tmp_path, capsys):
    rc = _run(["states", "--prices", market / "prices.csv",
               "--out", tmp_path, "--k", 500, "--n-init", 2])
    assert rc == 1
    assert "error[InsufficientData]" in capsys.readouterr().err


def test_constant_column_exits_two(tmp_path, capsys):
    """A zero-variance window is a computation failure, exit code 2."""
    rng = np.random.default_rng(0)
    dates = [date(2020, 1, 1 + i) for i in range(25)]
    walk1 = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 25)))
    walk2 = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 25)))
    lines = ["date,AAA,BBB,FLAT"]
    for d, a, b in zip(dates, walk1, walk2):
        lines.append(f"{d.isoformat()},{a:.6f},{b:.6f},100.0")
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join(lines) + "\n")

    rc = _run(["states", "--prices", prices, "--out", tmp_path / "out",
               "--k", 2, "--n-init", 2])
    assert rc == 2
    assert "error[DegenerateColumn]" in capsys.readouterr().err


def test_out_path_is_file(market, tmp_path, capsys):
    target = tmp_path / "occupied"
    target.write_text("")
    rc = _run(["states", "--prices", market / "prices.csv",
               "--out", target, "--k", 2])
    assert rc == 1
    # every OS error is tagged OSError, whatever its subclass
    assert capsys.readouterr().err.startswith("error[OSError]: ")


# ------------------------------------------------- what a failed run leaves

@pytest.fixture(scope="module")
def small_market(tmp_path_factory):
    """80 return rows, 6 tickers: 61 epochs at the default length."""
    d = tmp_path_factory.mktemp("small")
    assert _run(["synth", "--sector-sizes", "3,3", "--intra", "0.5,0.8",
                 "--inter", "0.1,0.2", "--durations", "40,40", "--seed", 1,
                 "--out", d]) == 0
    return d / "prices.csv"


@pytest.mark.parametrize("argv, out, tag, message", [
    (["transitions", "--k", 1], "out",
     "ParameterRange", "transitions need k >= 2 for tridiagonality, got 1"),
    (["optimize", "--epsilon-grid", "0", "--k-range", "2:3", "--k-min", 9], "out",
     "ValidationError", "no k in [2, 3] reaches the admissibility floor 9"),
    (["states", "--k", 2, "--pipeline", "guhr"], "out",
     "ValidationError", "pipeline 'guhr' requires --sectors"),
    (["states", "--k", 2, "--prices", "missing.csv"], "out",
     "ValidationError", "price file not found: missing.csv"),
    (["states", "--k", 500], "out", "InsufficientData", "k=500 exceeds 61 matrices"),
    (["transitions", "--k", 2, "--stride", 40], "out", "InsufficientSequence",
     "--stride 40 keeps 2 of 61 epochs; the Markov check needs at least 3 states"),
    (["states", "--k", 2, "--epoch", 90], "out",
     "InsufficientData", "80 return rows < epoch length 90"),
    (["transitions", "--k", 1], "o8/a/b",
     "ParameterRange", "transitions need k >= 2 for tridiagonality, got 1"),
])
def test_a_failed_command_leaves_no_out(argv, out, tag, message, small_market, tmp_path,
                                        monkeypatch, capsys):
    """Checks that span options, checks that need the data and a missing
    input all fail after ``--out`` is made; each level of it that the run
    made is gone again, and the directory it was made in stays."""
    monkeypatch.chdir(tmp_path)
    prices = [] if "--prices" in argv else ["--prices", small_market]
    assert _run([*argv, *prices, "--out", tmp_path / out]) == 1
    assert capsys.readouterr().err == f"error[{tag}]: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_removes_what_the_run_wrote(small_market, tmp_path, capsys):
    """``states.csv`` is written before ``states_summary.json`` fails to
    open; it goes again, and the ``--out`` that was there stays with what
    it held."""
    out = tmp_path / "out"
    (out / "states_summary.json").mkdir(parents=True)
    assert _run(["states", "--k", 2, "--n-init", 2, "--prices", small_market,
                 "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error[OSError]: ")
    assert [p.name for p in out.iterdir()] == ["states_summary.json"]
    assert list((out / "states_summary.json").iterdir()) == []


def test_a_failed_run_leaves_a_prior_out_and_its_files(small_market, tmp_path, capsys):
    """Files ``main`` did not write survive a failed run, an artifact of an
    earlier run included."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    (out / "states.csv").write_text("earlier\n")
    assert _run(["states", "--k", 500, "--prices", small_market, "--out", out]) == 1
    assert "error[InsufficientData]" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "states.csv"]
    assert (out / "notes.txt").read_text() == "mine\n"
    assert (out / "states.csv").read_text() == "earlier\n"


@pytest.mark.parametrize("fails_in", ["command", "write"])
def test_a_failed_run_keeps_the_out_it_made_once_it_holds_a_foreign_file(
        fails_in, small_market, tmp_path, monkeypatch, capsys):
    """A file ``main`` did not write, put into the ``--out`` it made while
    the command ran, keeps that directory and its parents: ``main``'s own
    files go, each ``rmdir`` fails and is passed over, and the error is
    the one that stopped the run."""
    out = tmp_path / "a" / "out"

    def write_foreign_then_fail(cfg):
        (Path(cfg.out) / "foreign.txt").write_text("not the run's\n")
        if fails_in == "command":
            raise InsufficientData("k=500 exceeds 61 matrices")
        # the first artifact is written, the second cannot be opened
        return {"states.csv": "epoch_end,state\n", "missing/summary.json": "{}\n"}

    _, help_text, options = cli._COMMANDS["states"]
    monkeypatch.setitem(cli._COMMANDS, "states", (write_foreign_then_fail, help_text, options))
    assert _run(["states", "--k", 2, "--prices", small_market, "--out", out]) == 1
    assert capsys.readouterr().err == {
        "command": "error[InsufficientData]: k=500 exceeds 61 matrices\n",
        "write": f"error[OSError]: [Errno 2] No such file or directory: "
                 f"'{out / 'missing' / 'summary.json'}'\n",
    }[fails_in]
    assert [p.name for p in out.iterdir()] == ["foreign.txt"]
    assert (out / "foreign.txt").read_text() == "not the run's\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a"]


def test_an_interrupted_run_removes_the_out_it_made(small_market, tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "sigma_intra", interrupt)
    with pytest.raises(KeyboardInterrupt):
        _run(["states", "--k", 2, "--prices", small_market, "--out", tmp_path / "a" / "out"])
    assert list(tmp_path.iterdir()) == []


def test_running_out_of_memory_is_a_typed_computation_failure(
        small_market, tmp_path, monkeypatch, capsys):
    """numpy's allocation error, a MemoryError subclass, exits 2 with one
    typed line and no traceback, and the ``--out`` the run made is gone."""
    def allocate(*args, **kwargs):
        return np.empty(2**50, dtype=np.uint8)  # 1 PiB: refused before any page is touched

    monkeypatch.setattr(cli, "sigma_intra", allocate)
    out = tmp_path / "out"
    assert _run(["states", "--k", 2, "--prices", small_market, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[MemoryError]: Unable to allocate 1.00 PiB")
    assert err.count("\n") == 1
    assert not out.exists()


def test_no_command_exits_one():
    assert main([]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


# ---------------------------------------------------------- config file

def test_config_file_supplies_options(market, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# clustering settings\n"
        "k=2\n"
        "n-init = 4\n"
        "\n"
        "seed=7\n"
    )
    out = tmp_path / "out"
    rc = _run(["states", "--prices", market / "prices.csv",
               "--out", out, "--config", cfg])
    assert rc == 0
    summary = json.loads((out / "states_summary.json").read_text())
    assert summary["k"] == 2
    assert summary["n_init"] == 4
    assert summary["seed"] == 7


def test_config_hash_starts_a_comment_only_at_line_start_or_after_whitespace(
        market, tmp_path):
    hashed = tmp_path / "hash#dir"
    hashed.mkdir()
    (hashed / "prices.csv").write_bytes((market / "prices.csv").read_bytes())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"prices={hashed / 'prices.csv'}\n"
        "# a whole-line comment\n"
        "   # an indented one\n"
        "k=2  # note\n"
        "seed=7\t# note after a tab\n"
    )
    out = tmp_path / "out"
    assert _run(["states", "--out", out, "--config", cfg]) == 0
    summary = json.loads((out / "states_summary.json").read_text())
    assert summary["k"] == 2
    assert summary["seed"] == 7
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["config"]["prices"] == str(hashed / "prices.csv")


def test_flag_overrides_config(market, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=2\nn-init=4\nseed=7\n")
    out = tmp_path / "out"
    rc = _run(["states", "--prices", market / "prices.csv",
               "--out", out, "--config", cfg, "--seed", 9])
    assert rc == 0
    summary = json.loads((out / "states_summary.json").read_text())
    assert summary["seed"] == 9


def test_byte_order_marks_are_not_data(market, tmp_path):
    """Config, price and header-less sector files each read the same with
    a leading UTF-8 byte-order mark as without one."""
    runs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        d = tmp_path / f"bom{len(bom)}"
        d.mkdir()
        sector_rows = (market / "sectors.csv").read_bytes().split(b"\n", 1)[1]
        (d / "sectors.csv").write_bytes(bom + sector_rows)
        (d / "prices.csv").write_bytes(bom + (market / "prices.csv").read_bytes())
        (d / "run.cfg").write_bytes(bom + b"k=2\nn_init=2\npipeline=guhr\n")
        rc = _run(["states", "--prices", d / "prices.csv", "--sectors", d / "sectors.csv",
                   "--config", d / "run.cfg", "--out", d / "out"])
        assert rc == 0
        runs.append([(d / "out" / name).read_bytes()
                     for name in ("states.csv", "states_summary.json")])
    assert runs[0] == runs[1]


def test_config_unknown_key(market, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=2\nbogus=1\n")
    rc = _run(["states", "--prices", market / "prices.csv",
               "--out", tmp_path / "out", "--config", cfg])
    assert rc == 1
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_config_bad_line(market, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k\n")
    rc = _run(["states", "--prices", market / "prices.csv",
               "--out", tmp_path / "out", "--config", cfg])
    assert rc == 1
    assert "not key=value" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [("k=2\nseed=1\nk=5\n", "k"),
                                       ("n-init=3\nseed=1\nn_init=4\n", "n_init")])
def test_config_key_set_twice(market, tmp_path, capsys, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    rc = _run(["states", "--prices", market / "prices.csv",
               "--out", out, "--config", cfg])
    assert rc == 1
    assert f"config key '{key}' is set on lines 1 and 3" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_missing(market, tmp_path, capsys):
    rc = _run(["states", "--prices", market / "prices.csv",
               "--out", tmp_path / "out", "--config", tmp_path / "nope.cfg"])
    assert rc == 1
    assert "config file not found" in capsys.readouterr().err
