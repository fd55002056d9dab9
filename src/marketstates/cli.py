"""Command line front end.

Subcommands: states, optimize, transitions, mds, synth. Options come
from flags or an optional ``--config`` file of ``key=value`` lines
(flags win). ``merge_config`` checks each option's own range; each
command checks what spans options, computes, and returns its artifacts
as ``{file name: text}``. The state commands (states, transitions, mds)
each build one ``StateRun`` and hand it, or the parts they need, to pure
artifact builders. ``main`` makes ``--out`` before the command runs, so
an unusable ``--out`` fails before any work, and writes the artifacts,
then ``run_meta.json``, only after the command has returned. A command
that does not finish, whatever stops it, leaves no directory and no file
of its own: ``main`` unlinks each file it opened for writing, then
removes the levels of ``--out`` it made with ``rmdir``, so a directory
holding anything else stays. A file the failed run overwrote is not
restored. With a fixed seed every artifact is byte-identical across runs
and thread counts; wall-clock information lives only in
``run_meta.json``.

Exit codes: 0 success, 1 invalid input or configuration, 2 computation
failure on valid inputs, running out of memory included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .clustering import (
    check_grid,
    check_k,
    check_metric,
    check_n_init,
    check_threads,
    grid_csv,
    optimize_states,
    order_states,
    sigma_intra,
)
from .corrmat import (
    EpochSpec,
    check_epoch_length,
    check_epoch_shift,
    check_epsilon,
    pipeline_matrices,
)
from .errors import (
    ComputationError,
    InsufficientData,
    InsufficientSequence,
    MarketStatesError,
    ParameterRange,
    ValidationError,
)
from .ingest import (
    check_max_gap,
    filter_stocks,
    load_price_table,
    load_sector_map,
    log_returns,
    price_table_csv,
)
from .markov import (
    BootstrapPolicy,
    check_damping,
    equilibrium_distribution,
    markovianity_check,
    transition_matrix,
    transitions_json,
)
from .mds import classical_mds, distance_matrix, embedding_svg, embedding_table
from .rng import check_seed
from .synth import RegimeSpec, generate_block_market, regime_truth_csv


# a lo:hi range is expanded while parsing, so its length is capped
# before anything else can look at it; no grid or spec uses this many
_MAX_RANGE_VALUES = 10_000
_TOO_LONG = f"range has more than {_MAX_RANGE_VALUES} values"


def _float_list(text: str) -> list[float]:
    """``a,b,c`` or inclusive ``lo:hi:step``; grid values rounded to 12
    decimals so artifacts show 0.3, not 0.30000000000000004."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("expected lo:hi:step")
        lo, hi, step = map(float, parts)
        # a nan or infinite bound never ends the loop below
        if not all(map(math.isfinite, (lo, hi, step))):
            raise ValueError("range bounds and step must be finite")
        if step <= 0:
            raise ValueError("step must be positive")
        vals = []
        for i in range(_MAX_RANGE_VALUES + 1):
            v = round(lo + i * step, 12)
            if v > hi + 1e-9:
                return vals
            vals.append(v)
        raise ValueError(_TOO_LONG)
    return [float(x) for x in text.split(",") if x.strip()]


def _int_list(text: str) -> list[int]:
    """``a,b,c`` or inclusive ``lo:hi``."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError("expected lo:hi")
        lo, hi = map(int, parts)
        if hi < lo:
            raise ValueError("range upper bound below lower bound")
        if hi - lo >= _MAX_RANGE_VALUES:
            raise ValueError(_TOO_LONG)
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",") if x.strip()]


_REQUIRED = object()

# dest -> (converter, default, help)
_OPTION_DEFS = {
    "prices": (str, _REQUIRED, "price table CSV (date,<ticker>,... header)"),
    "sectors": (str, None, "sector map CSV (ticker,sector rows)"),
    "out": (str, _REQUIRED, "output directory for artifacts"),
    "config": (str, None, "key=value config file; flags override it"),
    "epoch": (int, 20, "epoch window length in trading days"),
    "shift": (int, 1, "epoch shift in trading days"),
    "max_gap": (int, 2, "drop tickers with more consecutive missing days than this"),
    "epsilon": (float, 0.0, "power-map noise suppression exponent parameter"),
    "epsilon_grid": (_float_list, _REQUIRED, "epsilon values: comma list or lo:hi:step"),
    "k": (int, _REQUIRED, "cluster count"),
    "k_range": (_int_list, _REQUIRED, "k values: comma list or lo:hi"),
    "k_min": (int, _REQUIRED, "smallest k admissible when choosing the grid optimum"),
    "n_init": (int, 100, "k-means restarts per cell"),
    "seed": (int, 0, "base seed for all randomized steps"),
    "metric": (str, "l1", "clustering metric"),
    "pipeline": (str, "pearson", "cluster stock-level or sector-level matrices"),
    "stride": (int, 1, "subsample the state sequence before counting transitions"),
    "damping": (float, 0.0, "equilibrium damping toward the uniform chain"),
    "threads": (int, os.cpu_count() or 1, "worker threads for restarts and distance tiles"),
    "sector_sizes": (_int_list, [10] * 6, "synthetic sector sizes, comma list"),
    "intra": (_float_list, [0.3, 0.6, 0.9], "per-regime intra-sector correlation levels"),
    "inter": (_float_list, [0.1, 0.2, 0.3], "per-regime inter-sector correlation levels"),
    "durations": (_int_list, [500, 500, 500], "per-regime durations in return days"),
    "noise": (float, 0.02, "daily return scale"),
}

# the options every data command reads, in --help order
_DATA_OPTIONS = ("prices", "sectors", "out", "config", "epoch", "shift", "max_gap",
                 "n_init", "seed", "metric", "pipeline", "threads")


def _check_stride(stride: int):
    """Subsampling keeps every stride-th state, so stride must be >= 1."""
    if stride < 1:
        raise ParameterRange(f"stride must be >= 1, got {stride}")


_PIPELINES = ("pearson", "guhr")


def _check_pipeline(pipeline: str):
    """Stock-level ``pearson`` or sector-level ``guhr`` matrices."""
    if pipeline not in _PIPELINES:
        raise ParameterRange(f"pipeline must be one of {_PIPELINES}, got {pipeline!r}")


# option -> its range check, the library's where it has one; merge_config
# runs them in this order
_RANGES = {"k": check_k, "epsilon": check_epsilon, "n_init": check_n_init,
           "threads": check_threads, "seed": check_seed, "max_gap": check_max_gap,
           "damping": check_damping, "stride": _check_stride,
           "epoch": check_epoch_length, "shift": check_epoch_shift,
           "metric": check_metric, "pipeline": _check_pipeline}


def _convert(key: str, raw, source: str):
    conv = _OPTION_DEFS[key][0]
    try:
        return conv(raw)
    except ValueError as exc:
        flag = "--" + key.replace("_", "-")
        raise ValidationError(f"bad value for {flag} (from {source}): {exc}") from None


def _read_config_file(path: str) -> list[tuple[str, str]]:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise ValidationError(f"config file is not UTF-8 text: {path}") from None
    pairs, lines = [], {}
    for i, line in enumerate(text.splitlines(), start=1):
        # a comment starts at a line's first "#" that opens it or follows
        # whitespace, so a path may hold one
        body = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValidationError(f"config line {i} is not key=value: {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in lines:
            raise ValidationError(f"config key {key!r} is set on lines {lines[key]} and {i}")
        lines[key] = i
        pairs.append((key, raw.strip()))
    return pairs


def merge_config(command: str, args: argparse.Namespace) -> SimpleNamespace:
    values = {key: _OPTION_DEFS[key][1] for key in _COMMANDS[command][2]}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        for key, raw in _read_config_file(config_path):
            if key not in values or key == "config":
                raise ValidationError(
                    f"unknown config key {key!r} for command {command!r}"
                )
            values[key] = _convert(key, raw, "config file")
    for key in values:
        raw = getattr(args, key, None)
        if raw is not None:
            values[key] = _convert(key, raw, "command line")
    missing = sorted(k for k, v in values.items() if v is _REQUIRED)
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValidationError(f"missing required option(s): {flags}")
    for key, check in _RANGES.items():
        if key in values:
            check(values[key])
    values["config"] = config_path
    return SimpleNamespace(**values)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _prepare_data(cfg):
    """File checks every data command shares, then the inputs; returns the EpochSpec too."""
    spec = EpochSpec(length=cfg.epoch, shift=cfg.shift)
    if not Path(cfg.prices).is_file():
        raise ValidationError(f"price file not found: {cfg.prices}")
    if cfg.sectors is not None and not Path(cfg.sectors).is_file():
        raise ValidationError(f"sector file not found: {cfg.sectors}")
    if cfg.pipeline == "guhr" and cfg.sectors is None:
        raise ValidationError("pipeline 'guhr' requires --sectors")
    table = load_price_table(cfg.prices)
    filtered = filter_stocks(table, cfg.max_gap)
    returns = log_returns(filtered.table)
    sectors = None
    if cfg.pipeline == "guhr":
        sectors = load_sector_map(cfg.sectors, filtered.table.tickers)
    return returns, sectors, spec


# one pipeline's clustered epochs: the epoch stack, its sigma_intra result
# and the ordered state sequence; the artifact builders below read it
StateRun = namedtuple("StateRun", "stack result seq")


def _state_run(cfg, returns, sectors, spec) -> StateRun:
    epochs = spec.window_count(returns.n_rows)
    if cfg.k > epochs:
        raise InsufficientData(f"k={cfg.k} exceeds {epochs} matrices")
    stack = pipeline_matrices(returns, spec, cfg.epsilon, sectors)
    result = sigma_intra(stack, cfg.k, cfg.n_init, cfg.seed,
                         metric=cfg.metric, threads=cfg.threads)
    return StateRun(stack, result, order_states(result.best, stack))


def _states_artifacts(cfg, run) -> dict[str, str]:
    _, result, seq = run
    lines = ["epoch_end,state"]
    for end, state in zip(seq.epoch_ends, seq.states):
        lines.append(f"{end.isoformat()},{int(state)}")
    counts = {int(s): int((seq.states == s).sum()) for s in range(1, seq.k + 1)}
    summary = {
        "k": cfg.k,
        "epsilon": cfg.epsilon,
        "pipeline": cfg.pipeline,
        "metric": cfg.metric,
        "n_init": cfg.n_init,
        "seed": cfg.seed,
        "epochs": len(seq),
        "state_mean_correlations": list(seq.state_means),
        "state_counts": counts,
        "d_intra": result.best.d_intra,
        "mean_d_intra": result.mean_d_intra,
        "sigma_intra": result.sigma_intra,
        "converged": result.best.converged,
    }
    return {
        "states.csv": "\n".join(lines) + "\n",
        "states_summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
    }


def _transitions_artifact(seq, stride, damping, seed) -> dict[str, str]:
    states = seq.states[::stride]
    t = transition_matrix(states, k=seq.k)
    eq = equilibrium_distribution(t, damping=damping)
    report = markovianity_check(states, BootstrapPolicy(seed=seed), k=seq.k)
    return {"transitions.json": transitions_json(t, eq, report)}


def cmd_states(cfg) -> dict[str, str]:
    return _states_artifacts(cfg, _state_run(cfg, *_prepare_data(cfg)))


def cmd_optimize(cfg) -> dict[str, str]:
    check_grid(cfg.epsilon_grid, cfg.k_range, cfg.k_min)
    returns, sectors, spec = _prepare_data(cfg)
    grid = optimize_states(
        returns, spec, sectors,
        cfg.epsilon_grid, cfg.k_range, cfg.k_min,
        cfg.n_init, cfg.seed,
        metric=cfg.metric, threads=cfg.threads,
    )
    chosen = grid.cell(*grid.chosen)
    summary = {
        "chosen_k": chosen.k,
        "chosen_epsilon": chosen.epsilon,
        "sigma_intra": chosen.sigma_intra,
        "mean_d_intra": chosen.mean_d_intra,
        "k_min_admissible": cfg.k_min,
        "n_init": cfg.n_init,
        "seed": cfg.seed,
        "cell_errors": {f"k={c.k},epsilon={c.epsilon}": c.error
                        for c in grid.cells if c.error is not None},
    }
    return {"sigma_grid.csv": grid_csv(grid),
            "sigma_summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n"}


def cmd_transitions(cfg) -> dict[str, str]:
    if cfg.k < 2:
        raise ParameterRange(f"transitions need k >= 2 for tridiagonality, got {cfg.k}")
    returns, sectors, spec = _prepare_data(cfg)
    epochs = spec.window_count(returns.n_rows)
    kept = len(range(0, epochs, cfg.stride))
    if kept < 3:
        raise InsufficientSequence(
            f"--stride {cfg.stride} keeps {kept} of {epochs} epochs; the "
            "Markov check needs at least 3 states"
        )
    seq = _state_run(cfg, returns, sectors, spec).seq
    return _transitions_artifact(seq, cfg.stride, cfg.damping, cfg.seed)


def cmd_mds(cfg) -> dict[str, str]:
    returns, sectors, spec = _prepare_data(cfg)
    epochs = spec.window_count(returns.n_rows)
    if epochs < 4:
        raise InsufficientData(f"mds needs at least 4 epochs for 3 axes, got {epochs}")
    run = _state_run(cfg, returns, sectors, spec)
    # what is not needed again is freed: the returns before the distances,
    # the stack before the scaling, so neither adds to their peaks
    del returns, sectors
    dm, seq = distance_matrix(run.stack, threads=cfg.threads), run.seq
    del run
    emb = classical_mds(dm, 3)
    return {"embedding.csv": embedding_table(emb, seq),
            "embedding.svg": embedding_svg(emb, seq)}


def cmd_synth(cfg) -> dict[str, str]:
    spec = RegimeSpec(
        sector_sizes=tuple(cfg.sector_sizes),
        intra=tuple(cfg.intra),
        inter=tuple(cfg.inter),
        durations=tuple(cfg.durations),
        noise_scale=cfg.noise,
        epoch_length=cfg.epoch,
    )
    sector_map = spec.sector_map()
    table, day_labels = generate_block_market(spec, cfg.seed)
    lines = ["ticker,sector"]
    for ticker in table.tickers:
        lines.append(f"{ticker},{sector_map.assignment[ticker]}")
    return {
        "prices.csv": price_table_csv(table),
        "regime_truth.csv": regime_truth_csv(table, day_labels),
        "sectors.csv": "\n".join(lines) + "\n",
    }


# subcommand -> (handler, help, option names in --help order)
_COMMANDS: dict[str, tuple] = {
    "states": (cmd_states, "fixed (k, epsilon) state sequence from a price table",
               (*_DATA_OPTIONS, "epsilon", "k")),
    "optimize": (cmd_optimize, "sigma_intra scan over the (k, epsilon) grid",
                 (*_DATA_OPTIONS, "epsilon_grid", "k_range", "k_min")),
    "transitions": (cmd_transitions,
                    "state sequence plus transition matrix, equilibrium, Markov checks",
                    (*_DATA_OPTIONS, "epsilon", "k", "stride", "damping")),
    "mds": (cmd_mds, "3D classical scaling of the epoch matrices",
            (*_DATA_OPTIONS, "epsilon", "k")),
    "synth": (cmd_synth, "generate a planted block market",
              ("out", "config", "seed", "epoch", "sector_sizes", "intra", "inter",
               "durations", "noise")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketstates",
        description="Market-state pipeline: rolling correlations, coarse "
        "graining, clustering, transitions, scaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for dest in options:
            flag = "--" + dest.replace("_", "-")
            sp.add_argument(flag, dest=dest, default=None, help=_OPTION_DEFS[dest][2])
    return parser


def _run_meta(cfg, command: str, started: str, elapsed: float) -> str:
    hashes = {}
    for key in ("prices", "sectors", "config"):
        path = getattr(cfg, key, None)
        if path is not None and Path(path).is_file():
            hashes[key] = _sha256(path)
    meta = {
        "command": command,
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(cfg).items())},
        "input_hashes": hashes,
        "started_at": started,
        "wall_time_s": elapsed,
    }
    return json.dumps(meta, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # computation failures here
        return 0 if exc.code in (0, None) else 1
    # the levels of --out this run made, deepest first, and the files it
    # opened for writing: a run that does not finish removes them
    made, written, done = [], [], False
    try:
        cfg = merge_config(args.command, args)
        out_dir = Path(cfg.out)
        # made before the run, so an unusable --out fails before any work
        made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        started = datetime.now(timezone.utc).isoformat()
        t0 = time.perf_counter()
        run, _, _ = _COMMANDS[args.command]
        artifacts = run(cfg)
        artifacts["run_meta.json"] = _run_meta(cfg, args.command, started,
                                               time.perf_counter() - t0)
        for name, text in artifacts.items():
            with open(out_dir / name, "w", encoding="utf-8") as fh:
                written.append(out_dir / name)
                fh.write(text)
        done = True
    except (MarketStatesError, OSError, MemoryError) as exc:
        tag = type(exc).__name__ if isinstance(exc, MarketStatesError) else (
            "OSError" if isinstance(exc, OSError) else "MemoryError")
        print(f"error[{tag}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ComputationError, MemoryError)) else 1
    finally:
        if not done:  # rmdir only: a directory holding anything else stays
            for undo in [p.unlink for p in written] + [p.rmdir for p in made]:
                try:
                    undo()
                except OSError:
                    pass
    return 0


def entry_point():
    sys.exit(main())
