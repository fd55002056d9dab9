"""Command line front end.

Subcommands: states, optimize, transitions, mds, synth. Options come
from flags or an optional ``--config`` file of ``key=value`` lines
(flags win). With a fixed seed every artifact is byte-identical across
runs and thread counts; wall-clock information lives only in
``run_meta.json``.

Exit codes: 0 success, 1 invalid input or configuration, 2 computation
failure on valid inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .clustering import (
    check_grid,
    check_k,
    check_n_init,
    check_threads,
    grid_csv,
    grid_summary_json,
    optimize_states,
    order_states,
    sigma_intra,
)
from .corrmat import EpochSpec, check_epsilon, pipeline_matrices
from .errors import (
    ComputationError,
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


def _float_list(text: str) -> list[float]:
    """``a,b,c`` or inclusive ``lo:hi:step``; grid values rounded to 12
    decimals so artifacts show 0.3, not 0.30000000000000004."""
    text = text.strip()
    if ":" in text:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
        if step <= 0:
            raise ValueError("step must be positive")
        vals = []
        i = 0
        while True:
            v = round(lo + i * step, 12)
            if v > hi + 1e-9:
                break
            vals.append(v)
            i += 1
        return vals
    return [float(x) for x in text.split(",") if x.strip()]


def _int_list(text: str) -> list[int]:
    """``a,b,c`` or inclusive ``lo:hi``."""
    text = text.strip()
    if ":" in text:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError("range upper bound below lower bound")
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",") if x.strip()]


def _choice(*options: str):
    def conv(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text

    return conv


_REQUIRED = object()

# dest -> (converter, help)
_OPTION_DEFS = {
    "prices": (str, "price table CSV (date,<ticker>,... header)"),
    "sectors": (str, "sector map CSV (ticker,sector rows)"),
    "out": (str, "output directory for artifacts"),
    "config": (str, "key=value config file; flags override it"),
    "epoch": (int, "epoch window length in trading days"),
    "shift": (int, "epoch shift in trading days"),
    "max_gap": (int, "drop tickers with more consecutive missing days than this"),
    "epsilon": (float, "power-map noise suppression exponent parameter"),
    "epsilon_grid": (_float_list, "epsilon values: comma list or lo:hi:step"),
    "k": (int, "cluster count"),
    "k_range": (_int_list, "k values: comma list or lo:hi"),
    "k_min": (int, "smallest k admissible when choosing the grid optimum"),
    "n_init": (int, "k-means restarts per cell"),
    "seed": (int, "base seed for all randomized steps"),
    "metric": (_choice("l1", "l2"), "clustering metric"),
    "pipeline": (_choice("pearson", "guhr"), "cluster stock-level or sector-level matrices"),
    "stride": (int, "subsample the state sequence before counting transitions"),
    "damping": (float, "equilibrium damping toward the uniform chain"),
    "threads": (int, "worker threads for restarts and distance tiles"),
    "sector_sizes": (_int_list, "synthetic sector sizes, comma list"),
    "intra": (_float_list, "per-regime intra-sector correlation levels"),
    "inter": (_float_list, "per-regime inter-sector correlation levels"),
    "durations": (_int_list, "per-regime durations in return days"),
    "noise": (float, "daily return scale"),
}

_DATA_COMMON = {
    "prices": _REQUIRED,
    "sectors": None,
    "out": _REQUIRED,
    "config": None,
    "epoch": 20,
    "shift": 1,
    "max_gap": 2,
    "n_init": 100,
    "seed": 0,
    "metric": "l1",
    "pipeline": "pearson",
    "threads": os.cpu_count() or 1,
}

# states, transitions and mds: one (k, epsilon) state sequence
_STATE_OPTIONS = {**_DATA_COMMON, "epsilon": 0.0, "k": _REQUIRED}


def _convert(key: str, raw, source: str):
    conv = _OPTION_DEFS[key][0]
    try:
        return conv(raw) if isinstance(raw, str) else raw
    except ValueError as exc:
        flag = "--" + key.replace("_", "-")
        raise ValidationError(f"bad value for {flag} (from {source}): {exc}") from None


def _read_config_file(path: str) -> list[tuple[str, str]]:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ValidationError(f"config file is not UTF-8 text: {path}") from None
    pairs = []
    for i, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValidationError(f"config line {i} is not key=value: {line!r}")
        key, raw = body.split("=", 1)
        pairs.append((key.strip().replace("-", "_"), raw.strip()))
    return pairs


def merge_config(command: str, args: argparse.Namespace) -> SimpleNamespace:
    _, _, spec = _COMMANDS[command]
    values = dict(spec)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        for key, raw in _read_config_file(config_path):
            if key not in spec or key == "config":
                raise ValidationError(
                    f"unknown config key {key!r} for command {command!r}"
                )
            values[key] = _convert(key, raw, "config file")
    for key in spec:
        raw = getattr(args, key, None)
        if raw is not None:
            values[key] = _convert(key, raw, "command line")
    missing = sorted(k for k, v in values.items() if v is _REQUIRED)
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValidationError(f"missing required option(s): {flags}")
    values["config"] = config_path
    return SimpleNamespace(**values)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_ranges(cfg) -> EpochSpec:
    """Data-free range checks, made before any input is read; returns the EpochSpec."""
    if hasattr(cfg, "stride"):
        if cfg.stride < 1:
            raise ParameterRange(f"stride must be >= 1, got {cfg.stride}")
        if cfg.k < 2:
            raise ParameterRange(f"transitions need k >= 2 for tridiagonality, got {cfg.k}")
        check_damping(cfg.damping)
    check_n_init(cfg.n_init)
    check_threads(cfg.threads)
    check_seed(cfg.seed)
    check_max_gap(cfg.max_gap)
    if hasattr(cfg, "epsilon_grid"):
        check_grid(cfg.epsilon_grid, cfg.k_range, cfg.k_min)
    else:
        check_k(cfg.k)
        check_epsilon(cfg.epsilon)
    return EpochSpec(length=cfg.epoch, shift=cfg.shift)


def _prepare_data(cfg):
    spec = _check_ranges(cfg)
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


def _state_pipeline(cfg, returns, sectors, spec):
    mats = pipeline_matrices(returns, spec, cfg.epsilon, sectors)
    result = sigma_intra(
        mats, cfg.k, cfg.n_init, cfg.seed,
        metric=cfg.metric, threads=cfg.threads,
    )
    seq = order_states(result.best, mats)
    return mats, result, seq


def _write(out_dir: Path, name: str, text: str):
    (out_dir / name).write_text(text, encoding="utf-8")


def _states_csv(seq) -> str:
    lines = ["epoch_end,state"]
    for end, state in zip(seq.epoch_ends, seq.states):
        lines.append(f"{end.isoformat()},{int(state)}")
    return "\n".join(lines) + "\n"


def cmd_states(cfg, out_dir: Path):
    _, result, seq = _state_pipeline(cfg, *_prepare_data(cfg))
    _write(out_dir, "states.csv", _states_csv(seq))
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
    _write(out_dir, "states_summary.json",
           json.dumps(summary, indent=2, sort_keys=True) + "\n")


def cmd_optimize(cfg, out_dir: Path):
    returns, sectors, spec = _prepare_data(cfg)
    grid = optimize_states(
        returns, spec, sectors,
        cfg.epsilon_grid, cfg.k_range, cfg.k_min,
        cfg.n_init, cfg.seed,
        metric=cfg.metric, threads=cfg.threads,
    )
    _write(out_dir, "sigma_grid.csv", grid_csv(grid))
    _write(out_dir, "sigma_summary.json", grid_summary_json(grid))


def cmd_transitions(cfg, out_dir: Path):
    returns, sectors, spec = _prepare_data(cfg)
    epochs = spec.window_count(returns.n_rows)
    kept = len(range(0, epochs, cfg.stride))
    if kept < 3:
        raise InsufficientSequence(
            f"--stride {cfg.stride} keeps {kept} of {epochs} epochs; the "
            "Markov check needs at least 3 states"
        )
    _, _, seq = _state_pipeline(cfg, returns, sectors, spec)
    states = seq.states[:: cfg.stride]
    t = transition_matrix(states, k=seq.k)
    eq = equilibrium_distribution(t, damping=cfg.damping)
    report = markovianity_check(states, BootstrapPolicy(seed=cfg.seed), k=seq.k)
    _write(out_dir, "transitions.json", transitions_json(t, eq, report))


def cmd_mds(cfg, out_dir: Path):
    mats, _, seq = _state_pipeline(cfg, *_prepare_data(cfg))
    dm = distance_matrix(mats, threads=cfg.threads)
    emb = classical_mds(dm, 3, states=seq.states, epoch_ends=seq.epoch_ends)
    _write(out_dir, "embedding.csv", embedding_table(emb))
    _write(out_dir, "embedding.svg", embedding_svg(emb))


def cmd_synth(cfg, out_dir: Path):
    check_seed(cfg.seed)
    spec = RegimeSpec(
        sector_sizes=tuple(cfg.sector_sizes),
        intra=tuple(cfg.intra),
        inter=tuple(cfg.inter),
        durations=tuple(cfg.durations),
        noise_scale=cfg.noise,
        epoch_length=cfg.epoch,
    )
    table, day_labels = generate_block_market(spec, cfg.seed)
    _write(out_dir, "prices.csv", price_table_csv(table))
    _write(out_dir, "regime_truth.csv", regime_truth_csv(table, day_labels))
    sector_map = spec.sector_map()
    lines = ["ticker,sector"]
    for ticker in table.tickers:
        lines.append(f"{ticker},{sector_map.assignment[ticker]}")
    _write(out_dir, "sectors.csv", "\n".join(lines) + "\n")


# subcommand -> (handler, help, option defaults)
_COMMANDS: dict[str, tuple] = {
    "states": (
        cmd_states,
        "fixed (k, epsilon) state sequence from a price table",
        _STATE_OPTIONS,
    ),
    "optimize": (
        cmd_optimize,
        "sigma_intra scan over the (k, epsilon) grid",
        {
            **_DATA_COMMON,
            "epsilon_grid": _REQUIRED,
            "k_range": _REQUIRED,
            "k_min": _REQUIRED,
        },
    ),
    "transitions": (
        cmd_transitions,
        "state sequence plus transition matrix, equilibrium, Markov checks",
        {**_STATE_OPTIONS, "stride": 1, "damping": 0.0},
    ),
    "mds": (
        cmd_mds,
        "3D classical scaling of the epoch matrices",
        _STATE_OPTIONS,
    ),
    "synth": (
        cmd_synth,
        "generate a planted block market",
        {
            "out": _REQUIRED,
            "config": None,
            "seed": 0,
            "epoch": 20,
            "sector_sizes": [10, 10, 10, 10, 10, 10],
            "intra": [0.3, 0.6, 0.9],
            "inter": [0.1, 0.2, 0.3],
            "durations": [500, 500, 500],
            "noise": 0.02,
        },
    ),
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
            sp.add_argument(flag, dest=dest, default=None, help=_OPTION_DEFS[dest][1])
    return parser


def _write_run_meta(cfg, out_dir: Path, command: str, started: str, elapsed: float):
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
    _write(out_dir, "run_meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # computation failures here
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = merge_config(args.command, args)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = datetime.now(timezone.utc).isoformat()
        t0 = time.perf_counter()
        run, _, _ = _COMMANDS[args.command]
        run(cfg, out_dir)
        _write_run_meta(cfg, out_dir, args.command, started, time.perf_counter() - t0)
    except (MarketStatesError, OSError) as exc:
        tag = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        print(f"error[{tag}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ComputationError) else 1
    return 0


def entry_point():
    sys.exit(main())
