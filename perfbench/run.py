"""Benchmark of marketstates CLI jobs on synthetic paper-shape markets.

Usage:
    python3 perfbench/run.py [--workload NAME[,NAME...]|all] [--seed N]
                             [--seconds S] [--trace 0|1]

A job is one CLI subcommand: read the price CSV, compute, write the
artifacts and run_meta.json. Each job runs in a fresh interpreter through
``perfbench/job.py`` with PYTHONPATH=src, because a CLI user pays start-up
and imports on every run. Jobs run in a closed loop with one client: the
next job starts when the previous one has exited. The jobs go round a
fixed pool of ``POOL`` planted block markets, made from sub-seeds of
``--seed``, so the same seed gives the same inputs whatever the speed of
the program. A round sets up each market, that is synthesises it and
writes its CSVs, then gives it its job. The run stops at the end of the
round after which the next would end after ``--seconds``, so every market
gets the same number of jobs, and at least two. Setting up in every round
spreads the set-up timings over the run, so that their median sees the
same machine as the jobs do.

Every job's exit code and artifacts are checked against the planted
regimes (``checks.py``), and against the artifacts of the earlier jobs on
its market: the market is synthesised anew for every round, so this checks
that synthesis and the job are both deterministic. A job that fails counts
in ``failed_frac``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: median job
wall time, peak RSS of any job, median time to set up one market.
``--trace 1`` gives each market an untraced then a traced job per round
and reports the per-layer metrics from the spans of ``spans.py`` plus the
tracing overhead. Each workload prints an ``env`` line, its metrics with
units and sample counts, and then its JSON result; the last line of
standard output is the result of the last workload run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# The paper's shape: 8 planted regimes revisiting 3 correlation levels give
# 3,522 return rows and 3,503 epochs of 20 days.
SECTORS = 10
INTRA = (0.1, 0.5, 0.9, 0.5, 0.1, 0.9, 0.5, 0.1)
INTER = (0.05, 0.2, 0.4, 0.2, 0.05, 0.4, 0.2, 0.05)
DURATIONS = (400, 450, 500, 400, 450, 400, 500, 422)
EPOCH = 20

POOL = 3  # markets per run
MIN_JOBS_PER_MARKET = 2  # so that byte-identity across jobs is checked
JOB_TIMEOUT_S = 120.0
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    stocks: int
    argv: tuple[str, ...]  # subcommand and its flags, without paths
    check: Callable
    sectors: bool = False  # pass --sectors


# Only flags the roadmap keeps; --threads is never passed, so the
# program's own default applies.
WORKLOADS = {
    "transitions-pearson": Workload(
        60, ("transitions", "--k", "3", "--epsilon", "0.3", "--n-init", "20"),
        checks.check_transitions,
    ),
    "grid-guhr": Workload(
        60, ("optimize", "--pipeline", "guhr", "--epsilon-grid", "0,0.5,1",
             "--k-range", "2:5", "--k-min", "3", "--n-init", "30"),
        functools.partial(checks.check_grid, n_cells=12),
        sectors=True,
    ),
    "embed-pearson": Workload(
        40, ("mds", "--k", "3", "--n-init", "10"),
        checks.check_embedding,
    ),
}


@dataclass
class Market:
    directory: Path
    seed: int
    levels: np.ndarray | None = None  # planted level of each epoch
    generate_s: list[float] = field(default_factory=list)  # one per set-up
    write_s: list[float] = field(default_factory=list)
    digests: dict | None = None  # artifacts of the first passing job


@dataclass
class Job:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    report: dict  # what job.py wrote; empty when it wrote nothing
    traced: bool
    failure: str | None = None


def market_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def set_up(stocks: int, market: Market) -> None:
    """Synthesise the planted market, write its prices.csv and sectors.csv
    and record the generate and write seconds."""
    from marketstates.ingest import price_table_csv
    from marketstates.synth import RegimeSpec, generate_block_market

    spec = RegimeSpec(
        sector_sizes=(stocks // SECTORS,) * SECTORS,
        intra=INTRA, inter=INTER, durations=DURATIONS, epoch_length=EPOCH,
    )
    t0 = time.perf_counter()
    table, day_labels = generate_block_market(spec, market.seed)
    t1 = time.perf_counter()
    directory = market.directory
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "prices.csv").write_text(price_table_csv(table), encoding="utf-8")
    assignment = spec.sector_map().assignment
    (directory / "sectors.csv").write_text(
        "ticker,sector\n" + "".join(f"{t},{assignment[t]}\n" for t in table.tickers),
        encoding="utf-8",
    )
    t2 = time.perf_counter()
    market.levels = checks.epoch_levels(day_labels, INTRA, EPOCH)
    market.generate_s.append(t1 - t0)
    market.write_s.append(t2 - t1)


def run_job(wl: Workload, market: Market, out_dir: Path, traced: bool) -> Job:
    """Run one job in a child process; wall time, rusage and its report."""
    argv = [wl.argv[0], "--prices", str(market.directory / "prices.csv"),
            "--out", str(out_dir)]
    if wl.sectors:
        argv += ["--sectors", str(market.directory / "sectors.csv")]
    argv += wl.argv[1:]
    report_path = out_dir.with_suffix(".report.json")
    cmd = [sys.executable, str(HERE / "job.py"), str(report_path),
           "1" if traced else "0", "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_dir.with_suffix(".log"), "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = {}
    return Job(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, report, traced)


def judge(wl: Workload, market: Market, out_dir: Path, rc: int, report: dict) -> str | None:
    """Why the job failed, or None: exit code, report, planted truth, and
    byte-identity with earlier jobs on the same market."""
    if rc != 0:
        return f"exit code {rc}"
    if report.get("rc") != 0:
        return "no job report"
    failure = checks.check_job(wl.check, out_dir, market.levels)
    if failure is not None:
        return failure
    digests = checks.artifact_digests(out_dir)
    if market.digests is None:
        market.digests = digests
    elif digests != market.digests:
        return "artifacts differ from an earlier job on the same market"
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    wl = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    markets = [Market(work / f"market{m}", market_seed(seed, m)) for m in range(POOL)]
    passes = (False, True) if trace else (False,)
    jobs: list[Job] = []
    rounds = 0
    t_start = time.perf_counter()
    while True:
        for m, market in enumerate(markets):
            set_up(wl.stocks, market)
            print(f"set-up market {m}: {market.generate_s[-1] + market.write_s[-1]:.3f} s",
                  file=sys.stderr)
            for traced in passes:
                out_dir = work / f"job{len(jobs)}"
                job = run_job(wl, market, out_dir, traced)
                job.failure = judge(wl, market, out_dir, job.rc, job.report)
                print(f"job {len(jobs)} market {m} traced {int(traced)}: "
                      f"{job.wall_s:.3f} s wall, {job.cpu_s:.2f} s cpu, "
                      f"{job.maxrss_mb:.0f} MB"
                      + (f", FAILED: {job.failure}" if job.failure else ""), file=sys.stderr)
                jobs.append(job)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if rounds * len(passes) >= MIN_JOBS_PER_MARKET and elapsed * (rounds + 1) / rounds > seconds:
            break
    return wl, markets, jobs


def _median(values):
    return (statistics.median(values), len(values)) if values else None


def end_to_end(markets, jobs) -> dict:
    """name -> (value, samples)."""
    setups = [g + w for m in markets for g, w in zip(m.generate_s, m.write_s)]
    return {
        "job_s": _median([j.wall_s for j in jobs]),
        "peak_rss_mb": (max(j.maxrss_mb for j in jobs), len(jobs)),
        "setup_s": _median(setups),
    }


def per_layer(wl, markets, jobs) -> dict:
    """name -> (value, samples), from the traced jobs and their untraced
    partners."""
    plain = [j for j in jobs if not j.traced]
    traced = [j for j in jobs if j.traced and "layers" in j.report]
    out = {}
    names = sorted({k for j in traced for k in j.report["layers"]})
    for name in names:
        out[name] = _median([j.report["layers"][name] for j in traced if name in j.report["layers"]])
    reported = [j for j in jobs if "import_s" in j.report]
    out["cli.import_s"] = _median([j.report["import_s"] for j in reported])
    out["job.cpu_s"] = _median([j.cpu_s for j in plain])
    csv_bytes = (markets[0].directory / "prices.csv").stat().st_size
    if wl.sectors:
        csv_bytes += (markets[0].directory / "sectors.csv").stat().st_size
    out["ingest.csv_mb"] = (csv_bytes / 1e6, 1)
    out["synth.generate_block_market.s"] = _median([g for m in markets for g in m.generate_s])
    out["synth.write_s"] = _median([w for m in markets for w in m.write_s])
    if plain and traced:
        overhead = statistics.median(j.wall_s for j in traced) / statistics.median(
            j.wall_s for j in plain
        ) - 1.0
        out["trace.overhead_frac"] = (overhead, len(traced) + len(plain))
    return {k: v for k, v in out.items() if v is not None}


def environment(seed: int) -> dict:
    """What makes runs comparable: machine, library versions, BLAS thread
    settings as found (never set here), workload seed, src/ line count."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="comma list of " + ", ".join(WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="job loop length; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if not (SRC / "marketstates" / "cli.py").is_file():
        print(f"error: no marketstates sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = environment(args.seed)

    for name in names:
        wl, markets, jobs = run_workload(name, args.seed, seconds, bool(args.trace))
        measured = per_layer(wl, markets, jobs) if args.trace else end_to_end(markets, jobs)
        failed = sum(j.failure is not None for j in jobs)
        print(f"workload {name}: seed {args.seed}, {len(jobs)} jobs in a closed loop "
              f"(1 client) over {len(markets)} markets, trace {args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        metrics = {}
        for m in wanted:
            if m["name"] not in measured:
                continue
            value, samples = measured[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<40} {value:>14.6g} {m['unit']:<8} n={samples}")
        print(f"  {'failed_frac':<40} {failed / len(jobs):>14.6g} {'frac':<8} "
              f"n={len(jobs)}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(jobs),
            "failed": failed,
            "metrics": metrics,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
