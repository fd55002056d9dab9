"""Alternating before/after runs of the benchmark from two checkouts.

Usage:
    python3 bench/pairs.py PARENT_DIR CHANGE_DIR [--workload W] [--seed S]
                           [--pairs N] [--trace 0|1] [--out FILE]

Each pair runs ``perfbench/run.py`` once in each checkout, with that
checkout's own sources, one after the other; the parent goes first in
even pairs and the change in odd ones, so a drift of the machine over
the run falls on both sides alike. From every run it takes the metrics of
the final JSON line (plus ``failed_frac``) and, from the per-job stderr
lines, the median CPU seconds of a job (``job_cpu_s``), which
BENCHMARK.json does not define and which is supporting evidence only.
That final line holds only the last workload's metrics, so ``W`` must be
exactly one workload name from the parent's BENCHMARK.json: ``all`` or
a comma list is refused.

For each metric it prints both sides' medians and quartiles, how many
pairs the change won (better in the metric's BENCHMARK.json direction),
and whether the gap between the medians exceeds the parent's
interquartile range. Each ``end_to_end`` metric of the parent's
BENCHMARK.json also gets the no-regression rule against its ``bound``, a
fraction of the parent's median: ``worse`` when the change's median is
worse than the parent's by more than the bound; else ``unresolved`` when
the parent's interquartile range is wider than the bound, unless every
run of the change beats every run of the parent; else ``within``. An A/A
run, which measures the noise floor, gives the same directory twice.
``--out`` writes every run's values and the summary as JSON; an
``--out`` whose directory does not exist is refused before the first pair.

A run whose result line reports ``"correct": false`` (some job's outputs
failed perfbench's checks) stops the runner: it prints the pair, the side
and the failed/attempted job count to stderr and exits 1, so a side that
computes wrong answers cannot show up as a gain. A run that exits nonzero
stops it the same way, naming the exit code and the run's last stderr
line. ``--out`` then holds the runs made so far and the reason.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

JOB_LINE = re.compile(
    r"^job \d+ market \d+ traced (?P<traced>[01]): (?P<wall>[\d.]+) s wall, "
    r"(?P<cpu>[\d.]+) s cpu, (?P<mb>[\d.]+) MB"
)
SIDES = ("parent", "change")


class FailedRun(Exception):
    """A run that exited nonzero or whose result line reports ``"correct":
    false``. ``runs`` holds the pairs run before it, the failing pair's
    finished side included."""

    def __init__(self, message: str, runs: list[dict[str, dict]] | None = None):
        super().__init__(message)
        self.runs = runs


def parse_run(stdout: str, stderr: str) -> dict:
    """metric -> value for one perfbench run: the last JSON line's metrics,
    ``failed_frac``, and the median CPU seconds of the untraced jobs; and
    under ``env`` the run's machine, library versions and src/ line count.
    A run whose checks failed raises FailedRun."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise FailedRun(f"{result['failed']}/{result['attempted']} jobs failed "
                        "their checks")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed_frac"] = result["failed"] / result["attempted"]
    values["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    cpu = [float(m["cpu"]) for m in map(JOB_LINE.match, stderr.splitlines())
           if m and m["traced"] == "0"]
    if cpu:
        values["job_cpu_s"] = statistics.median(cpu)
    return values


def order(pair: int) -> tuple[str, str]:
    """Which side runs first in a pair: the parent in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_checkout(directory: Path, argv: list[str]) -> tuple[str, str]:
    """stdout and stderr of one ``perfbench/run.py`` run in ``directory``;
    a nonzero exit raises FailedRun with the code and the last stderr line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=directory,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        raise FailedRun(f"exit code {proc.returncode}: {last}")
    return proc.stdout, proc.stderr


def run_pairs(dirs: dict[str, Path], argv: list[str], pairs: int,
              run=run_checkout) -> list[dict[str, dict]]:
    """One {side: metrics} dict per pair, sides in alternating order. The
    first run that failed raises FailedRun, naming its pair and side and
    carrying the runs made until then."""
    out = []
    for i in range(pairs):
        pair = {}
        for side in order(i):
            try:
                pair[side] = parse_run(*run(dirs[side], argv))
            except FailedRun as exc:
                done = out + [pair] if pair else out
                raise FailedRun(f"pair {i} {side}: {exc}", done) from None
            shown = {k: v for k, v in pair[side].items() if k != "env"}
            print(f"pair {i} {side}: {json.dumps(shown)}", file=sys.stderr, flush=True)
        out.append(pair)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list[dict[str, dict]], lower_is_better: dict[str, bool],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: each side's quartiles, the change's wins, and whether
    the median gap exceeds the parent's interquartile range; for a metric
    in ``bounds``, also its bound and its no-regression verdict."""
    summary = {}
    names = [n for n, v in pairs[0]["parent"].items() if isinstance(v, (int, float))
             and all(n in p[s] for p in pairs for s in SIDES)]
    for name in names:
        lower = lower_is_better.get(name, True)
        runs = {s: [p[s][name] for p in pairs] for s in SIDES}
        sides = {s: quartiles(runs[s]) for s in SIDES}
        wins = sum((p["change"][name] < p["parent"][name]) == lower
                   and p["change"][name] != p["parent"][name] for p in pairs)
        gap = sides["change"][1] - sides["parent"][1]
        summary[name] = {
            "parent": sides["parent"],
            "change": sides["change"],
            "change_wins": wins,
            "pairs": len(pairs),
            "gap": gap,
            "gap_frac": gap / sides["parent"][1] if sides["parent"][1] else None,
            "gap_exceeds_parent_iqr": abs(gap) > sides["parent"][2] - sides["parent"][0],
        }
        if bounds and name in bounds:
            summary[name]["bound"] = bounds[name]
            summary[name]["verdict"] = verdict(runs["parent"], runs["change"], lower,
                                               bounds[name])
    return summary


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """The no-regression rule for one end-to-end metric, with ``bound`` a
    fraction of the parent's median: ``worse``, ``unresolved`` or
    ``within`` (see the module doc)."""
    q1, med, q3 = quartiles(parent)
    sign = 1 if lower else -1  # sign * value grows as the metric worsens
    if sign * (quartiles(change)[1] - med) > bound * med:
        return "worse"
    beats_all = max(sign * v for v in change) < min(sign * v for v in parent)
    if q3 - q1 > bound * med and not beats_all:
        return "unresolved"
    return "within"


def _spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def directions(checkout: Path) -> dict[str, bool]:
    """metric -> lower is better, from the checkout's BENCHMARK.json."""
    spec = _spec(checkout)
    return {m["name"]: m["better"] == "lower"
            for m in spec["end_to_end"] + spec["per_layer"]}


def bounds(checkout: Path) -> dict[str, float]:
    """end-to-end metric -> its regression bound, from the checkout's
    BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in _spec(checkout)["end_to_end"]}


def workloads(checkout: Path) -> list[str]:
    """The workload names of the checkout's BENCHMARK.json."""
    return [w["name"] for w in _spec(checkout)["workloads"]]


def report(summary: dict) -> str:
    lines = [f"{'metric':<40} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
             f"{'gap':>8} {'wins':>6} >iqr  bound"]
    for name, s in summary.items():
        fmt = "/".join(f"{v:.4g}" for v in s["parent"]), "/".join(f"{v:.4g}" for v in s["change"])
        frac = "" if s["gap_frac"] is None else f"{100 * s['gap_frac']:+.1f}%"
        rule = f"{s['bound']:.0%} {s['verdict']}" if "bound" in s else ""
        lines.append(f"{name:<40} {fmt[0]:>30} {fmt[1]:>30} {frac:>8} "
                     f"{s['change_wins']:>3}/{s['pairs']:<2} "
                     f"{'yes' if s['gap_exceeds_parent_iqr'] else 'no':<4} {rule}".rstrip())
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="transitions-pearson")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write runs and summary as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # before the first pair, so a path that cannot be written loses no run
    if args.out is not None and not args.out.parent.is_dir():
        parser.error(f"--out directory {args.out.parent} does not exist")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names = workloads(dirs["parent"])
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}, got {args.workload!r}")
    bench_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--trace", str(args.trace)]
    doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        pairs = run_pairs(dirs, bench_argv, args.pairs)
    except FailedRun as exc:
        print(f"stopped: {exc}", file=sys.stderr)
        doc.update(pairs=exc.runs, failed=str(exc))
        rc = 1
    else:
        summary = summarize(pairs, directions(dirs["parent"]), bounds(dirs["parent"]))
        print(f"{args.workload}, seed {args.seed}, trace {args.trace}: {args.pairs} pairs, "
              f"parent {dirs['parent']}, change {dirs['change']}")
        print(report(summary))
        doc.update(pairs=pairs, summary=summary)
        rc = 0
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
