"""Tests of the benchmark itself: output checks, tracing, op counts.

Run with ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans

sys.path.insert(0, str(run.SRC))

from marketstates import cli, clustering  # noqa: E402
from marketstates.corrmat import CorrMatrix  # noqa: E402
from marketstates.markov import (  # noqa: E402
    BootstrapPolicy,
    equilibrium_distribution,
    markovianity_check,
    transition_matrix,
    transitions_json,
)

INTRA = (0.1, 0.5, 0.9, 0.5, 0.1)
DURATIONS = (80, 60, 70, 50, 60)


@pytest.fixture
def levels():
    regimes = np.repeat(np.arange(1, len(DURATIONS) + 1), DURATIONS)
    day_labels = np.concatenate([[1], regimes])
    return checks.epoch_levels(day_labels, INTRA, 20)


def test_epoch_levels_take_the_majority_level():
    # 25 return days at level 0.9, then 15 at 0.1; windows of 20
    day_labels = np.concatenate([[1], np.repeat([1, 2], [25, 15])])
    lv = checks.epoch_levels(day_labels, (0.9, 0.1), 20)
    assert lv.size == 40 - 20 + 1
    # window i holds 25 - i days at level 1; window 15 ties 10 to 10 and
    # goes to the lower level
    assert list(lv[:15]) == [1] * 15
    assert list(lv[15:]) == [0] * 6


def test_adjusted_rand_index_hand_values():
    assert checks.adjusted_rand_index([1, 1, 2, 2], [5, 5, 7, 7]) == 1.0
    # contingency [[2, 0, 0], [0, 1, 1]]: (1 - 1/3) / (3/2 - 1/3) = 4/7
    assert checks.adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(4 / 7)


def _write_transitions(out: Path, states: np.ndarray, k: int):
    t = transition_matrix(states, k=k)
    eq = equilibrium_distribution(t)
    report = markovianity_check(states, BootstrapPolicy(n_boot=20, seed=0), k=k)
    out.mkdir(exist_ok=True)
    (out / "transitions.json").write_text(transitions_json(t, eq, report))
    (out / "run_meta.json").write_text("{}")


def test_transitions_check_passes_planted_and_fails_corrupt(tmp_path, levels):
    good = tmp_path / "good"
    _write_transitions(good, levels + 1, 3)
    assert checks.check_job(checks.check_transitions, good, levels) is None

    doc = json.loads((good / "transitions.json").read_text())
    doc["probs"][0][0] += 0.01
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "transitions.json").write_text(json.dumps(doc))
    assert "sum to 1" in checks.check_job(checks.check_transitions, bad, levels)

    truncated = tmp_path / "truncated"
    truncated.mkdir()
    (truncated / "transitions.json").write_text((good / "transitions.json").read_text()[:50])
    assert "unreadable" in checks.check_job(checks.check_transitions, truncated, levels)

    # the two lower levels merged into state 1: occupancy no longer matches
    merged = tmp_path / "merged"
    _write_transitions(merged, np.where(levels == 2, 3, 1), 3)
    assert "occupancy" in checks.check_job(checks.check_transitions, merged, levels)


def _write_embedding(out: Path, states, coords):
    out.mkdir(exist_ok=True)
    lines = ["epoch_end,state,x,y,z"]
    for s, (x, y, z) in zip(states, coords):
        lines.append(f"2000-01-01,{s},{float(x)!r},{float(y)!r},{float(z)!r}")
    (out / "embedding.csv").write_text("\n".join(lines) + "\n")


def test_embedding_check(tmp_path, levels):
    coords = np.random.default_rng(0).standard_normal((levels.size, 3))
    _write_embedding(tmp_path / "good", levels + 1, coords)
    assert checks.check_job(checks.check_embedding, tmp_path / "good", levels) is None

    coords[5, 1] = np.nan
    _write_embedding(tmp_path / "nan", levels + 1, coords)
    assert "non-finite" in checks.check_job(checks.check_embedding, tmp_path / "nan", levels)

    shuffled = np.random.default_rng(1).permutation(levels) + 1
    _write_embedding(tmp_path / "shuffled", shuffled, np.zeros((levels.size, 3)))
    assert "ARI" in checks.check_job(checks.check_embedding, tmp_path / "shuffled", levels)


def _write_grid(out: Path, chosen_k: int, rows: int, stable_k: int = 3):
    out.mkdir(exist_ok=True)
    (out / "sigma_summary.json").write_text(json.dumps(
        {"chosen_k": chosen_k, "chosen_epsilon": 0.0, "k_min_admissible": 3, "cell_errors": {}}
    ))
    body = "".join(
        f"{k},{eps},{1e-5 if k == stable_k and eps == 0 else 0.1 + i * 1e-3},4.0\n"
        for i, (eps, k) in enumerate((e, k) for e in (0, 0.5, 1) for k in (2, 3, 4, 5))
        if i < rows
    )
    (out / "sigma_grid.csv").write_text("k,epsilon,sigma_intra,mean_d_intra\n" + body)


def test_grid_check(tmp_path, levels):
    check = run.WORKLOADS["grid-guhr"].check
    _write_grid(tmp_path / "good", 3, 12)
    assert checks.check_job(check, tmp_path / "good", levels) is None
    _write_grid(tmp_path / "k4", 3, 12, stable_k=4)
    assert "grid minimum (4, 0.0)" in checks.check_job(check, tmp_path / "k4", levels)
    _write_grid(tmp_path / "unstable", 4, 12, stable_k=4)
    assert "planted k=3" in checks.check_job(check, tmp_path / "unstable", levels)
    _write_grid(tmp_path / "k5", 5, 12, stable_k=5)
    assert "chosen k=5" in checks.check_job(check, tmp_path / "k5", levels)
    _write_grid(tmp_path / "none", 3, 12, stable_k=0)
    assert "chosen cell disagree" in checks.check_job(check, tmp_path / "none", levels)
    _write_grid(tmp_path / "short", 3, 11)
    assert "11 grid rows" in checks.check_job(check, tmp_path / "short", levels)


def test_corrupted_or_changed_artifact_fails_the_job(tmp_path, levels):
    wl = run.WORKLOADS["transitions-pearson"]
    market = run.Market(tmp_path, 0, levels)
    report = {"rc": 0}
    first, second, third = tmp_path / "j0", tmp_path / "j1", tmp_path / "j2"
    for d in (first, second, third):
        _write_transitions(d, levels + 1, 3)
    (second / "run_meta.json").write_text('{"wall_time_s": 2}')
    assert run.judge(wl, market, first, 0, report) is None
    assert run.judge(wl, market, second, 0, report) is None  # run_meta is exempt

    text = (third / "transitions.json").read_text()
    (third / "transitions.json").write_text(text.replace('"k": 3', '"k": 3 '))
    assert "differ" in run.judge(wl, market, third, 0, report)
    (third / "transitions.json").write_text(text[:-10])
    assert "unreadable" in run.judge(wl, market, third, 0, report)
    assert "exit code 2" in run.judge(wl, market, first, 2, report)
    assert "report" in run.judge(wl, market, first, 0, {})


def test_jobs_go_round_the_pool_in_whole_rounds(monkeypatch, tmp_path):
    visits = []

    def fake_set_up(stocks, market):
        visits.append((market.directory.name, "set-up"))
        market.generate_s.append(0.0)
        market.write_s.append(0.0)

    def fake_job(wl, market, out_dir, traced):
        visits.append((market.directory.name, traced))
        return run.Job(0, 0.0, 0.0, 0.0, {}, traced)

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "set_up", fake_set_up)
    monkeypatch.setattr(run, "run_job", fake_job)
    monkeypatch.setattr(run, "judge", lambda *args: None)
    names = [f"market{m}" for m in range(run.POOL)]
    _, markets, jobs = run.run_workload("grid-guhr", 0, 0.0, trace=False)
    assert [m.seed for m in markets] == [run.market_seed(0, m) for m in range(run.POOL)]
    assert visits == [(n, v) for n in names for v in ("set-up", False)] * 2
    visits.clear()
    run.run_workload("grid-guhr", 0, 0.0, trace=True)
    assert visits == [(n, v) for n in names for v in ("set-up", False, True)]


def test_covered_seconds_takes_the_union():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]
    assert spans.covered_seconds(intervals, 0.0, 10.0) == 4.0
    assert spans.covered_seconds(intervals, 0.5, 5.5) == 3.0
    assert spans.covered_seconds([], 0.0, 1.0) == 0.0


def test_missing_wrapped_name_is_skipped():
    original = clustering.kmeans
    tracer = spans.Tracer({
        "clustering.kmeans": (("marketstates.clustering", "kmeans"),),
        "gone.function": (("marketstates.cli", "no_such_function"),),
        "gone.module": (("marketstates.no_such_module", "f"),),
    })
    tracer.install()
    try:
        assert clustering.kmeans is not original
        t0 = spans.time.perf_counter()
        pts = np.arange(12, dtype=float).reshape(6, 2)
        clustering.sigma_intra(pts, 2, 3, seed=0)
        summary = tracer.summary(t0, spans.time.perf_counter())
    finally:
        tracer.uninstall()
    assert clustering.kmeans is original
    assert summary["clustering.kmeans.calls"] == 3
    assert summary["clustering.kmeans.s"] > 0
    assert not any(k.startswith("gone.") for k in summary)


def test_l1_op_counts_match_hand_computation(monkeypatch):
    pts = np.array([[0, 0, 0], [0, 0, 1], [10, 10, 10], [10, 10, 11]], dtype=float)
    evaluated = []
    real_cdist = clustering.cdist

    def counting_cdist(a, b, metric):
        evaluated.append(a.shape[0] * b.shape[0] * a.shape[1])
        return real_cdist(a, b, metric)

    monkeypatch.setattr(clustering, "cdist", counting_cdist)
    tracer = spans.Tracer({
        "clustering.kmeans": (("marketstates.clustering", "kmeans"),),
        "mds.distance_matrix": (("marketstates.cli", "distance_matrix"),),
    })
    tracer.install()
    try:
        # seed 1 starts from one point of each pair: 2 iterations
        result = clustering.kmeans(pts, 2, seed=1)
        mats = [
            CorrMatrix(dim=2, data=np.array([1.0, r, 1.0]), epoch_end=date(2000, 1, i + 1),
                       epoch_index=i)
            for i, r in enumerate((0.1, 0.2, 0.4, 0.8))
        ]
        cli.distance_matrix(mats)
        summary = tracer.summary(0.0, 1.0)
    finally:
        tracer.uninstall()
    assert result.iterations == 2
    # (2 iterations + final pass) x 4 points x 2 centroids x 3 entries
    assert summary["clustering.kmeans.l1_ops"] == 3 * 4 * 2 * 3 == sum(evaluated)
    # 4 * 3 / 2 pairs x 3 packed entries
    assert summary["mds.distance_matrix.l1_ops"] == 18


@pytest.mark.parametrize("argv", [
    ["transitions", "--k", "2", "--epsilon", "0.3", "--n-init", "3"],
    ["optimize", "--pipeline", "guhr", "--epsilon-grid", "0,1", "--k-range", "2:3",
     "--k-min", "2", "--n-init", "3"],
    ["mds", "--k", "2", "--n-init", "2"],
])
def test_traced_cli_job_accounts_for_its_time(tmp_path, argv):
    market = tmp_path / "m"
    assert cli.main(["synth", "--out", str(market), "--sector-sizes", "3,3",
                     "--durations", "40,40", "--intra", "0.2,0.8",
                     "--inter", "0.1,0.1"]) == 0
    argv = argv[:1] + ["--prices", str(market / "prices.csv"),
                       "--sectors", str(market / "sectors.csv"),
                       "--out", str(tmp_path / "o")] + argv[1:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = spans.time.perf_counter()
        assert cli.main(argv) == 0
        t1 = spans.time.perf_counter()
        summary = tracer.summary(t0, t1)
    finally:
        tracer.uninstall()
    assert tracer.installed == set(spans.TARGETS)
    assert summary["clustering.kmeans.calls"] > 0
    assert summary["clustering.kmeans.converged_frac"] <= 1.0
    assert 0.0 <= summary["cli.self_s"] <= t1 - t0
    for layer in spans.RSS_AT_END:
        assert (summary[layer + ".s"] > 0) == (summary[layer + ".maxrss_mb"] > 0)


def test_benchmark_file_names_the_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in run.HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-guhr", "--seed", "0",
         "--seconds", "36", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
