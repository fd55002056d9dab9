"""Tests of the pair runner on canned benchmark output, with no child runs.

Run with ``python3 -m pytest bench``.
"""

import json
import subprocess
from pathlib import Path

import pytest

import pairs

ROOT = Path(__file__).resolve().parent.parent


def _stdout(job_s: float, failed: int = 0, attempted: int = 6) -> str:
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "job_s": {"value": job_s, "unit": "s"},
            "peak_rss_mb": {"value": 230.5, "unit": "MB"},
            "setup_s": {"value": 0.12, "unit": "s"},
        },
    }
    return (
        "workload transitions-pearson: seed 0, 6 jobs in a closed loop (1 client) over 3 "
        "markets, trace 0\n"
        'env {"nproc": 2, "seed": 0}\n'
        f"  job_s {job_s:>14.6g} s        n=6\n"
        + json.dumps(result) + "\n"
    )


STDERR = (
    "set-up market 0: 0.118 s\n"
    "job 0 market 0 traced 0: 3.412 s wall, 5.10 s cpu, 231 MB\n"
    "job 1 market 0 traced 1: 3.901 s wall, 5.90 s cpu, 240 MB\n"
    "set-up market 1: 0.121 s\n"
    "job 2 market 1 traced 0: 3.100 s wall, 4.70 s cpu, 229 MB, FAILED: exit code 1\n"
    "job 3 market 1 traced 0: 3.300 s wall, 4.90 s cpu, 230 MB\n"
)


def test_parse_run_reads_the_last_json_line_and_untraced_job_cpu():
    values = pairs.parse_run(_stdout(3.25), STDERR)
    assert values == {
        "job_s": 3.25,
        "peak_rss_mb": 230.5,
        "setup_s": 0.12,
        "failed_frac": 0.0,
        "job_cpu_s": 4.9,  # median of 5.10, 4.70 and 4.90; the traced job is left out
        "env": {"nproc": 2, "seed": 0},
    }


def test_parse_run_refuses_a_run_whose_checks_failed():
    with pytest.raises(pairs.FailedRun, match="^1/6 jobs failed their checks$"):
        pairs.parse_run(_stdout(3.25, failed=1), STDERR)


def test_parse_run_without_job_lines_has_no_cpu_metric():
    assert "job_cpu_s" not in pairs.parse_run(_stdout(3.0), "set-up market 0: 0.1 s\n")


def test_pairs_alternate_which_side_runs_first():
    calls = []
    wall = {"parent": 3.5, "change": 3.0}

    def fake_run(directory, argv):
        calls.append(directory.name)
        assert argv == ["--workload", "w", "--seed", "1"]
        return _stdout(wall[directory.name]), STDERR

    dirs = {"parent": Path("/x/parent"), "change": Path("/x/change")}
    out = pairs.run_pairs(dirs, ["--workload", "w", "--seed", "1"], 3, run=fake_run)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [p["change"]["job_s"] for p in out] == [3.0, 3.0, 3.0]
    assert [p["parent"]["job_s"] for p in out] == [3.5, 3.5, 3.5]


def test_an_aa_run_is_one_directory_twice():
    calls = []

    def fake_run(directory, argv):
        calls.append(directory)
        return _stdout(3.0), STDERR

    same = Path("/x/one")
    out = pairs.run_pairs({"parent": same, "change": same}, [], 2, run=fake_run)
    assert calls == [same] * 4
    summary = pairs.summarize(out, {})
    assert "env" not in summary
    assert summary["job_s"]["change_wins"] == 0
    assert summary["job_s"]["gap"] == 0.0


def _pairs(parent, change, name="job_s"):
    return [{"parent": {name: a}, "change": {name: b}} for a, b in zip(parent, change)]


def test_summary_quartiles_wins_and_resolution():
    runs = _pairs([3.0, 3.2, 3.4, 3.6, 3.8], [2.9, 3.1, 3.2, 3.7, 3.0])
    s = pairs.summarize(runs, {"job_s": True})["job_s"]
    assert s["parent"] == pytest.approx((3.2, 3.4, 3.6))
    assert s["change"] == pytest.approx((3.0, 3.1, 3.2))
    assert s["change_wins"] == 4  # pair 3 is the loss
    assert s["gap"] == pytest.approx(-0.3)
    assert s["gap_frac"] == pytest.approx(-0.3 / 3.4)
    assert s["gap_exceeds_parent_iqr"] is False  # 0.3 against an IQR of 0.4
    runs = _pairs([3.3, 3.4, 3.4, 3.4, 3.5], [3.0, 3.0, 3.1, 3.0, 3.0])
    assert pairs.summarize(runs, {"job_s": True})["job_s"]["gap_exceeds_parent_iqr"] is True


def test_summary_follows_each_metric_direction_and_skips_ties():
    runs = _pairs([0.5, 0.5, 0.5], [0.6, 0.5, 0.4], name="converged_frac")
    s = pairs.summarize(runs, {"converged_frac": False})["converged_frac"]
    assert s["change_wins"] == 1


def test_directions_come_from_the_benchmark_file():
    lower = pairs.directions(ROOT)
    assert lower["job_s"] is True and lower["peak_rss_mb"] is True
    assert lower["clustering.kmeans.converged_frac"] is False


def test_bounds_come_from_the_benchmark_file():
    assert pairs.bounds(ROOT) == {"job_s": 0.25, "peak_rss_mb": 0.15, "setup_s": 0.25}


TIGHT = [10.0, 10.0, 10.0, 10.0, 10.0]
WIDE = [7.0, 8.0, 10.0, 12.0, 13.0]  # quartiles 8/10/12: an IQR of 40% of the median


@pytest.mark.parametrize("parent, change, lower, expected", [
    (TIGHT, [12.4] * 5, True, "within"),  # 24% worse against a 25% bound
    (TIGHT, [12.6] * 5, True, "worse"),
    (TIGHT, [7.6] * 5, False, "within"),  # higher is better: 24% worse
    (TIGHT, [7.4] * 5, False, "worse"),
    (TIGHT, [12.6] * 5, False, "within"),  # higher is better: a gain
    (WIDE, [10.0] * 5, True, "unresolved"),
    (WIDE, [6.0, 6.5, 6.0, 6.9, 6.2], True, "within"),  # every change run beats every parent run
    (WIDE, [6.0, 6.5, 6.0, 7.0, 6.2], True, "unresolved"),  # a tie with the best parent run
    (WIDE, [13.0] * 5, True, "worse"),  # a median past the bound is worse, however wide
])
def test_no_regression_verdict_on_each_side_of_the_bound(parent, change, lower, expected):
    assert pairs.verdict(parent, change, lower, 0.25) == expected


def test_summary_and_report_carry_the_bound_of_end_to_end_metrics_only():
    runs = [{"parent": {"job_s": a, "job_cpu_s": 1.0}, "change": {"job_s": b, "job_cpu_s": 2.0}}
            for a, b in zip(TIGHT, [12.6] * 5)]
    summary = pairs.summarize(runs, {}, pairs.bounds(ROOT))
    assert (summary["job_s"]["bound"], summary["job_s"]["verdict"]) == (0.25, "worse")
    assert "bound" not in summary["job_cpu_s"] and "verdict" not in summary["job_cpu_s"]
    rows = pairs.report(summary).splitlines()
    assert rows[0].endswith("bound")
    assert rows[1].startswith("job_s") and rows[1].endswith("25% worse")
    assert rows[2].startswith("job_cpu_s") and rows[2].endswith("yes")


def test_report_has_a_row_per_metric():
    runs = [{"parent": {"job_s": 3.0, "setup_s": 0.1}, "change": {"job_s": 2.0, "setup_s": 0.1}}]
    text = pairs.report(pairs.summarize(runs, {}))
    rows = text.splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("job_s") and "-33.3%" in rows[1] and "1/1" in rows[1]


@pytest.mark.parametrize("workload", ["all", "transitions-pearson,grid-guhr", "nope"])
def test_a_workload_that_is_not_one_benchmark_name_is_refused(workload, monkeypatch, capsys):
    def no_run(*_):
        raise AssertionError("no benchmark run may start")

    monkeypatch.setattr(pairs, "run_pairs", no_run)
    with pytest.raises(SystemExit) as exit_info:
        pairs.main([str(ROOT), str(ROOT), "--workload", workload])
    assert exit_info.value.code == 2
    assert "--workload must be one of" in capsys.readouterr().err


def test_each_benchmark_workload_is_accepted(monkeypatch, capsys):
    seen = []

    def fake_pairs(dirs, argv, n):
        seen.append(argv[1])
        return [{"parent": {"job_s": 3.0}, "change": {"job_s": 3.0}}]

    monkeypatch.setattr(pairs, "run_pairs", fake_pairs)
    names = pairs.workloads(ROOT)
    for name in names:
        assert pairs.main([str(ROOT), str(ROOT), "--workload", name, "--pairs", "1"]) == 0
    assert seen == names == ["transitions-pearson", "grid-guhr", "embed-pearson"]


def test_an_out_under_a_missing_directory_is_refused_before_any_pair(
        tmp_path, monkeypatch, capsys):
    """Before, the runner wrote ``--out`` only after the last pair, so a
    missing directory lost every run in a FileNotFoundError."""
    calls = []

    def fake_run(directory, argv):
        calls.append(directory)
        return _stdout(3.0), STDERR

    real = pairs.run_pairs
    monkeypatch.setattr(pairs, "run_pairs", lambda d, a, n: real(d, a, n, run=fake_run))
    out = tmp_path / "missing" / "runs.json"
    with pytest.raises(SystemExit) as exit_info:
        pairs.main([str(ROOT), str(ROOT), "--workload", "grid-guhr", "--pairs", "2",
                    "--out", str(out)])
    assert exit_info.value.code == 2
    assert calls == []
    assert f"--out directory {out.parent} does not exist" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("failing_call, where, done", [
    (1, "pair 0 parent", []),
    (3, "pair 1 change", [2]),  # pair 1 runs the change first
    (4, "pair 1 parent", [2, 1]),
])
def test_a_failed_run_stops_the_runner_and_out_keeps_the_runs_so_far(
        failing_call, where, done, tmp_path, monkeypatch, capsys):
    """The runner exits 1 naming the pair, side and failed/attempted count;
    ``--out`` holds every finished run and no summary."""
    calls = []

    def fake_run(directory, argv):
        calls.append(directory)
        return _stdout(3.0, failed=2 if len(calls) == failing_call else 0), STDERR

    real = pairs.run_pairs
    monkeypatch.setattr(pairs, "run_pairs", lambda d, a, n: real(d, a, n, run=fake_run))
    out = tmp_path / "runs.json"
    rc = pairs.main([str(ROOT), str(ROOT), "--workload", "grid-guhr", "--pairs", "3",
                     "--out", str(out)])
    assert rc == 1
    assert len(calls) == failing_call  # nothing runs after the failed run
    message = f"{where}: 2/6 jobs failed their checks"
    captured = capsys.readouterr()
    assert f"stopped: {message}" in captured.err
    assert captured.out == ""  # no summary table
    doc = json.loads(out.read_text())
    assert [len(p) for p in doc["pairs"]] == done
    assert doc["failed"] == message
    assert "summary" not in doc


@pytest.mark.parametrize("failing_call, where, done", [
    (1, "pair 0 parent", []),
    (3, "pair 1 change", [2]),
])
def test_a_run_that_exits_nonzero_stops_the_runner_and_out_keeps_the_runs_so_far(
        failing_call, where, done, tmp_path, monkeypatch, capsys):
    """A checkout whose ``perfbench/run.py`` exits nonzero stops the runner
    like a failed check: exit 1, the pair, side, exit code and last stderr
    line named, and ``--out`` holding every finished run."""
    calls = []

    def fake_run(cmd, cwd, capture_output, text):
        calls.append(cwd)
        if len(calls) == failing_call:
            return subprocess.CompletedProcess(cmd, 3, "", "Traceback ...\nKeyError: 'x'\n")
        return subprocess.CompletedProcess(cmd, 0, _stdout(3.0), STDERR)

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    out = tmp_path / "runs.json"
    rc = pairs.main([str(ROOT), str(ROOT), "--workload", "grid-guhr", "--pairs", "3",
                     "--out", str(out)])
    assert rc == 1
    assert len(calls) == failing_call
    message = f"{where}: exit code 3: KeyError: 'x'"
    captured = capsys.readouterr()
    assert f"stopped: {message}" in captured.err
    assert captured.out == ""
    doc = json.loads(out.read_text())
    assert [len(p) for p in doc["pairs"]] == done
    assert doc["failed"] == message
    assert "summary" not in doc
