"""Output checks of one benchmark job against the planted market.

Each check reads the artifacts a CLI job wrote and compares them with the
regime layout the synthetic market was generated from. The tolerances are
set from the recovery the pipeline reaches on this market shape over
many workload seeds, with a margin; they catch a wrong or corrupted
artifact, not a change in the last digits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# transitions: share of counted transitions that stay in their state
SELF_SHARE_MIN = 0.9
# transitions: largest gap between a state's share of epochs and the share
# of epochs whose majority of days sits at the matching planted level
OCCUPANCY_TOL = 0.2
# embedding: adjusted Rand index of the state column against the levels
ARI_MIN = 0.6
# grid: sigma_intra / mean_d_intra of a cell whose restarts agree; such
# cells measure about 1e-5, cells where restarts disagree 1e-2
STABLE_SPREAD_MAX = 1e-3
# grid: the chosen k may exceed the planted k by this much
CHOSEN_K_SLACK = 1
# probabilities and the equilibrium sum to 1 within this
SUM_TOL = 1e-9


class CheckFailed(Exception):
    """An artifact does not match the planted market."""


def epoch_levels(day_labels: np.ndarray, intra, epoch: int) -> np.ndarray:
    """Planted level (0 = lowest intra-sector correlation) of each epoch:
    the level held by most of the epoch's return days, ties to the lower.

    ``day_labels`` holds the 1-based regime of each price day as
    ``synth.generate_block_market`` returns it; return row t carries
    label ``day_labels[t + 1]``.
    """
    levels = np.unique(np.asarray(intra))
    level_of_regime = np.searchsorted(levels, np.asarray(intra))
    per_row = level_of_regime[np.asarray(day_labels[1:]) - 1]
    windows = sliding_window_view(per_row, epoch)
    votes = (windows[:, :, None] == np.arange(levels.size)).sum(axis=1)
    return votes.argmax(axis=1)


def adjusted_rand_index(a, b) -> float:
    """Adjusted Rand index of two labelings (Hubert & Arabie, 1985)."""
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)

    def pairs(x):
        return (x * (x - 1) / 2.0).sum()

    both = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([float(ai.size)]))
    top = (rows + cols) / 2.0
    if top == expected:
        return 1.0
    return float((both - expected) / (top - expected))


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact but ``run_meta.json``, which holds
    wall-clock data and is exempt from the byte-identity contract."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file() and p.name != "run_meta.json"
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_transitions(out_dir: Path, levels: np.ndarray) -> None:
    doc = json.loads((Path(out_dir) / "transitions.json").read_text())
    counts = np.array(doc["counts"], dtype=float)
    probs = np.array(doc["probs"], dtype=float)
    pi = np.array(doc["equilibrium"], dtype=float)
    k = int(levels.max()) + 1
    _require(counts.shape == (k, k) and probs.shape == (k, k) and pi.shape == (k,),
             f"expected {k} states")
    total = counts.sum()
    _require(total == levels.size - 1, f"{total:g} transitions for {levels.size} epochs")
    self_share = np.trace(counts) / total
    _require(self_share >= SELF_SHARE_MIN, f"self-transition share {self_share:.3f}")
    occupancy = counts.sum(axis=1) / total
    planted = np.bincount(levels[:-1], minlength=k) / total
    gap = float(np.abs(occupancy - planted).max())
    _require(gap <= OCCUPANCY_TOL, f"occupancy {occupancy.round(3)} vs planted {planted.round(3)}")
    _require(bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= SUM_TOL)), "probs rows do not sum to 1")
    _require(abs(pi.sum() - 1.0) <= SUM_TOL, "equilibrium does not sum to 1")


def check_grid(out_dir: Path, levels: np.ndarray, n_cells: int) -> None:
    """The summary names the grid's sigma_intra minimum, a stable cell at
    the planted k or one above it, and restarts agree on a partition at the
    planted k in some epsilon column.

    The planted k is not required to be the minimum: on some planted
    markets a k = 4 cell is as stable as the k = 3 ones (both with
    sigma_intra near 1e-5 of mean_d_intra) and wins the comparison.
    """
    summary = json.loads((Path(out_dir) / "sigma_summary.json").read_text())
    _require(summary["cell_errors"] == {}, f"cell errors {summary['cell_errors']}")
    with open(Path(out_dir) / "sigma_grid.csv", newline="") as fh:
        cells = [
            (int(r["k"]), float(r["epsilon"]), float(r["sigma_intra"]), float(r["mean_d_intra"]))
            for r in csv.DictReader(fh)
        ]
    _require(len(cells) == n_cells, f"{len(cells)} grid rows, expected {n_cells}")
    _require(all(math.isfinite(c[2]) and math.isfinite(c[3]) for c in cells),
             "non-finite grid values")
    admissible = [c for c in cells if c[0] >= summary["k_min_admissible"]]
    _require(bool(admissible), "no admissible cell")
    k, eps, sigma, mean = min(admissible, key=lambda c: (c[2], c[0], c[1]))
    _require((summary["chosen_k"], summary["chosen_epsilon"]) == (k, eps),
             f"chosen ({summary['chosen_k']}, {summary['chosen_epsilon']}), "
             f"grid minimum ({k}, {eps})")
    planted_k = int(levels.max()) + 1
    _require(planted_k <= k <= planted_k + CHOSEN_K_SLACK,
             f"chosen k={k} for planted k={planted_k}")
    _require(sigma / mean <= STABLE_SPREAD_MAX,
             f"restarts at the chosen cell disagree: sigma/mean {sigma / mean:.3g}")
    spread = min((c[2] / c[3] for c in cells if c[0] == planted_k), default=math.inf)
    _require(spread <= STABLE_SPREAD_MAX,
             f"restarts at the planted k={planted_k} disagree: sigma/mean {spread:.3g}")


def check_embedding(out_dir: Path, levels: np.ndarray) -> None:
    with open(Path(out_dir) / "embedding.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == levels.size, f"{len(rows)} rows for {levels.size} epochs")
    coords = np.array([[float(r["x"]), float(r["y"]), float(r["z"])] for r in rows])
    _require(bool(np.isfinite(coords).all()), "non-finite coordinates")
    ari = adjusted_rand_index([int(r["state"]) for r in rows], levels)
    _require(ari >= ARI_MIN, f"state ARI {ari:.3f} against planted levels")


def check_job(check, out_dir: Path, levels: np.ndarray) -> str | None:
    """Run one check; the failure reason, or None when the job passed.

    A missing, truncated or malformed artifact is a failure, not a crash.
    """
    try:
        check(out_dir, levels)
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable artifact: {type(exc).__name__}: {exc}"
    return None
