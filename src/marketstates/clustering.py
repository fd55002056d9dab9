"""Seeded k-means over matrix sequences and the sigma_intra model selection.

Matrices are clustered as points in packed-triangle space: the rows of
a MatrixStack (a matrix list is stacked once by ``MatrixStack.of``, and
a 2-D array is taken as packed rows as it is), under the same L1
distance used everywhere else (``metric="l1"``, the default); centroids
are element-wise means. The mean/L1 hybrid lacks a textbook monotone
convergence guarantee, so MAX_ITER bounds every run; ``metric="l2"``
selects classical Lloyd with its usual guarantees.

Model selection follows the dispersion-of-restarts signal: run k-means
n_init times from different seeded starts, take the population standard
deviation of the per-run d_intra values, and pick the (k, epsilon) grid
cell where that deviation is smallest among cells with k at or above an
explicit admissibility floor.

Determinism contract: given (matrices, k, seed, metric) the
assignment vector is bit-identical across runs, thread counts, and
schedules. Restarts derive sub-seeds from the base seed by index, so
their results do not depend on how many workers run them, or in what
order.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial.distance import cdist

from .corrmat import (
    EpochSpec,
    MatrixStack,
    average_correlation,
    check_epsilon,
    pipeline_stacks,
)
from .errors import (
    InsufficientData,
    MarketStatesError,
    ParameterRange,
    TieWarning,
    ValidationError,
)
from .ingest import ReturnTable, SectorMap
from .markov import StateSequence
from .rng import check_seed, subseed

# metric -> (cdist kind whose argmin assigns, its map to the true distance);
# l2 assigns by the squared form, same argmin and cheaper
_METRICS = {
    "l1": ("cityblock", lambda v: v),
    "l2": ("sqeuclidean", np.sqrt),
}
MAX_ITER = 300


def _packed_rows(matrices) -> np.ndarray:
    """The points to cluster: a 2-D array as it is, else the stack's rows."""
    if not isinstance(matrices, np.ndarray):
        return MatrixStack.of(matrices).data
    pts = np.asarray(matrices, dtype=np.float64)
    if pts.ndim != 2:
        raise ValidationError("expected a 2-D array of packed rows")
    return pts


def check_k(k: int):
    """A cluster count must be at least 1."""
    if k < 1:
        raise ParameterRange(f"k must be >= 1, got {k}")


def check_n_init(n_init: int):
    """σ_intra is a spread over restarts, so it needs at least two."""
    if n_init < 2:
        raise ParameterRange(f"n_init must be >= 2, got {n_init}")


def check_threads(threads: int):
    """A worker count must be at least 1."""
    if threads < 1:
        raise ParameterRange(f"threads must be >= 1, got {threads}")


def check_metric(metric: str):
    """The metric must be a key of ``_METRICS``."""
    if metric not in _METRICS:
        raise ParameterRange(f"metric must be one of {tuple(_METRICS)}, got {metric!r}")


def thread_map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]`` in order, on ``threads`` worker threads."""
    check_threads(threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _cluster_means(pts: np.ndarray, assign: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-cluster row means as one (k, n) membership product over ``pts``.

    Row g of the sparse matrix holds a 1 at each member of cluster g in
    index order, so the product adds each cluster's rows in index order
    starting from 0.0 without copying them out of ``pts``. For rows of two
    or more entries that is exactly ``pts[assign == g].mean(axis=0)``; for
    one entry numpy sums pairwise, so the last bit may differ. Every
    cluster must be nonempty.
    """
    n = assign.shape[0]
    members = csr_array(
        (np.ones(n), np.argsort(assign, kind="stable"),
         np.concatenate(([0], np.cumsum(sizes)))),
        shape=(sizes.shape[0], n),
    )
    return members @ pts / sizes[:, None]


@dataclass(frozen=True)
class Clustering:
    """One converged (or MAX_ITER-truncated) k-means run."""

    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    d_intra: float
    seed: int
    iterations: int
    converged: bool
    metric: str = "l1"
    d_intra_history: tuple[float, ...] = ()

    @property
    def n_points(self) -> int:
        return int(self.assignments.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


def kmeans(
    matrices,
    k: int,
    seed: int,
    metric: str = "l1",
) -> Clustering:
    """Lloyd-style k-means with seeded initialization.

    Initialization draws k distinct data points uniformly without
    replacement. Assignment ties go to the lowest centroid index; an
    empty cluster is repaired by seizing the point currently farthest
    from its own centroid (points that are sole members stay put).
    d_intra is the mean point-to-assigned-centroid distance under the
    active metric.

    Each iteration reads the points twice, once for the distances and
    once for the centroid update by a sparse membership product; no
    cluster's rows are copied, so the run's extra memory is O(n k + k P).
    """
    pts = _packed_rows(matrices)
    n = pts.shape[0]
    check_k(k)
    if k > n:
        raise InsufficientData(f"k={k} exceeds {n} matrices")
    check_metric(metric)
    check_seed(seed)
    kind, to_distance = _METRICS[metric]

    rng = np.random.default_rng(seed)
    centroids = pts[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    iterations = 0
    converged = False

    for _ in range(MAX_ITER):
        iterations += 1
        dist = cdist(pts, centroids, kind)
        new_assign = dist.argmin(axis=1)
        own = to_distance(dist[np.arange(n), new_assign])
        history.append(float(own.mean()))

        sizes = np.bincount(new_assign, minlength=k)
        for empty in np.flatnonzero(sizes == 0):
            movable = sizes[new_assign] > 1
            candidates = np.where(movable, own, -np.inf)
            j = int(candidates.argmax())
            sizes[new_assign[j]] -= 1
            new_assign[j] = empty
            sizes[empty] = 1
            own[j] = 0.0

        if np.array_equal(new_assign, assign):
            converged = True
            break
        assign = new_assign
        centroids = _cluster_means(pts, assign, sizes)

    final = cdist(pts, centroids, kind)
    d_intra = float(to_distance(final[np.arange(n), assign]).mean())
    return Clustering(
        k=k,
        assignments=assign,
        centroids=centroids,
        d_intra=d_intra,
        seed=seed,
        iterations=iterations,
        converged=converged,
        metric=metric,
        d_intra_history=tuple(history),
    )


class SigmaIntraResult(NamedTuple):
    mean_d_intra: float
    sigma_intra: float
    best: Clustering
    d_intras: tuple[float, ...]


def sigma_intra(
    matrices,
    k: int,
    n_init: int,
    seed: int,
    metric: str = "l1",
    threads: int = 1,
) -> SigmaIntraResult:
    """Restart k-means n_init times; σ_intra is the population standard
    deviation of the per-run d_intra values.

    Sub-seed i is a fixed 64-bit mix of (seed, i), so the restart set is
    reproducible and independent of execution order. The best run is the
    minimal d_intra, ties broken by the lowest sub-seed value.
    """
    check_n_init(n_init)
    pts = _packed_rows(matrices)
    seeds = [subseed(seed, i) for i in range(n_init)]

    def run(s: int) -> Clustering:
        return kmeans(pts, k, s, metric=metric)

    runs = thread_map(run, seeds, threads)

    d = np.array([r.d_intra for r in runs])
    best_i = min(range(n_init), key=lambda i: (d[i], seeds[i]))
    return SigmaIntraResult(
        mean_d_intra=float(d.mean()),
        sigma_intra=float(d.std()),
        best=runs[best_i],
        d_intras=tuple(float(x) for x in d),
    )


@dataclass(frozen=True)
class GridCell:
    k: int
    epsilon: float
    sigma_intra: float
    mean_d_intra: float
    error: str | None = None


@dataclass(frozen=True)
class GridResult:
    """σ_intra surface over the (k, epsilon) grid plus the chosen cell."""

    cells: tuple[GridCell, ...]
    chosen_k: int
    chosen_epsilon: float
    k_min: int
    n_init: int
    seed: int

    @property
    def chosen(self) -> tuple[int, float]:
        return self.chosen_k, self.chosen_epsilon

    def cell(self, k: int, epsilon: float) -> GridCell:
        for c in self.cells:
            if c.k == k and c.epsilon == epsilon:
                return c
        raise KeyError((k, epsilon))


def check_grid(epsilon_grid: list[float], k_range: list[int], k_min_admissible: int):
    """Some distinct ε, all in [0, 1], and some distinct k >= 1, one at or
    above the floor."""
    if not epsilon_grid or not k_range:
        raise ValidationError("epsilon grid and k range must be nonempty")
    for e in epsilon_grid:
        check_epsilon(e)
    for k in k_range:
        check_k(k)
    for name, values in (("epsilon grid", epsilon_grid), ("k range", k_range)):
        if len(set(values)) < len(values):
            raise ValidationError(f"{name} {values} repeats a value")
    if not any(k >= k_min_admissible for k in k_range):
        raise ValidationError(
            f"no k in {k_range} reaches the admissibility floor {k_min_admissible}"
        )


def optimize_states(
    returns: ReturnTable,
    spec: EpochSpec,
    sectors: SectorMap | None,
    epsilon_grid: Sequence[float],
    k_range: Sequence[int],
    k_min_admissible: int,
    n_init: int,
    seed: int,
    metric: str = "l1",
    threads: int = 1,
) -> GridResult:
    """Scan the (k, epsilon) grid and pick the σ_intra minimum.

    Per epsilon: rolling Pearson matrices, power map, coarse graining
    when a sector map is given; per k: sigma_intra with the same base
    seed in every cell so columns differ only through the data. The
    chosen cell minimizes σ_intra over error-free cells with
    k >= k_min_admissible; exact ties fall to smaller k, then smaller
    epsilon. Per-cell failures are recorded, not raised; matrix building
    errors (a degenerate column, an unmapped ticker) raise. With sectors
    one ``pipeline_stacks`` pass builds every small Guhr column; at stock
    level one full column is built at a time.
    """
    eps_list = [float(e) for e in epsilon_grid]
    k_list = [int(k) for k in k_range]
    check_grid(eps_list, k_list, k_min_admissible)
    check_n_init(n_init)
    check_threads(threads)
    check_metric(metric)

    guhr = None if sectors is None else pipeline_stacks(returns, spec, eps_list, sectors)
    cells: list[GridCell] = []
    for j, eps in enumerate(eps_list):
        mats = guhr[j] if guhr is not None else pipeline_stacks(returns, spec, [eps])[0]
        for k in k_list:
            try:
                res = sigma_intra(mats, k, n_init, seed, metric=metric, threads=threads)
                cells.append(GridCell(k, eps, res.sigma_intra, res.mean_d_intra))
            except MarketStatesError as exc:
                cells.append(
                    GridCell(k, eps, float("nan"), float("nan"),
                             f"{type(exc).__name__}: {exc}")
                )
        # a rebound name would keep this column alive while the next is built
        del mats

    admissible = [c for c in cells if c.error is None and c.k >= k_min_admissible]
    if not admissible:
        raise ValidationError(
            "every admissible grid cell failed; see per-cell errors"
        )
    best = min(admissible, key=lambda c: (c.sigma_intra, c.k, c.epsilon))
    return GridResult(
        cells=tuple(cells),
        chosen_k=best.k,
        chosen_epsilon=best.epsilon,
        k_min=k_min_admissible,
        n_init=n_init,
        seed=seed,
    )


def order_states(c: Clustering, matrices) -> StateSequence:
    """Relabel raw cluster ids so label 1 has the lowest mean average
    correlation over its members and label k the highest. Ties between
    cluster means go to the lower raw id, with a TieWarning."""
    stack = MatrixStack.of(matrices)
    if len(stack) != c.n_points:
        raise ValidationError(
            f"{len(stack)} matrices for a clustering of {c.n_points} points"
        )
    avg = average_correlation(stack)
    means = np.array([avg[c.assignments == g].mean() for g in range(c.k)])
    order = np.argsort(means, kind="stable")
    if np.unique(means).size < c.k:
        warnings.warn(
            "identical per-cluster mean correlations; ties broken by raw id",
            TieWarning,
            stacklevel=2,
        )
    label_of = np.empty(c.k, dtype=np.int64)
    label_of[order] = np.arange(1, c.k + 1)
    return StateSequence(
        states=label_of[c.assignments],
        k=c.k,
        epoch_ends=stack.epoch_ends,
        state_means=tuple(float(means[g]) for g in order),
    )


def grid_csv(result: GridResult) -> str:
    """One row per grid cell: ``k,epsilon,sigma_intra,mean_d_intra``."""
    lines = ["k,epsilon,sigma_intra,mean_d_intra"]
    for c in result.cells:
        lines.append(
            f"{c.k},{format(c.epsilon, '.17g')},"
            f"{format(c.sigma_intra, '.17g')},{format(c.mean_d_intra, '.17g')}"
        )
    return "\n".join(lines) + "\n"


def grid_summary(result: GridResult) -> dict:
    chosen = result.cell(result.chosen_k, result.chosen_epsilon)
    return {
        "chosen_k": result.chosen_k,
        "chosen_epsilon": result.chosen_epsilon,
        "sigma_intra": chosen.sigma_intra,
        "mean_d_intra": chosen.mean_d_intra,
        "k_min_admissible": result.k_min,
        "n_init": result.n_init,
        "seed": result.seed,
        "cell_errors": {
            f"k={c.k},epsilon={c.epsilon}": c.error
            for c in result.cells
            if c.error is not None
        },
    }


def grid_summary_json(result: GridResult) -> str:
    return json.dumps(grid_summary(result), indent=2, sort_keys=True) + "\n"
