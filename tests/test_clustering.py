import os
import sys
import threading
import time
import tracemalloc
import weakref
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from marketstates import clustering, packed
from marketstates.clustering import (
    MAX_ITER,
    Clustering,
    _cluster_means,
    _lloyd,
    grid_csv,
    kmeans,
    optimize_states,
    order_states,
    partition_d_intra,
    sigma_intra,
)
from marketstates.corrmat import (
    CorrMatrix,
    EpochSpec,
    MatrixStack,
    average_correlation,
    coarse_grain,
    epoch_correlation,
    pipeline_matrices,
    power_map,
    rolling_correlations,
)
from marketstates.errors import (
    InsufficientData,
    ParameterRange,
    TieWarning,
    UnmappedTicker,
    ValidationError,
)
from marketstates.ingest import ReturnTable, SectorMap
from marketstates.rng import subseed


def lloyd_reference_l2(pts, k, seed, max_iter=300):
    """Transparent textbook Lloyd under squared-Euclidean assignment.

    Mirrors only the documented contract: k distinct start points drawn
    with the seed, argmin assignment with lowest-index ties, mean
    centroids, stop when assignments repeat. Tracks the mean squared
    distance, the objective Lloyd provably never increases.
    """
    rng = np.random.default_rng(seed)
    n = pts.shape[0]
    centroids = pts[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    sq_history = []
    for _ in range(max_iter):
        d2 = cdist(pts, centroids, "sqeuclidean")
        new_assign = d2.argmin(axis=1)
        sq_history.append(float(d2[np.arange(n), new_assign].mean()))
        if np.bincount(new_assign, minlength=k).min() == 0:
            return None, None  # caller skips seeds that need repair
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for g in range(k):
            centroids[g] = pts[assign == g].mean(axis=0)
    return assign, sq_history


def _blobs(levels, per, dim, noise, seed):
    rng = np.random.default_rng(seed)
    base = np.repeat(np.asarray(levels, dtype=float), per)[:, None]
    return base + rng.normal(0, noise, size=(len(levels) * per, dim))


def _return_table(rows, cols, seed):
    rng = np.random.default_rng(seed)
    days = tuple(date(2015, 1, 1) + timedelta(days=t) for t in range(rows))
    tickers = tuple(f"T{j:03d}" for j in range(cols))
    return ReturnTable(dates=days, tickers=tickers, returns=rng.normal(0, 0.02, (rows, cols)))


def _constant_corr(v: float, dim: int, index: int) -> CorrMatrix:
    data = np.full(packed.packed_length(dim), v)
    data[packed.diagonal_positions(dim)] = 1.0
    return CorrMatrix(
        dim=dim,
        data=data,
        epoch_end=date(2015, 1, 1) + timedelta(days=index),
        epoch_index=index,
    )


def test_k1_centroid_is_global_mean():
    pts = _blobs([0.2, 0.7], 10, 8, 0.05, seed=0)
    c = kmeans(pts, k=1, seed=3)
    assert (c.assignments == 0).all()
    np.testing.assert_allclose(c.centroids[0], pts.mean(axis=0), atol=1e-12)
    want = np.abs(pts - pts.mean(axis=0)).sum(axis=1).mean()
    assert c.d_intra == pytest.approx(want, abs=1e-12)
    assert c.converged


def test_k_equals_point_count():
    pts = _blobs([0.1, 0.5, 0.9], 4, 6, 0.02, seed=1)
    c = kmeans(pts, k=len(pts), seed=5)
    assert c.d_intra == 0.0
    assert (c.cluster_sizes() == 1).all()


def _matches_partition(assignments, truth, groups):
    by_group = [assignments[truth == g] for g in range(groups)]
    if any((block != block[0]).any() for block in by_group):
        return False
    return len({int(block[0]) for block in by_group}) == groups


def test_constant_blocks_recovered_from_any_seed():
    # zero within-group spread: constant matrices at three levels
    pts = np.repeat(np.array([0.1, 0.5, 0.9]), 5)[:, None] * np.ones((1, 10))
    truth = np.repeat(np.arange(3), 5)
    for seed in range(30):
        c = kmeans(pts, k=3, seed=seed)
        assert c.converged
        assert _matches_partition(c.assignments, truth, 3)


def test_noisy_blocks_recovered_by_best_restart():
    pts = _blobs([0.1, 0.5, 0.9], 30, 40, 0.005, seed=2)
    truth = np.repeat(np.arange(3), 30)
    res = sigma_intra(pts, k=3, n_init=10, seed=0)
    assert _matches_partition(res.best.assignments, truth, 3)


def test_parameter_errors():
    pts = _blobs([0.3], 6, 4, 0.01, seed=3)
    with pytest.raises(ParameterRange):
        kmeans(pts, k=0, seed=0)
    with pytest.raises(InsufficientData):
        kmeans(pts, k=7, seed=0)
    with pytest.raises(ParameterRange, match=r"one of \('l1', 'l2'\)"):
        kmeans(pts, k=2, seed=0, metric="cosine")
    with pytest.raises(ParameterRange, match="seed must be >= 0"):
        kmeans(pts, k=2, seed=-1)
    with pytest.raises(ValidationError, match="2-D"):
        kmeans(np.zeros(6), k=1, seed=0)
    with pytest.raises(InsufficientData):
        kmeans([], k=1, seed=0)
    mixed = [_constant_corr(0.2, 3, 0), _constant_corr(0.2, 4, 1)]
    with pytest.raises(ValidationError):
        kmeans(mixed, k=1, seed=0)


def test_same_seed_bit_identical():
    pts = np.random.default_rng(4).normal(size=(60, 12))
    a = kmeans(pts, k=4, seed=99)
    b = kmeans(pts, k=4, seed=99)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.d_intra == b.d_intra
    assert a.d_intra_history == b.d_intra_history


def test_l2_matches_reference_lloyd():
    rng = np.random.default_rng(5)
    tested = 0
    for trial in range(20):
        pts = rng.normal(size=(80, 12))
        seed = int(rng.integers(1 << 31))
        want, sq_history = lloyd_reference_l2(pts, 3, seed)
        if want is None:
            continue
        tested += 1
        got = kmeans(pts, k=3, seed=seed, metric="l2")
        np.testing.assert_array_equal(got.assignments, want)
        assert (np.diff(np.array(sq_history)) <= 1e-9).all()
    assert tested >= 15


def test_history_descends_end_to_end():
    rng = np.random.default_rng(6)
    for metric in ("l1", "l2"):
        for trial in range(25):
            n = int(rng.integers(30, 90))
            pts = rng.normal(size=(n, int(rng.integers(5, 30))))
            c = kmeans(pts, k=3, seed=trial, metric=metric)
            h = np.array(c.d_intra_history)
            assert h[-1] <= h[0] + 1e-12
            if c.converged:
                assert c.d_intra == h[-1]


def test_l1_mean_update_can_raise_d_intra():
    """The mean is not the L1 centre: from the start centroid 0 the mean
    update moves to 2.5, which raises the mean own distance from 2.5 to
    3.75. The loop stops on the repeated assignment, not on a falling
    objective, and the scorer gives the run's final value."""
    pts = np.array([[0.0], [0.0], [0.0], [10.0]])
    c = kmeans(pts, k=1, seed=1)
    assert c.d_intra_history == (2.5, 3.75)
    assert c.converged and c.d_intra == 3.75
    assign, centroids, history, converged = _lloyd(
        pts, np.array([[0.0]]), *clustering._METRICS["l1"]
    )
    assert history == (2.5, 3.75) and converged
    assert centroids.tolist() == [[2.5]] and (assign == 0).all()
    assert partition_d_intra(pts, [7, 7, 7, 7]) == 3.75
    assert partition_d_intra(pts, [7, 7, 7, -1]) == 0.0


def test_no_empty_clusters_with_duplicate_points():
    base = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.1, 0.0], [5.0, 3.0]])
    for seed in range(30):
        c = kmeans(base, k=3, seed=seed)
        assert c.cluster_sizes().min() >= 1
        assert ((c.assignments >= 0) & (c.assignments < 3)).all()


def test_scale_invariance_of_assignments():
    pts = np.random.default_rng(7).normal(size=(70, 10))
    for metric in ("l1", "l2"):
        a = kmeans(pts, k=3, seed=11, metric=metric)
        b = kmeans(pts * 3.0, k=3, seed=11, metric=metric)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert b.d_intra == pytest.approx(3.0 * a.d_intra, rel=1e-12)


def masked_lloyd_reference(pts, k, seed, metric):
    """The Lloyd loop with one masked copy and mean per cluster, as kmeans
    ran before its membership product: (assignments, centroids, d_intra,
    history, iterations, repairs)."""
    kind = "cityblock" if metric == "l1" else "sqeuclidean"
    to_dist = (lambda v: v) if metric == "l1" else np.sqrt
    rng = np.random.default_rng(seed)
    n = pts.shape[0]
    centroids = pts[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1, dtype=np.int64)
    history = []
    iterations = repairs = 0
    for _ in range(MAX_ITER):
        iterations += 1
        dist = cdist(pts, centroids, kind)
        new_assign = dist.argmin(axis=1)
        own = to_dist(dist[np.arange(n), new_assign])
        history.append(float(own.mean()))
        sizes = np.bincount(new_assign, minlength=k)
        for empty in np.flatnonzero(sizes == 0):
            repairs += 1
            j = int(np.where(sizes[new_assign] > 1, own, -np.inf).argmax())
            sizes[new_assign[j]] -= 1
            new_assign[j] = empty
            sizes[empty] = 1
            own[j] = 0.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for g in range(k):
            centroids[g] = pts[assign == g].mean(axis=0)
    final = cdist(pts, centroids, kind)
    d_intra = float(to_dist(final[np.arange(n), assign]).mean())
    return assign, centroids, d_intra, tuple(history), iterations, repairs


def _rough_values(rng, shape) -> np.ndarray:
    """Values over 17 decades, some of them ±0, so a change in summation
    order or in the sign of a zero shows in the bits."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    zeros = rng.random(shape) < 0.1
    values[zeros] = np.copysign(0.0, rng.normal(size=shape))[zeros]
    return values


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    p=st.sampled_from([2, 3, 7, 55, 1830]),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    repeats=st.booleans(),
)
def test_membership_means_equal_masked_means_bits(n, p, k, seed, repeats):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pts = _rough_values(rng, (n, p))
    if repeats:
        pts = pts[rng.integers(0, max(1, n // 3), size=n)]
    # every cluster nonempty, as after kmeans's repair
    assign = np.concatenate([rng.permutation(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(assign)
    sizes = np.bincount(assign, minlength=k)
    want = np.array([pts[assign == g].mean(axis=0) for g in range(k)])
    got = _cluster_means(pts, assign, sizes)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    dim=st.sampled_from([1, 2, 3, 10]),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    metric=st.sampled_from(["l1", "l2"]),
    shift=st.integers(-1000, 1000),
    repeats=st.booleans(),
)
def test_partition_d_intra_is_converged_kmeans_d_intra_bits(
        n, dim, k, seed, metric, shift, repeats):
    """One d_intra: the scorer on a converged run's assignments gives its
    d_intra bit for bit, also with the ids permuted, spread and shifted,
    and with the points given as a MatrixStack."""
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pts = _rough_values(rng, (n, packed.packed_length(dim)))
    if repeats:
        pts = pts[rng.integers(0, max(1, n // 3), size=n)]
    c = kmeans(pts, k, seed, metric=metric)
    assume(c.converged)
    renamed = 3 * rng.permutation(k)[c.assignments] + shift
    ends = tuple(date(2015, 1, 1) + timedelta(days=t) for t in range(n))
    stack = MatrixStack(CorrMatrix, dim, pts, ends)
    assert partition_d_intra(pts, c.assignments, metric) == c.d_intra
    assert partition_d_intra(pts, renamed, metric) == c.d_intra
    assert partition_d_intra(stack, renamed, metric) == c.d_intra


@pytest.mark.parametrize("labels", [
    [0, 1, 0, 1, 0],
    np.zeros((6, 1), dtype=np.int64),
    np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]),
    np.ones(6, dtype=bool),
    ["a"] * 6,
], ids=["short", "2-D", "float", "bool", "str"])
def test_partition_d_intra_refuses_labels_that_do_not_fit(labels):
    pts = np.random.default_rng(20).normal(size=(6, 3))
    with pytest.raises(ValidationError, match="expected 6 integer labels"):
        partition_d_intra(pts, labels)


def test_partition_d_intra_refuses_bad_points_and_metrics():
    pts = np.random.default_rng(21).normal(size=(6, 3))
    labels = [0, 0, 0, 1, 1, 1]
    with pytest.raises(ParameterRange, match="metric must be one of"):
        partition_d_intra(pts, labels, metric="cosine")
    with pytest.raises(InsufficientData, match="no points to score"):
        partition_d_intra(np.empty((0, 3)), [])
    pts[4, 1] = np.nan
    with pytest.raises(ValidationError, match="points must be finite"):
        partition_d_intra(pts, labels)


# 1 MB point tiles, so that test-sized arrays span several
SMALL_TILE_BYTES = 1 << 20


def _tile_rows(p: int) -> int:
    return max(4, clustering.TILE_BYTES // (8 * p))


@pytest.mark.parametrize("metric", ["l1", "l2"])
def test_kmeans_equals_masked_lloyd_reference(metric, monkeypatch):
    """Same assignments, centroid bits, d_intra, history and iteration
    count as the masked-mean loop, including runs that repair empty
    clusters (few distinct rows, so start centroids coincide). k runs
    over 1-10, so both k % 4 == 0 and k % 4 != 0 meet the kernel; the
    last cases span several point tiles, with a partial last tile."""
    monkeypatch.setattr(clustering, "TILE_BYTES", SMALL_TILE_BYTES)
    rng = np.random.default_rng(12)
    cases = [(int(rng.integers(8, 90)), int(rng.choice([2, 5, 45, 300]))) for _ in range(40)]
    cases += [(int(rng.integers(650, 750)), int(rng.integers(1900, 2100))) for _ in range(4)]
    repairs = 0
    tiled = 0
    whole_blocks = set()
    for trial, (n, p) in enumerate(cases):
        pts = _rough_values(rng, (n, p))
        if trial % 2:
            pts = pts[rng.integers(0, 3, size=n)]
        k = int(rng.integers(1, min(n, 10) + 1))
        seed = int(rng.integers(1 << 31))
        assign, centroids, d_intra, history, iterations, fixed = (
            masked_lloyd_reference(pts, k, seed, metric)
        )
        got = kmeans(pts, k, seed, metric=metric)
        np.testing.assert_array_equal(got.assignments, assign)
        assert got.centroids.tobytes() == centroids.tobytes()
        assert got.d_intra == d_intra
        assert got.d_intra_history == history
        assert got.iterations == iterations
        repairs += fixed
        tiled += n >= 3 * _tile_rows(p) and n % _tile_rows(p) != 0
        whole_blocks.add(k % 4 == 0)
    assert repairs > 0
    assert tiled == 4
    assert whole_blocks == {True, False}


def test_kmeans_evaluates_every_pair_once_per_pass(monkeypatch):
    """Tiles split a pass, never repeat or drop a pair: the benchmark's
    op count (iterations + 1) * n * k * P holds over several tiles."""
    monkeypatch.setattr(clustering, "TILE_BYTES", SMALL_TILE_BYTES)
    n, p, k = 301, 1000, 3
    pts = _blobs([0.0, 1.0, 2.0], n // 3, p, 0.3, seed=5)
    pts = np.vstack([pts, pts[:1]])
    assert pts.shape[0] == n and n > 2 * _tile_rows(p) and n % _tile_rows(p)
    evaluated = []
    real_cdist = clustering.cdist

    def counting_cdist(a, b, metric):
        evaluated.append(a.shape[0] * b.shape[0] * a.shape[1])
        return real_cdist(a, b, metric)

    monkeypatch.setattr(clustering, "cdist", counting_cdist)
    c = kmeans(pts, k, seed=0)
    assert c.iterations >= 2
    assert len(evaluated) == (c.iterations + 1) * -(-n // _tile_rows(p))
    assert sum(evaluated) == (c.iterations + 1) * n * k * p


def _with_bad_point(value, row=7):
    pts = np.random.default_rng(18).normal(size=(50, 4))
    pts[row, 2] = value
    return pts


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("metric", ["l1", "l2"])
def test_non_finite_point_fails_fast(value, metric):
    """Before, a nan or inf point gave converged=True, d_intra=nan and a
    48/1/1 partition; now the first pass raises."""
    pts = _with_bad_point(value)
    with pytest.raises(ValidationError, match="points must be finite"):
        kmeans(pts, 3, seed=0, metric=metric)
    with pytest.raises(ValidationError, match="points must be finite"):
        sigma_intra(pts, 3, n_init=4, seed=0)


def test_non_finite_start_centroid_fails_fast():
    k, seed = 3, 4
    start = np.random.default_rng(seed).choice(50, size=k, replace=False)
    pts = _with_bad_point(np.inf, row=int(start[1]))
    with pytest.raises(ValidationError, match="points must be finite"):
        kmeans(pts, k, seed=seed)


def test_optimize_records_non_finite_points_as_cell_errors(monkeypatch):
    good = np.random.default_rng(19).normal(size=(40, 6))
    bad = good.copy()
    bad[3, 0] = np.nan

    def stacks(returns, spec, columns, sectors=None):
        return [bad if eps == 1.0 else good for eps, _ in columns]

    monkeypatch.setattr(clustering, "pipeline_stacks", stacks)
    rt = _return_table(44, 4, seed=17)
    grid = optimize_states(rt, EpochSpec(20, 1), None, [0.0, 1.0], [2, 3], 2, 4, 0)
    for k in (2, 3):
        cell = grid.cell(k, 1.0)
        assert cell.error == "ValidationError: points must be finite"
        assert np.isnan(cell.sigma_intra)
        assert grid.cell(k, 0.0).error is None
    assert grid.chosen[1] == 0.0


@pytest.mark.parametrize("metric", ["l1", "l2"])
def test_kmeans_copies_no_cluster(metric):
    """Extra memory of a run stays far below one copy of the points."""
    pts = np.random.default_rng(13).normal(size=(600, 1000))
    kmeans(pts, 3, seed=0, metric=metric)  # lazy imports and caches first
    tracemalloc.start()
    try:
        c = kmeans(pts, 3, seed=0, metric=metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.iterations >= 2
    assert peak < 0.1 * pts.nbytes


def test_sigma_two_restarts_half_gap():
    pts = np.random.default_rng(8).normal(size=(40, 6))
    res = sigma_intra(pts, k=3, n_init=2, seed=17)
    a, b = res.d_intras
    assert res.sigma_intra == pytest.approx(abs(a - b) / 2, abs=1e-15)
    assert res.mean_d_intra == pytest.approx((a + b) / 2, abs=1e-15)


def test_sigma_matches_recomputation_from_logged_values():
    # overlapping blobs so restarts disagree
    pts = _blobs([0.3, 0.45], 25, 10, 0.15, seed=9)
    res = sigma_intra(pts, k=2, n_init=12, seed=1)
    d = np.array(res.d_intras)
    assert res.sigma_intra == pytest.approx(float(d.std(ddof=0)), abs=1e-15)
    assert res.mean_d_intra == pytest.approx(float(d.mean()), abs=1e-15)
    assert res.best.d_intra == min(res.d_intras)


def test_sigma_tie_broken_by_lowest_subseed():
    pts = np.random.default_rng(10).normal(size=(30, 5))
    res = sigma_intra(pts, k=1, n_init=5, seed=123)
    assert res.sigma_intra == 0.0
    assert res.best.seed == min(subseed(123, i) for i in range(5))



def test_subseed_refuses_a_negative_index():
    with pytest.raises(ValueError) as info:
        subseed(0, -1)
    assert str(info.value) == "index must be nonnegative"


def test_sigma_thread_count_does_not_change_results():
    pts = np.random.default_rng(11).normal(size=(50, 8))
    serial = sigma_intra(pts, k=3, n_init=8, seed=2, threads=1)
    parallel = sigma_intra(pts, k=3, n_init=8, seed=2, threads=4)
    assert serial.d_intras == parallel.d_intras
    assert serial.best.seed == parallel.best.seed
    np.testing.assert_array_equal(serial.best.assignments, parallel.best.assignments)


@pytest.mark.parametrize("threads", [1, 2])
def test_sigma_holds_only_the_best_run_and_the_running_ones(threads):
    """Each worker folds its run into the best and drops it, so the traced
    peak of one call is a few runs' centroids and assignments, not n_init
    of them (26 to 30 such units when every run was held to the end)."""
    n, p, k, n_init = 200, 5000, 8, 24
    pts = np.random.default_rng(29).normal(size=(n, p))
    unit = (k * p + n) * 8
    sigma_intra(pts, k, n_init, seed=0, threads=threads)  # lazy imports and the pool
    tracemalloc.start()
    try:
        res = sigma_intra(pts, k, n_init, seed=0, threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.d_intras) == n_init
    assert peak < 12 * unit


def test_thread_map_caps_its_workers_at_the_cpu_count(monkeypatch):
    """However many threads are asked for, the pool gets at most one per
    CPU, and starts no more; ``sigma_intra``'s bits do not change."""
    pools = []

    class Recording(clustering.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            pools.append(self)
            self.asked, self.started = max_workers, 0

        def shutdown(self, *args, **kwargs):
            self.started = len(self._threads)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(clustering, "ThreadPoolExecutor", Recording)
    cpus = os.cpu_count() or 1
    pts = np.random.default_rng(11).normal(size=(50, 8))
    many = sigma_intra(pts, k=3, n_init=2 * cpus + 1, seed=2, threads=10**6)
    assert [pool.asked for pool in pools] == [cpus]
    assert pools[0].started <= cpus
    one = sigma_intra(pts, k=3, n_init=2 * cpus + 1, seed=2, threads=1)
    assert pools[1].asked == pools[1].started == 1
    assert many.d_intras == one.d_intras
    assert many.best.seed == one.best.seed


def test_sigma_holds_the_best_run_and_one_per_worker_whatever_the_timing(monkeypatch):
    """Restart 0 is held back while the other worker runs the rest; no run
    waits for it to be read, so at most the best run and one run per
    worker are alive at once. When finished runs waited in restart order
    behind restart 0, all 40 were."""
    real_kmeans, lock = clustering.kmeans, threading.Lock()
    live, peak = [0], [0]
    first = subseed(5, 0)

    def release():
        with lock:
            live[0] -= 1

    def held_back(pts, k, seed, metric="l1"):
        c = real_kmeans(pts, k, seed, metric=metric)
        weakref.finalize(c, release)
        with lock:
            live[0] += 1
            peak[0] = max(peak[0], live[0])
        if seed == first:
            time.sleep(0.3)
        return c

    pts = np.random.default_rng(31).normal(size=(300, 20))
    expected = sigma_intra(pts, 3, 40, seed=5, threads=1)
    monkeypatch.setattr(clustering, "kmeans", held_back)
    res = sigma_intra(pts, 3, 40, seed=5, threads=2)
    assert peak[0] <= min(2, os.cpu_count() or 1) + 1
    assert res.d_intras == expected.d_intras
    assert res.best.seed == expected.best.seed


def test_sigma_fold_loses_no_update_under_contention(monkeypatch):
    """Eight workers on any box, switching threads every microsecond, fold
    instant restarts whose d_intra falls with the restart index, so nearly
    every fold replaces the best. Their d_intra values compare in Python
    code that gives up the GIL, so threads are switched out between the
    fold's test and its store; the best is still the last restart."""
    n = 5_000
    index = {subseed(4, i): i for i in range(n)}

    class Switchable(float):
        __hash__ = float.__hash__

        def __eq__(self, other):
            time.sleep(0)
            return float(self) == float(other)

    def instant(pts, k, seed, metric="l1"):
        return Clustering(k, None, None, Switchable(n - index[seed]), seed, 1, True)

    monkeypatch.setattr(clustering.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(clustering, "kmeans", instant)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = sigma_intra(np.zeros((2, 1)), 1, n, seed=4, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert res.best.seed == subseed(4, n - 1)


def test_thread_map_yields_in_item_order_and_checks_threads_at_the_call():
    """The results come as a list, in item order whatever order the
    workers finish in; a bad worker count raises before any item runs."""
    finish = [0.03, 0.0, 0.02, 0.01]

    def slow(i):
        time.sleep(finish[i])
        return i * i

    assert clustering.thread_map(slow, range(4), threads=4) == [0, 1, 4, 9]

    def unreachable(x):
        raise AssertionError("an item ran")

    for bad in (0, -1):
        with pytest.raises(ParameterRange, match="threads must be >= 1"):
            clustering.thread_map(unreachable, [1], bad)


def test_sigma_requires_two_restarts():
    pts = np.random.default_rng(12).normal(size=(20, 4))
    with pytest.raises(ParameterRange):
        sigma_intra(pts, k=2, n_init=1, seed=0)


def test_thread_count_below_one_rejected():
    pts = np.random.default_rng(12).normal(size=(20, 4))
    rt = _return_table(44, 4, seed=17)
    for bad in (0, -3):
        with pytest.raises(ParameterRange, match="threads"):
            sigma_intra(pts, k=2, n_init=2, seed=0, threads=bad)
        with pytest.raises(ParameterRange, match="threads"):
            optimize_states(rt, EpochSpec(20, 1), None, [0.0], [2], 2, 4, 0, threads=bad)
    assert sigma_intra(pts, k=2, n_init=2, seed=0, threads=1).d_intras == (
        sigma_intra(pts, k=2, n_init=2, seed=0).d_intras
    )
    with pytest.raises(TypeError):
        sigma_intra(pts, k=2, n_init=2, seed=0, threads=None)


def test_negative_seed_rejected_before_any_work(monkeypatch):
    """Sub-seeds mask the seed to 64 bits, so both restart entry points
    check it first: before a stack is built or any k-means runs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the seed check")

    for name in ("_packed_rows", "kmeans", "pipeline_stacks"):
        monkeypatch.setattr(clustering, name, forbidden)
    pts = np.random.default_rng(12).normal(size=(20, 4))
    with pytest.raises(ParameterRange, match="seed must be >= 0"):
        sigma_intra(pts, k=2, n_init=2, seed=-1)
    rt = _return_table(44, 4, seed=17)
    for sectors in (None, _two_sector_map(rt.tickers)):
        with pytest.raises(ParameterRange, match="seed must be >= 0"):
            optimize_states(rt, EpochSpec(20, 1), sectors, [0.0], [2], 2, 4, -1)


def _manual_clustering(assignments, k):
    return Clustering(
        k=k,
        assignments=np.asarray(assignments),
        centroids=np.zeros((k, 1)),
        d_intra=0.0,
        seed=0,
        iterations=1,
        converged=True,
    )


def test_order_states_ascending_mean_correlation():
    means_by_raw = [0.433, 0.157, 0.611, 0.281, 0.286]
    mats = []
    assignments = []
    for raw, v in enumerate(means_by_raw):
        for _ in range(3):
            mats.append(_constant_corr(v, 4, len(mats)))
            assignments.append(raw)
    seq = order_states(_manual_clustering(assignments, 5), mats)
    # ascending means: raw 1 -> 1, raw 3 -> 2, raw 4 -> 3, raw 0 -> 4, raw 2 -> 5
    expect = {1: 1, 3: 2, 4: 3, 0: 4, 2: 5}
    np.testing.assert_array_equal(
        seq.states, np.array([expect[a] for a in assignments])
    )
    assert seq.state_means == pytest.approx((0.157, 0.281, 0.286, 0.433, 0.611))
    assert seq.epoch_ends is not None and len(seq.epoch_ends) == len(mats)


def test_order_states_single_cluster():
    mats = [_constant_corr(0.4, 3, i) for i in range(4)]
    seq = order_states(_manual_clustering([0, 0, 0, 0], 1), mats)
    assert (seq.states == 1).all()
    assert seq.k == 1


def test_order_states_is_bijective_relabeling():
    pts = _blobs([0.1, 0.4, 0.8], 12, packed.packed_length(5), 0.05, seed=13)
    ends = tuple(date(2015, 1, 1) + timedelta(days=i) for i in range(len(pts)))
    stack = MatrixStack(CorrMatrix, 5, pts, ends)
    c = kmeans(stack, k=3, seed=4)
    seq = order_states(c, stack)
    assert seq.epoch_ends == ends
    assert set(np.unique(seq.states)) == {1, 2, 3}
    assert sorted(np.bincount(seq.states)[1:]) == sorted(c.cluster_sizes())
    for g in range(3):
        labels = seq.states[c.assignments == g]
        assert (labels == labels[0]).all()


@pytest.mark.parametrize("with_sectors", [False, True])
def test_order_states_means_equal_per_matrix_average_correlation(with_sectors):
    rt = _return_table(60, 6, seed=16)
    spec = EpochSpec(20, 1)
    sectors = None
    if with_sectors:
        labels = dict(zip(rt.tickers, ("s1", "s1", "s2", "s2", "s3", "s3")))
        sectors = SectorMap(assignment=labels, sectors=("s1", "s2", "s3"))
    stack = pipeline_matrices(rt, spec, 0.3, sectors)
    c = kmeans(stack, k=3, seed=2)
    seq = order_states(c, stack)
    per_matrix = []
    for i in range(len(stack)):
        m = power_map(epoch_correlation(rt, i, spec, epoch_index=i), 0.3)
        per_matrix.append(average_correlation(m if sectors is None else coarse_grain(m, sectors)))
    per_matrix = np.array(per_matrix)
    want = sorted(per_matrix[c.assignments == g].mean() for g in range(3))
    assert seq.state_means == tuple(want)


def test_order_states_tie_warning():
    mats = [_constant_corr(0.5, 3, i) for i in range(4)]
    with pytest.warns(TieWarning):
        seq = order_states(_manual_clustering([0, 0, 1, 1], 2), mats)
    # lower raw id keeps the lower label on a tie
    np.testing.assert_array_equal(seq.states, np.array([1, 1, 2, 2]))


def test_order_states_length_mismatch():
    mats = [_constant_corr(0.2, 3, i) for i in range(3)]
    with pytest.raises(ValidationError):
        order_states(_manual_clustering([0, 1], 2), mats)


def _two_sector_map(tickers) -> SectorMap:
    labels = {t: ("s1", "s2")[i % 2] for i, t in enumerate(tickers)}
    return SectorMap(assignment=labels, sectors=("s1", "s2"))


def test_optimize_grid_shape_and_eps_zero_column():
    rt = _return_table(44, 5, seed=14)
    spec = EpochSpec(20, 1)
    grid = optimize_states(rt, spec, None, [0.0, 0.4], [2, 3], 2, 6, 5)
    assert len(grid.cells) == 4
    assert grid.chosen[0] in (2, 3) and grid.chosen[1] in (0.0, 0.4)
    mats = rolling_correlations(rt, spec)
    for k in (2, 3):
        direct = sigma_intra(mats, k=k, n_init=6, seed=5)
        cell = grid.cell(k, 0.0)
        assert cell.sigma_intra == direct.sigma_intra
        assert cell.mean_d_intra == direct.mean_d_intra

    # the Guhr grid: every cell against the chain of public whole-stack steps
    sm = _two_sector_map(rt.tickers)
    eps_grid = [0.0, 0.4, 1.0]
    grid = optimize_states(rt, spec, sm, eps_grid, [2, 3], 2, 6, 5)
    assert len(grid.cells) == 6
    for eps in eps_grid:
        guhr = coarse_grain(power_map(rolling_correlations(rt, spec), eps), sm)
        for k in (2, 3):
            direct = sigma_intra(guhr, k=k, n_init=6, seed=5)
            cell = grid.cell(k, eps)
            assert cell.error is None
            assert cell.sigma_intra == direct.sigma_intra
            assert cell.mean_d_intra == direct.mean_d_intra


def _optimize_peak(rt, sectors, eps_grid) -> int:
    """tracemalloc peak of one optimize_states call, after a warm-up call."""
    spec = EpochSpec(20, 1)
    optimize_states(rt, spec, sectors, eps_grid, [2], 2, 2, 0)
    tracemalloc.start()
    try:
        optimize_states(rt, spec, sectors, eps_grid, [2], 2, 2, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_optimize_stock_grid_holds_one_column():
    """A stock-level grid builds one ε column at a time and releases it
    before the next, so no base stack or second column is alive."""
    rt = _return_table(400, 40, seed=25)
    one_stack = rolling_correlations(rt, EpochSpec(20, 1)).data.nbytes
    assert _optimize_peak(rt, None, [0.0, 0.5, 1.0]) <= 1.25 * one_stack


def test_optimize_guhr_grid_builds_no_pearson_stack():
    """A sector-level grid coarse-grains each epoch as it goes: its peak
    stays far below the Pearson stack of the same returns."""
    rt = _return_table(400, 40, seed=26)
    pearson = rolling_correlations(rt, EpochSpec(20, 1)).data.nbytes
    peak = _optimize_peak(rt, _two_sector_map(rt.tickers), [0.0, 0.5, 1.0])
    assert peak <= 0.25 * pearson


def test_optimize_records_cell_errors_without_raising():
    rt = _return_table(24, 4, seed=15)  # 5 epochs only
    grid = optimize_states(rt, EpochSpec(20, 1), None, [0.0], [2, 9], 2, 4, 0)
    bad = grid.cell(9, 0.0)
    assert bad.error is not None and "InsufficientData" in bad.error
    assert np.isnan(bad.sigma_intra)
    assert grid.chosen == (2, 0.0)
    with pytest.raises(KeyError):
        grid.cell(3, 0.0)


def test_optimize_respects_admissibility_floor():
    rt = _return_table(44, 5, seed=16)
    grid = optimize_states(rt, EpochSpec(20, 1), None, [0.0], [2, 3, 4], 3, 5, 1)
    assert grid.chosen[0] >= 3


def test_optimize_rejects_bad_grids():
    rt = _return_table(44, 4, seed=17)
    spec = EpochSpec(20, 1)
    with pytest.raises(ValidationError):
        optimize_states(rt, spec, None, [], [2], 2, 4, 0)
    with pytest.raises(ParameterRange):
        optimize_states(rt, spec, None, [1.5], [2], 2, 4, 0)
    with pytest.raises(ParameterRange, match="n_init"):
        optimize_states(rt, spec, None, [0.0], [2], 2, 1, 0)
    with pytest.raises(ValidationError):
        optimize_states(rt, spec, None, [0.0], [2, 3], 5, 4, 0)
    with pytest.raises(ValidationError):
        optimize_states(rt, spec, None, [0.0], [400], 2, 4, 0)
    unmapped = _two_sector_map(rt.tickers[:-1])
    with pytest.raises(UnmappedTicker, match=rt.tickers[-1]):
        optimize_states(rt, spec, unmapped, [0.0, 0.5], [2], 2, 4, 0)


@pytest.mark.parametrize("eps, ks, metric, error, word", [
    ([0.0], [0, 3], "l1", ParameterRange, "k must be >= 1, got 0"),
    ([0.0, 0.0], [2], "l1", ValidationError, "repeats a value"),
    ([0.0], [2, 3, 2], "l1", ValidationError, "repeats a value"),
    ([0.0], [2], "cosine", ParameterRange, "metric must be one of"),
])
def test_optimize_rejects_unusable_values_before_building_stacks(
    monkeypatch, eps, ks, metric, error, word
):
    def unreachable(*args, **kwargs):
        raise AssertionError("a stack was built")

    monkeypatch.setattr(clustering, "pipeline_stacks", unreachable)
    rt = _return_table(44, 4, seed=17)
    with pytest.raises(error, match=word):
        optimize_states(rt, EpochSpec(20, 1), None, eps, ks, 2, 4, 0, metric=metric)


def test_grid_csv_round_trip():
    rt = _return_table(44, 4, seed=18)
    grid = optimize_states(rt, EpochSpec(20, 1), None, [0.0, 0.2], [2, 3], 2, 4, 7)
    text = grid_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "k,epsilon,sigma_intra,mean_d_intra"
    assert len(lines) == 5
    for line, cell in zip(lines[1:], grid.cells):
        k, eps, sig, mean = line.split(",")
        assert int(k) == cell.k
        assert float(eps) == cell.epsilon
        assert float(sig) == cell.sigma_intra
        assert float(mean) == cell.mean_d_intra

