"""Acceptance gate: ten criteria covering every pipeline stage.

Each test carries a ``criterion`` marker; the conftest hook prints one
PASS/FAIL/SKIP line per criterion on the real stdout. Oracles here are
written from first principles (explicit loops, dense linear solves,
scipy distance routines) so they cannot share a bug with the library
code they check. Criteria with stated wall-clock budgets assert them.
"""

import json
import os
import time
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform
from scipy.special import comb

from marketstates.cli import main
from marketstates.clustering import order_states, sigma_intra
from marketstates.corrmat import (
    EpochSpec,
    CorrMatrix,
    coarse_grain,
    epoch_correlation,
    pipeline_matrices,
    power_map,
    rolling_correlations,
)
from marketstates.errors import DegenerateColumn, SingletonSectorWarning
from marketstates.ingest import (
    ReturnTable,
    SectorMap,
    load_price_table,
    log_returns,
    price_table_csv,
)
from marketstates.markov import (
    BootstrapPolicy,
    TransitionMatrix,
    equilibrium_distribution,
    markovianity_check,
    transition_matrix,
    tridiagonality,
)
from marketstates.mds import DistanceMatrix, classical_mds, distance_matrix
from marketstates.packed import pack, strict_upper_mask
from marketstates.synth import RegimeSpec, generate_block_market, generate_markov_sequence

THREADS = min(4, os.cpu_count() or 1)


# ------------------------------------------------------------- helpers

def _dates(n, start=date(2000, 1, 3)):
    return tuple(start + timedelta(days=i) for i in range(n))


def _random_corr(rng, n, index=0):
    """Random symmetric matrix with unit diagonal, entries in [-1, 1]."""
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    full = (a + a.T) / 2.0
    np.fill_diagonal(full, 1.0)
    tickers = tuple(f"T{i:02d}" for i in range(n))
    return CorrMatrix(dim=n, data=pack(full), epoch_end=date(2000, 1, 3),
                      epoch_index=index, tickers=tickers)


def _sector_map(tickers, labels):
    sectors = tuple(sorted(set(labels)))
    return SectorMap(assignment=dict(zip(tickers, labels)), sectors=sectors)


def _block_average_oracle(full, idx, n_s):
    """Exhaustive pass over every entry; self-correlations skipped."""
    sums = np.zeros((n_s, n_s))
    counts = np.zeros((n_s, n_s))
    n = full.shape[0]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            sums[idx[i], idx[j]] += full[i, j]
            counts[idx[i], idx[j]] += 1
    out = np.ones((n_s, n_s))
    np.divide(sums, counts, out=out, where=counts > 0)
    return out


def _two_pass_correlation(window):
    """Means first, then centered second moments, one column pair at a time."""
    n, p = window.shape
    means = window.mean(axis=0)
    centered = window - means
    cov = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            cov[i, j] = cov[j, i] = float(np.dot(centered[:, i], centered[:, j])) / n
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    return corr


def _dense_equilibrium(probs):
    """Left fixed point by a direct linear solve, normalization row appended."""
    k = probs.shape[0]
    a = probs.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def _adjusted_rand(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    nij = comb(table, 2).sum()
    rows = comb(table.sum(axis=1), 2).sum()
    cols = comb(table.sum(axis=0), 2).sum()
    expected = rows * cols / comb(a.size, 2)
    return float((nij - expected) / ((rows + cols) / 2 - expected))


def _epoch_majority(day_labels, spec):
    """Majority planted regime over each epoch's return rows."""
    lab = np.asarray(day_labels)
    count = spec.window_count(lab.size)
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        window = lab[i * spec.shift : i * spec.shift + spec.length]
        out[i] = np.bincount(window).argmax()
    return out


# ------------------------------------------------------------ criteria

@pytest.mark.criterion(1, "coarse graining matches the exhaustive block-average oracle")
def test_coarse_grain_block_average_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    singleton_trials = 0
    for trial in range(200):
        n = int(rng.integers(2, 31))
        n_s = int(rng.integers(2, min(5, n) + 1))
        idx = rng.integers(0, n_s, size=n)
        idx[:n_s] = np.arange(n_s)
        rng.shuffle(idx)
        if trial % 4 == 0 and n > n_s:
            # force a singleton sector: exactly one member keeps label 0
            keep = int(np.flatnonzero(idx == 0)[0])
            idx[idx == 0] = 1
            idx[keep] = 0

        cm = _random_corr(rng, n)
        labels = [f"S{j}" for j in idx]
        sm = _sector_map(cm.tickers, labels)
        has_singleton = any(v == 1 for v in sm.sizes.values())
        singleton_trials += has_singleton

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = coarse_grain(cm, sm)
        warned = any(issubclass(w.category, SingletonSectorWarning) for w in caught)
        assert warned == has_singleton

        oracle = _block_average_oracle(cm.full(), sm.indices(cm.tickers), n_s)
        assert np.abs(g.full() - oracle).max() < 1e-14
        if has_singleton:
            gf = g.full()
            sizes = np.bincount(sm.indices(cm.tickers), minlength=n_s)
            for s in np.flatnonzero(sizes == 1):
                assert gf[s, s] == 1.0
    assert singleton_trials >= 40
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.criterion(2, "power map: identity, sign, contraction, monotonicity, spot value")
def test_power_map_properties():
    t0 = time.perf_counter()
    n = 448  # strict upper triangle holds 100128 > 1e5 entries
    rng = np.random.default_rng(7)
    cm = _random_corr(rng, n)
    mask = strict_upper_mask(n)
    values = cm.data[mask]
    assert values.size >= 10**5

    assert power_map(cm, 0.0) is cm

    order = np.argsort(np.abs(values))
    for eps in (0.1, 0.3, 0.5, 1.0):
        mapped = power_map(cm, eps).data[mask]
        assert np.array_equal(np.sign(mapped), np.sign(values))
        assert np.all(np.abs(mapped) <= np.abs(values))
        assert np.all(np.diff(np.abs(mapped)[order]) >= 0.0)

    half = _random_corr(rng, 2)
    half = CorrMatrix(dim=2, data=np.array([1.0, -0.5, 1.0]),
                      epoch_end=half.epoch_end, epoch_index=0,
                      tickers=half.tickers)
    spot = power_map(half, 0.5).data[1]
    assert spot == pytest.approx(-0.3535534, abs=1e-7)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(3, "epoch correlation matches a two-pass oracle; degenerate columns raise")
def test_epoch_correlation_two_pass_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    spec = EpochSpec(length=20, shift=1)
    tickers = tuple(f"T{i:02d}" for i in range(50))
    for trial in range(100):
        window = rng.normal(size=(20, 50)) * rng.lognormal(0.0, 1.0, size=50)
        rt = ReturnTable(dates=_dates(20), tickers=tickers, returns=window)
        got = epoch_correlation(rt, 0, spec).full()
        assert np.abs(got - _two_pass_correlation(window)).max() < 1e-12

        if trial < 10:
            scale = rng.uniform(0.5, 3.0, size=50)
            offset = rng.normal(0.0, 1.0, size=50)
            affine = ReturnTable(dates=_dates(20), tickers=tickers,
                                 returns=window * scale + offset)
            assert np.abs(epoch_correlation(affine, 0, spec).full() - got).max() < 1e-10

    flat = rng.normal(size=(20, 50))
    flat[:, 7] = 0.25
    rt = ReturnTable(dates=_dates(20), tickers=tickers, returns=flat)
    with pytest.raises(DegenerateColumn):
        epoch_correlation(rt, 0, spec)
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.criterion(4, "3522 return rows, length 20, shift 1 give 3503 epochs")
def test_epoch_window_count():
    spec = EpochSpec(length=20, shift=1)
    assert spec.window_count(3522) == 3503

    rng = np.random.default_rng(4)
    rt = ReturnTable(dates=_dates(3522), tickers=("A", "B", "C"),
                     returns=rng.normal(size=(3522, 3)))
    mats = rolling_correlations(rt, spec)
    assert len(mats) == 3503
    assert mats[-1].epoch_index == 3502
    assert mats[-1].epoch_end == rt.dates[-1]


@pytest.mark.criterion(5, "planted 3-regime market recovered; grid search selects k=3")
def test_planted_regime_recovery_and_model_selection(tmp_path):
    t0 = time.perf_counter()
    spec = RegimeSpec(
        sector_sizes=(10, 10, 10, 10, 10, 10),
        intra=(0.1, 0.5, 0.9),
        inter=(0.05, 0.15, 0.3),
        durations=(350, 650, 500),
    )
    table, day_labels = generate_block_market(spec, seed=4)
    epochs = EpochSpec(length=20, shift=1)

    returns = log_returns(table)
    mats = pipeline_matrices(returns, epochs, 0.0, None)
    result = sigma_intra(mats, 3, 50, 0, threads=THREADS)
    seq = order_states(result.best, mats)
    truth = _epoch_majority(day_labels[1:], epochs)
    assert _adjusted_rand(seq.states, truth) > 0.90

    # model selection through the command line path
    prices = tmp_path / "prices.csv"
    prices.write_text(price_table_csv(table), encoding="utf-8")
    out = tmp_path / "grid"
    rc = main([
        "optimize", "--prices", str(prices), "--out", str(out),
        "--epsilon-grid", "0.0", "--k-range", "2:6", "--k-min", "2",
        "--n-init", "50", "--seed", "0", "--threads", str(THREADS),
    ])
    assert rc == 0
    summary = json.loads((out / "sigma_summary.json").read_text())
    assert summary["chosen_k"] == 3
    assert summary["chosen_epsilon"] == 0.0
    assert time.perf_counter() - t0 < 180.0


@pytest.mark.criterion(6, "transition probabilities and equilibrium recovered from a long chain")
def test_markov_chain_recovery_and_equilibrium():
    t0 = time.perf_counter()
    probs = np.array([
        [0.55, 0.25, 0.10, 0.06, 0.04],
        [0.20, 0.45, 0.20, 0.10, 0.05],
        [0.05, 0.25, 0.40, 0.20, 0.10],
        [0.05, 0.10, 0.25, 0.45, 0.15],
        [0.02, 0.08, 0.15, 0.25, 0.50],
    ])
    seq = generate_markov_sequence(probs, 10**6 + 1, seed=0)
    t = transition_matrix(seq, k=5)
    assert np.abs(t.probs - probs).max() < 0.01

    eq = equilibrium_distribution(t)
    assert np.abs(eq.pi @ t.probs - eq.pi).max() < 1e-10
    assert np.abs(eq.pi - _dense_equilibrium(t.probs)).max() < 1e-10

    hand = TransitionMatrix(
        k=2,
        counts=np.array([[9.0, 1.0], [2.0, 8.0]]),
        probs=np.array([[0.9, 0.1], [0.2, 0.8]]),
        n_transitions=20,
    )
    pi = equilibrium_distribution(hand).pi
    assert np.abs(pi - np.array([2.0 / 3.0, 1.0 / 3.0])).max() < 1e-10
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(7, "markovianity check passes true chains and rejects a second-order one")
def test_markovianity_check_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    passes = 0
    for i in range(100):
        k = int(rng.integers(2, 6))
        p = rng.uniform(0.05, 1.0, size=(k, k))
        p /= p.sum(axis=1, keepdims=True)
        seq = generate_markov_sequence(p, 1500, seed=int(rng.integers(0, 2**31)))
        report = markovianity_check(seq, BootstrapPolicy(seed=i), k=k)
        passes += report.passed
    assert passes >= 90

    second_order = np.tile([1, 1, 2], 500)
    report = markovianity_check(second_order, BootstrapPolicy(seed=0), k=2)
    assert not report.passed
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.criterion(8, "classical scaling round-trips Euclidean data and scales to 3503 epochs")
def test_mds_round_trip_and_scale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(100):
        pts = rng.normal(size=(50, 3))
        d = np.zeros(50 * 51 // 2)
        d[strict_upper_mask(50)] = pdist(pts)
        emb = classical_mds(DistanceMatrix(n=50, d=d), 3)
        assert np.abs(pdist(emb.coords) - pdist(pts)).max() < 1e-9
        assert np.abs(emb.coords.mean(axis=0)).max() < 1e-9
        ev = emb.eigenvalues
        assert all(a >= b for a, b in zip(ev, ev[1:]))
        assert 0.0 <= emb.captured <= 1.0

    # full-size pass: 3503 matrices, pairwise fill, top-3 eigensolve
    batch = rng.uniform(-1.0, 1.0, size=(3503, 10, 10))
    batch = (batch + batch.transpose(0, 2, 1)) / 2.0
    mats = []
    for i, full in enumerate(batch):
        np.fill_diagonal(full, 1.0)
        mats.append(CorrMatrix(dim=10, data=pack(full),
                               epoch_end=date(2000, 1, 3) + timedelta(days=i),
                               epoch_index=i))
    dm = distance_matrix(mats)
    emb = classical_mds(dm, 3)
    assert emb.coords.shape == (3503, 3)
    ev = emb.eigenvalues
    assert len(ev) == 3 and all(a >= b for a, b in zip(ev, ev[1:]))
    assert 0.0 <= emb.captured <= 1.0
    assert time.perf_counter() - t0 < 300.0


@pytest.mark.criterion(9, "sigma grid artifact is byte-identical across thread counts")
def test_optimize_thread_count_determinism(tmp_path):
    market = tmp_path / "market"
    rc = main([
        "synth", "--out", str(market),
        "--sector-sizes", "5,5,5", "--intra", "0.2,0.8",
        "--inter", "0.05,0.1", "--durations", "120,120", "--seed", "3",
    ])
    assert rc == 0

    grids = []
    for threads in (1, THREADS + 1):
        out = tmp_path / f"threads{threads}"
        rc = main([
            "optimize", "--prices", str(market / "prices.csv"),
            "--out", str(out),
            "--epsilon-grid", "0.0,0.5", "--k-range", "2,3", "--k-min", "2",
            "--n-init", "6", "--seed", "0", "--threads", str(threads),
        ])
        assert rc == 0
        grids.append((out / "sigma_grid.csv").read_bytes())
    assert grids[0] == grids[1]


@pytest.mark.criterion(10, "licensed index data reproduces published state structure")
def test_licensed_index_data():
    """Needs licensed 2006-2019 S&P 500 (and optionally Nikkei 225) daily
    closes; point MARKETSTATES_SP500_PRICES / MARKETSTATES_SP500_SECTORS /
    MARKETSTATES_NIKKEI_PRICES at the files to enable."""
    sp_prices = os.environ.get("MARKETSTATES_SP500_PRICES")
    sp_sectors = os.environ.get("MARKETSTATES_SP500_SECTORS")
    nikkei_prices = os.environ.get("MARKETSTATES_NIKKEI_PRICES")
    if not (sp_prices and sp_sectors):
        pytest.skip(
            "licensed price data not available; set MARKETSTATES_SP500_PRICES "
            "and MARKETSTATES_SP500_SECTORS to run this criterion"
        )

    from marketstates.clustering import optimize_states
    from marketstates.ingest import filter_stocks, load_sector_map

    table = load_price_table(sp_prices)
    filtered = filter_stocks(table, 2)
    returns = log_returns(filtered.table)
    epochs = EpochSpec(length=20, shift=1)
    eps_grid = [round(0.1 * i, 12) for i in range(11)]

    grid = optimize_states(returns, epochs, None, eps_grid, range(2, 11), 4,
                           100, 0, threads=THREADS)
    assert grid.chosen == (5, 0.5)

    mats = pipeline_matrices(returns, epochs, 0.5, None)
    seq = order_states(sigma_intra(mats, 5, 100, 0, threads=THREADS).best, mats)
    pearson_means = np.array(seq.state_means)
    assert np.abs(pearson_means - np.array([0.157, 0.281, 0.286, 0.433, 0.611])).max() <= 0.02

    sectors = load_sector_map(sp_sectors, filtered.table.tickers)
    gmats = pipeline_matrices(returns, epochs, 0.5, sectors)
    gseq = order_states(sigma_intra(gmats, 5, 100, 0, threads=THREADS).best, gmats)
    assert np.abs(np.array(gseq.state_means) - np.array([0.160, 0.269, 0.373, 0.487, 0.654])).max() <= 0.02

    pearson_band = tridiagonality(transition_matrix(seq.states, k=5))
    guhr_band = tridiagonality(transition_matrix(gseq.states, k=5))
    assert guhr_band > pearson_band

    if not nikkei_prices:
        pytest.skip("S&P 500 checks passed; MARKETSTATES_NIKKEI_PRICES not set")
    nk_table = load_price_table(nikkei_prices)
    nk_returns = log_returns(filter_stocks(nk_table, 2).table)
    nk_grid = optimize_states(nk_returns, epochs, None, eps_grid, range(2, 11),
                              4, 100, 0, threads=THREADS)
    assert nk_grid.chosen == (6, 0.3)
