from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from marketstates import mds, packed
from marketstates.clustering import kmeans, order_states
from marketstates.corrmat import CorrMatrix, EpochSpec, GuhrMatrix, MatrixStack
from marketstates.errors import (
    DegradedRankWarning,
    DimensionMismatch,
    ParameterRange,
    ValidationError,
)
from marketstates.ingest import log_returns
from marketstates.mds import (
    TILE_ROWS,
    DistanceMatrix,
    Embedding,
    PALETTE,
    _double_center,
    classical_mds,
    distance_matrix,
    embedding_svg,
    embedding_table,
)
from marketstates.synth import RegimeSpec, generate_block_market
import marketstates as ms


def _corr(square: np.ndarray, index: int) -> CorrMatrix:
    return CorrMatrix(
        dim=square.shape[0],
        data=packed.pack(square),
        epoch_end=date(2016, 1, 1) + timedelta(days=index),
        epoch_index=index,
    )


def _euclidean_dm(pts: np.ndarray) -> DistanceMatrix:
    n = pts.shape[0]
    d = np.zeros(packed.packed_length(n))
    d[packed.strict_upper_mask(n)] = pdist(pts)
    return DistanceMatrix(n=n, d=d)


def _dm_from_full(full: np.ndarray) -> DistanceMatrix:
    return DistanceMatrix(n=full.shape[0], d=packed.pack(full))


def silhouette(coords: np.ndarray, labels: np.ndarray) -> float:
    dm = squareform(pdist(coords))
    scores = []
    for i in range(len(labels)):
        same = labels == labels[i]
        same[i] = False
        a = dm[i][same].mean()
        b = min(
            dm[i][labels == g].mean() for g in np.unique(labels) if g != labels[i]
        )
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


def test_distance_matrix_matches_brute_force():
    rng = np.random.default_rng(0)
    mats = [_corr(np.corrcoef(rng.normal(size=(5, 30))), i) for i in range(8)]
    dm = distance_matrix(mats)
    full = dm.full()
    for i in range(8):
        for j in range(8):
            want = float(np.abs(mats[i].data - mats[j].data).sum())
            assert full[i, j] == pytest.approx(want, abs=1e-12)


def test_distance_matrix_duplicates_and_validation():
    rng = np.random.default_rng(1)
    square = np.corrcoef(rng.normal(size=(4, 30)))
    mats = [_corr(square, 0), _corr(square, 1)]
    dm = distance_matrix(mats)
    assert dm.full()[0, 1] == 0.0
    with pytest.raises(ValidationError):
        distance_matrix(mats[:1])
    guhr = GuhrMatrix(
        dim=4, data=mats[0].data.copy(), epoch_end=mats[0].epoch_end,
        sectors=("a", "b", "c", "d"),
    )
    with pytest.raises(DimensionMismatch):
        distance_matrix([mats[0], guhr])
    small = _corr(np.corrcoef(rng.normal(size=(3, 30))), 2)
    with pytest.raises(DimensionMismatch):
        distance_matrix([mats[0], small])
    with pytest.raises(ParameterRange):
        distance_matrix(mats, threads=0)


def test_raw_arrays_raise_validation_error():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(4, 6))
    with pytest.raises(ValidationError, match="CorrMatrix or GuhrMatrix"):
        MatrixStack.of(rows)
    with pytest.raises(ValidationError):
        distance_matrix(rows)
    c = kmeans(rows, 2, seed=0)
    with pytest.raises(ValidationError):
        order_states(c, rows)
    with pytest.raises(ValidationError):
        MatrixStack.of([_corr(np.eye(3), 0), "not a matrix"])


def _stack(points: np.ndarray, dim: int) -> MatrixStack:
    ends = tuple(date(2016, 1, 1) + timedelta(days=i) for i in range(len(points)))
    return MatrixStack(CorrMatrix, dim, points, ends)


def _rough_values(rng, shape) -> np.ndarray:
    """Values spanning 17 decades, so any change in summation order
    shows in the last bits."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 2 * TILE_ROWS + 5]),
    threads=st.sampled_from([1, 2, 3]),
    dim=st.sampled_from([2, 3, 8]),
    seed=st.integers(0, 2**32 - 1),
    repeats=st.booleans(),
)
def test_tiled_distances_equal_pdist_bits(n, threads, dim, seed, repeats):
    rng = np.random.default_rng(seed)
    points = _rough_values(rng, (n, packed.packed_length(dim)))
    if repeats:
        points[rng.integers(0, n, size=n // 2)] = points[0]
    want = np.zeros(packed.packed_length(n))
    want[packed.strict_upper_mask(n)] = pdist(points, "cityblock")
    got = distance_matrix(_stack(points, dim), threads=threads)
    assert got.n == n
    assert got.d.tobytes() == want.tobytes()


def _unpack_reference(d: np.ndarray, n: int) -> np.ndarray:
    """The fancy-index unpack the row-slice kernel must match."""
    rows, cols = np.triu_indices(n)
    full = np.empty((n, n))
    full[rows, cols] = d
    full[cols, rows] = d
    return full


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_full_equals_unpack(n, seed):
    d = np.abs(_rough_values(np.random.default_rng(seed), packed.packed_length(n)))
    want = _unpack_reference(d, n).tobytes()
    assert packed.unpack(d, n).tobytes() == want
    d[packed.diagonal_positions(n)] = 0.0
    want = _unpack_reference(d, n).tobytes()
    assert DistanceMatrix(n=n, d=d).full().tobytes() == want
    assert packed.unpack(d, n).tobytes() == want


def _double_center_reference(d_full: np.ndarray) -> np.ndarray:
    """The out-of-place formula the in-place version must match."""
    a = -0.5 * d_full**2
    row = a.mean(axis=1, keepdims=True)
    col = a.mean(axis=0, keepdims=True)
    return a - row - col + a.mean()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_double_center_in_place_equals_formula(n, seed):
    d = np.abs(_rough_values(np.random.default_rng(seed), packed.packed_length(n)))
    d[packed.diagonal_positions(n)] = 0.0
    square = packed.unpack(d, n)
    want = _double_center_reference(square)
    got = _double_center(square)
    assert got is square
    assert got.tobytes() == want.tobytes()


def test_distance_container_validation():
    with pytest.raises(ValidationError):
        DistanceMatrix(n=3, d=np.zeros(5))
    bad = np.zeros(6)
    bad[1] = -0.5
    with pytest.raises(ValidationError):
        DistanceMatrix(n=3, d=bad)
    diag = np.zeros(6)
    diag[0] = 1.0  # (0,0) position
    with pytest.raises(ValidationError):
        DistanceMatrix(n=3, d=diag)


def test_line_three_points():
    full = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    e = classical_mds(_dm_from_full(full), dim=1)
    col = e.coords[:, 0]
    np.testing.assert_allclose(np.abs(col), [1.0, 0.0, 1.0], atol=1e-12)
    assert col[np.abs(col).argmax()] > 0  # documented orientation rule
    assert col[0] == pytest.approx(-col[2], abs=1e-12)


def test_two_points_half_delta():
    for delta in (0.5, 1.0, 7.25):
        full = np.array([[0.0, delta], [delta, 0.0]])
        e = classical_mds(_dm_from_full(full), dim=1)
        np.testing.assert_allclose(
            np.sort(e.coords[:, 0]), [-delta / 2, delta / 2], atol=1e-12
        )


def test_euclidean_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(5):
        pts = rng.normal(size=(50, 3))
        e = classical_mds(_euclidean_dm(pts), dim=3)
        got = pdist(e.coords)
        np.testing.assert_allclose(got, pdist(pts), atol=1e-9)
        assert e.captured == pytest.approx(1.0, abs=1e-9)


def test_embedding_centered_and_ordered():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 5))
    e = classical_mds(_euclidean_dm(pts), dim=4)
    np.testing.assert_allclose(e.coords.mean(axis=0), 0.0, atol=1e-9)
    vals = np.array(e.eigenvalues)
    assert (np.diff(vals) <= 1e-9).all()
    assert 0.0 <= e.captured <= 1.0
    assert e.positive_mass > 0


def test_sign_convention_fixes_orientation():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 3))
    e = classical_mds(_euclidean_dm(pts), dim=3)
    for j in range(3):
        col = e.coords[:, j]
        assert col[np.abs(col).argmax()] > 0
    again = classical_mds(_euclidean_dm(pts), dim=3)
    np.testing.assert_array_equal(e.coords, again.coords)


def test_degraded_rank_yields_zero_columns():
    # two far pairs over a unit clique: valid metric, not Euclidean-flat
    full = np.ones((4, 4)) * 1.0
    full[0, 1] = full[1, 0] = 2.0
    full[2, 3] = full[3, 2] = 2.0
    np.fill_diagonal(full, 0.0)
    dm = _dm_from_full(full)
    with pytest.warns(DegradedRankWarning):
        e = classical_mds(dm, dim=3)
    assert min(e.eigenvalues) < 0
    zeroed = np.array(e.eigenvalues) < 0
    assert (e.coords[:, zeroed] == 0.0).all()
    assert 0.0 <= e.captured <= 1.0


def test_zero_distances_embed_at_origin():
    dm = DistanceMatrix(n=4, d=np.zeros(packed.packed_length(4)))
    e = classical_mds(dm, dim=2)
    assert (e.coords == 0.0).all()
    assert e.captured == 1.0


def test_dim_validation():
    dm = _euclidean_dm(np.random.default_rng(5).normal(size=(6, 2)))
    with pytest.raises(ParameterRange):
        classical_mds(dm, dim=0)
    with pytest.raises(ParameterRange):
        classical_mds(dm, dim=6)


def test_iterative_path_matches_dense(monkeypatch):
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(60, 4))
    dm = _euclidean_dm(pts)
    dense = classical_mds(dm, dim=3)
    monkeypatch.setattr(mds, "DENSE_CUTOFF", 10)
    iterative = classical_mds(dm, dim=3)
    np.testing.assert_allclose(iterative.coords, dense.coords, atol=1e-7)
    np.testing.assert_allclose(
        np.array(iterative.eigenvalues), np.array(dense.eigenvalues), rtol=1e-9
    )
    # iterative positive mass is a trace-based upper bound
    assert iterative.positive_mass >= dense.positive_mass - 1e-9
    assert iterative.captured <= 1.0


def test_planted_regimes_separate_in_2d():
    spec = RegimeSpec(
        sector_sizes=(5, 5, 5),
        intra=(0.1, 0.55, 0.95),
        inter=(0.02, 0.2, 0.45),
        durations=(150, 150, 150),
    )
    prices, day_labels = generate_block_market(spec, seed=11)
    rt = log_returns(prices)
    mats = ms.pipeline_matrices(rt, EpochSpec(20, 1), epsilon=0.0)
    dm = distance_matrix(mats)
    run = ms.sigma_intra(mats, k=3, n_init=8, seed=0)
    states = ms.order_states(run.best, mats).states
    e = classical_mds(dm, dim=2, states=states)
    # the scatter's colored groups are the recovered states
    assert silhouette(e.coords, states) > 0.5
    labels = np.asarray(day_labels[1:])
    truth = np.array([
        np.bincount(labels[i : i + 20]).argmax() for i in range(len(mats))
    ])
    agree = max((states == truth).mean(), 0.0)
    assert agree > 0.9  # states track the planted regimes up to epoch mixing


def test_embedding_table_format():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(6, 3))
    states = np.arange(1, 7)
    ends = tuple(date(2016, 2, 1) + timedelta(days=i) for i in range(6))
    e = classical_mds(_euclidean_dm(pts), dim=3, states=states, epoch_ends=ends)
    text = embedding_table(e)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch_end,state,x,y,z"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "2016-02-01"
    assert first[1] == "1"
    np.testing.assert_allclose(
        [float(v) for v in first[2:]], e.coords[0], atol=0
    )


def test_embedding_table_pads_missing_axes():
    pts = np.random.default_rng(9).normal(size=(5, 2))
    e = classical_mds(_euclidean_dm(pts), dim=1)
    lines = embedding_table(e).strip().split("\n")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == ""  # no epoch dates attached
        assert float(cells[3]) == 0.0 and float(cells[4]) == 0.0


def test_embedding_svg_contents():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(12, 2))
    states = np.array([1, 2, 3] * 4)
    e = classical_mds(_euclidean_dm(pts), dim=2, states=states)
    svg = embedding_svg(e)
    assert svg.startswith("<svg ")
    assert svg.count("<circle") == 12
    for s in (1, 2, 3):
        assert PALETTE[s - 1] in svg
    assert "axis 1 (" in svg and "axis 2 (" in svg
    assert "% of positive mass" in svg
    assert embedding_svg(e) == svg
    frac = e.axis_fraction(1)
    assert f"{100 * frac:.1f}%" in svg
    with pytest.raises(ParameterRange, match="axis 2 out of range 1..1"):
        embedding_svg(classical_mds(_euclidean_dm(pts), dim=1))


def test_embedding_svg_centres_a_constant_axis():
    """A zero second axis is drawn at mid-height."""
    coords = np.column_stack([np.arange(5.0) - 2.0, np.zeros(5)])
    e = Embedding(coords=coords, eigenvalues=(10.0, 0.0), positive_mass=10.0,
                  captured=1.0)
    svg = embedding_svg(e)
    assert svg.count('cy="240.00"') == 5
