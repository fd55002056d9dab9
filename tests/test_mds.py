import tracemalloc
from dataclasses import replace
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
from marketstates.markov import StateSequence
from marketstates.mds import (
    TILE_ROWS,
    DistanceMatrix,
    Embedding,
    PALETTE,
    _packed_gram,
    classical_mds,
    distance_matrix,
    embedding_svg,
    embedding_table,
    matrix_distance,
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


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([CorrMatrix, GuhrMatrix]),
    n=st.integers(2, 6),
    dim=st.sampled_from([2, 5, 12, 30]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_distance_is_the_distance_table_entry_bit_for_bit(kind, n, dim, seed):
    """Entries in [-1, 1] over eight decades, so a sum in another order
    than the table's shows in the last bits; a correlation stack has
    unit diagonals, a Guhr stack any."""
    rng = np.random.default_rng(seed)
    shape = (n, packed.packed_length(dim))
    rows = rng.uniform(-1.0, 1.0, shape) * 10.0 ** -rng.integers(0, 8, size=shape)
    if kind is CorrMatrix:
        rows[:, packed.diagonal_positions(dim)] = 1.0
    stack = _stack(rows, dim)
    if kind is GuhrMatrix:
        stack = replace(stack, kind=GuhrMatrix, labels=tuple(f"s{i}" for i in range(dim)))
    table = distance_matrix(stack).full()
    for i in range(n):
        for j in range(n):
            got = matrix_distance(stack[i], stack[j])
            assert np.float64(got).tobytes() == table[i, j].tobytes(), (i, j)


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


def _gram_reference(dm: DistanceMatrix) -> np.ndarray:
    """The square formula the packed Gram must match, row means on both
    sides."""
    a = -0.5 * dm.full() ** 2
    row = a.mean(axis=1)
    return packed.pack(a - row[:, None] - row[None, :] + row.mean())


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_packed_gram_equals_formula(n, seed):
    d = np.abs(_rough_values(np.random.default_rng(seed), packed.packed_length(n)))
    d[packed.diagonal_positions(n)] = 0.0
    want = _gram_reference(DistanceMatrix(n=n, d=d.copy())).tobytes()
    b = _packed_gram(DistanceMatrix(n=n, d=d))
    assert b.tobytes() == want
    assert np.shares_memory(b, d)  # built in the distances' buffer


def test_iterative_scaling_makes_no_square():
    """The packed Gram is built in the distances' buffer, so scaling adds
    only O(n) vectors and the eigensolver's n x ncv workspace: 6.5% of
    the packed bytes at this n, measured. A second packed buffer would be
    100% and an n x n square 200%."""
    pts = np.random.default_rng(14).normal(size=(mds.DENSE_CUTOFF, 3))
    classical_mds(_euclidean_dm(pts), dim=3)  # lazy imports and caches first
    dm = _euclidean_dm(pts)
    nbytes = dm.d.nbytes
    tracemalloc.start()
    try:
        e = classical_mds(dm, dim=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e.captured == pytest.approx(1.0, abs=1e-9)
    assert peak < 0.1 * nbytes


def test_spent_distance_matrix_raises():
    """classical_mds consumes its input; a second use fails instead of
    reading the Gram matrix that now fills the buffer."""
    pts = np.random.default_rng(16).normal(size=(8, 2))
    dm = _euclidean_dm(pts)
    with pytest.raises(ParameterRange):
        classical_mds(dm, dim=8)  # rejected before the buffer is taken
    dm.full()
    classical_mds(dm, dim=2)
    assert dm.d is None
    with pytest.raises(ValidationError, match="spent"):
        classical_mds(dm, dim=2)
    with pytest.raises(ValidationError, match="spent"):
        dm.full()

    frozen = _euclidean_dm(pts)
    frozen.d.flags.writeable = False
    with pytest.raises(ValidationError, match="read-only"):
        classical_mds(frozen, dim=2)
    assert frozen.full().tobytes() == _euclidean_dm(pts).full().tobytes()


def test_distance_matrix_makes_no_half_square_temporary():
    """Past the packed result the traced peak holds one cityblock block
    per worker thread (1,078,026 bytes over the result against 1,024,000
    for the two blocks, measured); any n(n+1)/2 temporary, even a boolean
    one of 2,001,000 bytes, exceeds the margin."""
    n = 2000
    stack = _stack(np.random.default_rng(15).normal(size=(n, 6)), 3)
    # lazy imports and the pool machinery first
    distance_matrix(_stack(np.random.default_rng(16).normal(size=(40, 6)), 3), threads=2)
    tracemalloc.start()
    try:
        dm = distance_matrix(stack, threads=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dm.d.nbytes + 2 * TILE_ROWS * n * 8 + 256 * 1024


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


@pytest.mark.parametrize("d, message", [
    (np.array([0, 1, 2, 0, 3, 0]), "packed data must be float64, got int64"),
    (np.zeros(6, dtype=np.float32), "packed data must be float64, got float32"),
    ([0.0, 1.0, 2.0, 0.0, 3.0, 0.0], "packed data must be an ndarray, got list"),
], ids=["int64", "float32", "list"])
def test_distances_that_are_not_a_float64_array_are_refused(d, message):
    """Distances are never converted, since ``classical_mds`` builds its
    Gram matrix in their buffer. Before, an int64 buffer reached the
    in-place ``a *= -0.5`` (numpy's UFuncTypeError) and a list raised
    AttributeError."""
    with pytest.raises(ValidationError) as info:
        DistanceMatrix(n=3, d=d)
    assert str(info.value) == message


@pytest.mark.parametrize("off_diagonal, ok", [
    ((0.0, 1.0, 2.0), True),
    ((-0.0, 1.0, 2.0), True),
    ((np.nan, 1.0, 2.0), False),
    ((np.nan, np.nan, np.nan), False),
    ((np.nan, -0.5, 2.0), False),
    ((1.0, 2.0, -1e-300), False),
])
def test_nonnegativity_check_treats_nan_and_negative_zero_as_before(off_diagonal, ok):
    """The check is two reductions; it passes and fails exactly where
    ``((d >= 0) & (d < inf)).all()`` does: -0.0 is not negative, and NaN
    is refused."""
    d = np.zeros(6)
    d[[1, 2, 4]] = off_diagonal
    assert ok == ((d >= 0) & (d < np.inf)).all()
    if ok:
        DistanceMatrix(n=3, d=d)
    else:
        with pytest.raises(ValidationError, match="nonnegative"):
            DistanceMatrix(n=3, d=d)


@pytest.mark.parametrize("n", [6, mds.DENSE_CUTOFF + 100])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_distances_are_refused_before_any_eigensolver(n, value, capfd):
    """NaN and +-inf fail the container's own check with a typed error, on
    both sides of the dense cutoff, and leave nothing on stderr (no
    LAPACK message from an eigensolver)."""
    d = np.ones(packed.packed_length(n))
    d[packed.diagonal_positions(n)] = 0.0
    d[n // 2] = value  # an off-diagonal entry of the first row
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        DistanceMatrix(n=n, d=d)
    assert capfd.readouterr().err == ""


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
    dense = classical_mds(_euclidean_dm(pts), dim=3)
    monkeypatch.setattr(mds, "DENSE_CUTOFF", 10)
    iterative = classical_mds(_euclidean_dm(pts), dim=3)
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
    e = classical_mds(dm, dim=2)
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
    e = classical_mds(_euclidean_dm(pts), dim=3)
    text = embedding_table(e, StateSequence(states=states, k=6, epoch_ends=ends))
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
    seq = StateSequence(states=states, k=3)
    e = classical_mds(_euclidean_dm(pts), dim=2)
    svg = embedding_svg(e, seq)
    assert svg.startswith("<svg ")
    assert svg.count("<circle") == 12
    for s in (1, 2, 3):
        assert PALETTE[s - 1] in svg
    assert "axis 1 (" in svg and "axis 2 (" in svg
    assert "% of positive mass" in svg
    assert embedding_svg(e, seq) == svg
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


# a hand-built embedding, so the pinned text does not depend on BLAS
_PINNED = Embedding(coords=np.array([[1.5, -0.25], [-1.0, 0.5], [-0.5, -0.25]]),
                    eigenvalues=(3.0, 1.0), positive_mass=5.0, captured=0.8)
_PINNED_SEQ = StateSequence(
    states=np.array([2, 1, 2]), k=2,
    epoch_ends=(date(2016, 3, 1), date(2016, 3, 2), date(2016, 3, 3)),
)


def test_embedding_table_text_is_pinned_with_and_without_a_sequence():
    assert embedding_table(_PINNED, _PINNED_SEQ) == (
        "epoch_end,state,x,y,z\n"
        "2016-03-01,2,1.5,-0.25,0\n"
        "2016-03-02,1,-1,0.5,0\n"
        "2016-03-03,2,-0.5,-0.25,0\n"
    )
    # without a sequence every state is 0 and every date empty
    assert embedding_table(_PINNED) == (
        "epoch_end,state,x,y,z\n"
        ",0,1.5,-0.25,0\n"
        ",0,-1,0.5,0\n"
        ",0,-0.5,-0.25,0\n"
    )


def test_embedding_svg_text_is_pinned_with_and_without_a_sequence():
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
        'viewBox="0 0 640 480">\n'
        '<rect width="640" height="480" fill="white"/>\n'
        '<text x="320.0" y="468" text-anchor="middle" font-family="sans-serif" '
        'font-size="13">axis 1 (60.0% of positive mass)</text>\n'
        '<text x="16" y="240.0" text-anchor="middle" font-family="sans-serif" '
        'font-size="13" transform="rotate(-90 16 240.0)">axis 2 (20.0% of positive '
        'mass)</text>\n'
    )

    def circles(*colors):
        at = [("592.00", "432.00"), ("48.00", "48.00"), ("156.80", "432.00")]
        return "".join(f'<circle cx="{x}" cy="{y}" r="3" fill="{c}" fill-opacity="0.75"/>\n'
                       for (x, y), c in zip(at, colors))

    assert embedding_svg(_PINNED, _PINNED_SEQ) == (
        head + circles("#d95f02", "#1b9e77", "#d95f02") + "</svg>\n"
    )
    assert embedding_svg(_PINNED) == head + circles(*["#666666"] * 3) + "</svg>\n"


def test_renderers_refuse_a_sequence_of_another_length():
    short = StateSequence(states=np.array([1, 2]), k=2)
    for render in (embedding_table, embedding_svg):
        with pytest.raises(ValidationError, match="2 states for 3 points"):
            render(_PINNED, short)
