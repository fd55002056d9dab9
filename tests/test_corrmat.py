import math
import tracemalloc
import warnings
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from marketstates import packed
from marketstates.corrmat import (
    CorrMatrix,
    EpochSpec,
    GuhrMatrix,
    MatrixStack,
    average_correlation,
    coarse_grain,
    epoch_correlation,
    pipeline_matrices,
    pipeline_stacks,
    power_map,
    rolling_correlations,
)
from marketstates.errors import (
    DegenerateColumn,
    DimensionMismatch,
    InsufficientData,
    ParameterRange,
    SingletonSectorWarning,
    ValidationError,
)
from marketstates.ingest import ReturnTable, SectorMap
from marketstates.mds import DistanceMatrix, matrix_distance

# oracles, written independently of the implementation under test


def two_pass_correlation(window: np.ndarray) -> np.ndarray:
    """Textbook two-pass Pearson estimate: means first, then moments."""
    rows, cols = window.shape
    means = [sum(window[:, j]) / rows for j in range(cols)]
    cov = np.empty((cols, cols))
    for i in range(cols):
        for j in range(cols):
            acc = 0.0
            for t in range(rows):
                acc += (window[t, i] - means[i]) * (window[t, j] - means[j])
            cov[i, j] = acc / rows
    corr = np.empty_like(cov)
    for i in range(cols):
        for j in range(cols):
            corr[i, j] = cov[i, j] / math.sqrt(cov[i, i] * cov[j, j])
    return corr


def block_average_oracle(c: np.ndarray, sector_idx: np.ndarray, n_s: int):
    """Exhaustive double loop over all (alpha, beta) pairs per block, each
    block summed exactly by ``math.fsum`` before its one division.

    Returns the block means, the number m of distinct pairs per block (the
    terms a packed kernel sums) and the largest |entry| per block.
    """
    g = np.empty((n_s, n_s))
    m = np.zeros((n_s, n_s), dtype=np.int64)
    peak = np.zeros((n_s, n_s))
    for si in range(n_s):
        for sj in range(n_s):
            members_i = np.flatnonzero(sector_idx == si)
            members_j = np.flatnonzero(sector_idx == sj)
            terms = [
                c[a, b]
                for a in members_i
                for b in members_j
                if not (si == sj and a == b)
            ]
            g[si, sj] = math.fsum(terms) / len(terms) if terms else 1.0
            m[si, sj] = len(terms) // 2 if si == sj else len(terms)
            peak[si, sj] = max(map(abs, terms), default=0.0)
    return g, m, peak


def _return_table(returns: np.ndarray, tickers=None) -> ReturnTable:
    rows, cols = returns.shape
    tickers = tickers or tuple(f"T{j:03d}" for j in range(cols))
    days = tuple(date(2015, 1, 1) + timedelta(days=t) for t in range(rows))
    return ReturnTable(dates=days, tickers=tuple(tickers), returns=returns)


def _corr_from_square(square: np.ndarray, tickers=None) -> CorrMatrix:
    return CorrMatrix(
        dim=square.shape[0],
        data=packed.pack(square),
        epoch_end=date(2015, 2, 1),
        epoch_index=0,
        tickers=tickers,
    )


def _sector_map(labels: dict[str, str]) -> SectorMap:
    return SectorMap(assignment=labels, sectors=tuple(sorted(set(labels.values()))))


def test_epoch_correlation_matches_two_pass_oracle():
    rng = np.random.default_rng(42)
    spec = EpochSpec(length=20, shift=1)
    for _ in range(25):
        window = rng.normal(0, 0.02, size=(20, 8))
        rt = _return_table(window)
        got = epoch_correlation(rt, 0, spec).full()
        want = two_pass_correlation(window)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_perfect_correlation_and_anticorrelation():
    rng = np.random.default_rng(1)
    base = rng.normal(size=20)
    window = np.column_stack([base, base, -base])
    c = epoch_correlation(_return_table(window), 0, EpochSpec(20, 1)).full()
    assert c[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert c[0, 2] == pytest.approx(-1.0, abs=1e-12)


def test_diagonal_exactly_one_and_entries_bounded():
    rng = np.random.default_rng(2)
    window = rng.normal(size=(20, 6))
    c = epoch_correlation(_return_table(window), 0, EpochSpec(20, 1))
    full = c.full()
    assert (np.diag(full) == 1.0).all()
    assert np.abs(full).max() <= 1.0


def test_degenerate_column_reported():
    window = np.random.default_rng(3).normal(size=(20, 3))
    window[:, 1] = 0.25
    rt = _return_table(window, tickers=("AAA", "BBB", "CCC"))
    with pytest.raises(DegenerateColumn) as exc:
        epoch_correlation(rt, 0, EpochSpec(20, 1))
    assert exc.value.ticker == "BBB"
    assert (exc.value.start, exc.value.end) == (0, 20)


def test_affine_invariance():
    rng = np.random.default_rng(4)
    window = rng.normal(size=(20, 5))
    shifted = window * np.array([2.0, 0.5, 3.0, 1.0, 10.0]) + np.array(
        [0.1, -0.3, 0.0, 5.0, -2.0]
    )
    a = epoch_correlation(_return_table(window), 0, EpochSpec(20, 1)).full()
    b = epoch_correlation(_return_table(shifted), 0, EpochSpec(20, 1)).full()
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_epoch_end_is_last_window_date():
    rng = np.random.default_rng(5)
    rt = _return_table(rng.normal(size=(30, 3)))
    spec = EpochSpec(20, 1)
    c = epoch_correlation(rt, 4, spec)
    assert c.epoch_end == rt.dates[23]
    assert c.epoch_index == 4


def test_rolling_window_count_paper_scale():
    assert EpochSpec(20, 1).window_count(3522) == 3503


def test_rolling_counts_and_indices():
    rng = np.random.default_rng(6)
    rt = _return_table(rng.normal(size=(28, 2)))
    mats = rolling_correlations(rt, EpochSpec(20, 2))
    assert len(mats) == (28 - 20) // 2 + 1
    assert [m.epoch_index for m in mats] == list(range(len(mats)))
    single = rolling_correlations(_return_table(rng.normal(size=(20, 2))), EpochSpec(20, 1))
    assert len(single) == 1


def test_rolling_insufficient_rows():
    rt = _return_table(np.random.default_rng(7).normal(size=(10, 2)))
    with pytest.raises(InsufficientData):
        rolling_correlations(rt, EpochSpec(20, 1))
    with pytest.raises(InsufficientData, match="outside 10 return rows"):
        epoch_correlation(rt, 6, EpochSpec(5, 1))


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_pack_rejects_non_square(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        packed.pack(np.zeros(shape))


def test_epoch_spec_validation():
    with pytest.raises(ParameterRange):
        EpochSpec(length=1)
    with pytest.raises(ParameterRange):
        EpochSpec(length=20, shift=0)


def test_power_map_identity_at_zero():
    rng = np.random.default_rng(9)
    c = _corr_from_square(np.corrcoef(rng.normal(size=(5, 30))))
    assert power_map(c, 0.0) is c


def test_power_map_spot_value():
    g = GuhrMatrix(
        dim=2,
        data=np.array([0.2, -0.5, 0.3]),
        epoch_end=date(2015, 2, 1),
        sectors=("x", "y"),
    )
    mapped = power_map(g, 0.5)
    assert mapped.data[1] == pytest.approx(-0.3535534, abs=1e-7)


def test_power_map_fixed_points():
    c = _corr_from_square(np.array([[1.0, 0.0], [0.0, 1.0]]))
    mapped = power_map(c, 0.7)
    np.testing.assert_array_equal(mapped.full(), c.full())


def test_power_map_sign_magnitude_monotonic():
    rng = np.random.default_rng(10)
    dim = 63
    data = np.zeros(packed.packed_length(dim))
    data[packed.diagonal_positions(dim)] = 1.0
    mask = packed.strict_upper_mask(dim)
    vals = rng.uniform(-1, 1, size=int(mask.sum()))
    data[mask] = vals
    c = CorrMatrix(dim=dim, data=data, epoch_end=date(2015, 2, 1), epoch_index=0)
    for eps in (0.1, 0.3, 0.5, 1.0):
        out = power_map(c, eps).data[mask]
        assert (np.sign(out) == np.sign(vals)).all()
        assert (np.abs(out) <= np.abs(vals) + 1e-15).all()
        order = np.argsort(np.abs(vals))
        assert (np.diff(np.abs(out)[order]) >= -1e-15).all()


def test_power_map_stack_bits_equal_formula():
    rng = np.random.default_rng(11)
    data = rng.uniform(-1, 1, size=(40, packed.packed_length(6)))
    data[0, :10] = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, -5e-324, 0.5, -0.5]
    ends = tuple(date(2015, 2, 1) + timedelta(days=i) for i in range(40))
    stack = MatrixStack(CorrMatrix, 6, data, ends)
    for eps in (0.05, 0.3, 0.5, 0.7, 1.0):
        want = np.sign(data) * np.abs(data) ** (1.0 + eps)
        assert power_map(stack, eps).data.tobytes() == want.tobytes()


def test_power_map_rejects_out_of_range():
    c = _corr_from_square(np.eye(3))
    for eps in (-0.1, 1.5):
        with pytest.raises(ParameterRange):
            power_map(c, eps)


def test_coarse_grain_constant_blocks():
    square = np.full((4, 4), 0.5)
    np.fill_diagonal(square, 1.0)
    c = _corr_from_square(square, tickers=("a", "b", "c", "d"))
    sm = _sector_map({"a": "s1", "b": "s1", "c": "s2", "d": "s2"})
    g = coarse_grain(c, sm)
    np.testing.assert_allclose(g.full(), np.full((2, 2), 0.5), atol=1e-15)


def test_coarse_grain_identity_matrix_gives_zeros():
    c = _corr_from_square(np.eye(4), tickers=("a", "b", "c", "d"))
    sm = _sector_map({"a": "s1", "b": "s1", "c": "s2", "d": "s2"})
    g = coarse_grain(c, sm)
    np.testing.assert_array_equal(g.full(), np.zeros((2, 2)))


@st.composite
def _coarse_grain_cases(draw):
    """Sector labels per ticker, interleaved in ticker order, whether the
    map holds a sector with no member among the tickers, and the packed
    matrix values."""
    n = draw(st.integers(2, 40))
    labels = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    memberless = draw(st.booleans())
    if len(set(labels)) == 1:
        memberless = True  # a sector map needs two sectors
    values = draw(arrays(
        np.float64, packed.packed_length(n),
        elements=st.floats(-1, 1) | st.sampled_from([0.0, -0.0]),
    ))
    return labels, memberless, values


@settings(deadline=None)
@given(case=_coarse_grain_cases())
@example(case=([0, 1, 1, 0, 2, 1], True, np.linspace(-1, 1, 21)))
@example(case=([0] * 39 + [1], False, np.full(820, 0.7)))  # one 741-pair block
def test_coarse_grain_matches_double_loop_oracle(case):
    labels, memberless, values = case
    tickers = tuple(f"t{i}" for i in range(len(labels)))
    assignment = {t: f"s{lab}" for t, lab in zip(tickers, labels)}
    if memberless:
        assignment["absent"] = "s_absent"
    sm = _sector_map(assignment)
    c = CorrMatrix(len(tickers), values, date(2015, 2, 1), 0, tickers)
    idx = sm.indices(tickers)
    sizes = np.bincount(idx, minlength=sm.n_sectors)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = coarse_grain(c, sm).full()
    warned = any(issubclass(w.category, SingletonSectorWarning) for w in caught)
    assert warned == bool((sizes < 2).any())
    want, m, peak = block_average_oracle(c.full(), idx, sm.n_sectors)
    # summing m terms in sequence errs by at most (m - 1) u max|x| on the
    # mean; the kernel's division and the oracle's rounded sum and division
    # add u max|x| each
    bound = (m + 2) * 2.0**-53 * peak
    assert (np.abs(got - want) <= bound).all(), np.abs(got - want) - bound


def test_coarse_grain_singleton_sector_warns():
    square = np.full((3, 3), 0.4)
    np.fill_diagonal(square, 1.0)
    c = _corr_from_square(square, tickers=("a", "b", "c"))
    sm = _sector_map({"a": "s1", "b": "s1", "c": "solo"})
    with pytest.warns(SingletonSectorWarning):
        g = coarse_grain(c, sm)
    full = g.full()
    assert full[1, 1] == 1.0  # sectors sorted: s1, solo
    assert full[0, 0] == pytest.approx(0.4)


def test_coarse_grain_is_block_average():
    rng = np.random.default_rng(13)
    square = rng.uniform(-1, 1, size=(9, 9))
    square = (square + square.T) / 2
    np.fill_diagonal(square, 1.0)
    tickers = tuple(f"t{i}" for i in range(9))
    sm = _sector_map({t: f"s{i % 3}" for i, t in enumerate(tickers)})
    g = coarse_grain(_corr_from_square(square, tickers=tickers), sm).full()
    idx = sm.indices(tickers)
    for si in range(3):
        for sj in range(3):
            block = square[np.ix_(idx == si, idx == sj)]
            entries = block[~np.eye(block.shape[0], dtype=bool)] if si == sj else block
            assert entries.min() - 1e-12 <= g[si, sj] <= entries.max() + 1e-12


def test_coarse_grain_requires_tickers():
    c = _corr_from_square(np.eye(4))
    sm = _sector_map({"a": "s1", "b": "s1", "c": "s2", "d": "s2"})
    with pytest.raises(ValidationError, match="tickers"):
        coarse_grain(c, sm)
    c = replace(c, tickers=("a", "b", "c", "d"))
    g = coarse_grain(c, sm)
    for guhr in (g, MatrixStack.of([g, g])):
        with pytest.raises(ValidationError, match="takes correlation matrices"):
            coarse_grain(guhr, sm)


def test_matrix_distance_identity_and_symmetry():
    rng = np.random.default_rng(14)
    a = _corr_from_square(np.corrcoef(rng.normal(size=(4, 40))))
    b = _corr_from_square(np.corrcoef(rng.normal(size=(4, 40))))
    assert matrix_distance(a, a) == 0.0
    assert matrix_distance(a, b) == pytest.approx(matrix_distance(b, a), abs=0)


def test_matrix_distance_hand_value():
    a = _corr_from_square(np.array([[1.0, 0.3], [0.3, 1.0]]))
    b = _corr_from_square(np.array([[1.0, 0.7], [0.7, 1.0]]))
    assert matrix_distance(a, b) == pytest.approx(0.4, abs=1e-15)


def test_matrix_distance_triangle_inequality():
    rng = np.random.default_rng(15)
    for _ in range(50):
        mats = [
            _corr_from_square(np.corrcoef(rng.normal(size=(5, 30))))
            for _ in range(3)
        ]
        ab = matrix_distance(mats[0], mats[1])
        bc = matrix_distance(mats[1], mats[2])
        ac = matrix_distance(mats[0], mats[2])
        assert ac <= ab + bc + 1e-12


def test_matrix_distance_guhr_diagonal_counts():
    a = GuhrMatrix(dim=2, data=np.array([0.5, 0.2, 0.6]),
                   epoch_end=date(2015, 2, 1), sectors=("x", "y"))
    b = GuhrMatrix(dim=2, data=np.array([0.7, 0.2, 0.6]),
                   epoch_end=date(2015, 2, 1), sectors=("x", "y"))
    assert matrix_distance(a, b) == pytest.approx(0.2, abs=1e-15)


def test_matrix_distance_rejects_mismatches():
    a = _corr_from_square(np.eye(3))
    b = _corr_from_square(np.eye(4))
    with pytest.raises(DimensionMismatch):
        matrix_distance(a, b)
    g = GuhrMatrix(dim=3, data=a.data.copy(), epoch_end=a.epoch_end,
                   sectors=("x", "y", "z"))
    with pytest.raises(DimensionMismatch):
        matrix_distance(a, g)
    with pytest.raises(ValidationError, match="CorrMatrix or GuhrMatrix"):
        matrix_distance(a, a.data)


def test_average_correlation_values():
    assert average_correlation(_corr_from_square(np.eye(5))) == 0.0
    square = np.full((4, 4), 0.611)
    np.fill_diagonal(square, 1.0)
    assert average_correlation(_corr_from_square(square)) == pytest.approx(0.611)


def test_average_correlation_matches_brute_force():
    rng = np.random.default_rng(16)
    square = rng.uniform(-1, 1, size=(5, 5))
    square = (square + square.T) / 2
    np.fill_diagonal(square, 1.0)
    want = np.mean([square[i, j] for i in range(5) for j in range(i + 1, 5)])
    got = average_correlation(_corr_from_square(square))
    assert got == pytest.approx(want, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 12),
    rows=st.integers(20, 40),
    epsilon=st.sampled_from([0.0, 0.3, 1.0]),
    sectors=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_average_correlation_of_stack_is_per_matrix_bits(n, rows, epsilon, sectors, seed):
    rng = np.random.default_rng(seed)
    rt = _return_table(rng.normal(0, 0.02, size=(rows, n)))
    sm = None
    if sectors:
        sm = _sector_map({t: ("a", "b")[i % 2] for i, t in enumerate(rt.tickers)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingletonSectorWarning)
        stack = pipeline_matrices(rt, EpochSpec(20, 1), epsilon, sm)
    got = average_correlation(stack)
    want = np.array([average_correlation(m) for m in stack])
    assert got.shape == (len(stack),)
    assert got.tobytes() == want.tobytes()


def test_pipeline_order_soft_property():
    # PM-then-CG vs CG-then-PM: the orders differ, but by less than either
    # differs from skipping the power map entirely
    rng = np.random.default_rng(17)
    tickers = tuple(f"t{i}" for i in range(12))
    sm = _sector_map({t: f"s{i % 3}" for i, t in enumerate(tickers)})
    for _ in range(20):
        base = rng.uniform(0.2, 0.8)
        square = np.full((12, 12), base) + rng.normal(0, 0.08, size=(12, 12))
        square = np.clip((square + square.T) / 2, -1, 1)
        np.fill_diagonal(square, 1.0)
        c = _corr_from_square(square, tickers=tickers)
        pm_cg = coarse_grain(power_map(c, 0.5), sm).full()
        cg_pm = power_map(coarse_grain(c, sm), 0.5).full()
        cg_only = coarse_grain(c, sm).full()
        gap_orders = np.linalg.norm(pm_cg - cg_pm)
        gap_unmapped = np.linalg.norm(pm_cg - cg_only)
        assert gap_orders < gap_unmapped


def test_pipeline_matrices_eps_zero_equals_rolling():
    rng = np.random.default_rng(18)
    rt = _return_table(rng.normal(size=(26, 4)))
    spec = EpochSpec(20, 1)
    plain = rolling_correlations(rt, spec)
    piped = pipeline_matrices(rt, spec, epsilon=0.0)
    for a, b in zip(plain, piped):
        np.testing.assert_array_equal(a.data, b.data)


def test_pipeline_matrices_with_sectors_yields_guhr():
    rng = np.random.default_rng(19)
    tickers = ("a", "b", "c", "d")
    rt = _return_table(rng.normal(size=(24, 4)), tickers=tickers)
    sm = _sector_map({"a": "s1", "b": "s1", "c": "s2", "d": "s2"})
    mats = pipeline_matrices(rt, EpochSpec(20, 1), epsilon=0.3, sectors=sm)
    assert all(isinstance(m, GuhrMatrix) for m in mats)
    assert mats[0].dim == 2
    with pytest.raises(ValidationError, match="a coarse column needs a sector map"):
        pipeline_stacks(rt, EpochSpec(20, 1), [(0.0, False), (0.3, True)])


@settings(max_examples=60, deadline=None)
@given(
    returns=arrays(
        np.float64,
        st.tuples(st.integers(20, 27), st.just(5)),
        elements=st.floats(-0.1, 0.1, allow_subnormal=False),
    ),
    shift=st.integers(1, 3),
    columns=st.lists(st.tuples(st.sampled_from([0.0, 0.3, 1.0]), st.booleans()),
                     min_size=1, max_size=3),
)
def test_pipeline_stack_rows_equal_per_epoch_chain(returns, shift, columns):
    """Each (ε, coarse) column of one builder pass, stock and sector
    columns mixed, holds bit for bit what the per-epoch chain
    epoch_correlation -> power_map [-> coarse_grain] gives each epoch;
    pipeline_matrices is its first column."""
    rt = _return_table(returns)
    spec = EpochSpec(20, shift)
    sm = None
    if any(coarse for _, coarse in columns):
        sm = _sector_map(dict(zip(rt.tickers, ("s1", "s1", "s2", "s2", "s2"))))

    def chain(i, epsilon, coarse):
        m = power_map(epoch_correlation(rt, i * shift, spec, epoch_index=i), epsilon)
        return coarse_grain(m, sm) if coarse else m

    count = spec.window_count(rt.n_rows)
    try:
        stacks = pipeline_stacks(rt, spec, columns, sm)
    except DegenerateColumn as exc:
        with pytest.raises(DegenerateColumn) as per_epoch:
            for i in range(count):
                chain(i, *columns[0])
        assert str(per_epoch.value) == str(exc)
        return
    assert len(stacks) == len(columns)
    eps0, coarse0 = columns[0]
    first = pipeline_matrices(rt, spec, eps0, sm if coarse0 else None)
    assert first.data.tobytes() == stacks[0].data.tobytes()
    for stack, column in zip(stacks, columns):
        assert len(stack) == count
        for i, m in enumerate(stack):
            want = chain(i, *column)
            assert type(m) is type(want) is stack.kind
            assert (m.epoch_index, m.epoch_end) == (i, want.epoch_end)
            assert stack.data[i].tobytes() == want.data.tobytes()


def test_pipeline_builds_one_stack():
    """The power map is applied as rows are written: peak traced memory
    stays near one stack, not a stack and its mapped copy."""
    rt = _return_table(np.random.default_rng(24).normal(size=(400, 40)))
    spec = EpochSpec(20, 1)
    pipeline_matrices(rt, spec, epsilon=0.3)  # lazy imports and caches first
    tracemalloc.start()
    try:
        stack = pipeline_matrices(rt, spec, epsilon=0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.data.shape == (381, 820)
    assert peak <= 1.25 * stack.data.nbytes


def test_singleton_sector_warns_once_per_stack():
    rng = np.random.default_rng(23)
    rt = _return_table(rng.normal(size=(30, 3)), tickers=("a", "b", "c"))
    sm = _sector_map({"a": "s1", "b": "s1", "c": "s2"})
    for columns in ([(0.0, True)], [(0.0, True), (0.0, False), (0.5, True)]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stack = pipeline_stacks(rt, EpochSpec(20, 1), columns, sm)[0]
        assert len(stack) == 11
        assert (stack.data[:, packed.diagonal_positions(2)[1]] == 1.0).all()
        assert sum(issubclass(w.category, SingletonSectorWarning) for w in caught) == 1


def test_matrix_stack_of_and_indexing():
    rng = np.random.default_rng(24)
    mats = [
        replace(_corr_from_square(np.corrcoef(rng.normal(size=(3, 30)))),
                epoch_end=date(2015, 2, 1 + i), epoch_index=7)
        for i in range(4)
    ]
    stack = MatrixStack.of(mats)
    assert MatrixStack.of(stack) is stack
    assert (stack.kind, stack.dim, len(stack)) == (CorrMatrix, 3, 4)
    assert stack.epoch_ends == tuple(m.epoch_end for m in mats)
    assert not stack.data.flags.writeable
    last = stack[-1]
    assert isinstance(last, CorrMatrix) and last.epoch_index == 3
    np.testing.assert_array_equal(last.data, mats[3].data)
    with pytest.raises(IndexError):
        stack[4]
    with pytest.raises(InsufficientData):
        MatrixStack.of([])
    guhr = GuhrMatrix(dim=3, data=mats[0].data, epoch_end=mats[0].epoch_end,
                      sectors=("x", "y", "z"))
    with pytest.raises(DimensionMismatch):
        MatrixStack.of([mats[0], guhr])
    small = _corr_from_square(np.eye(2))
    with pytest.raises(DimensionMismatch):
        MatrixStack.of([mats[0], small])
    with pytest.raises(ValidationError):
        MatrixStack(CorrMatrix, 4, stack.data, stack.epoch_ends)



_DAY = date(2020, 1, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: CorrMatrix(3, np.zeros(5), _DAY, 0),
     "packed data shape (5,) does not match dim 3"),
    (lambda: GuhrMatrix(2, np.zeros(3), _DAY, ("a",)), "1 sector labels for dim 2"),
    (lambda: MatrixStack(CorrMatrix, 2, np.zeros((3, 3)), (_DAY, _DAY)),
     "2 epoch ends for 3 rows"),
    (lambda: average_correlation(CorrMatrix(1, np.ones(1), _DAY, 0)),
     "average correlation needs dim >= 2"),
    (lambda: average_correlation(
        MatrixStack(GuhrMatrix, 1, np.ones((2, 1)), (_DAY, _DAY), labels=("a",))),
     "average correlation needs dim >= 2"),
    # packed data is never converted, so a matrix built on a stack's row
    # shares its buffer; before, these raised AttributeError
    (lambda: CorrMatrix(2, [1.0, 0.5, 1.0], _DAY, 0),
     "packed data must be an ndarray, got list"),
    (lambda: GuhrMatrix(2, (0.5, 0.2, 0.6), _DAY, ("a", "b")),
     "packed data must be an ndarray, got tuple"),
    (lambda: MatrixStack(CorrMatrix, 2, [[1.0, 0.5, 1.0]], (_DAY,)),
     "packed data must be an ndarray, got list"),
    # one check of labels for the stack and both element kinds; before,
    # these were accepted, and a Guhr stack's elements raised TypeError
    (lambda: MatrixStack(GuhrMatrix, 2, np.zeros((2, 3)), (_DAY, _DAY)),
     "a dim-2 Guhr matrix needs its 2 sector labels"),
    (lambda: GuhrMatrix(2, np.zeros(3), _DAY, None),
     "a dim-2 Guhr matrix needs its 2 sector labels"),
    (lambda: MatrixStack(GuhrMatrix, 3, np.zeros((2, 6)), (_DAY, _DAY), labels=("a",)),
     "1 sector labels for dim 3"),
    (lambda: CorrMatrix(2, np.zeros(3), _DAY, 0, tickers=("a", "b", "c")),
     "3 ticker labels for dim 2"),
    (lambda: MatrixStack(CorrMatrix, 2, np.zeros((1, 3)), (_DAY,), labels=("a",)),
     "1 ticker labels for dim 2"),
], ids=["packed-length", "sector-labels", "epoch-ends", "dim-1-matrix", "dim-1-stack",
        "list-matrix", "tuple-guhr-matrix", "list-stack", "unlabelled-guhr-stack",
        "unlabelled-guhr-matrix", "short-guhr-stack-labels", "long-tickers",
        "short-stack-tickers"])
def test_shapes_that_do_not_fit_raise_validation_errors(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


# the three containers of packed data, each built on a dim-3 buffer
_PACKED_CONTAINERS = {
    "matrix": (lambda data: CorrMatrix(3, data, _DAY, 0), False),
    "stack": (lambda data: MatrixStack(CorrMatrix, 3, data, (_DAY,) * len(data)), True),
    "distances": (lambda data: DistanceMatrix(n=3, d=data), False),
}


@pytest.mark.parametrize("container", list(_PACKED_CONTAINERS))
@pytest.mark.parametrize("bad, message", [
    (lambda a: a.tolist(), "packed data must be an ndarray, got list"),
    (lambda a: a.astype(np.int64), "packed data must be float64, got int64"),
    (lambda a: a.astype(bool), "packed data must be float64, got bool"),
    (lambda a: a.astype(complex), "packed data must be float64, got complex128"),
    (lambda a: a.astype(object), "packed data must be float64, got object"),
    (lambda a: a.astype(np.float32), "packed data must be float64, got float32"),
    (lambda a: a[..., :-1], "packed data shape {} does not match dim 3"),
], ids=["list", "int64", "bool", "complex", "object", "float32", "wrong-shape"])
def test_packed_data_is_a_float64_array_of_the_packed_shape(container, bad, message):
    """``packed.check`` is the one check of packed data. Before, matrices
    and stacks took any dtype: a complex stack ran k-means with its
    imaginary parts dropped, and complex or object distances ended in
    scipy's untyped ValueError."""
    build, rows = _PACKED_CONTAINERS[container]
    good = np.array([0.0, 1.0, 2.0, 0.0, 3.0, 0.0])
    if rows:
        good = good[None]
    build(good)
    data = bad(good)
    with pytest.raises(ValidationError) as info:
        build(data)
    assert str(info.value) == message.format(getattr(data, "shape", None))


def test_scaling_scales_distance():
    rng = np.random.default_rng(21)
    a = _corr_from_square(np.corrcoef(rng.normal(size=(4, 30))))
    b = _corr_from_square(np.corrcoef(rng.normal(size=(4, 30))))
    d = matrix_distance(a, b)
    a2 = replace(a, data=a.data * 3.0)
    b2 = replace(b, data=b.data * 3.0)
    assert matrix_distance(a2, b2) == pytest.approx(3.0 * d, rel=1e-12)
