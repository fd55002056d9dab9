import csv
import io
import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketstates.errors import (
    DuplicateDate,
    DuplicateTicker,
    EmptyUniverse,
    MalformedDate,
    MissingValues,
    NonMonotonicDates,
    NonPositivePrice,
    ParameterRange,
    ParseError,
    UnmappedTicker,
    ValidationError,
)
from marketstates.ingest import (
    PriceTable,
    ReturnTable,
    SectorMap,
    filter_stocks,
    load_price_table,
    load_sector_map,
    log_returns,
    parse_price_table,
    parse_sector_map,
    price_table_csv,
)
from marketstates.synth import RegimeSpec

BASIC = """date,A,B
2020-01-01,10,20
2020-01-02,11,21
2020-01-03,12,22
"""


def test_parse_basic_shape():
    table = parse_price_table(BASIC)
    assert table.n_days == 3
    assert table.tickers == ("A", "B")
    assert table.prices[0, 0] == 10.0
    assert table.dates[2].isoformat() == "2020-01-03"



@pytest.mark.parametrize("table, name", [(PriceTable, "price"), (ReturnTable, "return")])
def test_tables_refuse_a_grid_of_another_shape(table, name):
    with pytest.raises(ValidationError) as info:
        table((date(2020, 1, 2),), ("A", "B"), np.ones((2, 2)))
    assert str(info.value) == f"{name} grid shape (2, 2) does not match 1 dates x 2 tickers"


def test_tickers_sorted_lexicographically():
    table = parse_price_table("date,B,A\n2020-01-01,20,10\n2020-01-02,21,11\n")
    assert table.tickers == ("A", "B")
    assert table.prices[0].tolist() == [10.0, 20.0]


def test_empty_cell_becomes_missing():
    table = parse_price_table("date,A,B\n2020-01-01,10,\n2020-01-02,11,21\n")
    assert math.isnan(table.prices[0, 1])


def test_nonpositive_price_located():
    with pytest.raises(NonPositivePrice) as exc:
        parse_price_table("date,A\n2020-01-01,-1.0\n")
    assert exc.value.row == 2
    assert exc.value.column == 2


def test_zero_price_rejected():
    with pytest.raises(NonPositivePrice):
        parse_price_table("date,A\n2020-01-01,0\n")


def test_malformed_date():
    with pytest.raises(MalformedDate) as exc:
        parse_price_table("date,A\n01/02/2020,5\n")
    assert exc.value.row == 2


def test_duplicate_ticker_header():
    with pytest.raises(DuplicateTicker):
        parse_price_table("date,A,A\n2020-01-01,1,2\n")


def test_duplicate_date():
    with pytest.raises(DuplicateDate):
        parse_price_table("date,A\n2020-01-01,1\n2020-01-01,2\n")


def test_dates_out_of_order():
    with pytest.raises(NonMonotonicDates):
        parse_price_table("date,A\n2020-01-02,1\n2020-01-01,2\n")


def test_ragged_row_rejected():
    with pytest.raises(ParseError):
        parse_price_table("date,A,B\n2020-01-01,1\n")


def test_unparseable_price_cell():
    with pytest.raises(ParseError) as exc:
        parse_price_table("date,A\n2020-01-01,abc\n")
    assert exc.value.column == 2


def test_header_only_rejected():
    with pytest.raises(ParseError):
        parse_price_table("date,A\n")


@pytest.mark.parametrize("parse, text, word", [
    (parse_price_table, "date\n2020-01-01\n", "at least one ticker"),
    (parse_price_table, "date,A,\n2020-01-01,1,2\n", "empty ticker name"),
    (lambda text: parse_sector_map(text, ["A", "B"]), "A,x\nB,\n",
     "empty ticker or sector cell"),
])
def test_malformed_header_or_cell_raises_parse_error(parse, text, word):
    with pytest.raises(ParseError, match=word):
        parse(text)


def test_parse_line_ends_quotes_and_blank_lines():
    crlf = parse_price_table(BASIC.replace("\n", "\r\n"))
    plain = parse_price_table(BASIC)
    assert (crlf.dates, crlf.tickers) == (plain.dates, plain.tickers)
    assert crlf.prices.tobytes() == plain.prices.tobytes()
    quoted = parse_price_table('date,"A,1",B\n2020-01-01,10,20\n\n\n  \n')
    assert quoted.tickers == ("A,1", "B")
    assert quoted.prices.tolist() == [[10.0, 20.0]]
    with pytest.raises(ParseError) as exc:
        parse_price_table("date,A,B\n2020-01-01,1,2\n\n2020-01-03,1\n")
    assert (exc.value.row, exc.value.column) == (4, None)
    assert "expected 3 cells, found 2" in str(exc.value)
    with pytest.raises(ParseError, match="empty price file"):
        parse_price_table("")
    sm = parse_sector_map('ticker,sector\r\n"A,1",tech\r\nB,energy\r\n\r\n', ["A,1", "B"])
    assert sm.assignment == {"A,1": "tech", "B": "energy"}
    with pytest.raises(ParseError) as exc:
        parse_sector_map("A,tech\n\nB\n", ["A", "B"])
    assert exc.value.row == 3


def test_quoted_cells_keep_line_breaks(tmp_path):
    sectors = '"A\nB",s1\r\n"C\r\nD",s2\r\n'
    path = tmp_path / "sectors.csv"
    path.write_bytes(sectors.encode())
    for sm in (
        parse_sector_map(sectors, ["A\nB", "C\r\nD"]),
        load_sector_map(path, ["A\nB", "C\r\nD"]),
    ):
        assert sm.assignment == {"A\nB": "s1", "C\r\nD": "s2"}
    prices = 'date,"B\nx","A\ry"\r\n2020-01-01,1,2\r\n'
    path = tmp_path / "prices.csv"
    path.write_bytes(prices.encode())
    for table in (parse_price_table(prices), load_price_table(path)):
        assert table.tickers == ("A\ry", "B\nx")
        assert table.prices.tolist() == [[2.0, 1.0]]


def test_csv_round_trip():
    quoted = parse_price_table('date,"A,B",C\n2000-01-03,1,2\n')
    assert quoted.tickers == ("A,B", "C")
    assert price_table_csv(quoted) == 'date,"A,B",C\n2000-01-03,1,2\n'
    assert parse_price_table(price_table_csv(quoted)).tickers == ("A,B", "C")
    table = parse_price_table("date,A,B\n2020-01-01,10,\n2020-01-02,11.5,21\n")
    again = parse_price_table(price_table_csv(table))
    assert again.tickers == table.tickers
    assert again.dates == table.dates
    np.testing.assert_array_equal(
        np.isnan(again.prices), np.isnan(table.prices)
    )
    np.testing.assert_allclose(
        again.prices[~np.isnan(again.prices)],
        table.prices[~np.isnan(table.prices)],
        rtol=0,
        atol=0,
    )


def _table_with_gaps(gap_spec: dict[str, list[int]], days: int = 8) -> PriceTable:
    text = "date,%s\n" % ",".join(sorted(gap_spec))
    for t in range(days):
        cells = []
        for ticker in sorted(gap_spec):
            cells.append("" if t in gap_spec[ticker] else str(100 + t))
        text += f"2020-01-{t + 1:02d}," + ",".join(cells) + "\n"
    return parse_price_table(text)


def test_filter_drops_long_gap():
    table = _table_with_gaps({"A": [2, 3, 4], "B": []})
    result = filter_stocks(table, max_gap=2)
    assert result.table.tickers == ("B",)
    assert result.report.dropped == {"A": 3}


def test_filter_fills_short_gap_forward():
    table = _table_with_gaps({"A": [3], "B": []})
    result = filter_stocks(table, max_gap=2)
    assert result.table.tickers == ("A", "B")
    # filled from the prior day, so the filled day has zero return
    assert result.table.prices[3, 0] == result.table.prices[2, 0]
    assert result.report.forward_filled == 1


def test_filter_backfills_leading_gap():
    table = _table_with_gaps({"A": [0, 1], "B": []})
    result = filter_stocks(table, max_gap=2)
    assert result.table.prices[0, 0] == result.table.prices[2, 0]
    assert result.report.back_filled == 2


def test_filter_identity_when_gap_free():
    table = parse_price_table(BASIC)
    result = filter_stocks(table, max_gap=0)
    assert result.table is table
    assert result.report == ({}, 0, 0)


def test_filter_all_missing_column_dropped_regardless():
    table = _table_with_gaps({"A": list(range(8)), "B": []})
    result = filter_stocks(table, max_gap=100)
    assert result.table.tickers == ("B",)


def test_filter_empty_universe():
    table = _table_with_gaps({"A": [1, 2, 3, 4]})
    with pytest.raises(EmptyUniverse):
        filter_stocks(table, max_gap=2)


def test_filter_empty_grid():
    table = parse_price_table(BASIC)
    for prices in (table.prices[:0], table.prices[:, :0]):
        dates = table.dates[: prices.shape[0]]
        tickers = table.tickers[: prices.shape[1]]
        with pytest.raises(EmptyUniverse):
            filter_stocks(PriceTable(dates, tickers, prices), max_gap=2)


def test_filter_rejects_negative_gap():
    with pytest.raises(ParameterRange):
        filter_stocks(parse_price_table(BASIC), max_gap=-1)


def test_filter_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(20):
        gaps = {
            "A": sorted(rng.choice(8, size=rng.integers(0, 4), replace=False)),
            "B": sorted(rng.choice(8, size=rng.integers(0, 4), replace=False)),
            "C": [],
        }
        table = _table_with_gaps({k: list(v) for k, v in gaps.items()})
        once = filter_stocks(table, max_gap=2).table
        twice = filter_stocks(once, max_gap=2).table
        assert twice.tickers == once.tickers
        np.testing.assert_array_equal(twice.prices, once.prices)


def test_log_returns_constant_column_is_zero():
    table = parse_price_table("date,A\n2020-01-01,5\n2020-01-02,5\n2020-01-03,5\n")
    rt = log_returns(table)
    np.testing.assert_array_equal(rt.returns, np.zeros((2, 1)))


def test_log_returns_hand_value():
    table = parse_price_table("date,A\n2020-01-01,100\n2020-01-02,110\n")
    rt = log_returns(table)
    assert rt.returns[0, 0] == pytest.approx(math.log(1.1), abs=1e-12)


def test_log_returns_row_count_and_dates():
    table = parse_price_table(BASIC)
    rt = log_returns(table)
    assert rt.n_rows == table.n_days - 1
    assert rt.dates == table.dates[1:]


def test_log_returns_requires_gap_free():
    table = parse_price_table("date,A\n2020-01-01,10\n2020-01-02,\n2020-01-03,12\n")
    with pytest.raises(MissingValues):
        log_returns(table)
    with pytest.raises(ValidationError, match="at least two price rows"):
        log_returns(parse_price_table("date,A\n2020-01-01,10\n"))


def test_log_returns_scale_invariant():
    rng = np.random.default_rng(11)
    days = tuple(date(2020, 1, 1) + timedelta(days=d) for d in range(12))
    for _ in range(10):
        prices = np.exp(rng.normal(0, 0.05, size=(12, 4)).cumsum(axis=0)) * 50
        table = PriceTable(dates=days, tickers=("A", "B", "C", "D"), prices=prices)
        scaled = PriceTable(
            dates=days, tickers=table.tickers, prices=prices * 7.3
        )
        np.testing.assert_allclose(
            log_returns(scaled).returns, log_returns(table).returns, atol=1e-12
        )


def test_sector_map_basic():
    sm = parse_sector_map("A,tech\nB,energy\nC,tech\n", ["A", "B", "C"])
    assert sm.sectors == ("energy", "tech")
    assert sm.sizes == {"energy": 1, "tech": 2}
    assert sm.indices(["A", "B", "C"]).tolist() == [1, 0, 1]


def test_sector_map_header_detected():
    sm = parse_sector_map("ticker,sector\nA,tech\nB,energy\n", ["A", "B"])
    assert sm.assignment["A"] == "tech"


def test_sector_map_restriction_drops_empty_sector():
    sm = parse_sector_map("A,tech\nB,energy\nC,other\n", ["A", "B"])
    assert sm.sectors == ("energy", "tech")


def test_sector_map_unmapped_lists_all():
    with pytest.raises(UnmappedTicker) as exc:
        parse_sector_map("A,tech\nB,energy\n", ["A", "X", "Y"])
    assert exc.value.tickers == ("X", "Y")


def test_sector_map_duplicate_row():
    with pytest.raises(DuplicateTicker):
        parse_sector_map("A,tech\nA,energy\n", ["A"])


def test_sector_map_needs_two_sectors():
    with pytest.raises(ValidationError):
        parse_sector_map("A,tech\nB,tech\n", ["A", "B"])


@settings(max_examples=60, deadline=None)
@given(labels=st.lists(st.sampled_from(["w", "x", "y", "z"]), min_size=2, max_size=30),
       sector_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_sector_map_sizes_are_member_counts(labels, sector_sizes):
    tickers = [f"T{i:02d}" for i in range(len(labels))]
    text = "".join(f"{t},{s}\n" for t, s in zip(tickers, labels))
    if len(set(labels)) >= 2:
        sm = parse_sector_map(text, tickers)
        assert sm.sizes == {s: labels.count(s) for s in sorted(set(labels))}
        assert tuple(sm.sizes) == sm.sectors
    spec = RegimeSpec(sector_sizes=tuple(sector_sizes), intra=(0.5,), inter=(0.1,),
                      durations=(20,))
    if len(sector_sizes) >= 2:
        sm = spec.sector_map()
        assert sm.sizes == dict(zip(spec.sector_labels(), sector_sizes))


def test_sector_map_rejects_labels_outside_sectors():
    with pytest.raises(ValidationError, match=r"\['x'\] are not sectors"):
        SectorMap({"A": "x", "B": "y"}, ("y", "z"))
    with pytest.raises(ValidationError, match="at least one member"):
        SectorMap({"A": "y", "B": "y"}, ("y", "z"))
    assert SectorMap({"A": "y", "B": "z"}, ("y", "z")).sizes == {"y": 1, "z": 1}


@pytest.mark.parametrize("at", [0.0, 0.5, 1.0])
def test_non_utf8_files_raise_parse_error(tmp_path, at):
    # 2,000 rows, so a late byte is past the first chunk the reader decodes
    days = (date(2021, 1, 1) + timedelta(days=i) for i in range(2000))
    body = BASIC.encode() + "".join(f"{d},1.5,2.5\n" for d in days).encode()
    cut = min(int(at * len(body)), len(body) - 1)
    prices = tmp_path / "prices.csv"
    prices.write_bytes(body[:cut] + b"\xff" + body[cut:])
    with pytest.raises(ParseError, match="not UTF-8"):
        load_price_table(prices)
    sectors = tmp_path / "sectors.csv"
    sectors.write_bytes(b"A,tech\nB,en\xffergy\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_sector_map(sectors, ["A", "B"])


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_a_byte_order_mark_is_not_data(tmp_path, bom):
    """A file read with or without a leading UTF-8 byte-order mark is read
    as ``parse_*`` reads its text; a header-less sector map keeps its
    first ticker's name."""
    prices = tmp_path / "prices.csv"
    prices.write_bytes(bom + BASIC.encode())
    table, ref = load_price_table(prices), parse_price_table(BASIC)
    assert (table.dates, table.tickers) == (ref.dates, ref.tickers)
    np.testing.assert_array_equal(table.prices, ref.prices)
    for text in ("A,tech\nB,energy\n", "ticker,sector\nA,tech\nB,energy\n"):
        sectors = tmp_path / "sectors.csv"
        sectors.write_bytes(bom + text.encode())
        assert load_sector_map(sectors, ["A", "B"]) == parse_sector_map(text, ["A", "B"])


# Reference implementations: the per-cell parse and render and the
# per-element gap scan that the array code in ``ingest`` replaced. The
# parity tests below hold the array code to their results bit for bit.


def _reference_parse(text: str) -> PriceTable:
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    tickers = [cell.strip() for cell in header[1:]]
    dates, rows = [], []
    for row_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        dates.append(date.fromisoformat(row[0].strip()))
        values = []
        for col_no, cell in enumerate(row[1:], start=2):
            cell = cell.strip()
            if not cell:
                values.append(math.nan)
                continue
            try:
                price = float(cell)
            except ValueError:
                raise ParseError("bad price", row=row_no, column=col_no) from None
            if not math.isfinite(price) or price <= 0.0:
                raise NonPositivePrice("bad price", row=row_no, column=col_no)
            values.append(price)
        rows.append(values)
    order = np.argsort(np.array(tickers, dtype=object), kind="stable")
    return PriceTable(
        dates=tuple(dates),
        tickers=tuple(tickers[i] for i in order),
        prices=np.array(rows, dtype=np.float64)[:, order],
    )


def _reference_csv(table: PriceTable) -> str:
    out = io.StringIO()
    # "\r\n" makes csv quote a cell holding either line end
    csv.writer(out, lineterminator="\r\n").writerow(("date", *table.tickers))
    head = out.getvalue()[:-2] + "\n"
    return head + "".join(
        day.isoformat()
        + ","
        + ",".join("" if math.isnan(p) else format(p, ".17g") for p in table.prices[t])
        + "\n"
        for t, day in enumerate(table.dates)
    )


def _reference_longest_nan_run(column: np.ndarray) -> int:
    longest = run = 0
    for isnan in np.isnan(column):
        run = run + 1 if isnan else 0
        longest = max(longest, run)
    return longest


def _reference_filter(table: PriceTable, max_gap: int):
    keep, dropped = [], {}
    for j, ticker in enumerate(table.tickers):
        col = table.prices[:, j]
        if np.isnan(col).all():
            dropped[ticker] = len(col)
            continue
        longest = _reference_longest_nan_run(col)
        if longest > max_gap:
            dropped[ticker] = longest
        else:
            keep.append(j)
    if not keep:
        raise EmptyUniverse("no tickers survive")
    prices = table.prices[:, keep].copy()
    forward_filled = back_filled = 0
    for j in range(prices.shape[1]):
        col = prices[:, j]
        nan = np.isnan(col)
        if not nan.any():
            continue
        first_valid = int(np.flatnonzero(~nan)[0])
        back_filled += int(nan[:first_valid].sum())
        col[:first_valid] = col[first_valid]
        valid_idx = np.where(np.isnan(col), -1, np.arange(len(col)))
        valid_idx = np.maximum.accumulate(valid_idx)
        forward_filled += int(np.isnan(col).sum())
        prices[:, j] = col[valid_idx]
    tickers = tuple(table.tickers[j] for j in keep)
    return tickers, prices, dropped, forward_filled, back_filled


_TICKERS = st.lists(
    st.text(alphabet='AB ,"\n\r', min_size=1, max_size=4).filter(
        lambda t: t == t.strip()
    ),
    min_size=1,
    max_size=4,
    unique=True,
)
_PRICES = st.floats(min_value=5e-324, max_value=1.7976931348623157e308) | st.just(
    math.nan
)


@st.composite
def _price_tables(draw) -> PriceTable:
    tickers = sorted(draw(_TICKERS))
    n_days = draw(st.integers(1, 6))
    start = draw(st.dates(date(1990, 1, 1), date(2030, 1, 1)))
    steps = draw(st.lists(st.integers(1, 5), min_size=n_days, max_size=n_days))
    dates = tuple(start + timedelta(days=int(d)) for d in np.cumsum(steps))
    cells = draw(st.lists(_PRICES, min_size=n_days * len(tickers), max_size=n_days * len(tickers)))
    prices = np.array(cells, dtype=np.float64).reshape(n_days, len(tickers))
    return PriceTable(dates=dates, tickers=tuple(tickers), prices=prices)


@settings(max_examples=150, deadline=None)
@given(table=_price_tables())
@example(
    table=PriceTable(
        dates=(date(2000, 1, 3),),
        tickers=('"A\r\nB",', "A,B", "C"),
        prices=np.array([[5e-324, math.nan, 1.7976931348623157e308]]),
    )
)
def test_price_csv_parity_with_per_cell_reference(table, tmp_path_factory):
    text = price_table_csv(table)
    assert text == _reference_csv(table)
    path = tmp_path_factory.getbasetemp() / "parity_prices.csv"
    path.write_bytes(text.encode("utf-8"))
    for parsed in (parse_price_table(text), load_price_table(path), _reference_parse(text)):
        assert parsed.dates == table.dates
        assert parsed.tickers == table.tickers
        assert parsed.prices.tobytes() == table.prices.tobytes()


def _parse_outcome(parse, source):
    try:
        table = parse(source)
    except ParseError as exc:
        return type(exc), exc.row, exc.column
    return table.dates, table.tickers, table.prices.tobytes()


_BAD_CELLS = (" 2.5 ", "1_0", "", "  ", "abc", "0", "-1", "nan", "inf", "1e400", "1e-400")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_cell_parity_with_per_cell_reference(data, tmp_path_factory):
    n_days = data.draw(st.integers(1, 5))
    n_tickers = data.draw(st.integers(1, 4))
    cells = [
        ["" if math.isnan(p) else format(p, ".17g") for p in data.draw(
            st.lists(_PRICES, min_size=n_tickers, max_size=n_tickers))]
        for _ in range(n_days)
    ]
    row = data.draw(st.integers(0, n_days - 1))
    col = data.draw(st.integers(0, n_tickers - 1))
    cells[row][col] = data.draw(st.sampled_from(_BAD_CELLS))
    # file order is not ticker order, so the parse reorders columns
    text = "date," + ",".join(f"T{j}" for j in reversed(range(n_tickers))) + "\n"
    for t, line in enumerate(cells):
        text += f"{date(2020, 1, 1) + timedelta(days=t)},{','.join(line)}\n"
    path = tmp_path_factory.getbasetemp() / "corrupted_prices.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _parse_outcome(_reference_parse, text)
    assert _parse_outcome(parse_price_table, text) == expected
    assert _parse_outcome(load_price_table, path) == expected


@pytest.mark.parametrize("gap_share", [0.0, 0.02])
def test_load_price_table_memory_bound(tmp_path, gap_share):
    rng = np.random.default_rng(8)
    days = tuple(date(2000, 1, 3) + timedelta(days=d) for d in range(3500))
    tickers = tuple(f"T{j:02d}" for j in range(60))
    prices = np.exp(rng.normal(3.0, 0.5, size=(3500, 60)))
    # at 2% of cells missing, about 70% of the rows hold a gap
    prices[rng.random(prices.shape) < gap_share] = math.nan
    path = tmp_path / "prices.csv"
    path.write_text(price_table_csv(PriceTable(days, tickers, prices)), encoding="utf-8")
    del prices
    tracemalloc.start()
    try:
        table = load_price_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parse holds one float64 copy of the prices plus per-row arrays,
    # never the text or a Python float per cell
    assert peak <= 4 * table.prices.nbytes


@st.composite
def _gappy_tables(draw) -> PriceTable:
    n_days = draw(st.integers(0, 10))
    n_tickers = draw(st.integers(0, 5))
    columns = [
        draw(st.just([True] * n_days) | st.lists(st.booleans(), min_size=n_days, max_size=n_days))
        for _ in range(n_tickers)
    ]
    missing = np.array(columns, dtype=bool).reshape(n_tickers, n_days).T
    prices = np.arange(1.0, n_days * n_tickers + 1).reshape(n_days, n_tickers)
    prices[missing] = math.nan
    days = tuple(date(2020, 1, 1) + timedelta(days=d) for d in range(n_days))
    return PriceTable(days, tuple(f"T{j}" for j in range(n_tickers)), prices)


@settings(max_examples=300, deadline=None)
@given(table=_gappy_tables(), max_gap=st.integers(0, 5))
def test_filter_matches_per_element_reference(table, max_gap):
    before = table.prices.copy()
    try:
        tickers, prices, dropped, forward, back = _reference_filter(table, max_gap)
    except EmptyUniverse:
        with pytest.raises(EmptyUniverse):
            filter_stocks(table, max_gap)
        return
    result = filter_stocks(table, max_gap)
    assert result.table.dates == table.dates
    assert result.table.tickers == tickers
    assert result.table.prices.tobytes() == prices.tobytes()
    assert list(result.report.dropped.items()) == list(dropped.items())
    assert result.report[1:] == (forward, back)
    assert table.prices.tobytes() == before.tobytes()
