import math
from datetime import date, timedelta

import numpy as np
import pytest

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
    filter_stocks,
    log_returns,
    parse_price_table,
    parse_sector_map,
    price_table_csv,
)

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


def test_csv_round_trip():
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
    np.testing.assert_array_equal(result.table.prices, table.prices)
    assert result.report.dropped == {}


def test_filter_all_missing_column_dropped_regardless():
    table = _table_with_gaps({"A": list(range(8)), "B": []})
    result = filter_stocks(table, max_gap=100)
    assert result.table.tickers == ("B",)


def test_filter_empty_universe():
    table = _table_with_gaps({"A": [1, 2, 3, 4]})
    with pytest.raises(EmptyUniverse):
        filter_stocks(table, max_gap=2)


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
