"""Price-table loading, validation, gap handling, and log returns.

The file contract is deliberately small: a comma-separated UTF-8 table with
header ``date,<ticker>,...``, ISO-8601 dates, one trading day per row, and
an empty cell wherever a price is missing. Every validation failure is a
structured :class:`~marketstates.errors.ParseError` carrying the 1-based
row/column location, so a bad file points at its own defect.

Missing values are represented internally as NaN. Ticker columns are sorted
lexicographically at load time so that every downstream matrix has a
deterministic row order regardless of how the file was written.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
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

MISSING = float("nan")


@dataclass(frozen=True)
class PriceTable:
    """Dated grid of positive prices, one column per ticker.

    ``prices`` is a T x N float64 array; missing entries are NaN. Dates are
    strictly increasing and non-missing prices are strictly positive.
    """

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        if self.prices.shape != (len(self.dates), len(self.tickers)):
            raise ValidationError(
                f"price grid shape {self.prices.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)


@dataclass(frozen=True)
class ReturnTable:
    """Daily logarithmic returns; row t is dated by the later price day."""

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self):
        if self.returns.shape != (len(self.dates), len(self.tickers)):
            raise ValidationError(
                f"return grid shape {self.returns.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )

    @property
    def n_rows(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class SectorMap:
    """Assignment of tickers to sectors, with sectors ordered by label."""

    assignment: dict[str, str]
    sectors: tuple[str, ...]
    sizes: dict[str, int]

    def __post_init__(self):
        if len(self.sectors) < 2:
            raise ValidationError(
                f"need at least 2 sectors, got {len(self.sectors)}: {self.sectors}"
            )
        if any(self.sizes[s] < 1 for s in self.sectors):
            raise ValidationError("every sector must have at least one member")

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)

    def indices(self, tickers) -> np.ndarray:
        """Sector index (position in ``sectors``) for each given ticker."""
        pos = {label: i for i, label in enumerate(self.sectors)}
        missing = [t for t in tickers if t not in self.assignment]
        if missing:
            raise UnmappedTicker(missing)
        return np.array([pos[self.assignment[t]] for t in tickers], dtype=np.intp)


class FilterReport(NamedTuple):
    """What :func:`filter_stocks` did: dropped tickers and fill counts."""

    dropped: dict[str, int]
    forward_filled: int
    back_filled: int


class FilterResult(NamedTuple):
    table: PriceTable
    report: FilterReport


def _parse_iso_date(cell: str, row: int) -> date:
    try:
        return date.fromisoformat(cell.strip())
    except ValueError:
        raise MalformedDate(f"cannot parse date {cell!r}", row=row, column=1) from None


def load_price_table(path) -> PriceTable:
    """Load and validate a price file.

    Parameters
    ----------
    path:
        CSV file with header ``date,<ticker>,...``. Empty cells mark
        missing prices.

    Returns
    -------
    PriceTable
        Rows in file order; ticker columns sorted lexicographically.

    Raises
    ------
    ParseError
        On malformed dates, non-positive prices, duplicate tickers or
        dates, out-of-order dates, or ragged rows. The error carries the
        offending row/column.
    """
    text = Path(path).read_text(encoding="utf-8")
    return parse_price_table(text)


def parse_price_table(text: str) -> PriceTable:
    """Parse price-table CSV content; see :func:`load_price_table`."""
    if not text:
        raise ParseError("empty price file", row=1)
    # a list of lines holds no second, wider copy of the text as a
    # StringIO would; csv.reader ends a line at a trailing "\r" too
    reader = csv.reader(text.split("\n"))
    header = next(reader)
    if len(header) < 2:
        raise ParseError("header needs a date column and at least one ticker", row=1)
    tickers = [cell.strip() for cell in header[1:]]
    seen: dict[str, int] = {}
    for col, name in enumerate(tickers, start=2):
        if not name:
            raise ParseError("empty ticker name in header", row=1, column=col)
        if name in seen:
            raise DuplicateTicker(f"ticker {name!r} appears twice", row=1, column=col)
        seen[name] = col

    dates: list[date] = []
    rows: list[list[float]] = []
    for row_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank trailing lines are tolerated
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, found {len(row)}", row=row_no
            )
        day = _parse_iso_date(row[0], row_no)
        if dates:
            if day == dates[-1]:
                raise DuplicateDate(f"date {day} repeated", row=row_no, column=1)
            if day < dates[-1]:
                raise NonMonotonicDates(
                    f"date {day} is not after {dates[-1]}", row=row_no, column=1
                )
        dates.append(day)
        values = []
        for col_no, cell in enumerate(row[1:], start=2):
            cell = cell.strip()
            if not cell:
                values.append(MISSING)
                continue
            try:
                price = float(cell)
            except ValueError:
                raise ParseError(
                    f"cannot parse price {cell!r}", row=row_no, column=col_no
                ) from None
            if not math.isfinite(price) or price <= 0.0:
                raise NonPositivePrice(
                    f"price {cell!r} is not a positive finite number",
                    row=row_no,
                    column=col_no,
                )
            values.append(price)
        rows.append(values)

    if not rows:
        raise ParseError("price file has a header but no data rows", row=2)

    prices = np.array(rows, dtype=np.float64)
    order = np.argsort(np.array(tickers, dtype=object), kind="stable")
    return PriceTable(
        dates=tuple(dates),
        tickers=tuple(tickers[i] for i in order),
        prices=prices[:, order],
    )


def price_table_csv(table: PriceTable) -> str:
    """Render a PriceTable back into the file format consumed by this module."""
    out = io.StringIO()
    out.write("date," + ",".join(table.tickers) + "\n")
    for t, day in enumerate(table.dates):
        cells = [
            "" if math.isnan(p) else format(p, ".17g") for p in table.prices[t]
        ]
        out.write(day.isoformat() + "," + ",".join(cells) + "\n")
    return out.getvalue()


def _longest_nan_run(column: np.ndarray) -> int:
    longest = run = 0
    for isnan in np.isnan(column):
        run = run + 1 if isnan else 0
        longest = max(longest, run)
    return longest


def filter_stocks(table: PriceTable, max_gap: int) -> FilterResult:
    """Drop gappy tickers and fill the short gaps that remain.

    A ticker whose longest run of consecutive missing entries exceeds
    ``max_gap`` is dropped (the usual cut is two consecutive untraded
    days, ``max_gap=2``). Surviving gaps are forward-filled from the last
    prior price; a leading gap is back-filled from the first available
    price. Filled days therefore contribute zero log return.

    Returns
    -------
    FilterResult
        The surviving-ticker table and a report of dropped tickers (with
        their longest gap) plus fill counts.

    Raises
    ------
    EmptyUniverse
        If no ticker survives.
    """
    if max_gap < 0:
        raise ParameterRange("max_gap must be >= 0")
    keep: list[int] = []
    dropped: dict[str, int] = {}
    for j, ticker in enumerate(table.tickers):
        col = table.prices[:, j]
        if np.isnan(col).all():
            dropped[ticker] = len(col)
            continue
        longest = _longest_nan_run(col)
        if longest > max_gap:
            dropped[ticker] = longest
        else:
            keep.append(j)
    if not keep:
        raise EmptyUniverse(
            f"no tickers survive max_gap={max_gap}; dropped {len(dropped)}"
        )

    prices = table.prices[:, keep].copy()
    forward_filled = 0
    back_filled = 0
    for j in range(prices.shape[1]):
        col = prices[:, j]
        nan = np.isnan(col)
        if not nan.any():
            continue
        first_valid = int(np.flatnonzero(~nan)[0])
        back_filled += int(nan[:first_valid].sum())
        col[:first_valid] = col[first_valid]
        # forward fill: index of the most recent valid row at or before t
        valid_idx = np.where(np.isnan(col), -1, np.arange(len(col)))
        valid_idx = np.maximum.accumulate(valid_idx)
        forward_filled += int(np.isnan(col).sum())
        prices[:, j] = col[valid_idx]

    filtered = PriceTable(
        dates=table.dates,
        tickers=tuple(table.tickers[j] for j in keep),
        prices=prices,
    )
    return FilterResult(filtered, FilterReport(dropped, forward_filled, back_filled))


def log_returns(table: PriceTable) -> ReturnTable:
    """Daily log returns ``ln p(t+1) - ln p(t)``; one fewer row than prices.

    The table must be gap-free (run :func:`filter_stocks` first).
    """
    if np.isnan(table.prices).any():
        bad = int(np.isnan(table.prices).sum())
        raise MissingValues(
            f"{bad} missing prices present; filter_stocks must run before log_returns"
        )
    if table.n_days < 2:
        raise ValidationError("need at least two price rows to form returns")
    logs = np.log(table.prices)
    return ReturnTable(
        dates=table.dates[1:],
        tickers=table.tickers,
        returns=np.diff(logs, axis=0),
    )


def load_sector_map(path, tickers) -> SectorMap:
    """Load ``ticker,sector`` rows and restrict them to the given tickers.

    The first row is treated as a header when its first cell is the word
    ``ticker`` (case-insensitive). Sectors are ordered lexicographically;
    sectors left empty after the restriction are dropped.

    Raises
    ------
    UnmappedTicker
        Listing every requested ticker absent from the file.
    """
    text = Path(path).read_text(encoding="utf-8")
    return parse_sector_map(text, tickers)


def parse_sector_map(text: str, tickers) -> SectorMap:
    """Parse sector-map CSV content; see :func:`load_sector_map`."""
    reader = csv.reader(text.split("\n"))
    mapping: dict[str, str] = {}
    for row_no, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise ParseError("expected `ticker,sector` cells", row=row_no)
        ticker = row[0].strip()
        label = row[1].strip()
        if row_no == 1 and ticker.lower() == "ticker":
            continue
        if not ticker or not label:
            raise ParseError("empty ticker or sector cell", row=row_no)
        if ticker in mapping:
            raise DuplicateTicker(f"ticker {ticker!r} mapped twice", row=row_no, column=1)
        mapping[ticker] = label

    tickers = list(tickers)
    missing = [t for t in tickers if t not in mapping]
    if missing:
        raise UnmappedTicker(missing)
    restricted = {t: mapping[t] for t in tickers}
    sizes: dict[str, int] = {}
    for label in restricted.values():
        sizes[label] = sizes.get(label, 0) + 1
    return SectorMap(
        assignment=restricted,
        sectors=tuple(sorted(sizes)),
        sizes=sizes,
    )
