"""Price-table loading, validation, gap handling, and log returns.

The file contract is deliberately small: a comma-separated UTF-8 table (a
leading byte-order mark is not data) with header ``date,<ticker>,...``,
ISO-8601 dates, one trading day per row, and an empty cell wherever a price
is missing. Every validation failure is a
structured :class:`~marketstates.errors.ParseError` carrying the 1-based
row/column location, so a bad file points at its own defect.

Missing values are represented internally as NaN. Ticker columns are sorted
lexicographically at load time so that every downstream matrix has a
deterministic row order regardless of how the file was written.

A price file is streamed through ``csv.reader``, and each row's cells become
one float64 row in a single numpy conversion, so the parse holds neither the
file's text nor a Python float per cell: about one copy of the price array.
Empty cells enter that conversion as NaN; only a row with an unparsable,
non-positive or non-finite cell is read cell by cell, which raises its first
bad cell's error. Quoted
cells may hold commas, quotes and line breaks, and ``load_*(path)`` reads a
file exactly as ``parse_*(text)`` reads its decoded text.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
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

    def __post_init__(self):
        if len(self.sectors) < 2:
            raise ValidationError(
                f"need at least 2 sectors, got {len(self.sectors)}: {self.sectors}"
            )
        unknown = sorted(set(self.assignment.values()) - set(self.sectors))
        if unknown:
            raise ValidationError(f"assignment labels {unknown} are not sectors")
        if any(n < 1 for n in self.sizes.values()):
            raise ValidationError("every sector must have at least one member")

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)

    @property
    def sizes(self) -> dict[str, int]:
        """Member count of each sector, in sector order."""
        labels = list(self.assignment.values())
        return {s: labels.count(s) for s in self.sectors}

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
    return _read_file(path, _read_price_table)


def _read_file(path, read, *args):
    """``read(handle, *args)`` over the file as UTF-8 text, a leading
    byte-order mark dropped, or ParseError."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            return read(handle, *args)
        except UnicodeDecodeError:
            raise ParseError(f"file is not UTF-8 text: {path}") from None


def parse_price_table(text: str) -> PriceTable:
    """Parse price-table CSV content; see :func:`load_price_table`."""
    return _read_price_table(io.StringIO(text, newline=""))


def _read_price_table(lines) -> PriceTable:
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ParseError("empty price file", row=1)
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
    order = np.argsort(np.array(tickers, dtype=object), kind="stable")

    dates: list[date] = []
    rows: list[np.ndarray] = []  # one float64 row per day, in ticker order
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
        rows.append(_parse_price_row(row, row_no)[order])

    if not rows:
        raise ParseError("price file has a header but no data rows", row=2)
    return PriceTable(
        dates=tuple(dates),
        tickers=tuple(tickers[i] for i in order),
        prices=np.stack(rows),
    )


def _parse_price_row(row: list[str], row_no: int) -> np.ndarray:
    """Prices of one row: NaN for an empty cell, and the first bad cell
    raises its error with its row and column."""
    cells = row[1:]
    if "" in cells:
        cells = [cell or "nan" for cell in cells]
    # numpy converts a cell as float() does; a row it rejects, or one with a
    # non-positive or non-finite price outside its empty cells, goes cell by
    # cell
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        return _parse_price_cells(row, row_no)
    bad = np.flatnonzero(~((values > 0.0) & (values < math.inf)))
    if any(row[j] for j in bad + 1):
        return _parse_price_cells(row, row_no)
    return values


def _parse_price_cells(row: list[str], row_no: int) -> np.ndarray:
    """Prices of one row read cell by cell: NaN for an empty cell, and the
    first bad cell raises its error with its row and column."""
    values = np.empty(len(row) - 1)
    for col_no, cell in enumerate(row[1:], start=2):
        cell = cell.strip()
        if not cell:
            values[col_no - 2] = MISSING
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
        values[col_no - 2] = price
    return values


def _csv_cell(cell: str) -> str:
    """``cell`` as csv's minimal quoting writes it, with both "\\r" and
    "\\n" counted as line ends."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def price_table_csv(table: PriceTable) -> str:
    """Render a PriceTable back into the file format consumed by this module.

    Prices are written with 17 significant digits, so they parse back to
    the same float64; a missing price is an empty cell.
    """
    out = io.StringIO()
    out.write(",".join(_csv_cell(c) for c in ("date", *table.tickers)) + "\n")
    for t, day in enumerate(table.dates):
        # a Python float formats faster than a numpy scalar; one "%"-format
        # per row is faster still, but its growing row strings leave the
        # process's heap megabytes larger after the call
        cells = [
            "" if math.isnan(p) else format(p, ".17g")
            for p in table.prices[t].tolist()
        ]
        out.write(day.isoformat() + "," + ",".join(cells) + "\n")
    return out.getvalue()


def check_max_gap(max_gap: int):
    """The longest gap a ticker may keep cannot be negative."""
    if max_gap < 0:
        raise ParameterRange("max_gap must be >= 0")


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
        their longest gap) plus fill counts. A table without gaps comes
        back as it is, uncopied.

    Raises
    ------
    EmptyUniverse
        If no ticker survives.
    """
    check_max_gap(max_gap)
    if not table.prices.size:
        # a ticker with no price at all is dropped, so an empty grid keeps none
        raise EmptyUniverse(
            f"no tickers survive max_gap={max_gap}; dropped {table.n_tickers}"
        )
    nan = np.isnan(table.prices)
    if not nan.any():
        return FilterResult(table, FilterReport({}, 0, 0))
    # last[t, j]: the latest row at or before t where column j has a price,
    # -1 before its first; t - last[t, j] is the run of missing entries
    # that ends at t
    rows = np.arange(table.n_days)[:, None]
    last = np.where(nan, -1, rows)
    np.maximum.accumulate(last, axis=0, out=last)
    longest = (rows - last).max(axis=0)
    # a ticker with no price at all is dropped whatever max_gap is
    drop = (longest > max_gap) | (last[-1] < 0)
    dropped = {table.tickers[j]: int(longest[j]) for j in np.flatnonzero(drop)}
    keep = np.flatnonzero(~drop)
    if not keep.size:
        raise EmptyUniverse(
            f"no tickers survive max_gap={max_gap}; dropped {len(dropped)}"
        )

    # each missing cell of a kept ticker takes the price of the latest row
    # before it that has one; a leading gap takes the ticker's first price
    prices = table.prices[:, keep]
    t, j = np.nonzero(nan[:, keep])
    source = last[t, keep[j]]
    leading = source < 0
    source[leading] = np.argmax(~nan, axis=0)[keep[j[leading]]]
    prices[t, j] = prices[source, j]
    back_filled = int(leading.sum())
    forward_filled = t.size - back_filled

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
    return _read_file(path, _read_sector_map, tickers)


def parse_sector_map(text: str, tickers) -> SectorMap:
    """Parse sector-map CSV content; see :func:`load_sector_map`."""
    return _read_sector_map(io.StringIO(text, newline=""), tickers)


def _read_sector_map(lines, tickers) -> SectorMap:
    reader = csv.reader(lines)
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
    sectors = tuple(sorted(set(restricted.values())))
    return SectorMap(assignment=restricted, sectors=sectors)
