"""Rolling correlation matrices, noise suppression, and sector coarse graining.

One Pearson correlation matrix is computed per epoch: a window of
consecutive return days (20 by convention) slid forward by a fixed shift
(1 day by convention). The power map suppresses noise entrywise,
``x -> sign(x) |x|^(1+eps)``, and coarse graining averages correlation
entries over sector-pair blocks, producing the much smaller sectorial
Guhr matrix whose diagonal is no longer 1. The block averages are taken
straight from the packed row: one ``np.bincount`` over a precomputed
index from each off-diagonal position to the packed position of its
sector pair, divided by the pair counts of the blocks.

The epochs of one run travel together as a :class:`MatrixStack`: one
read-only array with a packed upper triangle per row, which clustering
and scaling read directly. Indexing a stack yields the per-epoch
:class:`CorrMatrix` or :class:`GuhrMatrix` on a row view. Every
pipeline's stacks come from :func:`pipeline_stacks`, which transforms
each epoch's row as it is written, so no intermediate stack is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from . import packed
from .errors import (
    DegenerateColumn,
    DimensionMismatch,
    InsufficientData,
    ParameterRange,
    SingletonSectorWarning,
    ValidationError,
)
from .ingest import ReturnTable, SectorMap


def check_epoch_length(length: int):
    """A correlation needs at least two days in its window."""
    if length < 2:
        raise ParameterRange(f"epoch length must be >= 2, got {length}")


def check_epoch_shift(shift: int):
    """Consecutive epochs must start at least one day apart."""
    if shift < 1:
        raise ParameterRange(f"epoch shift must be >= 1, got {shift}")


@dataclass(frozen=True)
class EpochSpec:
    """Sliding-window geometry: window length and shift, in trading days."""

    length: int = 20
    shift: int = 1

    def __post_init__(self):
        check_epoch_length(self.length)
        check_epoch_shift(self.shift)

    def window_count(self, rows: int) -> int:
        """Number of epochs available over ``rows`` return days."""
        if rows < self.length:
            raise InsufficientData(
                f"{rows} return rows < epoch length {self.length}"
            )
        return (rows - self.length) // self.shift + 1


def _check_labels(kind: type, dim: int, labels):
    """Labels name the ``dim`` variables: a Guhr matrix's sectors, which it
    needs, or a correlation matrix's tickers, which may be None."""
    name = "sector" if kind is GuhrMatrix else "ticker"
    if labels is None:
        if kind is GuhrMatrix:
            raise ValidationError(f"a dim-{dim} Guhr matrix needs its {dim} sector labels")
    elif len(labels) != dim:
        raise ValidationError(f"{len(labels)} {name} labels for dim {dim}")


@dataclass(frozen=True)
class _EpochMatrix:
    """One epoch's symmetric matrix as its packed upper triangle."""

    dim: int
    data: np.ndarray
    epoch_end: date

    def __post_init__(self):
        packed.check(self.data, self.dim)
        _check_labels(type(self), self.dim, self.labels)

    def full(self) -> np.ndarray:
        return packed.unpack(self.data, self.dim)


@dataclass(frozen=True)
class CorrMatrix(_EpochMatrix):
    """Packed symmetric correlation matrix for one epoch (unit diagonal)."""

    epoch_index: int
    tickers: tuple[str, ...] | None = None

    @property
    def labels(self) -> tuple[str, ...] | None:
        return self.tickers


@dataclass(frozen=True)
class GuhrMatrix(_EpochMatrix):
    """Packed sector-level coarse-grained matrix (diagonal not unit)."""

    sectors: tuple[str, ...]
    epoch_index: int = 0

    @property
    def labels(self) -> tuple[str, ...]:
        return self.sectors


@dataclass(frozen=True, eq=False)
class MatrixStack:
    """Same-kind epoch matrices as the rows of one read-only array.

    ``kind`` is :class:`CorrMatrix` or :class:`GuhrMatrix`; ``data`` has
    shape (n_epochs, packed_length(dim)); ``labels`` are the dim tickers of
    a correlation stack (possibly None) or the dim sectors of a Guhr stack,
    which the stack and each element refuse in any other count or as None.
    ``stack[i]`` is the element kind built on a view of row i with
    ``epoch_index=i``, and iterating a stack yields them in epoch order.
    """

    kind: type
    dim: int
    data: np.ndarray
    epoch_ends: tuple[date, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        packed.check(self.data, self.dim, rows=True)
        if len(self.epoch_ends) != self.data.shape[0]:
            raise ValidationError(
                f"{len(self.epoch_ends)} epoch ends for {self.data.shape[0]} rows"
            )
        _check_labels(self.kind, self.dim, self.labels)
        view = self.data.view()
        view.flags.writeable = False
        object.__setattr__(self, "data", view)

    @classmethod
    def of(cls, matrices) -> MatrixStack:
        """Stack a nonempty sequence of same-kind, same-dim matrices; a
        MatrixStack is returned as it is."""
        if isinstance(matrices, MatrixStack):
            return matrices
        seq = list(matrices)
        if not seq:
            raise InsufficientData("no matrices to stack")
        kinds = {type(m) for m in seq}
        if not kinds <= {CorrMatrix, GuhrMatrix}:
            names = sorted(t.__name__ for t in kinds - {CorrMatrix, GuhrMatrix})
            raise ValidationError(
                f"expected CorrMatrix or GuhrMatrix items, got {names}"
            )
        if len(kinds) > 1:
            names = sorted(t.__name__ for t in kinds)
            raise DimensionMismatch(f"mixed matrix kinds {names}")
        dims = {m.dim for m in seq}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed matrix dimensions {sorted(dims)}")
        first = seq[0]
        return cls(
            kind=type(first),
            dim=first.dim,
            data=np.vstack([m.data for m in seq]),
            epoch_ends=tuple(m.epoch_end for m in seq),
            labels=first.labels,
        )

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __getitem__(self, i: int) -> CorrMatrix | GuhrMatrix:
        i = range(len(self))[i]
        if self.kind is GuhrMatrix:
            return GuhrMatrix(self.dim, self.data[i], self.epoch_ends[i], self.labels, i)
        return CorrMatrix(self.dim, self.data[i], self.epoch_ends[i], i, self.labels)


def epoch_correlation(
    returns: ReturnTable,
    start: int,
    spec: EpochSpec,
    epoch_index: int | None = None,
) -> CorrMatrix:
    """Pearson correlation matrix over one window of return rows.

    Covariances use population normalization (divide by window length);
    the choice cancels in the correlation ratio. The diagonal is set to
    exactly 1 and off-diagonals are clipped into [-1, 1] against rounding.

    Raises ``DegenerateColumn`` naming the ticker and window when a column
    has zero variance inside the window.
    """
    rows = returns.n_rows
    if start < 0 or start + spec.length > rows:
        raise InsufficientData(
            f"window [{start}, {start + spec.length}) outside {rows} return rows"
        )
    window = returns.returns[start : start + spec.length]
    centered = window - window.mean(axis=0)
    cov = centered.T @ centered / spec.length
    var = np.diag(cov).copy()
    if (var <= 0.0).any():
        j = int(np.flatnonzero(var <= 0.0)[0])
        raise DegenerateColumn(
            ticker=returns.tickers[j],
            start=start,
            end=start + spec.length,
            epoch_index=epoch_index,
        )
    sd = np.sqrt(var)
    corr = cov / np.outer(sd, sd)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return CorrMatrix(
        dim=len(returns.tickers),
        data=packed.pack(corr),
        epoch_end=returns.dates[start + spec.length - 1],
        epoch_index=start if epoch_index is None else epoch_index,
        tickers=returns.tickers,
    )


def check_epsilon(epsilon: float) -> None:
    """The power-map exponent parameter must lie in [0, 1]."""
    if not 0.0 <= epsilon <= 1.0:
        raise ParameterRange(f"epsilon must be in [0, 1], got {epsilon}")


def _power_row(x: np.ndarray, epsilon: float) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** (1.0 + epsilon)


def _block_average(sectors: SectorMap, tickers):
    """The per-row step of :func:`coarse_grain`: block sums taken straight
    from the packed row. Each off-diagonal position (i < j) adds to the
    packed position of its sector pair (min, max); the diagonal positions
    go to one extra bin that is dropped, so a diagonal block averages its
    n(n-1)/2 distinct pairs. A block with no pairs (a singleton sector or
    one without members among ``tickers``) is 1.0 and warned of once."""
    idx = sectors.indices(tickers)
    n_s = sectors.n_sectors
    rows, cols = packed.upper_indices(len(tickers))
    lo = np.minimum(idx[rows], idx[cols])
    hi = np.maximum(idx[rows], idx[cols])
    block = packed.diagonal_positions(n_s)[lo] + (hi - lo)
    block[packed.diagonal_positions(len(tickers))] = packed.packed_length(n_s)
    pairs = np.bincount(block)[:-1]
    paired = pairs > 0
    lonely = np.flatnonzero(~paired[packed.diagonal_positions(n_s)])
    if lonely.size:
        names = [sectors.sectors[i] for i in lonely]
        warnings.warn(f"singleton sector(s) {names}: diagonal set to 1.0",
                      SingletonSectorWarning, stacklevel=3)

    def step(row: np.ndarray) -> np.ndarray:
        sums = np.bincount(block, weights=row)[:-1]
        return np.divide(sums, pairs, out=np.ones_like(sums), where=paired)

    return step


def pipeline_stacks(returns: ReturnTable, spec: EpochSpec, columns: list[tuple[float, bool]],
                    sectors: SectorMap | None = None) -> list[MatrixStack]:
    """The canonical epoch pipeline, one stack per ``(epsilon, coarse)``
    column: per epoch one :func:`epoch_correlation`, then for each column
    the power map and, if coarse, the coarse graining by ``sectors`` of
    that row, with the bits of the per-epoch chain. All columns share each
    epoch's correlation; a coarse column builds no stock-level stack."""
    for eps, _ in columns:
        check_epsilon(eps)
    count = spec.window_count(returns.n_rows)
    forms = {False: (CorrMatrix, len(returns.tickers), returns.tickers)}
    if any(coarse for _, coarse in columns):
        if sectors is None:
            raise ValidationError("a coarse column needs a sector map")
        # an unmapped ticker fails here, before any epoch is computed
        step = _block_average(sectors, returns.tickers)
        forms[True] = (GuhrMatrix, sectors.n_sectors, sectors.sectors)
    shapes = [forms[coarse] for _, coarse in columns]
    data = [np.empty((count, packed.packed_length(dim))) for _, dim, _ in shapes]
    ends = []
    for i in range(count):
        c = epoch_correlation(returns, i * spec.shift, spec, epoch_index=i)
        ends.append(c.epoch_end)
        for out, (eps, coarse) in zip(data, columns):
            row = c.data if eps == 0.0 else _power_row(c.data, eps)
            out[i] = step(row) if coarse else row
    return [MatrixStack(kind, dim, d, tuple(ends), labels)
            for (kind, dim, labels), d in zip(shapes, data)]


def rolling_correlations(returns: ReturnTable, spec: EpochSpec) -> MatrixStack:
    """All epoch correlation matrices, ``(rows - length) // shift + 1`` of
    them, written row by row into one stack by :func:`epoch_correlation`."""
    return pipeline_stacks(returns, spec, [(0.0, False)])[0]


def power_map(matrix, epsilon: float):
    """Entrywise noise suppression ``x -> sign(x) |x|^(1+eps)``.

    ``epsilon`` must lie in [0, 1]; 0 is the identity. Works on both
    matrix kinds and on a MatrixStack, and returns the same kind; the
    pipeline maps each row as it writes it instead, with the same bits.
    A correlation diagonal stays at 1 since 1 is a fixed point of the map.
    """
    check_epsilon(epsilon)
    if epsilon == 0.0:
        return matrix
    return replace(matrix, data=_power_row(matrix.data, epsilon))


def coarse_grain(c, sectors: SectorMap):
    """Average correlation entries over sector-pair blocks.

    Takes a CorrMatrix and returns a GuhrMatrix, or takes a correlation
    MatrixStack and returns a Guhr stack; the tickers are the matrix's
    own. Each Guhr entry is the mean of its block's entries in the packed
    row, self-correlations excluded: a diagonal block of n members
    averages its n(n-1)/2 distinct pairs, an off-diagonal block its
    n_i*n_j. A sector with no pairs (a singleton, or no member among the
    tickers) gets 1.0 on its diagonal, with one ``SingletonSectorWarning``
    per call. :func:`pipeline_stacks` applies the same row step.
    """
    stack = c if isinstance(c, MatrixStack) else MatrixStack.of([c])
    if stack.kind is not CorrMatrix:
        raise ValidationError("coarse graining takes correlation matrices")
    if stack.labels is None:
        raise ValidationError(
            f"a dim-{stack.dim} correlation matrix needs its {stack.dim} tickers"
        )
    step = _block_average(sectors, stack.labels)
    n_s = sectors.n_sectors
    out = np.empty((len(stack), packed.packed_length(n_s)))
    for i, row in enumerate(stack.data):
        out[i] = step(row)
    if isinstance(c, CorrMatrix):
        return GuhrMatrix(n_s, out[0], c.epoch_end, sectors.sectors, c.epoch_index)
    return MatrixStack(GuhrMatrix, n_s, out, stack.epoch_ends, sectors.sectors)


def average_correlation(matrix):
    """Mean of the strict upper triangle (diagonal excluded for both kinds);
    for a MatrixStack one mean per row, each reduced as a single matrix's
    is (a 2-D masked mean may differ in the last bit)."""
    if matrix.dim < 2:
        raise ValidationError("average correlation needs dim >= 2")
    mask = packed.strict_upper_mask(matrix.dim)
    if isinstance(matrix, MatrixStack):
        return np.array([row[mask].mean() for row in matrix.data])
    return float(matrix.data[mask].mean())


def pipeline_matrices(returns: ReturnTable, spec: EpochSpec, epsilon: float = 0.0,
                      sectors: SectorMap | None = None) -> MatrixStack:
    """The canonical epoch pipeline as one stack: correlation, power map,
    then coarse graining when a sector map is given; the one-ε case of
    :func:`pipeline_stacks`, so it builds no stack but the one it returns.
    """
    return pipeline_stacks(returns, spec, [(epsilon, sectors is not None)], sectors)[0]
