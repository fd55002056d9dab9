"""Packed upper-triangle storage for symmetric matrices.

Every symmetric matrix in this package is stored as its upper triangle,
diagonal included, flattened row-major: entry (i, j) with i <= j lives at
``i*n - i*(i-1)//2 + (j - i)``: :func:`diagonal_positions` plus ``j - i``.
A matrix of dimension n packs into ``n*(n+1)//2`` float64 values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError


def packed_length(dim: int) -> int:
    return dim * (dim + 1) // 2


def check(data, dim: int, rows: bool = False):
    """Packed data is a float64 ndarray of ``packed_length(dim)`` entries,
    or with ``rows`` a 2-D array of such rows. It is taken as it is, never
    converted: a stack's rows and the matrices built on them, or the
    distances and the Gram matrix ``classical_mds`` builds in them, share
    one buffer."""
    if not isinstance(data, np.ndarray):
        raise ValidationError(f"packed data must be an ndarray, got {type(data).__name__}")
    if data.dtype != np.float64:
        raise ValidationError(f"packed data must be float64, got {data.dtype}")
    if data.ndim != 1 + rows or data.shape[-1] != packed_length(dim):
        raise ValidationError(f"packed data shape {data.shape} does not match dim {dim}")


@lru_cache(maxsize=128)
def upper_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the packed entries, in packing order."""
    rows, cols = np.triu_indices(dim)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=128)
def diagonal_positions(dim: int) -> np.ndarray:
    """Packed positions holding the diagonal entries (i, i)."""
    i = np.arange(dim)
    pos = i * dim - i * (i - 1) // 2
    pos.flags.writeable = False
    return pos


@lru_cache(maxsize=128)
def strict_upper_mask(dim: int) -> np.ndarray:
    """Boolean mask over packed entries that excludes the diagonal."""
    mask = np.ones(packed_length(dim), dtype=bool)
    mask[diagonal_positions(dim)] = False
    mask.flags.writeable = False
    return mask


def pack(square: np.ndarray) -> np.ndarray:
    """Pack a symmetric square matrix; only the upper triangle is read."""
    square = np.asarray(square, dtype=np.float64)
    if square.ndim != 2 or square.shape[0] != square.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {square.shape}")
    rows, cols = upper_indices(square.shape[0])
    return square[rows, cols]


def unpack(packed: np.ndarray, dim: int) -> np.ndarray:
    """Expand a packed vector back to the full symmetric matrix, row by
    row from slices, so no per-dim index arrays are built or cached."""
    packed = np.asarray(packed, dtype=np.float64)
    full = np.empty((dim, dim), dtype=np.float64)
    for i, start in enumerate(diagonal_positions(dim)):
        row = packed[start : start + dim - i]
        full[i, i:] = row
        full[i:, i] = row
    return full

