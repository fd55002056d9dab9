"""Classical (Torgerson) multidimensional scaling of the matrix cloud.

The pairwise L1 distances between packed matrices are computed in row
tiles of ``TILE_ROWS`` epochs, each written straight into packed
storage, on the worker threads the caller passes (scipy's distance
kernels release the GIL). Every pair goes through the same cityblock
sum whatever the tiling or thread count, so the distances are
bit-identical across both. Double centring works in place on the one
square matrix unpacked for the eigensolver.

These distances are generally not Euclidean-realizable, so the
double-centered Gram matrix can have negative eigenvalues. Those are
clamped to zero columns, reported via a warning, and the captured-mass
fraction accounts only for positive eigenvalue mass; nothing is hidden
or renormalized away.

Coordinates follow a fixed sign convention (the entry of largest
absolute value in each column is positive), which makes embeddings
stable across runs and eigensolver backends.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from datetime import date

import numpy as np
from scipy.sparse.linalg import eigsh
from scipy.spatial.distance import cdist

from . import packed
from .clustering import thread_map
from .corrmat import MatrixStack
from .errors import DegradedRankWarning, ParameterRange, ValidationError

PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d", "#666666",
)

DENSE_CUTOFF = 1500
TILE_ROWS = 128


@dataclass(frozen=True)
class DistanceMatrix:
    """Packed symmetric nonnegative distances with a zero diagonal."""

    n: int
    d: np.ndarray

    def __post_init__(self):
        if self.d.shape != (packed.packed_length(self.n),):
            raise ValidationError(
                f"packed length {self.d.shape} does not match n={self.n}"
            )
        if (self.d < 0).any():
            raise ValidationError("distances must be nonnegative")
        if self.d[packed.diagonal_positions(self.n)].any():
            raise ValidationError("distance diagonal must be zero")

    def full(self) -> np.ndarray:
        """The symmetric square, unpacked from packed storage."""
        return packed.unpack(self.d, self.n)


@dataclass(frozen=True)
class Embedding:
    """Centered coordinates, one row per point, columns by descending
    eigenvalue. ``eigenvalues`` are the raw top values before clamping;
    ``captured`` is the fraction of positive eigenvalue mass they carry."""

    coords: np.ndarray
    eigenvalues: tuple[float, ...]
    positive_mass: float
    captured: float
    states: np.ndarray | None = None
    epoch_ends: tuple[date, ...] | None = None

    @property
    def n(self) -> int:
        return int(self.coords.shape[0])

    @property
    def dim(self) -> int:
        return int(self.coords.shape[1])

    def axis_fraction(self, axis: int) -> float:
        """Positive-mass share of one 1-based axis."""
        lam = max(self.eigenvalues[axis - 1], 0.0)
        return lam / self.positive_mass if self.positive_mass > 0 else 0.0


def distance_matrix(matrices, threads: int = 1) -> DistanceMatrix:
    """All pairwise L1 distances between the rows of a MatrixStack (or a
    matrix list, stacked once), computed into packed storage.

    Rows go in tiles of ``TILE_ROWS``; one cityblock call per tile gives
    its rows' distances to every row from the tile's first on, and each
    row's entries right of the diagonal go to its packed offsets. The
    tiles run on ``threads`` worker threads; the result does not depend
    on the count.
    """
    stack = MatrixStack.of(matrices)
    n = len(stack)
    if n < 2:
        raise ValidationError("need at least 2 matrices")
    pts = stack.data
    d = np.zeros(packed.packed_length(n))
    diag = packed.diagonal_positions(n)

    def tile(lo: int):
        hi = min(lo + TILE_ROWS, n)
        block = cdist(pts[lo:hi], pts[lo:], "cityblock")
        for i in range(lo, hi):
            d[diag[i] + 1 : diag[i] + n - i] = block[i - lo, i - lo + 1 :]

    thread_map(tile, range(0, n, TILE_ROWS), threads)
    return DistanceMatrix(n=n, d=d)


def _double_center(a: np.ndarray) -> np.ndarray:
    """-1/2 J (a*a) J, computed in place on ``a`` and returned."""
    np.square(a, out=a)
    a *= -0.5
    row = a.mean(axis=1, keepdims=True)
    col = a.mean(axis=0, keepdims=True)
    mean = a.mean()
    a -= row
    a -= col
    a += mean
    return a


def classical_mds(
    d: DistanceMatrix,
    dim: int,
    states: np.ndarray | None = None,
    epoch_ends: tuple[date, ...] | None = None,
) -> Embedding:
    """Torgerson scaling: eigendecompose B = -1/2 J D^2 J and scale the
    top eigenvectors by sqrt(eigenvalue).

    Below ``DENSE_CUTOFF`` points the full spectrum is computed, so the
    captured fraction is exact. Above it only the top ``dim`` eigenpairs
    are solved iteratively and the positive mass is estimated from
    trace(B), which undercounts it; the reported fraction is then an
    upper bound. Negative eigenvalues among the top ``dim`` become zero
    columns and raise a DegradedRankWarning.
    """
    n = d.n
    if dim < 1:
        raise ParameterRange(f"dim must be >= 1, got {dim}")
    if dim > n - 1:
        raise ParameterRange(f"dim={dim} exceeds n-1={n - 1}")
    b = _double_center(d.full())

    if n < DENSE_CUTOFF:
        vals, vecs = np.linalg.eigh(b)
        mass_floor = 0.0
    else:
        # the all-ones vector is B's null direction; a fixed random start
        # keeps the iteration away from it and stays deterministic
        v0 = np.random.default_rng(0).standard_normal(n)
        vals, vecs = eigsh(b, k=dim, which="LA", v0=v0)
        # only the top dim eigenvalues are known; trace(B), the sum of all
        # n of them, is at most the positive mass
        mass_floor = float(np.trace(b))
    order = np.argsort(vals, kind="stable")[::-1]
    vals, vecs = vals[order], vecs[:, order]
    positive_mass = max(mass_floor, float(vals[vals > 0].sum()))
    top_vals, top_vecs = vals[:dim], vecs[:, :dim]

    clamped = np.maximum(top_vals, 0.0)
    if (top_vals < 0).any():
        warnings.warn(
            f"{int((top_vals < 0).sum())} of the top {dim} eigenvalues are "
            "negative; their columns are zero",
            DegradedRankWarning,
            stacklevel=2,
        )
    coords = top_vecs * np.sqrt(clamped)
    for j in range(dim):
        col = coords[:, j]
        if col.any() and col[np.abs(col).argmax()] < 0:
            coords[:, j] = -col

    captured_sum = float(clamped.sum())
    captured = captured_sum / positive_mass if positive_mass > 0 else 1.0
    return Embedding(
        coords=coords,
        eigenvalues=tuple(float(v) for v in top_vals),
        positive_mass=positive_mass,
        captured=min(captured, 1.0),
        states=states,
        epoch_ends=epoch_ends,
    )


def _states(e: Embedding) -> np.ndarray:
    """The points' states; 0 for each when the embedding carries none."""
    return e.states if e.states is not None else np.zeros(e.n, dtype=np.int64)


def embedding_table(e: Embedding) -> str:
    """CSV export ``epoch_end,state,x,y,z``; missing axes are zero."""
    states = _states(e)
    ends = e.epoch_ends if e.epoch_ends is not None else (None,) * e.n
    xyz = np.zeros((e.n, 3))
    take = min(3, e.dim)
    xyz[:, :take] = e.coords[:, :take]
    lines = ["epoch_end,state,x,y,z"]
    for i in range(e.n):
        end = ends[i].isoformat() if ends[i] is not None else ""
        lines.append(
            f"{end},{int(states[i])},"
            f"{format(xyz[i, 0], '.17g')},{format(xyz[i, 1], '.17g')},"
            f"{format(xyz[i, 2], '.17g')}"
        )
    return "\n".join(lines) + "\n"


def embedding_svg(e: Embedding) -> str:
    """Standalone 640x480 scatter SVG of axes 1 and 2, one circle per
    point, colored by state from a fixed 8-color palette; axis labels
    carry each axis's share of positive eigenvalue mass."""
    if e.dim < 2:
        raise ParameterRange(f"axis 2 out of range 1..{e.dim}")
    width, height = 640, 480
    margin = 48.0

    def scale(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
        span = v.max() - v.min()
        if span == 0:
            return np.full(v.shape, (lo + hi) / 2.0)
        return lo + (v - v.min()) / span * (hi - lo)

    px = scale(e.coords[:, 0], margin, width - margin)
    # svg y axis points down
    py = scale(e.coords[:, 1], height - margin, margin)

    label_a = f"axis 1 ({100 * e.axis_fraction(1):.1f}% of positive mass)"
    label_b = f"axis 2 ({100 * e.axis_fraction(2):.1f}% of positive mass)"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{label_a}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{label_b}</text>',
    ]
    for i, state in enumerate(map(int, _states(e))):
        color = PALETTE[(state - 1) % len(PALETTE)] if state >= 1 else PALETTE[-1]
        parts.append(
            f'<circle cx="{px[i]:.2f}" cy="{py[i]:.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.75"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
