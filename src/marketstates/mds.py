"""Classical (Torgerson) multidimensional scaling of the matrix cloud.

The distance between two epoch matrices is the L1 sum of their entry
differences over the packed upper triangle. Correlation diagonals are 1
in both and cancel, so the sum is that of the strict ``i < j`` entries;
Guhr diagonals count, since intra-sector averages carry state
information. :func:`matrix_distance` is one entry of
:func:`distance_matrix`, and both sum through scipy's cityblock kernel,
as the k-means l1 passes do.

The pairwise table is computed in row tiles on the caller's worker
threads (scipy's distance kernels release the GIL). Every pair goes
through the same cityblock sum whatever the tiling or thread count, so
the distances are bit-identical across both. ``classical_mds`` builds
the double-centred Gram matrix in place in the distances' packed
buffer, so scaling holds one n(n+1)/2 buffer from distances to
embedding.

Scaling returns coordinates only. The renderers read each point's state
and epoch end from the ``StateSequence`` they are given.

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

import numpy as np
from scipy.linalg.blas import dspmv
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.spatial.distance import cdist

from . import packed
from .clustering import thread_map
from .corrmat import MatrixStack
from .errors import DegradedRankWarning, ParameterRange, ValidationError
from .markov import StateSequence

PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d", "#666666",
)

DENSE_CUTOFF = 1500
TILE_ROWS = 32


@dataclass(frozen=True)
class DistanceMatrix:
    """Packed symmetric finite nonnegative distances with a zero diagonal.

    ``classical_mds`` takes the buffer over for its Gram matrix; the
    matrix is spent then, ``d`` is None, and ``full`` or another scaling
    raises ValidationError."""

    n: int
    d: np.ndarray | None

    def __post_init__(self):
        packed.check(self.d, self.n)
        # reductions, not an n(n+1)/2 boolean temporary; NaN fails both
        if self.d.size and not (self.d.min() >= 0 and self.d.max() < np.inf):
            raise ValidationError("distances must be finite and nonnegative")
        if self.d[packed.diagonal_positions(self.n)].any():
            raise ValidationError("distance diagonal must be zero")

    def _buffer(self) -> np.ndarray:
        if self.d is None:
            raise ValidationError(
                "distance matrix is spent: classical_mds built its Gram "
                "matrix in the distances' buffer"
            )
        return self.d

    def _take(self) -> np.ndarray:
        """The packed buffer, handed over to be overwritten; the matrix
        is spent from here on."""
        d = self._buffer()
        if not d.flags.writeable:
            raise ValidationError(
                "distance buffer is read-only; classical_mds builds its Gram "
                "matrix in it"
            )
        object.__setattr__(self, "d", None)
        return d

    def full(self) -> np.ndarray:
        """The symmetric square, unpacked from packed storage."""
        return packed.unpack(self._buffer(), self.n)


@dataclass(frozen=True)
class Embedding:
    """Centered coordinates, one row per point, columns by descending
    eigenvalue. ``eigenvalues`` are the raw top values before clamping;
    ``captured`` is the fraction of positive eigenvalue mass they carry."""

    coords: np.ndarray
    eigenvalues: tuple[float, ...]
    positive_mass: float
    captured: float

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
    the distances of every row from the tile's first on to the tile's
    rows, one column per tile row, so the large operand is read once per
    tile while the tile's rows stay in cache. Each column's entries below
    the diagonal go to that row's packed offsets. The tiles run on at most
    ``threads`` worker threads; the result does not depend on the count.
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
        block = cdist(pts[lo:], pts[lo:hi], "cityblock")
        for i in range(lo, hi):
            d[diag[i] + 1 : diag[i] + n - i] = block[i - lo + 1 :, i - lo]

    thread_map(tile, range(0, n, TILE_ROWS), threads)  # the tiles write d
    return DistanceMatrix(n=n, d=d)


def matrix_distance(a, b) -> float:
    """The L1 distance of two same-kind, same-dim matrices: the one
    off-diagonal entry of ``distance_matrix([a, b])``, so it has the
    table's bits. Mixed kinds or dims raise DimensionMismatch."""
    return float(distance_matrix([a, b]).d[1])


def _packed_gram(d: DistanceMatrix) -> np.ndarray:
    """B = -1/2 J (D*D) J, built in place in the packed buffer that ``d``
    hands over. Each row mean is taken over the row's full length, in
    column order, so B is exactly symmetric."""
    n = d.n
    a = d._take()
    np.square(a, out=a)
    a *= -0.5
    diag = packed.diagonal_positions(n)
    up = diag - np.arange(n)  # (k, i) with k < i sits at up[k] + i
    row = np.array([np.concatenate((a[up[:i] + i], a[s : s + n - i])).mean()
                    for i, s in enumerate(diag)])
    mean = row.mean()
    for i, s in enumerate(diag):
        b = a[s : s + n - i]
        np.add(b - row[i] - row[i:], mean, out=b)
    return a


def classical_mds(d: DistanceMatrix, dim: int) -> Embedding:
    """Torgerson scaling: eigendecompose B = -1/2 J D^2 J, built in packed
    storage, and scale the top eigenvectors by sqrt(eigenvalue).

    The call consumes ``d``: B is built in the distances' own buffer, so
    no second n(n+1)/2 buffer is made, and ``d`` is spent afterwards
    (another scaling or ``d.full()`` raises ValidationError). Build a
    new DistanceMatrix to scale the same distances again. A read-only
    buffer raises ValidationError and leaves ``d`` as it was.

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
    b = _packed_gram(d)

    if n < DENSE_CUTOFF:
        vals, vecs = np.linalg.eigh(packed.unpack(b, n))
        mass_floor = 0.0
    else:
        # row-major upper packing is LAPACK's column-major lower packing
        op = LinearOperator(
            (n, n), matvec=lambda v: dspmv(n, 1.0, b, v, lower=1), dtype=np.float64
        )
        # the all-ones vector is B's null direction; a fixed random start
        # keeps the iteration away from it and stays deterministic
        v0 = np.random.default_rng(0).standard_normal(n)
        vals, vecs = eigsh(op, k=dim, which="LA", v0=v0)
        # only the top dim eigenvalues are known; trace(B), the sum of all
        # n of them, is at most the positive mass
        mass_floor = float(b[packed.diagonal_positions(n)].sum())
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
    )


def _labels(e: Embedding, seq: StateSequence | None) -> tuple[np.ndarray, tuple]:
    """Each point's state and epoch end from ``seq``: 0 and None without
    one. A sequence of another length raises ValidationError."""
    if seq is None:
        return np.zeros(e.n, dtype=np.int64), (None,) * e.n
    if len(seq) != e.n:
        raise ValidationError(f"state sequence has {len(seq)} states for {e.n} points")
    return seq.states, seq.epoch_ends or (None,) * e.n


def embedding_table(e: Embedding, seq: StateSequence | None = None) -> str:
    """CSV export ``epoch_end,state,x,y,z``, labelled from ``seq``;
    missing axes are zero."""
    states, ends = _labels(e, seq)
    xyz = np.zeros((e.n, 3))
    xyz[:, :e.dim] = e.coords[:, :3]
    lines = ["epoch_end,state,x,y,z"]
    for end, state, (x, y, z) in zip(ends, states, xyz):
        lines.append(f"{end.isoformat() if end else ''},{int(state)},"
                     f"{x:.17g},{y:.17g},{z:.17g}")
    return "\n".join(lines) + "\n"


def embedding_svg(e: Embedding, seq: StateSequence | None = None) -> str:
    """Standalone 640x480 scatter SVG of axes 1 and 2, one circle per
    point, colored by its state in ``seq`` from a fixed 8-color palette;
    axis labels carry each axis's share of positive eigenvalue mass."""
    if e.dim < 2:
        raise ParameterRange(f"axis 2 out of range 1..{e.dim}")
    states = _labels(e, seq)[0]
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
    for i, state in enumerate(map(int, states)):
        color = PALETTE[(state - 1) % len(PALETTE)] if state >= 1 else PALETTE[-1]
        parts.append(
            f'<circle cx="{px[i]:.2f}" cy="{py[i]:.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.75"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
