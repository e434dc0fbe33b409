"""Direct scattering solves and synthetic Cauchy data on the square domain.

The total field satisfies the volume integral equation

    u(x) = u_in(x) + k^2 int_Omega (i/4) H0^(1)(k|x-y|) a(y) u(y) dy,

discretized by Nystrom collocation on the uniform node grid.  The weakly
singular self cell is handled by integrating the small-argument expansion of
the kernel over a disk of equal area, which keeps the scheme second order
without periodization machinery.  The Nystrom matrix depends only on the
index offset between two nodes, so it is applied as one FFT convolution, as
in G. Vainikko, Fast solvers of the Lippmann-Schwinger equation (2000).
Since a u vanishes where a does, the system is solved by GMRES (Saad and
Schultz, 1986) on the bounding box of the support only, at one FFT pair plus
BLAS calls per step.  A solve returns the field on a window, either the
whole grid (the default) or the support box itself: off the box the
field is the representation formula u = u_in + k^2 h^2 K(a u_B).  One
convolution from the box to the window gives those values and is the
restart residual at the end of each GMRES cycle; for the box window it is
GMRES's own product.  The last one gives the residual check, which bounds
the residual of the whole-grid system for the field the formula extends,
on either window.  A solve whose restart residuals show that it cannot
pass that check in the steps left ends at once and raises
IllConditionedSystem.  Both products, and the trace kernels, take their
Hankel values from the real-argument Bessel functions H_m = J_m + i Y_m;
the products' kernel table covers only the lattice offsets the window
needs, evaluates H_0 once per distinct lattice radius, from an index of the
offsets built once per lattice size, and gathers it onto the offsets, the
same bits as one evaluation per offset on the whole grid's lattice.  The
products' FFTs call scipy's pocketfft kernel directly (_fft2), with the
scaling and the single thread scipy.fft.fft2 and ifft2 use, so the values
are the same bits without the public functions' per-call argument
handling; and each product keeps its zero-padded input and its spectrum
buffer across calls, so a GMRES step allocates no array for its FFT pair.

u/u_in is analytic in k, so the fields at all wavenumber midpoints come from
solves at nested Chebyshev-Lobatto nodes in k (5, 10, 20 or 40 intervals
over [first midpoint, last midpoint]) and barycentric interpolation on the
window's nodes, as in L. N. Trefethen, Approximation Theory and
Approximation Practice (2013).  A level is accepted when its last two
Chebyshev coefficients, from one DCT-I, are at the residual bound; every
interpolated field must then pass the same residual check as a solve,
computed for a chunk of wavenumbers at a time, or it is solved directly.
Data not resolved with fewer nodes than midpoints are solved midpoint by
midpoint, as are grids of at most six midpoints.  A failed solve raises its
IllConditionedSystem unchanged, and the lowest midpoint is always solved
first.

The Cauchy data on the measurement line need the field only where a != 0:
trace_cauchy reads g0 and g1 off the representation formula from fields on
the support box, so simulate solves, interpolates and checks nothing else.
The inversion's log map needs the whole grid and asks for it.

One reuse makes the repeated stacks of an inversion cheaper: each node a
finer level adds starts GMRES from the coarser level's interpolant, which is
already close to its field.  The first level's nodes and every midpoint
solved directly start from zero, so those fields equal solve_forward's.
Every product builds its kernel spectrum afresh, so a call keeps no state
for the next one.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy.fft import dct, fft, ifft, next_fast_len
from scipy.fft._pocketfft.pypocketfft import c2c
from scipy.linalg.blas import dznrm2, zgemv
from scipy.linalg.lapack import ztrtrs
from scipy.special import j0, j1, y0, y1

from .basis import KGrid, _check_fields

__all__ = [
    "IllConditionedSystem",
    "Grid2D",
    "Disk",
    "Rectangle",
    "Coefficient",
    "rasterize",
    "IncidentWave",
    "CauchyData",
    "solve_forward",
    "solve_forward_multi",
    "trace_cauchy",
    "add_noise",
]

_EULER_GAMMA = float(np.euler_gamma)

# GMRES iterations per solve and per restart cycle.  On the builtin scenes
# simulate needs 5 to 8, invert 6 to 12 and the unweighted run up to 30
# before its n = 2 re-solve stalls.  A solve whose average rate cannot reach
# RESIDUAL_BOUND within the 500 ends at a restart before the cap (_gmres).
GMRES_MAX_ITER = 500
GMRES_RESTART = 100
# Relative whole-grid residual a field must be below, solved or interpolated
# in k; a solve above it raises IllConditionedSystem.
RESIDUAL_BOUND = 1e-10

# Chebyshev-Lobatto levels in k of solve_forward_multi, as numbers of
# intervals; each level's nodes include the previous level's.
K_LEVELS = (5, 10, 20, 40)
# Circulant entries per chunk of the batched residual check of interpolated
# fields: 256 KB per complex array.
_CHUNK_ENTRIES = 1 << 14
# Sample points per block of the rasterizer's cut-cell quadrature
# (_cell_averages): 256 KB per float array, 2 cut cells of 128 x 128 samples
# or 1310 cells of the 5 x 5 probe, so the quadrature's memory does not
# grow with the interface; all cut cells of example2b at once take 14.5 MB
# per array at 56 cells and 59 MB at 224.  A block's temporaries then fit
# in a 2 MB L2 cache: on a 2-core Xeon, rasterizing example2b at 28 and 56
# cells took about 13 ms, against 25 ms with 1 MB blocks or all cut cells
# at once.
_RASTER_BLOCK = 1 << 15
# Midpoint samples per side of a cut cell in the rasterizer's cell average.
_CELL_SAMPLES = 128
# Largest |value| of a shape: the cell average sums _CELL_SAMPLES^2 samples,
# and that sum must stay finite.
_VALUE_MAX = sys.float_info.max / _CELL_SAMPLES ** 2
# Relative margin by which the rasterizer widens each shape's bounds before
# it skips the shape in a cell: a sample a rounding error outside the exact
# extent can still pass the shape's own float test (d1^2 + d2^2 <= r^2 of a
# disk), and the widened box must hold every sample that does.
_BOX_MARGIN = 1e-9


class IllConditionedSystem(RuntimeError):
    """The discrete scattering system could not be solved reliably."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform node grid on the square (-half_width, half_width)^2.

    Fields live on arrays indexed [i, j] with i the x2 (vertical) index and
    j the x1 index; the measurement boundary is the top row i = n_cells.
    """

    half_width: float
    n_cells: int

    def __post_init__(self):
        _check_fields(self, n_cells=2)
        if not (self.half_width > 0 and math.isfinite(2 * self.half_width)):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n_cells

    @property
    def n_nodes(self) -> int:
        """Nodes per side."""
        return self.n_cells + 1

    @property
    def n_points(self) -> int:
        return self.n_nodes * self.n_nodes

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_nodes)

    @property
    def gamma_row(self) -> int:
        """Row index of the measurement boundary x2 = half_width."""
        return self.n_cells

    def mesh(self):
        """Coordinate arrays X1, X2 with X1[i, j] = x1_j, X2[i, j] = x2_i."""
        x = self.nodes
        X2, X1 = np.meshgrid(x, x, indexing="ij")
        return X1, X2


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float
    value: float

    def __post_init__(self):
        _check_fields(self)
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")

    # d1 * d1 overflows to inf only more than 1e154 from the center, where
    # the test then holds just when r * r is inf too: right up to rounding
    # for a disk that meets the domain, the only kind _rasterize samples,
    # since every domain point is within r + 2 sqrt(2) half_width of it.
    @np.errstate(over="ignore")
    def contains(self, x1, x2):
        d1 = np.asarray(x1) - self.center[0]
        d2 = np.asarray(x2) - self.center[1]
        return d1 * d1 + d2 * d2 <= self.radius * self.radius

    def bounds(self):
        """Corners (lo, hi) of the axis-aligned box around the disk."""
        (c1, c2), r = self.center, self.radius
        return (c1 - r, c2 - r), (c1 + r, c2 + r)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box given by its lower-left and upper-right corners."""

    lo: tuple[float, float]
    hi: tuple[float, float]
    value: float

    def __post_init__(self):
        _check_fields(self)
        if not (self.lo[0] < self.hi[0] and self.lo[1] < self.hi[1]):
            raise ValueError("rectangle corners must satisfy lo < hi componentwise, "
                             f"got lo {self.lo}, hi {self.hi}")

    def contains(self, x1, x2):
        x1 = np.asarray(x1)
        x2 = np.asarray(x2)
        return (x1 >= self.lo[0]) & (x1 <= self.hi[0]) & (x2 >= self.lo[1]) & (x2 <= self.hi[1])

    def bounds(self):
        """Corners (lo, hi) of the rectangle."""
        return self.lo, self.hi


@dataclass(frozen=True)
class Coefficient:
    """Real coefficient field a(x) on grid nodes, values[i, j] at (x1_j, x2_i).

    cell_mean, when present, carries the average of a over each node's cell,
    integrated from the shape geometry.  The solver uses it as the quadrature
    mass of the cell so that interface cells contribute their true area;
    point values stay crisp membership samples.  Without it (coefficients
    produced by the inversion itself, and the reconstruction grid's truth)
    the node value stands in for the mean.

    A coefficient's arrays are not written after construction, so box, the
    support box every solve and trace reads, is computed once per
    coefficient.
    """

    grid: Grid2D
    values: np.ndarray
    cell_mean: np.ndarray | None = None

    def quadrature_mean(self) -> np.ndarray:
        return self.values if self.cell_mean is None else self.cell_mean

    @functools.cached_property
    def box(self):
        """Grid slices of the bounding box of the nonzero quadrature mean;
        empty slices for a zero coefficient."""
        return _support_box(self.quadrature_mean())


def _stack_values(shapes, x1, x2):
    vals = np.zeros(np.broadcast(x1, x2).shape)
    for shape in shapes:
        vals[shape.contains(x1, x2)] = shape.value
    return vals


def _reach(shapes, grid: Grid2D) -> np.ndarray:
    """Mask of shape (shapes, n_nodes, n_nodes): whether each shape's bounds,
    widened by _BOX_MARGIN of the largest coordinate involved, meet node
    (i, j)'s h x h cell.  Every sample of a cell at which a shape's own
    contains holds lies in the widened bounds, so a shape that does not
    reach a cell contains none of its probe or quadrature samples."""
    x = grid.nodes
    reach = np.empty((len(shapes), grid.n_nodes, grid.n_nodes), dtype=bool)
    for s, shape in enumerate(shapes):
        lo, hi = shape.bounds()
        pad = 0.5 * grid.h + _BOX_MARGIN * max(grid.half_width, *map(abs, lo + hi))
        rows = (x >= lo[1] - pad) & (x <= hi[1] + pad)
        cols = (x >= lo[0] - pad) & (x <= hi[0] + pad)
        reach[s] = rows[:, None] & cols[None, :]
    return reach


def _sample_cells(shapes, reach, x1, x2, offsets, reduce, out):
    """out[c] = reduce(stack) for the stack of shapes on the samples
    (x1[c] + offsets[a], x2[c] + offsets[b]) of each cell c, in blocks of at
    most _RASTER_BLOCK samples; returns out.  A block stacks only the shapes
    that reach one of its cells (reach[:, c]), in their order, so a later
    shape still wins."""
    cells = max(1, _RASTER_BLOCK // offsets.size ** 2)
    for c in range(0, x1.size, cells):
        block = slice(c, c + cells)
        near = [shape for shape, hit in zip(shapes, reach[:, block].any(axis=1)) if hit]
        out[block] = reduce(_stack_values(near, x1[block, None, None] + offsets[None, :, None],
                                          x2[block, None, None] + offsets[None, None, :]))
    return out


def _cell_averages(shapes, grid: Grid2D, values: np.ndarray, cells=None) -> np.ndarray:
    """Average each shape stack over the h x h cell of every node, or of the
    nodes where the mask cells is true; elsewhere the node value stands in.

    Only the cells some shape reaches (_reach) are probed, on a 5x5 pattern
    that includes the cell's edges: every sample of any other cell lies
    outside every shape, so the cell is not cut and its mean is its node
    value.  Only cells the interface cuts get the dense _CELL_SAMPLES^2
    midpoint average.  Both passes go through their cells in blocks of at
    most _RASTER_BLOCK sample points (_sample_cells), so the arrays stay the
    same size however long the interface is, and each block stacks only the
    shapes that reach one of its cells.  A skipped shape contains none of
    the block's samples, so each cell's samples, membership tests and mean
    are the same expressions and values as with every shape on every cell.
    """
    X1, X2 = grid.mesh()
    reach = _reach(shapes, grid)
    near = np.any(reach, axis=0)
    if cells is not None:
        near &= cells
    probe = np.linspace(-0.5, 0.5, 5) * grid.h
    cut = np.zeros(values.shape, dtype=bool)
    cut[near] = _sample_cells(shapes, reach[:, near], X1[near], X2[near], probe,
                              lambda s: s.max(axis=(1, 2)) != s.min(axis=(1, 2)),
                              np.empty(np.count_nonzero(near), dtype=bool))
    mean = values.astype(float)
    sub = ((np.arange(_CELL_SAMPLES) + 0.5) / _CELL_SAMPLES - 0.5) * grid.h
    mean[cut] = _sample_cells(shapes, reach[:, cut], X1[cut], X2[cut], sub,
                              lambda s: s.mean(axis=(1, 2)), np.empty(np.count_nonzero(cut)))
    return mean


def _rasterize(shapes, grid: Grid2D, cells=None):
    """Node values and cell means of the shapes (_cell_averages, on every
    cell or on the mask cells), checked against the synthetic-truth
    contract: every shape's bounds meet the closed domain and its |value|
    is at most _VALUE_MAX, both checked before any sampling, nonnegative
    values, and no support on the domain boundary, neither at a boundary
    node nor in the mean of its cell."""
    r = grid.half_width
    for i, shape in enumerate(shapes):
        lo, hi = shape.bounds()
        if not (lo[0] <= r and lo[1] <= r and hi[0] >= -r and hi[1] >= -r):
            raise ValueError(f"shapes[{i}] lies wholly outside the domain [-{r}, {r}]^2: "
                             f"its bounds are {lo} to {hi}")
        if abs(shape.value) > _VALUE_MAX:
            raise ValueError(f"shapes[{i}]: value must be at most {_VALUE_MAX!r} in magnitude, "
                             f"got {shape.value!r}")
    X1, X2 = grid.mesh()
    values = _stack_values(shapes, X1, X2)
    cell_mean = _cell_averages(shapes, grid, values, cells)
    if np.any(values < 0):
        raise ValueError(f"synthetic coefficient must be nonnegative, got {float(values.min())!r}")
    bad = (values != 0) | (cell_mean != 0)
    bad[1:-1, 1:-1] = False
    if np.any(bad):
        ii, jj = np.nonzero(bad)
        where = ", ".join(f"(i={i + 1}, j={j + 1})" for i, j in zip(ii[:5], jj[:5]))
        raise ValueError(
            f"support touches the domain boundary at {ii.size} nodes, first at {where}"
        )
    return values, cell_mean


def rasterize(shapes, grid: Grid2D) -> Coefficient:
    """Sample shapes onto the grid by node-center membership, later shapes
    winning, with every node's cell mean (_cell_averages) for the solver's
    quadrature.

    Enforces the synthetic-truth contract: nonnegative values and no support
    on the domain boundary.
    """
    values, cell_mean = _rasterize(shapes, grid)
    return Coefficient(grid=grid, values=values, cell_mean=cell_mean)


def _rasterize_nodes(shapes, grid: Grid2D) -> Coefficient:
    """rasterize's node values alone, without cell means: the truth a
    reconstruction on the grid is compared with, which needs no quadrature.

    The contract is checked as rasterize checks it, with the same message,
    but cell means are computed only on the boundary ring, the only cells
    the boundary check reads.
    """
    ring = np.ones((grid.n_nodes, grid.n_nodes), dtype=bool)
    ring[1:-1, 1:-1] = False
    values, _ = _rasterize(shapes, grid, ring)
    return Coefficient(grid=grid, values=values)


class IncidentWave:
    """Plane wave exp(ik d.x) with the fixed direction d = (0, -1), for which the log
    transform and the recovery formula are derived; as d1 = 0, it is exp(ik d2 x2)."""

    direction = (0.0, -1.0)

    @staticmethod
    def field(x2, k):
        return np.exp(1j * k * (IncidentWave.direction[1] * x2))


@dataclass(frozen=True)
class CauchyData:
    """Boundary measurements on the top row for every wavenumber midpoint.

    g0 is the field trace, g1 its x2-derivative, both of shape
    (n_nodes, n_k) with rows following the x1 nodes.
    """

    grid: Grid2D
    kgrid: KGrid
    g0: np.ndarray
    g1: np.ndarray
    noise_level: float = 0.0
    seed: int | None = None


@functools.lru_cache(maxsize=8)
def _lattice_radii(rows: int, cols: int):
    """Distinct nonzero radii of the rows x cols offset lattice, and where each offset reads.

    H0(k h r) depends on an offset (di, dj) only through r^2 = di^2 + dj^2,
    which takes far fewer values than there are offsets (1267 of 3248 on
    the 57 x 57 lattice).  Returns sqrt of the sorted distinct nonzero r^2
    and the (rows, cols) index of each offset into [self cell, radii...];
    both are read-only, since the cache hands the same arrays to every
    caller.
    """
    r2, index = np.unique((np.arange(rows)[:, None] ** 2 + np.arange(cols)[None, :] ** 2).ravel(),
                          return_inverse=True)
    radii = np.sqrt(r2[1:])
    index = index.reshape(rows, cols)
    radii.flags.writeable = index.flags.writeable = False
    return radii, index


def _kernel_table(grid: Grid2D, k, shape) -> np.ndarray:
    """Kernel value (i/4)H0(k r) by absolute index offset (di, dj), for the
    offsets di < shape[0], dj < shape[1].

    H0 = J0 + i Y0 is evaluated from the real-argument Bessel functions once
    per distinct lattice radius (_lattice_radii, one index per lattice size)
    and gathered onto the offsets.  An offset's argument k h r does not
    depend on the lattice size, so a table of any shape holds the same bits
    as an evaluation on every offset of the whole grid.  Entry (0, 0) holds
    the cell average of the small-argument expansion over the equal-area
    disk of radius rho0 = h/sqrt(pi), so multiplying the whole table by the
    uniform weight h^2 yields the corrected Nystrom weights.  For an array
    of wavenumbers the tables are stacked along its axes, from one Bessel
    evaluation.
    """
    radii, index = _lattice_radii(*shape)
    k = np.asarray(k, dtype=float)[..., None]
    kr = (k * grid.h) * radii
    values = np.empty(k.shape[:-1] + (1 + radii.size,), dtype=complex)
    rho0 = grid.h / np.sqrt(np.pi)
    values[..., :1] = 0.25j - _EULER_GAMMA / (2 * np.pi) - (np.log(k * rho0 / 2) - 0.5) / (2 * np.pi)
    values[..., 1:] = 0.25j * (j0(kr) + 1j * y0(kr))
    return np.take(values, index, axis=-1)


def _fft2(x: np.ndarray, forward: bool, out: np.ndarray) -> np.ndarray:
    """FFT (forward) or inverse FFT of the complex array x over its last two
    axes, written to out, which may be x itself; returns out.

    This is the pocketfft call scipy.fft.fft2 and ifft2 make by default (no
    scaling forward, 1/N inverse, one thread), so the values are the same
    bits.  Their per-call argument handling is skipped: on a 54 x 54 buffer,
    the box of an inversion iterate, scipy.fft.fft2 took 43 us and this
    call 28 us (2-core x86-64, scipy 1.17, best of 5 x 2000 calls).
    """
    return c2c(x, (x.ndim - 2, x.ndim - 1), forward, 0 if forward else 2, out, 1)


def _offset_product(table: np.ndarray, weight: np.ndarray, source, window):
    """Product v -> T (weight v) with T[(i, j), (i', j')] = table[|i - i'|, |j - j'|]
    from the nodes of source to those of window, each a pair of grid slices;
    weight and v have the source's shape.

    Along an axis where the source has p nodes starting at s and the window
    w nodes starting at t, the output reads the offsets t - s + e for
    e = -(p-1)..w-1.  Entry table[|t - s + e|] sits at position e of a
    zero-padded circulant of length at least w + p - 1, so one FFT pair
    gives the product exactly: no wrapped-around offset reaches the w-node
    corner read back.  The circulant is filled from one take of the table
    rows and one of its columns, placed by four slices: e >= 0 at the start
    of an axis, e < 0 wrapped to its end, and transformed in place once per
    product.  A table with leading axes (one table per wavenumber) gives a
    batch of products with the same leading axes, each on its own circulant.

    The zero-padded input buffer and the spectrum buffer are allocated once
    per product, not per call: each call writes weight v into the corner of
    the input buffer, transforms it into the spectrum buffer, multiplies by
    the kernel spectrum and inverts in place.  The result is a view of the
    window in the spectrum buffer, so the next call overwrites it; use it
    before then.
    """
    shape, taken, quadrants = [], table, []
    for axis, (src, out) in enumerate(zip(source, window)):
        p, w = src.stop - src.start, out.stop - out.start
        size = next_fast_len(w + p - 1)
        shape.append(size)
        taken = taken.take(np.abs(out.start - src.start + np.arange(-(p - 1), w)),
                           axis=axis - 2)
        quadrants.append(((slice(0, w), slice(p - 1, None)),
                          (slice(size - p + 1, size), slice(0, p - 1))))
    circ = np.zeros(table.shape[:-2] + tuple(shape), dtype=complex)
    for (rows, rows_taken), (cols, cols_taken) in product(*quadrants):
        circ[..., rows, cols] = taken[..., rows_taken, cols_taken]
    kernel_hat = _fft2(circ, True, circ)
    buf = np.zeros(kernel_hat.shape, dtype=complex)
    spectrum = np.empty_like(buf)
    corner = buf[..., :weight.shape[0], :weight.shape[1]]
    result = spectrum[(Ellipsis,) + tuple(slice(out.stop - out.start) for out in window)]

    def apply(v):
        np.multiply(weight, v, out=corner)
        _fft2(buf, True, spectrum)
        np.multiply(spectrum, kernel_hat, out=spectrum)
        _fft2(spectrum, False, spectrum)
        return result

    return apply


def _gmres(apply, b: np.ndarray, residual, x0=None, accept=None):
    """Solve apply(x) = b by restarted GMRES from x0, or from x = 0; returns (x, iterations).

    A start x0 costs one apply more, for its residual b - apply(x0); a start
    that already meets the tolerance takes no step and is returned as is.
    residual(x) returns b - apply(x); it is called once per restart cycle,
    on the cycle's updated solution, so the caller can compute it from a
    product it needs anyway.  Arnoldi orthogonalizes by classical
    Gram-Schmidt applied twice (CGS2) into a preallocated column-major basis:
    each pass is one BLAS zgemv for the projection and one for the in-place
    update, and the solution update is one more.  The Givens rotations that
    keep the Hessenberg matrix triangular act on Python complex scalars.  A
    cycle ends when its Arnoldi residual estimate reaches the tolerance,
    after GMRES_RESTART steps, or at GMRES_MAX_ITER steps in all; the solve
    stops only when the true residual meets the tolerance 1e-12 |b|, when
    the steps run out or when it has stagnated (below), so round-off between
    estimate and truth restarts a cycle instead of passing unnoticed.

    accept is the absolute residual the caller's check accepts, by default
    the tolerance.  A solve has stagnated when, at the end of a cycle, even
    its average rate so far, (beta / beta_0) per s steps from the residual
    beta_0 it started from, cannot take the true residual beta below accept
    in the steps left: beta (beta / beta_0)^((GMRES_MAX_ITER - s) / s) >=
    accept.  Restarted GMRES can speed up or slow down from one cycle to
    the next, so one cycle's rate alone would cut slow but converging solves.
    A Krylov column whose norm is not finite, or a singular triangular
    factor of the cycle's least-squares problem, raises IllConditionedSystem.
    """
    tol = 1e-12 * dznrm2(b)
    if accept is None:
        accept = tol
    V = np.empty((b.size, GMRES_RESTART + 1), dtype=complex, order="F")
    R = np.zeros((GMRES_RESTART, GMRES_RESTART), dtype=complex)
    if x0 is None:
        x = np.zeros(b.size, dtype=complex)
        r = b
    else:
        x = np.array(x0, dtype=complex)
        r = b - apply(x)
    beta = beta0 = dznrm2(r)
    iterations = 0
    while beta > tol and iterations < GMRES_MAX_ITER:
        V[:, 0] = r / beta
        g = [complex(beta)]
        cs, sn = [], []
        for j in range(min(GMRES_RESTART, GMRES_MAX_ITER - iterations)):
            w = V[:, j + 1]
            w[:] = apply(V[:, j])
            basis = V[:, :j + 1]
            h = zgemv(1.0, basis, w, trans=2)
            zgemv(-1.0, basis, h, beta=1.0, y=w, overwrite_y=True)
            h2 = zgemv(1.0, basis, w, trans=2)
            zgemv(-1.0, basis, h2, beta=1.0, y=w, overwrite_y=True)
            h_norm = dznrm2(w)
            if not math.isfinite(h_norm):
                raise IllConditionedSystem(f"GMRES Krylov column {j + 1} is not finite")
            col = (h + h2).tolist()
            for i in range(j):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i].conjugate() * col[i])
            top = abs(col[j])
            rho = math.hypot(top, h_norm)
            c, s = (top / rho, col[j] / top * h_norm / rho) if top else (0.0, 1.0 + 0j)
            cs.append(c)
            sn.append(s)
            col[j] = c * col[j] + s * h_norm
            g.append(-s.conjugate() * g[j])
            g[j] *= c
            R[:j + 1, j] = col
            iterations += 1
            if abs(g[j + 1]) <= tol or h_norm == 0.0:
                break
            w /= h_norm
        m = len(cs)
        # the LAPACK call scipy.linalg.solve_triangular makes for this
        # C-ordered slice, the same bits without its argument handling
        y, info = ztrtrs(R[:m, :m].T, np.array(g[:m]), lower=1, trans=1)
        if info > 0:
            raise IllConditionedSystem(f"GMRES least-squares factor is singular at column {info}")
        zgemv(1.0, V[:, :m], y, beta=1.0, y=x, overwrite_y=True)
        r = residual(x)
        beta = dznrm2(r)
        # min: a residual that grew predicts no progress, and the power cannot overflow
        rate = min(beta / beta0, 1.0) ** ((GMRES_MAX_ITER - iterations) / iterations)
        if beta > tol and beta * rate >= accept:
            break
    return x, iterations


def _support_box(a: np.ndarray):
    """Grid slices of the bounding box of the nonzero entries of a; empty
    slices when a is zero everywhere."""
    rows = np.flatnonzero(np.any(a != 0, axis=1))
    cols = np.flatnonzero(np.any(a != 0, axis=0))
    if not rows.size:
        return slice(0, 0), slice(0, 0)
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def _window(grid: Grid2D, box, window):
    """The window's slices, the box's slices within it, and the shape of the
    offset lattice between the two.  A window is the whole grid (None) or
    box itself; any other raises ValueError."""
    if window is None:
        window = (slice(0, grid.n_nodes),) * 2
    elif window != box:
        raise ValueError(f"window {window} is neither None nor the support box {box}")
    inner = tuple(slice(b.start - w.start, b.stop - w.start) for b, w in zip(box, window))
    extent = tuple(max(b.stop - w.start, w.stop - b.start) for b, w in zip(box, window))
    return window, inner, extent


@np.errstate(over="ignore", invalid="ignore")
def solve_forward(coeff: Coefficient, k: float, start=None, window=None) -> np.ndarray:
    """Total field u on the nodes of window for one wavenumber.

    window is the whole grid (None) or the bounding box B
    (p x q nodes) of the nonzero quadrature mean, coeff.box.  The
    product a u vanishes off B, so the Nystrom equations on B alone,

        u_B - k^2 h^2 K_BB (a u)_B = u_in on B,

    are an exact subsystem.  GMRES solves it with one FFT pair per step, on
    a circulant of about (2p) x (2q) filled from the kernel table prescaled
    by k^2 h^2.  The box-to-window convolution c = k^2 h^2 K (a u_B) is the
    restart residual: its box nodes give r_B = u_in,B + c_B - u_B at the end
    of each GMRES cycle.  For the box window it is the GMRES product itself;
    for the whole grid it is a circulant of about (n + p) x (n + q) from a
    table of only the offsets between B and the grid.  The last one
    extends the field by the representation formula, u = u_in + c off B
    and u = u_B on B, and gives the residual |u - c - u_in| / |u_in| over
    the window.  |u_in| is the whole grid's, and the residual of the
    extended field is zero off B by construction, so the check bounds the
    residual of the whole-grid system on either window; a solve whose
    residual is not below RESIDUAL_BOUND raises IllConditionedSystem.
    Since the restart residual is that residual, GMRES gets the bound
    RESIDUAL_BOUND |u_in| as the residual it must reach and stops at the
    first restart whose average rate cannot reach it in the steps left; the
    error then says that GMRES stagnated and after how many steps.  A
    quadrature mean that is not finite everywhere, or a Krylov column that
    overflows, raises IllConditionedSystem before any step uses it; so an
    overflow is reported by that error, not by a floating-point warning.

    start, if given, is a first guess of u on B (p x q) that GMRES starts
    from instead of zero.
    """
    if not 0 < k < math.inf:
        raise ValueError(f"wavenumber must be positive and finite, got {k}")
    grid = coeff.grid
    n = grid.n_nodes
    u_in = np.broadcast_to(IncidentWave.field(grid.nodes[:, None], k), (n, n))
    a = coeff.quadrature_mean()
    if not np.all(np.isfinite(a)):
        raise IllConditionedSystem(f"scattering solve at k={k}: coefficient is not finite "
                                   f"at {int(np.sum(~np.isfinite(a)))} nodes")
    box = coeff.box
    window, inner, extent = _window(grid, box, window)
    if not np.any(a):
        return u_in[window].copy()

    a_box = a[box]
    p, q = a_box.shape
    table = (k * k * grid.h ** 2) * _kernel_table(grid, k, extent)
    box_product = _offset_product(table, a_box, box, box)
    extension = box_product if window == box else _offset_product(table, a_box, box, window)
    c = None

    def apply(v):
        v = v.reshape(p, q)
        return (v - box_product(v)).ravel()

    def residual(x):
        # for the box window c is box_product's buffer, which the next apply
        # overwrites; GMRES returns right after its last residual call
        nonlocal c
        x = x.reshape(p, q)
        c = extension(x)
        return (u_in[box] + c[inner] - x).ravel()

    in_norm = np.linalg.norm(u_in)
    try:
        u_box, iterations = _gmres(apply, u_in[box].ravel(), residual,
                                   None if start is None else start.ravel(),
                                   RESIDUAL_BOUND * in_norm)
    except IllConditionedSystem as exc:
        raise IllConditionedSystem(f"scattering solve at k={k}: {exc}") from None
    if c is None:  # the start met the tolerance, so no cycle extended it
        residual(u_box)
    u = u_in[window] + c
    u[inner] = u_box.reshape(p, q)
    resid = np.linalg.norm(u - c - u_in[window]) / in_norm
    if not resid < RESIDUAL_BOUND:  # also true for a non-finite u, whose residual is nan or inf
        stopped = (f"stagnated after {iterations} of {GMRES_MAX_ITER}"
                   if iterations < GMRES_MAX_ITER and math.isfinite(resid)
                   else f"stopped after {iterations}")
        raise IllConditionedSystem(
            f"scattering solve at k={k}: GMRES {stopped} iterations "
            f"with relative residual {resid:.2e}"
        )
    return u


def solve_forward_multi(coeff: Coefficient, kgrid: KGrid, window=None) -> np.ndarray:
    """Fields on window for all wavenumber midpoints, stacked as (n_k, rows, columns).

    window is solve_forward's: the whole grid (None), the
    default, or the support box coeff.box.  Each field is either a
    solve_forward solve or an interpolant in k that passes solve_forward's
    residual check.  solve_forward runs at nested Chebyshev-Lobatto nodes of
    [first midpoint, last midpoint] and the other midpoints are interpolated
    on the window's nodes (_chebyshev_fields).  One loop then solves every
    midpoint left without a field directly, in ascending k, and the first of
    them that fails raises its IllConditionedSystem: the interpolants that
    fail the residual check, or every midpoint not yet solved when u/u_in is
    not resolved by a level with fewer nodes than midpoints or a node after
    the first fails to solve.  The first node is the first midpoint, so a
    system that stalls at the lowest wavenumber raises on the first solve,
    as the midpoint-by-midpoint loop did.  A midpoint whose interpolant
    passes the check is not solved, so its own solve cannot fail.  Direct
    midpoint solves start from zero, so each equals
    solve_forward(coeff, k, None, window).
    """
    ks = kgrid.midpoints
    levels = [m for m in K_LEVELS if m + 1 < ks.size]
    fields = {}
    if levels and np.any(coeff.quadrature_mean()):
        _chebyshev_fields(coeff, ks, levels, fields, window)
    for m, k in enumerate(ks):
        if m not in fields:
            fields[m] = solve_forward(coeff, k, None, window)
    return np.stack([fields[m] for m in range(ks.size)])


def _barycentric(x: np.ndarray, f: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Interpolant at targets of the values f[j] at the Chebyshev-Lobatto points x[j].

    The barycentric formula of the second kind with weights (-1)^j, halved at
    both ends; the results are stacked along a first axis of targets.size.
    """
    w = np.where(np.arange(x.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    cauchy = w / (targets[:, None] - x[None, :])
    weights = cauchy / cauchy.sum(axis=1, keepdims=True)
    return (weights @ f.reshape(x.size, -1)).reshape((targets.size,) + f.shape[1:])


def _chebyshev_fields(coeff: Coefficient, ks: np.ndarray, levels, fields: dict, window) -> None:
    """Fill fields (midpoint index -> field on window) from solves at
    Chebyshev-Lobatto nodes in k.

    Level m has the m + 1 nodes c - r cos(pi j / m), j = 0..m, of
    [ks[0], ks[-1]], and each level's nodes include the previous level's,
    so only the new ones are solved, in ascending k.  The first level's
    nodes start GMRES from zero; every node a later level adds starts from
    the previous level's interpolant of u/u_in times u_in on the support
    box, which is already close to the solution.  One DCT-I over a level's
    nodes gives the Chebyshev coefficients of u/u_in on every window node;
    the level is accepted when the last two are at most RESIDUAL_BOUND
    max |u/u_in|.  If the decay down to them, extrapolated geometrically,
    needs more than levels[-1] intervals, or a node after the first fails to
    solve, this returns with only the nodes that are midpoints in fields.
    On acceptance every other midpoint gets the barycentric interpolant of
    u/u_in times u_in, checked against solve_forward's residual bound
    (_interpolation_residuals); only the fields that pass it are kept.
    """
    grid = coeff.grid
    box = coeff.box
    slices, inner, _ = _window(grid, box, window)
    x2 = grid.nodes[slices[0], None]
    finest = K_LEVELS[-1]
    nodes = 0.5 * (ks[0] + ks[-1]) - 0.5 * (ks[-1] - ks[0]) * np.cos(
        np.pi * np.arange(finest + 1) / finest)
    nodes[[0, -1]] = ks[[0, -1]]
    midpoint = {k: m for m, k in enumerate(ks.tolist())}
    ratio = {}
    taken = None
    for level in levels:
        coarse, taken = taken, range(0, finest + 1, finest // level)
        new = [j for j in taken if j not in ratio]
        starts = [None] * len(new)
        if coarse is not None:
            starts = _barycentric(nodes[coarse], f[(Ellipsis,) + inner], nodes[new])
            starts *= IncidentWave.field(grid.nodes[box[0], None], nodes[new][:, None, None])
        for j, start in zip(new, starts):
            try:
                u = solve_forward(coeff, nodes[j], start, window)
            except IllConditionedSystem:
                if j == 0:  # the first midpoint: the per-midpoint loop fails here too
                    raise
                return
            if nodes[j] in midpoint:
                fields[midpoint[nodes[j]]] = u
            ratio[j] = u / IncidentWave.field(x2, nodes[j])
        f = np.stack([ratio[j] for j in taken])
        cheb = np.abs(dct(f, type=1, axis=0)).max(axis=(1, 2)) / level
        tail = max(cheb[-2], cheb[-1] / 2) / np.abs(f).max()
        if tail <= RESIDUAL_BOUND:
            break
        if tail >= 1 or level * math.log(RESIDUAL_BOUND) / math.log(tail) > levels[-1]:
            return
    else:
        return

    missing = [m for m in range(ks.size) if m not in fields]
    interpolated = _barycentric(nodes[taken], f, ks[missing])
    interpolated *= IncidentWave.field(x2, ks[missing][:, None, None])
    resid = _interpolation_residuals(coeff, ks[missing], interpolated, window)
    # a non-finite residual fails the check too
    fields.update((m, u) for m, u, ok in zip(missing, interpolated, resid < RESIDUAL_BOUND) if ok)


def _interpolation_residuals(coeff: Coefficient, ks: np.ndarray, fields: np.ndarray,
                             window) -> np.ndarray:
    """solve_forward's residual |u - k^2 h^2 K(a u_B) - u_in| / |u_in| per
    field of the stack, each field on window (None: the whole grid).

    As in solve_forward, the difference is taken over the window and the
    norm of u_in over the whole grid.  The box-to-window products run in
    chunks of wavenumbers, each from one Bessel table evaluation on the
    offsets the window needs, one batch of circulants and one FFT pair
    (_offset_product of a stacked table), with at most _CHUNK_ENTRIES
    circulant entries per chunk.
    """
    grid = coeff.grid
    n = grid.n_nodes
    box = coeff.box
    window, inner, extent = _window(grid, box, window)
    a_box = coeff.quadrature_mean()[box]
    entries = math.prod(next_fast_len(w.stop - w.start + b.stop - b.start - 1)
                        for b, w in zip(box, window))
    chunk = max(1, _CHUNK_ENTRIES // entries)
    resid = np.empty(ks.size)
    for s in range(0, ks.size, chunk):
        k = ks[s:s + chunk]
        table = (k * k * grid.h ** 2)[:, None, None] * _kernel_table(grid, k, extent)
        extension = _offset_product(table, a_box, box, window)
        u = fields[s:s + chunk]
        u_in = IncidentWave.field(grid.nodes[:, None], k[:, None, None])
        c = extension(u[(Ellipsis,) + inner])
        resid[s:s + chunk] = (np.linalg.norm(u - c - u_in[:, window[0]], axis=(1, 2))
                              / np.linalg.norm(np.broadcast_to(u_in, (k.size, n, n)), axis=(1, 2)))
    return resid


def trace_cauchy(fields: np.ndarray, coeff: Coefficient, kgrid: KGrid) -> CauchyData:
    """Cauchy traces (g0, g1) on the top boundary from fields on the support box.

    fields are the (n_k, p, q) values of u on the bounding box B of the
    nonzero quadrature mean, solve_forward_multi(coeff, kgrid, B).  Both
    traces are the incident wave's plus the representation formula's,

        g0 = u_in + k^2 h^2 sum_y K(x - y) a(y) u(y),   K = (i/4) H0^(1)(k r),
        g1 = d u_in / dx2 + k^2 h^2 sum_y dK(x - y) a(y) u(y),
        dK = -(i/4) k H1^(1)(k r) (x2 - y2) / r,

    so g0 is the top row a solve would extend the field to.  On the uniform
    grid K and dK depend only on the lattice offset between a top row node
    and a support node: the row offset di from the support row up to the
    boundary and the column offset |dj|.  Both kernels are evaluated by
    H0 = J0 + i Y0 and H1 = J1 + i Y1 once per wavenumber and distinct
    radius r = hypot(di, |dj|) and gathered onto the circulant entries: the
    same bits as one evaluation per offset.  Radii are grouped by the float
    np.hypot returns, not by di^2 + dj^2, since sqrt(di^2 + dj^2) and hypot
    differ in the last bit on some offsets.  Each (wavenumber, support row) pair
    is then a Toeplitz product from the box columns to every column, and
    per kernel all of them run as one batched 1D FFT convolution whose
    spectra are summed over the support rows before the inverse transform.
    The support must stay below the boundary, so di >= 1 and every r is
    strictly positive; support on the top row itself would put the kernels'
    singularity on a measurement node and is refused.  A null scatterer has
    no box, takes fields of shape (n_k, 0, 0) and has the incident traces.
    """
    grid = coeff.grid
    n = grid.n_nodes
    mean = coeff.quadrature_mean()
    support = np.any(mean != 0, axis=1)
    if support[grid.gamma_row]:
        raise ValueError(
            f"coefficient support reaches the measurement row i = {grid.gamma_row} "
            f"(x2 = {grid.half_width}), where the trace kernel is singular"
        )
    box = coeff.box
    shape = (kgrid.n_sub, box[0].stop - box[0].start, box[1].stop - box[1].start)
    fields = np.asarray(fields)
    if fields.shape != shape:
        raise ValueError(f"fields must have shape (n_k, box rows, box columns) = {shape}, "
                         f"got {fields.shape}")

    k = kgrid.midpoints
    u_in = IncidentWave.field(grid.half_width, k)
    g0 = np.tile(u_in, (n, 1))
    g1 = np.tile(1j * k * IncidentWave.direction[1] * u_in, (n, 1))
    rows = np.flatnonzero(support[box[0]])
    if rows.size:
        di = (grid.gamma_row - box[0].start - rows)[:, None]
        # top-row column j and box column c0 + i are |j - i - c0| apart; the
        # circulant holds that offset at e = j - i in 1-q..n-1, e < 0 wrapped.
        # index maps each circulant entry to its distinct radius, and the
        # entries that hold no offset to an appended zero kernel value
        c0, q = box[1].start, shape[2]
        size = next_fast_len(n + q - 1)
        e = np.r_[0:n, 1 - q:0]
        rho = np.hypot(di, np.abs(e - c0)[None, :])
        radii, inverse = np.unique(rho.ravel(), return_inverse=True)
        index = np.full((rows.size, size), radii.size)
        index[:, e % size] = inverse.reshape(rho.shape)
        ratio = np.zeros((rows.size, size))
        ratio[:, e % size] = di / rho
        ks = k[:, None]
        kr = (ks * grid.h) * radii
        kernels = np.zeros((2, k.size, radii.size + 1), dtype=complex)
        kernels[0, :, :-1] = (0.25j * grid.h ** 2) * ks ** 2 * (j0(kr) + 1j * y0(kr))
        kernels[1, :, :-1] = (-0.25j * grid.h ** 2) * ks ** 3 * (j1(kr) + 1j * y1(kr))
        au_hat = fft(mean[box][rows] * fields[:, rows, :], size)
        circs = np.take(kernels, index, axis=2)
        circs[1] *= ratio
        for g, circ in zip((g0, g1), circs):
            g += ifft(np.einsum("mrf,mrf->mf", fft(circ), au_hat))[:, :n].T
    return CauchyData(grid=grid, kgrid=kgrid, g0=g0, g1=g1, noise_level=0.0, seed=None)


def _trapezoid_weights(cd: CauchyData) -> np.ndarray:
    wx = np.full(cd.grid.n_nodes, cd.grid.h)
    wx[0] = wx[-1] = cd.grid.h / 2
    wk = np.full(cd.kgrid.n_sub, cd.kgrid.h_k)
    wk[0] = wk[-1] = cd.kgrid.h_k / 2
    return wx[:, None] * wk[None, :]


def add_noise(cd: CauchyData, delta: float, seed: int | None = None) -> CauchyData:
    """Perturb each trace by delta times its L2 norm in a unit-norm direction.

    The random fields have independent uniform real and imaginary parts and
    are normalized in the trapezoid-weighted L2 norm over boundary x k, so
    the relative perturbation equals delta exactly.  Deterministic per seed.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"noise level must be finite and nonnegative, got {delta}")
    if delta == 0:
        return cd
    rng = np.random.default_rng(seed)
    weights = _trapezoid_weights(cd)

    def unit_field(shape):
        z = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        return z / np.sqrt(np.sum(weights * np.abs(z) ** 2))

    norm0 = np.sqrt(np.sum(weights * np.abs(cd.g0) ** 2))
    norm1 = np.sqrt(np.sum(weights * np.abs(cd.g1) ** 2))
    g0 = cd.g0 + delta * norm0 * unit_field(cd.g0.shape)
    g1 = cd.g1 + delta * norm1 * unit_field(cd.g1.shape)
    return replace(cd, g0=g0, g1=g1, noise_level=delta, seed=seed)
