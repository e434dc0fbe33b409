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
BLAS calls per step.  One more convolution, from the box to the grid, is
the restart residual at the end of each GMRES cycle; the last one extends
the field to the whole grid and checks the full-grid residual.  A solve
whose restart residuals show that it cannot pass that check in the steps
left ends at once and raises IllConditionedSystem.  Both products, and the
trace kernel, take their Hankel values from the real-argument Bessel
functions H_m = J_m + i Y_m; the products' kernel table evaluates H_0 once
per distinct lattice radius, from an index of the offsets built once per
grid size, and gathers it onto the offsets, the same bits as one
evaluation per offset.  The products' FFTs call scipy's pocketfft kernel
directly (_fft2), with the scaling and the single thread scipy.fft.fft2 and
ifft2 use, so the values are the same bits without the public functions'
per-call argument handling; and each product keeps its zero-padded input
and its spectrum buffer across calls, so a GMRES step allocates no array
for its FFT pair.

u/u_in is analytic in k, so the fields at all wavenumber midpoints come from
solves at nested Chebyshev-Lobatto nodes in k (5, 10, 20 or 40 intervals
over [first midpoint, last midpoint]) and barycentric interpolation, as in
L. N. Trefethen, Approximation Theory and Approximation Practice (2013).  A
level is accepted when its last two Chebyshev coefficients, from one DCT-I,
are at the residual bound; every interpolated field must then pass the same
full-grid residual check as a solve, computed for a chunk of wavenumbers at
a time, or it is solved directly.  Data not resolved with fewer nodes than
midpoints are solved midpoint by midpoint, as are grids of at most six
midpoints.  A failed solve raises its IllConditionedSystem unchanged, and the
lowest midpoint is always solved first.

Two reuses make the repeated stacks of an inversion cheaper.  Each node a
finer level adds starts GMRES from the coarser level's interpolant, which is
already close to its field; the first level's nodes and every midpoint
solved directly start from zero, so those fields equal solve_forward's.  And
the box-to-box spectrum of each node and the box-to-grid spectra of the
residual check depend on the wavenumbers and the support box only, so an
inversion keeps them in one KernelStore across its re-solves; the store
holds one box and empties when the box changes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy.fft import dct, fft, ifft, next_fast_len
from scipy.fft._pocketfft.pypocketfft import c2c
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dznrm2, zgemv
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
# Relative full-grid residual a field must be below, solved or interpolated
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
# or 5 node rows of the 5 x 5 probe at 224 cells, so the quadrature's
# memory does not grow with the interface; all cut cells of example2b at
# once take 14.5 MB per array at 56 cells and 59 MB at 224.  A block's
# temporaries then fit in a 2 MB L2 cache: on a 2-core Xeon, rasterizing
# example2b at 28 and 56 cells took about 13 ms, against 25 ms with 1 MB
# blocks or all cut cells at once.
_RASTER_BLOCK = 1 << 15


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

    def contains(self, x1, x2):
        d1 = np.asarray(x1) - self.center[0]
        d2 = np.asarray(x2) - self.center[1]
        return d1 * d1 + d2 * d2 <= self.radius * self.radius


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


@dataclass(frozen=True)
class Coefficient:
    """Real coefficient field a(x) on grid nodes, values[i, j] at (x1_j, x2_i).

    cell_mean, when present, carries the average of a over each node's cell,
    integrated from the shape geometry.  The solver uses it as the quadrature
    mass of the cell so that interface cells contribute their true area;
    point values stay crisp membership samples.  Without it (coefficients
    produced by the inversion itself) the node value stands in for the mean.
    """

    grid: Grid2D
    values: np.ndarray
    cell_mean: np.ndarray | None = None

    def quadrature_mean(self) -> np.ndarray:
        return self.values if self.cell_mean is None else self.cell_mean


def _stack_values(shapes, x1, x2):
    vals = np.zeros(np.broadcast(x1, x2).shape)
    for shape in shapes:
        vals[shape.contains(x1, x2)] = shape.value
    return vals


def _cell_averages(shapes, grid: Grid2D, values: np.ndarray, n_sub: int = 128) -> np.ndarray:
    """Average each shape stack over every node's h x h cell.

    Cells are probed on a coarse 5x5 pattern; only cells the interface cuts
    get the dense n_sub x n_sub midpoint average.  Both passes go through
    the grid in blocks of at most _RASTER_BLOCK sample points, the probe by
    node rows and the average by cut cells, so the arrays stay the same
    size however long the interface is.  Each cell's samples, membership
    tests and mean are the same expressions as over the whole grid at once.
    """
    X1, X2 = grid.mesh()
    probe = np.linspace(-0.5, 0.5, 5) * grid.h
    cut = np.empty(values.shape, dtype=bool)
    rows = max(1, _RASTER_BLOCK // (probe.size ** 2 * grid.n_nodes))
    for i in range(0, grid.n_nodes, rows):
        p1 = X1[i:i + rows, :, None, None] + probe[None, None, :, None]
        p2 = X2[i:i + rows, :, None, None] + probe[None, None, None, :]
        probed = _stack_values(shapes, p1, p2)
        cut[i:i + rows] = probed.max(axis=(2, 3)) != probed.min(axis=(2, 3))

    mean = values.astype(float).copy()
    x1, x2 = X1[cut], X2[cut]
    averages = np.empty(x1.size)
    sub = ((np.arange(n_sub) + 0.5) / n_sub - 0.5) * grid.h
    cells = max(1, _RASTER_BLOCK // n_sub ** 2)
    for c in range(0, x1.size, cells):
        s1 = x1[c:c + cells, None, None] + sub[None, :, None]
        s2 = x2[c:c + cells, None, None] + sub[None, None, :]
        averages[c:c + cells] = _stack_values(shapes, s1, s2).mean(axis=(1, 2))
    mean[cut] = averages
    return mean


def rasterize(shapes, grid: Grid2D) -> Coefficient:
    """Sample shapes onto the grid by node-center membership, later shapes winning.

    Enforces the synthetic-truth contract: nonnegative values and no support
    on the domain boundary.
    """
    X1, X2 = grid.mesh()
    values = _stack_values(shapes, X1, X2)
    cell_mean = _cell_averages(shapes, grid, values)
    if np.any(values < 0):
        raise ValueError(f"synthetic coefficient must be nonnegative, got {float(values.min())!r}")
    edge = np.zeros_like(values, dtype=bool)
    edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
    bad = edge & ((values != 0) | (cell_mean != 0))
    if np.any(bad):
        ii, jj = np.nonzero(bad)
        where = ", ".join(f"(i={i + 1}, j={j + 1})" for i, j in zip(ii[:5], jj[:5]))
        raise ValueError(
            f"support touches the domain boundary at {ii.size} nodes, first at {where}"
        )
    return Coefficient(grid=grid, values=values, cell_mean=cell_mean)


class IncidentWave:
    """Plane wave exp(ik(d1 x1 + d2 x2)) with the fixed direction d = (0, -1),
    for which the log transform and the recovery formula are derived."""

    direction = (0.0, -1.0)

    def field(self, x1, x2, k):
        d1, d2 = self.direction
        return np.exp(1j * k * (d1 * np.asarray(x1) + d2 * np.asarray(x2)))

    def dx2(self, x1, x2, k):
        return 1j * k * self.direction[1] * self.field(x1, x2, k)


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
def _lattice_radii(n: int):
    """Distinct nonzero radii of the n x n offset lattice, and where each offset reads.

    H0(k h r) depends on an offset (di, dj) only through r^2 = di^2 + dj^2,
    which takes far fewer values than there are offsets (1267 of 3248 at
    n = 57).  Returns sqrt of the sorted distinct nonzero r^2 and the (n, n)
    index of each offset into [self cell, radii...]; both are read-only,
    since the cache hands the same arrays to every caller.
    """
    off = np.arange(n)
    r2, index = np.unique((off[:, None] ** 2 + off[None, :] ** 2).ravel(), return_inverse=True)
    radii = np.sqrt(r2[1:])
    index = index.reshape(n, n)
    radii.flags.writeable = index.flags.writeable = False
    return radii, index


def _kernel_table(grid: Grid2D, k) -> np.ndarray:
    """Kernel value (i/4)H0(k r) by absolute index offset (di, dj).

    H0 = J0 + i Y0 is evaluated from the real-argument Bessel functions once
    per distinct lattice radius (_lattice_radii, one index per lattice size)
    and gathered onto the offsets, the same bits as an evaluation on every
    offset.  Entry (0, 0) holds the cell average of the small-argument
    expansion over the equal-area disk of radius rho0 = h/sqrt(pi), so
    multiplying the whole table by the uniform weight h^2 yields the
    corrected Nystrom weights.  For an array of wavenumbers the tables are
    stacked along its axes, from one Bessel evaluation.
    """
    radii, index = _lattice_radii(grid.n_nodes)
    k = np.asarray(k, dtype=float)[..., None]
    kr = (k * grid.h) * radii
    values = np.empty(k.shape[:-1] + (1 + radii.size,), dtype=complex)
    rho0 = grid.h / np.sqrt(np.pi)
    values[..., :1] = 0.25j - _EULER_GAMMA / (2 * np.pi) - (np.log(k * rho0 / 2) - 0.5) / (2 * np.pi)
    values[..., 1:] = 0.25j * (j0(kr) + 1j * y0(kr))
    return np.take(values, index, axis=-1)


def _circulant_spectrum(table: np.ndarray, source, window) -> np.ndarray:
    """FFT of the zero-padded circulant that carries table from source to window.

    Along an axis where the source has p nodes starting at s and the window
    w nodes starting at t, the output reads the offsets t - s + e for
    e = -(p-1)..w-1.  Entry table[|t - s + e|] sits at position e of a
    zero-padded circulant of length at least w + p - 1, so one FFT pair
    gives the product exactly: no wrapped-around offset reaches the w-node
    corner read back.  The circulant is filled from one take of the table
    rows and one of its columns, placed by four slices: e >= 0 at the start
    of an axis, e < 0 wrapped to its end.  A table with leading axes (one
    table per wavenumber) gives a stack of spectra with the same leading
    axes.  The spectrum depends on the box and the wavenumbers only, not on
    the coefficient values, so it can be kept across solves (KernelStore).
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
    return _fft2(circ, True, circ)


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


def _circulant_product(kernel_hat: np.ndarray, weight: np.ndarray, window):
    """Product v -> T (weight v) from the spectrum of T's circulant
    (_circulant_spectrum); weight and v have the source's shape.

    The zero-padded input buffer and the spectrum buffer are allocated once
    per product, not per call: each call writes weight v into the corner of
    the input buffer, transforms it into the spectrum buffer, multiplies by
    kernel_hat and inverts in place.  The result is a view of the window in
    the spectrum buffer, so the next call overwrites it; use it before then.
    """
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


class KernelStore:
    """Kernel spectra of one support box, kept across the re-solves of one inversion.

    It holds each Chebyshev node's box-to-box spectrum (solve_forward) and
    the box-to-grid spectra of the residual-checked midpoints
    (_interpolation_residuals), keyed by their wavenumbers.  A spectrum
    depends on the grid, the wavenumbers and the support box only, so a
    stored one is the array a solve would compute.  The store holds one box
    at a time and empties itself when the box changes; it assumes one grid.
    """

    def __init__(self):
        self.box = None
        self.spectra = {}

    def get(self, box, key, make):
        """The spectrum under key for this box, from make() the first time."""
        if box != self.box:
            self.box = box
            self.spectra.clear()
        if key not in self.spectra:
            self.spectra[key] = make()
        return self.spectra[key]


def _spectrum(store, box, key, make):
    return make() if store is None else store.get(box, key, make)


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
    A Krylov column whose norm is not finite raises IllConditionedSystem.
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
        y = solve_triangular(R[:m, :m], np.array(g[:m]))
        zgemv(1.0, V[:, :m], y, beta=1.0, y=x, overwrite_y=True)
        r = residual(x)
        beta = dznrm2(r)
        # min: a residual that grew predicts no progress, and the power cannot overflow
        rate = min(beta / beta0, 1.0) ** ((GMRES_MAX_ITER - iterations) / iterations)
        if beta > tol and beta * rate >= accept:
            break
    return x, iterations


def _incident_column(grid: Grid2D, k):
    """u_in on one column of nodes; for d = (0, -1) it is constant along each row."""
    return IncidentWave().field(0.0, grid.nodes[:, None], k)


def _support_box(a: np.ndarray):
    """Grid slices of the bounding box of the nonzero entries of a."""
    rows = np.flatnonzero(np.any(a != 0, axis=1))
    cols = np.flatnonzero(np.any(a != 0, axis=0))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


@np.errstate(over="ignore", invalid="ignore")
def solve_forward(coeff: Coefficient, k: float, start=None, store=None) -> np.ndarray:
    """Total field u on every grid node for one wavenumber.

    The product a u vanishes off the bounding box B (p x q nodes) of the
    nonzero quadrature mean, so the Nystrom equations on B alone,

        u_B - k^2 h^2 K_BB (a u)_B = u_in on B,

    are an exact subsystem.  GMRES solves it with one FFT pair per step, on
    a circulant of about (2p) x (2q) filled from the kernel table prescaled
    by k^2 h^2.  The box-to-grid convolution c = k^2 h^2 K (a u_B), on a
    circulant of about (n + p) x (n + q), is the restart residual: its box
    window gives r_B = u_in,B + c_B - u_B at the end of each GMRES cycle.
    The last one extends the field, u = u_in + c off B and u = u_B on B,
    and gives the residual of the full-grid system, |u - c - u_in| / |u_in|,
    which is zero off B by construction and the box residual on B; a solve
    whose residual is not below RESIDUAL_BOUND raises IllConditionedSystem.
    Since the restart residual is the full-grid residual, GMRES gets the
    bound RESIDUAL_BOUND |u_in| as the residual it must reach and stops at
    the first restart whose average rate cannot reach it in the steps left;
    the error then says that GMRES stagnated and after how many steps.  A
    quadrature mean that is not finite everywhere, or a Krylov column that
    overflows, raises IllConditionedSystem before any step uses it; so an
    overflow is reported by that error, not by a floating-point warning.

    start, if given, is a first guess of u on B (p x q) that GMRES starts
    from instead of zero.  store, a KernelStore, keeps the box-to-box
    spectrum for the next solve at this k on the same box; the box-to-grid
    spectrum is built per solve.
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    grid = coeff.grid
    n = grid.n_nodes
    u_in = np.broadcast_to(_incident_column(grid, k), (n, n))
    a = coeff.quadrature_mean()
    if not np.all(np.isfinite(a)):
        raise IllConditionedSystem(f"scattering solve at k={k}: coefficient is not finite "
                                   f"at {int(np.sum(~np.isfinite(a)))} nodes")
    if not np.any(a):
        return u_in.copy()

    box = _support_box(a)
    a_box = a[box]
    p, q = a_box.shape
    table = (k * k * grid.h ** 2) * _kernel_table(grid, k)
    box_hat = _spectrum(store, box, ("box", k), lambda: _circulant_spectrum(table, box, box))
    box_product = _circulant_product(box_hat, a_box, box)
    full = (slice(0, n), slice(0, n))
    extension = _circulant_product(_circulant_spectrum(table, box, full), a_box, full)
    c = None

    def apply(v):
        v = v.reshape(p, q)
        return (v - box_product(v)).ravel()

    def residual(x):
        nonlocal c
        x = x.reshape(p, q)
        c = extension(x)
        return (u_in[box] + c[box] - x).ravel()

    in_norm = np.linalg.norm(u_in)
    try:
        u_box, iterations = _gmres(apply, u_in[box].ravel(), residual,
                                   None if start is None else start.ravel(),
                                   RESIDUAL_BOUND * in_norm)
    except IllConditionedSystem as exc:
        raise IllConditionedSystem(f"scattering solve at k={k}: {exc}") from None
    if c is None:  # the start met the tolerance, so no cycle extended it
        residual(u_box)
    u = u_in + c
    u[box] = u_box.reshape(p, q)
    resid = np.linalg.norm(u - c - u_in) / in_norm
    if not resid < RESIDUAL_BOUND:  # also true for a non-finite u, whose residual is nan or inf
        stopped = (f"stagnated after {iterations} of {GMRES_MAX_ITER}"
                   if iterations < GMRES_MAX_ITER and math.isfinite(resid)
                   else f"stopped after {iterations}")
        raise IllConditionedSystem(
            f"scattering solve at k={k}: GMRES {stopped} iterations "
            f"with relative residual {resid:.2e}"
        )
    return u


def solve_forward_multi(coeff: Coefficient, kgrid: KGrid, store=None) -> np.ndarray:
    """Fields for all wavenumber midpoints, stacked as (n_k, n_nodes, n_nodes).

    Each field is either a solve_forward solve or an interpolant in k that
    passes solve_forward's residual bound.  solve_forward runs at nested
    Chebyshev-Lobatto nodes of [first midpoint, last midpoint] and the
    other midpoints are interpolated (_chebyshev_fields).  One loop then
    solves every midpoint left without a field directly, in ascending k,
    and the first of them that fails raises its IllConditionedSystem: the
    interpolants that fail the residual check, or every midpoint not yet
    solved when u/u_in is not resolved by a level with fewer nodes than
    midpoints or a node after the first fails to solve.  The first node is
    the first midpoint, so a system that stalls at the lowest wavenumber
    raises on the first solve, as the midpoint-by-midpoint loop did.  A
    midpoint whose interpolant passes the check is not solved, so its own
    solve cannot fail.  Direct midpoint solves start from zero and use no
    store, so each equals solve_forward(coeff, k).  store, a KernelStore,
    keeps the node and residual-check spectra for the next call on the same
    support box; the result does not depend on it.
    """
    ks = kgrid.midpoints
    levels = [m for m in K_LEVELS if m + 1 < ks.size]
    fields = {}
    if levels and np.any(coeff.quadrature_mean()):
        _chebyshev_fields(coeff, ks, levels, fields, store)
    for m, k in enumerate(ks):
        if m not in fields:
            fields[m] = solve_forward(coeff, k)
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


def _chebyshev_fields(coeff: Coefficient, ks: np.ndarray, levels, fields: dict,
                      store=None) -> None:
    """Fill fields (midpoint index -> field) from solves at Chebyshev-Lobatto nodes in k.

    Level m has the m + 1 nodes c - r cos(pi j / m), j = 0..m, of
    [ks[0], ks[-1]], and each level's nodes include the previous level's,
    so only the new ones are solved, in ascending k.  The first level's
    nodes start GMRES from zero; every node a later level adds starts from
    the previous level's interpolant of u/u_in times u_in on the support
    box, which is already close to the solution.  One DCT-I over a level's
    nodes gives the Chebyshev coefficients of u/u_in on every grid node; the
    level is accepted when the last two are at most RESIDUAL_BOUND
    max |u/u_in|.  If the decay down to them, extrapolated geometrically,
    needs more than levels[-1] intervals, or a node after the first fails to
    solve, this returns with only the nodes that are midpoints in fields.
    On acceptance every other midpoint gets the barycentric interpolant of
    u/u_in times u_in, checked against the full-grid residual bound
    (_interpolation_residuals); only the fields that pass it are kept.
    store is passed to the node solves and the check.
    """
    grid = coeff.grid
    box = _support_box(coeff.quadrature_mean())
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
            starts = _barycentric(nodes[coarse], f[(Ellipsis,) + box], nodes[new])
            starts *= _incident_column(grid, nodes[new][:, None, None])[:, box[0]]
        for j, start in zip(new, starts):
            try:
                u = solve_forward(coeff, nodes[j], start, store)
            except IllConditionedSystem:
                if j == 0:  # the first midpoint: the per-midpoint loop fails here too
                    raise
                return
            if nodes[j] in midpoint:
                fields[midpoint[nodes[j]]] = u
            ratio[j] = u / _incident_column(grid, nodes[j])
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
    interpolated *= _incident_column(grid, ks[missing][:, None, None])
    resid = _interpolation_residuals(coeff, ks[missing], interpolated, store)
    # a non-finite residual fails the check too
    fields.update((m, u) for m, u, ok in zip(missing, interpolated, resid < RESIDUAL_BOUND) if ok)


def _interpolation_residuals(coeff: Coefficient, ks: np.ndarray, fields: np.ndarray,
                             store=None) -> np.ndarray:
    """|u - k^2 h^2 K(a u) - u_in| / |u_in| on the full grid, per field of the stack.

    The box-to-grid products run in chunks of wavenumbers, each from one
    Bessel table evaluation, one batch of circulants and one FFT pair
    (_circulant_spectrum of a stacked table), with at most _CHUNK_ENTRIES
    circulant entries per chunk.  store, a KernelStore, keeps each chunk's
    spectra, so a later call with the same wavenumbers and box skips the
    table and the circulants.
    """
    grid = coeff.grid
    n = grid.n_nodes
    a = coeff.quadrature_mean()
    box = _support_box(a)
    a_box = a[box]
    full = (slice(0, n), slice(0, n))
    entries = next_fast_len(n + a_box.shape[0] - 1) * next_fast_len(n + a_box.shape[1] - 1)
    chunk = max(1, _CHUNK_ENTRIES // entries)
    resid = np.empty(ks.size)
    for s in range(0, ks.size, chunk):
        k = ks[s:s + chunk]

        def spectra():
            table = (k * k * grid.h ** 2)[:, None, None] * _kernel_table(grid, k)
            return _circulant_spectrum(table, box, full)

        kernel_hat = _spectrum(store, box, ("grid",) + tuple(k.tolist()), spectra)
        extension = _circulant_product(kernel_hat, a_box, full)
        u = fields[s:s + chunk]
        u_in = np.broadcast_to(_incident_column(grid, k[:, None, None]), u.shape)
        c = extension(u[(Ellipsis,) + box])
        resid[s:s + chunk] = (np.linalg.norm(u - c - u_in, axis=(1, 2))
                              / np.linalg.norm(u_in, axis=(1, 2)))
    return resid


def trace_cauchy(fields: np.ndarray, coeff: Coefficient, kgrid: KGrid) -> CauchyData:
    """Cauchy traces (g0, g1) on the top boundary from solved fields.

    g0 is the top row of each field.  g1 is the exact incident derivative
    plus the x2-derivative of the integral representation,

        k^2 h^2 sum_y dK(x - y) a(y) u(y),  dK = -(i/4) k H1^(1)(k r) (x2 - y2) / r.

    On the uniform grid dK depends only on the lattice offset between a top
    row node and a support node: the row offset di from the support row up to
    the boundary and the column offset |dj| in 0..n-1.  The offset table is
    filled by one H1 = J1 + i Y1 evaluation over (wavenumber, support row,
    |dj|).  Each (wavenumber, support row) pair is then a Toeplitz product
    along the row with a*u, and all of them run as one batched 1D FFT
    convolution whose spectra are summed over the support rows before the
    inverse transform.  The support must stay below the boundary, so
    di >= 1 and every r is strictly positive; support on the top row itself
    would put the kernel's singularity on a measurement node and is refused.
    """
    grid = coeff.grid
    n = grid.n_nodes
    fields = np.asarray(fields)
    if fields.shape != (kgrid.n_sub, n, n):
        raise ValueError(
            f"fields must have shape (n_k, n_nodes, n_nodes) = {(kgrid.n_sub, n, n)}, "
            f"got {fields.shape}"
        )
    mean = coeff.quadrature_mean()
    rows = np.flatnonzero(np.any(mean != 0, axis=1))
    if rows.size and rows[-1] == grid.gamma_row:
        raise ValueError(
            f"coefficient support reaches the measurement row i = {grid.gamma_row} "
            f"(x2 = {grid.half_width}), where the trace kernel is singular"
        )
    g0 = fields[:, grid.gamma_row, :].T.copy()

    ks = kgrid.midpoints[:, None, None]
    di = (grid.gamma_row - rows)[:, None]
    rho = np.hypot(di, np.arange(n)[None, :])
    kr = ks * grid.h * rho
    table = (-0.25j * grid.h ** 2) * ks ** 3 * (j1(kr) + 1j * y1(kr)) * (di / rho)
    size = next_fast_len(2 * n - 1)
    circ = np.zeros(table.shape[:2] + (size,), dtype=complex)
    circ[..., :n] = table
    circ[..., size - n + 1:] = table[..., :0:-1]
    au_hat = fft(mean[rows] * fields[:, rows, :], size)
    scattered = ifft(np.einsum("mrf,mrf->mf", fft(circ), au_hat))[:, :n]

    wave = IncidentWave()
    g1 = wave.dx2(grid.nodes[:, None], grid.half_width, kgrid.midpoints[None, :]) + scattered.T
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
    if delta < 0:
        raise ValueError("noise level must be nonnegative")
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
