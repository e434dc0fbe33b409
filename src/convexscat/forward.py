"""Direct scattering solves and synthetic Cauchy data on the square domain.

The total field satisfies the volume integral equation

    u(x) = u_in(x) + k^2 int_Omega (i/4) H0^(1)(k|x-y|) a(y) u(y) dy,

discretized by Nystrom collocation on the uniform node grid.  The weakly
singular self cell is handled by integrating the small-argument expansion of
the kernel over a disk of equal area, which keeps the scheme second order
without periodization machinery.  The Nystrom matrix depends only on the
index offset between two nodes, so it is applied as one FFT convolution and
the system is solved on the whole grid by GMRES (Saad and Schultz, 1986), as
in G. Vainikko, Fast solvers of the Lippmann-Schwinger equation (2000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len
from scipy.sparse.linalg import LinearOperator, gmres
from scipy.special import hankel1

from .basis import KGrid

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

# GMRES iterations per solve, in restart cycles; the reference inversions
# need 6 to 12, so a solve that reaches the cap has stalled.
GMRES_MAX_ITER = 500
GMRES_RESTART = 100


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
        if not (self.half_width > 0 and math.isfinite(2 * self.half_width)):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.n_cells < 2:
            raise ValueError("need at least two cells per side")

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
        if self.radius <= 0:
            raise ValueError("radius must be positive")

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
        if not (self.lo[0] < self.hi[0] and self.lo[1] < self.hi[1]):
            raise ValueError("rectangle corners must satisfy lo < hi componentwise")

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
    get the dense n_sub x n_sub midpoint average.
    """
    X1, X2 = grid.mesh()
    probe = np.linspace(-0.5, 0.5, 5) * grid.h
    p1 = X1[..., None, None] + probe[None, None, :, None]
    p2 = X2[..., None, None] + probe[None, None, None, :]
    probed = _stack_values(shapes, p1, p2)
    cut = (probed.max(axis=(2, 3)) != probed.min(axis=(2, 3)))

    mean = values.astype(float).copy()
    if np.any(cut):
        sub = (np.arange(n_sub) + 0.5) / n_sub - 0.5
        s1 = X1[cut][:, None, None] + (sub * grid.h)[None, :, None]
        s2 = X2[cut][:, None, None] + (sub * grid.h)[None, None, :]
        mean[cut] = _stack_values(shapes, s1, s2).mean(axis=(1, 2))
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
        raise ValueError("synthetic coefficient must be nonnegative")
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


def _kernel_table(grid: Grid2D, k: float) -> np.ndarray:
    """Kernel value (i/4)H0(k r) by absolute index offset (di, dj).

    Entry (0, 0) holds the cell average of the small-argument expansion over
    the equal-area disk of radius rho0 = h/sqrt(pi), so multiplying the whole
    table by the uniform weight h^2 yields the corrected Nystrom weights.
    """
    n = grid.n_nodes
    off = np.arange(n)
    d2 = off[:, None] ** 2 + off[None, :] ** 2
    uniq, inv = np.unique(d2, return_inverse=True)
    inv = inv.reshape(d2.shape)
    vals = np.empty(uniq.shape, dtype=complex)
    rho0 = grid.h / np.sqrt(np.pi)
    vals[0] = 0.25j - _EULER_GAMMA / (2 * np.pi) - (np.log(k * rho0 / 2) - 0.5) / (2 * np.pi)
    r = grid.h * np.sqrt(uniq[1:].astype(float))
    vals[1:] = 0.25j * hankel1(0, k * r)
    return vals[inv]


def solve_forward(coeff: Coefficient, k: float) -> np.ndarray:
    """Total field u on every grid node for one wavenumber, by GMRES.

    The kernel table fills offsets -(n-1)..n-1 of a zero-padded circulant of
    side L >= 2n - 1, so its FFT product equals the Nystrom matrix product
    exactly: no wrapped-around offset reaches the n x n corner read back.
    Raises IllConditionedSystem if the solution fails its residual check.
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    grid = coeff.grid
    X1, X2 = grid.mesh()
    u_in = IncidentWave().field(X1, X2, k)
    a = coeff.quadrature_mean()
    if not np.any(a):
        return u_in

    n = grid.n_nodes
    L = next_fast_len(2 * n - 1)
    table = _kernel_table(grid, k)
    circ = np.zeros((L, L), dtype=complex)
    circ[:n, :n] = table
    circ[L - n + 1:, :n] = table[:0:-1]
    circ[:, L - n + 1:] = circ[:, n - 1:0:-1]
    kernel_hat = fft2(circ)
    scale = k * k * grid.h ** 2

    def apply(v):
        au = np.zeros((L, L), dtype=complex)
        au[:n, :n] = a * v.reshape(n, n)
        return v - scale * ifft2(fft2(au) * kernel_hat)[:n, :n].ravel()

    op = LinearOperator((n * n, n * n), matvec=apply, dtype=complex)
    rhs = u_in.ravel()
    residuals = []
    u, _ = gmres(op, rhs, rtol=1e-12, atol=0.0, restart=GMRES_RESTART,
                 maxiter=GMRES_MAX_ITER // GMRES_RESTART,
                 callback=residuals.append, callback_type="pr_norm")
    resid = np.linalg.norm(apply(u) - rhs) / np.linalg.norm(rhs)
    if not resid < 1e-10:  # also true for a non-finite u, whose residual is nan or inf
        raise IllConditionedSystem(
            f"scattering solve at k={k}: GMRES stopped after {len(residuals)} iterations "
            f"with relative residual {resid:.2e}"
        )
    return u.reshape(n, n)


def solve_forward_multi(coeff: Coefficient, kgrid: KGrid) -> np.ndarray:
    """Fields for all wavenumber midpoints, stacked as (n_k, n_nodes, n_nodes)."""
    return np.stack([solve_forward(coeff, k) for k in kgrid.midpoints])


def trace_cauchy(fields: np.ndarray, coeff: Coefficient, kgrid: KGrid) -> CauchyData:
    """Cauchy traces (g0, g1) on the top boundary from solved fields.

    g1 comes from differentiating the integral representation in x2, which
    needs only H1 evaluations at strictly positive distances because the
    support never reaches the boundary; the incident part is exact.
    """
    grid = coeff.grid
    fields = np.asarray(fields)
    g0 = fields[:, grid.gamma_row, :].T.copy()

    x1 = grid.nodes
    x2_top = grid.half_width
    X1, X2 = grid.mesh()
    mean = coeff.quadrature_mean()
    sup = mean != 0
    y1, y2, a_s = X1[sup], X2[sup], mean[sup]

    wave = IncidentWave()
    g1 = np.empty_like(g0)
    for m, k in enumerate(kgrid.midpoints):
        du_in = wave.dx2(x1, x2_top, k)
        if a_s.size == 0:
            g1[:, m] = du_in
            continue
        dx2 = x2_top - y2[None, :]
        r = np.hypot(x1[:, None] - y1[None, :], dx2)
        dK = -0.25j * k * hankel1(1, k * r) * dx2 / r
        g1[:, m] = du_in + (k * k * grid.h ** 2) * (dK @ (a_s * fields[m][sup]))
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
