"""Change of variables for the total field and recovery of the coefficient.

The pipeline is u -> p = u/u_in -> v = Log(p)/k^2 with the principal
logarithm, then projection of v onto the wavenumber basis to get the vector
field V, and finally the pointwise elimination formula that reads a(x) off
the centred second differences of v at the lowest wavenumber, on the
interior nodes clear of the outer ring and of the row next to the
measurement line (a is zero elsewhere).  Everything here is pure array
work; no solver state.  Coefficient fields (V, W, F, ...) are complex
arrays of shape (n_modes, n_nodes, n_nodes): entry [r, i, j] is mode r at
node (x1_j, x2_i).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter1d

from .basis import BasisSet, KGrid, project
from .forward import CauchyData, Coefficient, Grid2D, IncidentWave

__all__ = [
    "NearZeroTotalField",
    "P_FLOOR",
    "LogField",
    "total_to_log",
    "log_to_coeffs",
    "cauchy_to_v_data",
    "smooth_traces",
    "recover_coefficient",
]

# Below this magnitude the normalized field is treated as a genuine zero of u
# and the logarithmic change of variables is refused.
P_FLOOR = 1e-8
# Smallest wavenumber whose 1/k^2 in v = Log(p)/k^2 is a finite double;
# cauchy_to_v_data refuses data below it.
K_FLOOR = 1 / math.sqrt(sys.float_info.max)


class NearZeroTotalField(RuntimeError):
    """u/u_in came within P_FLOOR of zero somewhere; Log(p)/k^2 is meaningless there."""


@dataclass(frozen=True)
class LogField:
    """v(x, k) samples, shape (n_k, ny, nx), plus the branch diagnostic.

    branch_jumps counts k-adjacent samples whose phase of p differs by more
    than pi; the principal branch is kept regardless (flagged, not fixed).
    """

    v: np.ndarray
    branch_jumps: int


def _log_map(u: np.ndarray, x2, ks: np.ndarray, caller: str) -> LogField:
    """v = Log(p)/k^2, p = u/u_in, for samples u with the wavenumbers ks on the first axis.

    x2, the samples' heights, broadcasts against the other axes of u.  Log p
    is log|p| + i arg(p), so the phase also gives the branch diagnostic; a
    |p| within P_FLOOR of zero raises NearZeroTotalField naming the caller.
    """
    ks = ks.reshape((-1,) + (1,) * (u.ndim - 1))
    p = u / IncidentWave.field(x2, ks)
    mag = np.abs(p)
    if mag.min() <= P_FLOOR:
        n_bad = int(np.count_nonzero(mag <= P_FLOOR))
        raise NearZeroTotalField(
            f"{caller}: |u/u_in| <= {P_FLOOR:g} at {n_bad} samples (min {mag.min():.3e})"
        )
    phase = np.angle(p)
    v = (np.log(mag) + 1j * phase) / ks ** 2
    jumps = int(np.count_nonzero(np.abs(np.diff(phase, axis=0)) > np.pi))
    return LogField(v=v, branch_jumps=jumps)


def total_to_log(fields: np.ndarray, grid: Grid2D, kg: KGrid) -> LogField:
    """v = Log(u/u_in)/k^2 on the whole grid for every wavenumber midpoint.

    The same map as cauchy_to_v_data's g~0, so the two agree bit for bit on
    the top row.
    """
    return _log_map(np.asarray(fields), grid.nodes[:, None], kg.midpoints, "total_to_log")


def log_to_coeffs(lf: LogField, bs: BasisSet) -> np.ndarray:
    """Project v onto the basis: V[n] = int v(., k) Phi_n(k) dk, midpoint rule."""
    return np.moveaxis(project(np.moveaxis(lf.v, 0, -1), bs), -1, 0)


def cauchy_to_v_data(cd: CauchyData, bs: BasisSet):
    """Transform measured traces (g0, g1) into basis coefficients (G0, G1) on Gamma.

    g~0 = Log(g0/u_in)/k^2 by total_to_log's map on the row x2 = R, so G0 is
    the top row of log_to_coeffs for fields with trace g0.  By the chain rule
    through v = Log(u/u_in)/k^2, g~1 = (g1/g0 - ik d2)/k^2.  Both are then
    projected; returned arrays have shape (n_modes, n_nodes).  Data whose
    lowest midpoint is below K_FLOOR, or whose coefficients are not finite
    (1/k^2 just above K_FLOOR times the log of noisy data overflows in the
    projection), are refused with a ValueError that names k_min.
    """
    if cd.kgrid != bs.kgrid:
        raise ValueError(f"basis and data live on different wavenumber grids: {bs.kgrid}, {cd.kgrid}")
    ks = cd.kgrid.midpoints
    if not ks[0] >= K_FLOOR:
        raise ValueError(f"k_min = {cd.kgrid.k_min!r} is too small for the log transform: 1/k^2 "
                         f"overflows at the lowest midpoint k = {float(ks[0])!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        G0 = log_to_coeffs(_log_map(cd.g0.T, cd.grid.half_width, ks, "cauchy_to_v_data"), bs)
        gt1 = (cd.g1 / cd.g0 - 1j * ks[None, :] * IncidentWave.direction[1]) / ks[None, :] ** 2
        G1 = project(gt1, bs).T.copy()
    bad = [name for name, G in (("G0", G0), ("G1", G1)) if not np.all(np.isfinite(G))]
    if bad:
        raise ValueError(f"k_min = {cd.kgrid.k_min!r} is too small for the log transform: "
                         f"the data's basis coefficients {' and '.join(bad)} are not finite")
    return G0, G1


def smooth_traces(G: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing of mode traces along the measurement line.

    G has shape (n_modes, n_nodes); each row is filtered along the node axis
    with a kernel of width sigma grid spacings (real and imaginary parts
    separately, edge values extended).  Measured traces carry white noise at
    the grid scale while the underlying field is smooth in x1, so the filter
    removes the part of the data that the second-difference recovery would
    otherwise amplify by 1/h^2.
    """
    if sigma <= 0:
        return G
    return (
        gaussian_filter1d(G.real, sigma, axis=-1, mode="nearest")
        + 1j * gaussian_filter1d(G.imag, sigma, axis=-1, mode="nearest")
    )


@np.errstate(over="ignore", invalid="ignore")
def recover_coefficient(V: np.ndarray, bs: BasisSet, grid: Grid2D) -> Coefficient:
    """Read the coefficient off v at the lowest wavenumber.

    v(., k) = sum_n V_n Phi_n(k), then a = -Re[Lap v + k^2 (grad v . grad v)
    - 2ik dv/dx2] for the downward incident direction, with centred second
    order differences on rows 1..n-3 and columns 1..n-2; a is exactly zero
    on the other nodes.  Admissible coefficients vanish near the domain
    boundary, and the forward solver requires that.  The stencils of the
    row next to the measurement line would also reach that line, where the
    soft-penalized iterates do not vanish exactly, and feed the mismatch,
    amplified by 1/h^2, straight into the next solve.  No sign clamping
    here; the caller decides when negatives get cut.  A field so large that
    the formula overflows gives a non-finite coefficient without a warning;
    solve_forward rejects it with IllConditionedSystem.
    """
    if grid.n_nodes < 4:
        raise ValueError("recovery stencils need at least 4 nodes per side")
    if V.shape[1:] != (grid.n_nodes, grid.n_nodes):
        raise ValueError(f"mode fields of shape {V.shape} do not live on the {grid.n_nodes}-node grid")
    if V.shape[0] != bs.n_modes:
        raise ValueError(f"{V.shape[0]} mode fields for a basis of {bs.n_modes} modes")
    k = bs.kgrid.k_min
    # the measurement-line row is never read
    v = np.tensordot(bs.eval_phi(k), V, axes=(0, 0))[:-1]
    h = grid.h
    c = v[1:-1, 1:-1]
    east, west = v[1:-1, 2:], v[1:-1, :-2]
    north, south = v[2:, 1:-1], v[:-2, 1:-1]
    v1 = (east - west) / (2.0 * h)
    v2 = (north - south) / (2.0 * h)
    lap = (north - 2 * c + south) / (h * h) + (east - 2 * c + west) / (h * h)
    a = np.zeros(V.shape[1:])
    a[1:-2, 1:-1] = -np.real(lap + k * k * (v1 * v1 + v2 * v2) - 2j * k * v2)
    return Coefficient(grid=grid, values=a)
