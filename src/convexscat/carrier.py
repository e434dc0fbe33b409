"""Data carrier construction.

F lifts the transformed boundary data into the volume so that the unknown
remainder W = V - F has homogeneous Cauchy data on the top boundary.  The
lift is first-order in x2, shaped by a smooth cutoff that kills everything
in the lower part of the domain where backscatter data cannot see well.
"""

from __future__ import annotations

import numpy as np

from .forward import Grid2D

__all__ = ["build_cutoff", "build_carrier"]


def _chi0(t: np.ndarray, half_width: float, xi: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > -xi
    out[pos] = np.exp(-half_width / (t[pos] + xi))
    return out


def build_cutoff(grid: Grid2D) -> np.ndarray:
    """Sample chi(t) = chi0(t) / (chi0(t) + chi0(R - t - 2 xi)) on grid rows.

    R = grid.half_width and the transition width is xi = R/10: chi is 0
    below -xi and 1 above R - xi.  A half_width so small that R/10
    underflows to 0 raises ValueError.  The bump halves never vanish
    together on [-R, R]; this is asserted, not patched.
    """
    half_width = grid.half_width
    xi = half_width / 10
    if not xi > 0:
        raise ValueError(f"the cutoff width R/10 underflows to 0 at half_width {half_width!r}")
    t = grid.nodes
    c_lo = _chi0(t, half_width, xi)
    c_hi = _chi0(half_width - t - 2 * xi, half_width, xi)
    den = c_lo + c_hi
    if np.any(den <= 0):
        raise ArithmeticError("cutoff denominator vanished on the grid line")
    return c_lo / den


def build_carrier(G0: np.ndarray, G1: np.ndarray, chi: np.ndarray, grid: Grid2D) -> np.ndarray:
    """F_n(x) = [G0_n(x1) + (x2 - R) G1_n(x1)] chi(x2).

    G0, G1 are the boundary coefficient arrays of shape (n_modes, n_nodes),
    chi the build_cutoff samples; F has shape (n_modes, n_nodes, n_nodes).
    Because the x2-dependent factors do not involve k, combining the already
    projected data is identical to projecting the lifted scalar field; on the
    top row chi = 1 and the linear term vanishes, so F equals G0 there
    exactly, and the discrete Neumann trace is G1 once h < R/10.
    """
    G0 = np.asarray(G0)
    G1 = np.asarray(G1)
    if G0.shape != G1.shape or G0.shape[1] != grid.n_nodes:
        raise ValueError("boundary coefficient arrays must be (n_modes, n_nodes)")
    x2 = grid.nodes
    lift = G0[:, None, :] + (x2[None, :, None] - grid.half_width) * G1[:, None, :]
    return lift * chi[None, :, None]
