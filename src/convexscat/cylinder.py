"""Analytic total field for a penetrable circular cylinder hit by a plane wave.

Classical separation-of-variables solution: expand the incident wave in
Bessel modes about the disk center (Jacobi-Anger), match the field and its
normal derivative across the interface, and sum the resulting series with
J_n inside and H_n^(1) outside.  Serves as the independent oracle for the
volume-integral forward solver; it never shares code with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import h1vp, hankel1, jv, jvp

__all__ = ["DiskSeries", "disk_series", "disk_total_field"]


@dataclass(frozen=True)
class DiskSeries:
    """Mode coefficients of the transmission problem for one disk and one k.

    Coefficients are indexed by signed mode n via offset n + n_max; a_out
    goes with H_n^(1)(k r), b_in with J_n(k_int r).
    """

    k_int: float
    a_out: np.ndarray
    b_in: np.ndarray
    converged: bool


def disk_series(k: float, a_value: float, radius: float, n_max: int = 40, rtol: float = 1e-12) -> DiskSeries:
    """Solve the per-mode 2x2 transmission systems, truncating adaptively.

    Modes are kept until the last mode's coefficients contribute less than
    rtol relative to the largest; converged is False if n_max is not enough.
    """
    if radius <= 0 or k <= 0:
        raise ValueError("radius and k must be positive")
    k_int = k * np.sqrt(1.0 + a_value)
    n = np.arange(-n_max, n_max + 1)
    ka, kia = k * radius, k_int * radius

    # [H_n(ka), -J_n(kia); k H_n'(ka), -k_int J_n'(kia)] [A; B] = -[J_n(ka); k J_n'(ka)]
    h, dh = hankel1(n, ka), h1vp(n, ka)
    ji, dji = jv(n, kia), jvp(n, kia)
    j, dj = jv(n, ka), jvp(n, ka)
    det = -h * k_int * dji + k * dh * ji
    a_out = (-j * (-k_int * dji) - (-ji) * (-k * dj)) / det
    b_in = (h * (-k * dj) - (-j) * k * dh) / det

    # Coefficients alone can stay O(1) (b_in == 1 when a_value == 0); what
    # decays is each mode's field contribution at the interface.
    edge_out = np.abs(a_out * h)
    edge_in = np.abs(b_in * ji)
    tail = max(edge_out[0], edge_out[-1], edge_in[0], edge_in[-1])
    converged = bool(tail <= rtol)
    return DiskSeries(k_int=float(k_int), a_out=a_out, b_in=b_in, converged=converged)


def disk_total_field(
    points: np.ndarray,
    center,
    radius: float,
    a_value: float,
    direction,
    k: float,
    n_max: int = 40,
) -> np.ndarray:
    """Total field u(x, k) at the given points for a single penetrable disk.

    points has shape (..., 2); direction is the unit propagation vector of the
    incident plane wave exp(i k d.x).  Raises if the mode series has not
    converged at n_max.
    """
    series = disk_series(k, a_value, radius, n_max=n_max)
    if not series.converged:
        raise RuntimeError(f"cylinder series not converged with n_max={n_max}")
    points = np.asarray(points, dtype=float)
    center = np.asarray(center, dtype=float)
    d = np.asarray(direction, dtype=float)

    rel = points - center
    r = np.hypot(rel[..., 0], rel[..., 1])
    theta = np.arctan2(rel[..., 1], rel[..., 0])
    theta_d = np.arctan2(d[1], d[0])
    phase_c = np.exp(1j * k * (d[0] * center[0] + d[1] * center[1]))

    n = np.arange(-n_max, n_max + 1)
    ang = np.exp(1j * np.multiply.outer(theta - theta_d, n))  # (..., modes)
    inside = r < radius
    out = np.zeros(points.shape[:-1], dtype=complex)

    # outside: incident + scattered H-series; inside: transmitted J-series
    i_pow = 1j ** n
    if np.any(~inside):
        ro = r[~inside]
        rad = hankel1(n, (k * ro)[..., None])
        u_sc = (i_pow * series.a_out * rad * ang[~inside]).sum(axis=-1)
        u_in = np.exp(1j * k * (d[0] * points[..., 0] + d[1] * points[..., 1]))[~inside]
        out[~inside] = u_in + phase_c * u_sc
    if np.any(inside):
        ri = r[inside]
        rad = jv(n, (series.k_int * ri)[..., None])
        out[inside] = phase_c * (i_pow * series.b_in * rad * ang[inside]).sum(axis=-1)
    return out
