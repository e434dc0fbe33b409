"""The weighted least-squares functional on coefficient vector fields.

J(W) stacks four groups of terms: the equation residual of the coupled
elliptic system at interior nodes, multiplied by the exponential weight
phi(x2) = exp(-lam (x2 - shift)^2); an H2-type quadratic form times rho; and
the two boundary penalties that hold W and its x2-derivative near zero on
the measurement row.  Sum limits, stencils and scalings follow one fixed
discretization; tests re-derive the value from an index-by-index loop.

The gradient is assembled analytically.  J is real but W is complex, so the
gradient returned is 2 conj(dJ/dW), the true gradient with respect to the
underlying real and imaginary parts: Re<grad, delta> is the directional
derivative along delta.  Every residual summand is holomorphic in W, which
reduces the work to stencil adjoints applied to the conjugate-weighted
residual.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisSet
from .forward import Grid2D

__all__ = ["evaluate_and_gradient"]


def _carleman_weight(grid: Grid2D, lam: float, shift: float) -> np.ndarray:
    """phi(x2) = exp(-lam (x2 - shift)^2) on the grid rows; lam = 0 turns it off."""
    t = grid.nodes - shift
    return np.exp(-lam * t * t)


def _interior_diffs(data: np.ndarray, h: float):
    """5-point Laplacian and forward differences of each component, interior nodes."""
    c = data[:, 1:-1, 1:-1]
    lap = (
        data[:, 2:, 1:-1] + data[:, :-2, 1:-1] + data[:, 1:-1, 2:] + data[:, 1:-1, :-2] - 4 * c
    ) / (h * h)
    dx1 = (data[:, 1:-1, 2:] - c) / h
    dx2 = (data[:, 2:, 1:-1] - c) / h
    return lap, dx1, dx2


def _q_interior(vhat: np.ndarray, bs: BasisSet, h: float):
    """Equation residual of the coupled system at the interior nodes.

    Component m combines the Laplacian through D, the quadratic gradient
    coupling through B (both coordinate directions), and the first-order
    x2 term through S.  Also returns the forward differences it used.
    """
    lap, dx1, dx2 = _interior_diffs(vhat, h)
    q = np.einsum("mr,rij->mij", bs.mat_D, lap)
    q = q + np.einsum("mrs,rij,sij->mij", bs.tensor_B, dx1, dx1)
    q += np.einsum("mrs,rij,sij->mij", bs.tensor_B, dx2, dx2)
    q += np.einsum("mr,rij->mij", bs.mat_S, dx2)
    return q, dx1, dx2


def evaluate_and_gradient(W: np.ndarray, F: np.ndarray, grid: Grid2D, bs: BasisSet, cfg):
    """Value J(W) >= 0 and gradient 2 conj(dJ/dW) in one pass.

    W and the carrier F are (n_modes, n_nodes, n_nodes) arrays on grid; rho,
    alpha1, alpha2, lam and shift are read from the InversionConfig cfg.  The
    gradient is assembled analytically (no differencing), shares the residual
    field with the value, and has the shape of W.
    """
    n = grid.n_nodes
    if np.shape(W) != (bs.n_modes, n, n) or np.shape(F) != np.shape(W):
        raise ValueError(
            f"W {np.shape(W)} and the carrier F {np.shape(F)} must both be "
            f"({bs.n_modes}, {n}, {n})"
        )
    h = grid.h
    hh = h * h
    w = np.asarray(W, dtype=complex)
    vhat = w + F

    q, dx1, dx2 = _q_interior(vhat, bs, h)
    phi2 = _carleman_weight(grid, cfg.lam, cfg.shift)[1:-1] ** 2
    phi2 = phi2[None, :, None]
    J = hh * float(np.sum(phi2 * (q.real ** 2 + q.imag ** 2)))

    # H2-type regularizer: L2 over all nodes, differences over interior nodes
    c = w[:, 1:-1, 1:-1]
    w_dx1 = (w[:, 1:-1, 2:] - c) / h
    w_dx2 = (w[:, 2:, 1:-1] - c) / h
    w_c1 = (w[:, 1:-1, 2:] - 2 * c + w[:, 1:-1, :-2]) / hh
    w_c2 = (w[:, 2:, 1:-1] - 2 * c + w[:, :-2, 1:-1]) / hh
    w_mx = (w[:, 2:, 2:] - w[:, :-2, 2:] - w[:, 2:, :-2] + w[:, :-2, :-2]) / hh
    J += cfg.rho * hh * float(
        np.sum(np.abs(w) ** 2)
        + np.sum(
            np.abs(w_dx1) ** 2
            + np.abs(w_dx2) ** 2
            + np.abs(w_c1) ** 2
            + np.abs(w_c2) ** 2
            + 2 * np.abs(w_mx) ** 2
        )
    )

    # boundary penalties on the measurement row
    t2 = (w[:, -1, 1:-1] - w[:, -2, 1:-1]) / h
    J += cfg.alpha1 * h * float(np.sum(np.abs(w[:, -1, :]) ** 2))
    J += cfg.alpha2 * h * float(np.sum(np.abs(t2) ** 2))

    # Residual part: y is the conjugation weight h^2 phi^2 Q; each stencil's
    # adjoint scatters it back, with the B multipliers evaluated at vhat.
    y = hh * phi2 * q
    B = bs.tensor_B
    yD = np.einsum("mq,mij->qij", bs.mat_D, y)
    yS = np.einsum("mq,mij->qij", np.conj(bs.mat_S), y)
    cdx1 = np.conj(dx1)
    cdx2 = np.conj(dx2)
    y1 = np.einsum("mqs,sij,mij->qij", B, cdx1, y) + np.einsum("mrq,rij,mij->qij", B, cdx1, y)
    y2 = np.einsum("mqs,sij,mij->qij", B, cdx2, y) + np.einsum("mrq,rij,mij->qij", B, cdx2, y)

    g = np.zeros_like(w)
    z = yD / hh
    g[:, 2:, 1:-1] += z
    g[:, :-2, 1:-1] += z
    g[:, 1:-1, 2:] += z
    g[:, 1:-1, :-2] += z
    g[:, 1:-1, 1:-1] -= 4 * z
    z = y1 / h
    g[:, 1:-1, 2:] += z
    g[:, 1:-1, 1:-1] -= z
    z = (y2 + yS) / h
    g[:, 2:, 1:-1] += z
    g[:, 1:-1, 1:-1] -= z

    # Regularizer part: real stencils A give A^T(A w) pieces.
    rw = cfg.rho * hh
    g += rw * w
    z = rw * w_dx1 / h
    g[:, 1:-1, 2:] += z
    g[:, 1:-1, 1:-1] -= z
    z = rw * w_dx2 / h
    g[:, 2:, 1:-1] += z
    g[:, 1:-1, 1:-1] -= z
    z = rw * w_c1 / hh
    g[:, 1:-1, 2:] += z
    g[:, 1:-1, :-2] += z
    g[:, 1:-1, 1:-1] -= 2 * z
    z = rw * w_c2 / hh
    g[:, 2:, 1:-1] += z
    g[:, :-2, 1:-1] += z
    g[:, 1:-1, 1:-1] -= 2 * z
    z = 2 * rw * w_mx / hh
    g[:, 2:, 2:] += z
    g[:, :-2, :-2] += z
    g[:, :-2, 2:] -= z
    g[:, 2:, :-2] -= z

    g[:, -1, :] += cfg.alpha1 * h * w[:, -1, :]
    z = cfg.alpha2 * t2
    g[:, -1, 1:-1] += z
    g[:, -2, 1:-1] -= z

    return J, 2 * g

