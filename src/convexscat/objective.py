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

from dataclasses import dataclass

import numpy as np

from .basis import BasisSet
from .fieldtransform import CoeffVectorField

__all__ = [
    "CarlemanWeight",
    "ObjectiveParams",
    "residual_Q",
    "evaluate_and_gradient",
]


@dataclass(frozen=True)
class CarlemanWeight:
    """phi(x) = exp(-lam (x2 - shift)^2); lam = 0 turns the weighting off."""

    lam: float
    shift: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")

    def profile(self, grid) -> np.ndarray:
        t = grid.nodes - self.shift
        return np.exp(-self.lam * t * t)


@dataclass(frozen=True)
class ObjectiveParams:
    rho: float
    alpha1: float
    alpha2: float
    weight: CarlemanWeight
    bs: BasisSet
    F: CoeffVectorField

    def __post_init__(self):
        if min(self.rho, self.alpha1, self.alpha2) < 0:
            raise ValueError("regularization weights must be nonnegative")


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
    lap, dx1, dx2 = _interior_diffs(vhat, h)
    q = np.einsum("mr,rij->mij", bs.mat_D, lap)
    q = q + np.einsum("mrs,rij,sij->mij", bs.tensor_B, dx1, dx1)
    q += np.einsum("mrs,rij,sij->mij", bs.tensor_B, dx2, dx2)
    q += np.einsum("mr,rij->mij", bs.mat_S, dx2)
    return q, dx1, dx2


def residual_Q(vhat: CoeffVectorField, bs: BasisSet) -> CoeffVectorField:
    """Equation residual of the coupled system at interior nodes, zero on the ring.

    Component m combines the Laplacian through D, the quadratic gradient
    coupling through B (both coordinate directions), and the first-order
    x2 term through S.
    """
    q, _, _ = _q_interior(np.asarray(vhat.data, dtype=complex), bs, vhat.grid.h)
    out = np.zeros(vhat.data.shape, dtype=complex)
    out[:, 1:-1, 1:-1] = q
    return CoeffVectorField(grid=vhat.grid, data=out)


def evaluate_and_gradient(W: CoeffVectorField, params: ObjectiveParams):
    """Value J(W) >= 0 and gradient 2 conj(dJ/dW) in one pass.

    The gradient is assembled analytically (no differencing) and shares the
    residual field with the value.
    """
    grid = W.grid
    if params.F.data.shape != W.data.shape:
        raise ValueError("W and the carrier F must share shape and grid")
    h = grid.h
    hh = h * h
    bs = params.bs
    w = np.asarray(W.data, dtype=complex)
    vhat = w + params.F.data

    q, dx1, dx2 = _q_interior(vhat, bs, h)
    phi2 = params.weight.profile(grid)[1:-1] ** 2
    phi2 = phi2[None, :, None]
    J = hh * float(np.sum(phi2 * (q.real ** 2 + q.imag ** 2)))

    # H2-type regularizer: L2 over all nodes, differences over interior nodes
    c = w[:, 1:-1, 1:-1]
    w_dx1 = (w[:, 1:-1, 2:] - c) / h
    w_dx2 = (w[:, 2:, 1:-1] - c) / h
    w_c1 = (w[:, 1:-1, 2:] - 2 * c + w[:, 1:-1, :-2]) / hh
    w_c2 = (w[:, 2:, 1:-1] - 2 * c + w[:, :-2, 1:-1]) / hh
    w_mx = (w[:, 2:, 2:] - w[:, :-2, 2:] - w[:, 2:, :-2] + w[:, :-2, :-2]) / hh
    J += params.rho * hh * float(
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
    J += params.alpha1 * h * float(np.sum(np.abs(w[:, -1, :]) ** 2))
    J += params.alpha2 * h * float(np.sum(np.abs(t2) ** 2))

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
    rw = params.rho * hh
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

    g[:, -1, :] += params.alpha1 * h * w[:, -1, :]
    z = params.alpha2 * t2
    g[:, -1, 1:-1] += z
    g[:, -2, 1:-1] -= z

    grad = CoeffVectorField(grid=grid, data=2 * g)
    return J, grad

