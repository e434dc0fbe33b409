"""The weighted least-squares functional on coefficient vector fields.

J(W) = ||r(W)||^2 + w^H P w.  The residual r = h phi q(W + F) is the
equation residual q of the coupled elliptic system at the interior nodes,
weighted by phi(x2) = exp(-lam (x2 - shift)^2).  P is a real symmetric form
holding the other three terms: an H2-type regularizer times rho and the two
boundary penalties that hold W and its x2-derivative near zero on the
measurement row.  Every difference is a sparse operator on the flattened
node field, built once per grid; P is built once per (grid, rho, alpha1,
alpha2).  Tests re-derive the value from an index-by-index loop.

J is real but W is complex, so the gradient returned is 2 conj(dJ/dW), the
true gradient with respect to the underlying real and imaginary parts:
Re<grad, delta> is the directional derivative along delta.  q is holomorphic
in W, so the gradient is 2 (A^H r' + P w) with A the Jacobian of q: the
transposes of the difference operators applied to h phi r, with the B
multipliers evaluated at W + F.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from .basis import BasisSet
from .forward import Grid2D

__all__ = ["evaluate_and_gradient"]


# lam t^2 overflows only on a grid so wide that the weight's limit there,
# exp(-inf) = 0, is its value
@np.errstate(over="ignore")
def _carleman_weight(grid: Grid2D, lam: float, shift: float) -> np.ndarray:
    """phi(x2) = exp(-lam (x2 - shift)^2) on the grid rows; lam = 0 turns it off."""
    t = grid.nodes - shift
    return np.exp(-lam * t * t)


@functools.lru_cache(maxsize=8)
def _stencils(grid: Grid2D):
    """Every difference J uses, as sparse operators on the flattened node field.

    A field f[i, j] (i the x2 row) is flattened to f[i * n + j], so kron(a, b)
    applies a along x2 and b along x1.  Interior operators have one row per
    interior node.  Returns the residual's stacked [Laplacian; d/dx1; d/dx2]
    with its transpose, and the regularizer's difference operators.
    """
    n, h = grid.n_nodes, grid.h
    eye = sp.identity(n, format="csr")
    inner = eye[1:-1]
    forward = (eye[2:] - inner) / h
    second = (eye[2:] - 2 * inner + eye[:-2]) / (h * h)
    central = (eye[2:] - eye[:-2]) / h
    dx1 = sp.kron(inner, forward, format="csr")
    dx2 = sp.kron(forward, inner, format="csr")
    c1 = sp.kron(inner, second, format="csr")
    c2 = sp.kron(second, inner, format="csr")
    mixed = sp.kron(central, central, format="csr")
    residual = sp.vstack([c1 + c2, dx1, dx2], format="csr")
    return residual, residual.T.tocsr(), (dx1, dx2, c1, c2, mixed)


@functools.lru_cache(maxsize=8)
def _penalty(grid: Grid2D, rho: float, alpha1: float, alpha2: float):
    """The form P with w^H P w = regularizer + boundary penalties, per mode.

    The regularizer is rho h^2 times the squared L2 norm of w over all nodes
    plus those of its first, second and (doubled) mixed differences over the
    interior; the penalties are alpha1 h |w|^2 on the measurement row and
    alpha2 h |dw/dx2|^2 on its interior nodes.  The differences scale the
    form by up to 1/h^2, so a finite weight can still overflow it; a form
    that is not finite raises a ValueError naming the weights whose terms
    overflowed (all three if only their sum did), with no floating-point
    warning.
    """
    n, h = grid.n_nodes, grid.h
    _, _, (dx1, dx2, c1, c2, mixed) = _stencils(grid)
    eye = sp.identity(n * n, format="csr")
    top = eye[-n:]
    top_dx2 = dx2[-(n - 2):]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = {
            "rho": rho * h * h * (
                eye + dx1.T @ dx1 + dx2.T @ dx2 + c1.T @ c1 + c2.T @ c2 + 2 * (mixed.T @ mixed)
            ),
            "alpha1": alpha1 * h * (top.T @ top),
            "alpha2": alpha2 * h * (top_dx2.T @ top_dx2),
        }
        P = terms["rho"] + (terms["alpha1"] + terms["alpha2"])
    if not np.all(np.isfinite(P.data)):
        bad = [name for name, term in terms.items() if not np.all(np.isfinite(term.data))]
        weights = {"rho": rho, "alpha1": alpha1, "alpha2": alpha2}
        raise ValueError(f"the penalty form overflows on the {grid.n_cells}-cell grid "
                         f"(h = {h!r}) at "
                         + ", ".join(f"{name} = {weights[name]!r}" for name in bad or weights))
    return P.tocsr()


def _flat(field: np.ndarray) -> np.ndarray:
    """(n_modes, n, n) -> (n * n, n_modes): one flattened node field per column."""
    return field.reshape(len(field), -1).T


def _q_interior(vhat: np.ndarray, bs: BasisSet, grid: Grid2D):
    """Equation residual of the coupled system at the interior nodes.

    Component m combines the Laplacian through D, the quadratic gradient
    coupling through B (both coordinate directions), and the first-order
    x2 term through S.  Also returns the forward differences it used; all
    three are (n_modes, n - 2, n - 2).
    """
    n_modes, m = len(vhat), grid.n_nodes - 2
    residual, _, _ = _stencils(grid)
    lap, dx1, dx2 = (residual @ _flat(vhat)).T.reshape(n_modes, 3, m * m).swapaxes(0, 1)
    products = (dx1[:, None] * dx1 + dx2[:, None] * dx2).reshape(n_modes ** 2, -1)
    q = bs.mat_D @ lap + bs.tensor_B.reshape(n_modes, -1) @ products + bs.mat_S @ dx2
    shape = (n_modes, m, m)
    return q.reshape(shape), dx1.reshape(shape), dx2.reshape(shape)


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
    n_modes = len(W)
    w = np.asarray(W, dtype=complex)
    q, dx1, dx2 = _q_interior(w + F, bs, grid)
    h_phi = grid.h * _carleman_weight(grid, cfg.lam, cfg.shift)[1:-1, None]
    r = h_phi * q
    Pw = _penalty(grid, cfg.rho, cfg.alpha1, cfg.alpha2) @ _flat(w)
    J = float(np.sum(r.real ** 2 + r.imag ** 2)) + float(np.vdot(_flat(w), Pw).real)

    # grad / 2 = L^T (D^T y) + dx1^T y1 + dx2^T (y2 + S^H y) + P w with y = h phi r;
    # y1, y2 carry the B terms, whose multipliers are taken at W + F
    y = (h_phi * r).reshape(n_modes, -1)
    B = bs.tensor_B
    C = (B + B.swapaxes(1, 2)).swapaxes(0, 1).reshape(n_modes, -1)

    def coupled(dx):
        # sum over m, s of (B[m, q, s] + B[m, s, q]) conj(dx_s) y_m, per node
        return C @ (y[:, None] * np.conj(dx).reshape(n_modes, -1)).reshape(n_modes ** 2, -1)

    _, adjoint, _ = _stencils(grid)
    ys = [bs.mat_D.T @ y, coupled(dx1), coupled(dx2) + np.conj(bs.mat_S).T @ y]
    g = adjoint @ np.concatenate(ys, axis=1).T + Pw
    return J, 2 * g.T.reshape(w.shape)
