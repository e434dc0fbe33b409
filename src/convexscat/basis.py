"""Orthonormal wavenumber basis and the coupling matrices of the elliptic system.

The basis {Phi_n} is the Gram-Schmidt orthonormalization of

    psi_n(k) = (k - k0)**(n - 1) * exp(k - k0),   k0 = (k_min + k_max) / 2,

in L2(k_min, k_max).  Its defining feature is that the derivative-coupling
matrix d[m, n] = int Phi_m Phi_n' dk has unit diagonal and vanishing strict
lower triangle, which makes it invertible at any truncation order.  The
matrices D, S and the rank-3 tensor B computed here are the coefficients of
the coupled quasilinear elliptic system satisfied by the Fourier coefficient
fields of the log total field.

Two quadratures live side by side on purpose: build_basis's own composite
Gauss-Legendre rule for the basis-internal integrals (D, S, B), and the
midpoint rule on the n_sub data subintervals for projecting sampled data onto
the basis, matching the measurement grid.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "BasisError",
    "KGrid",
    "BasisSet",
    "build_basis",
    "project",
]

# Residual-norm fraction below which a raw basis function is declared
# numerically dependent on its predecessors.
GS_DEPENDENCE_TOL = 1e-12

# Composite Gauss-Legendre rule for the basis-internal integrals.  The rule on
# [-1, 1] is computed once here.
N_PANELS = 8
NODES_PER_PANEL = 16
_GL_NODES, _GL_WEIGHTS = leggauss(NODES_PER_PANEL)


class BasisError(ValueError):
    """Raised when the Gram-Schmidt process degenerates numerically."""


# The checks on numbers that enter from outside the program, shared by the
# grid, shape, scene and config dataclasses; this is the lowest module, so
# each of them can import these without a cycle.


def _finite(x) -> bool:
    # false for a bool, nan, inf and an integer beyond the double range,
    # on which float() raises OverflowError
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _integer(name: str, x, least: int = 1, null: bool = False):
    """x as an int from least to sys.maxsize, the largest array length, or
    None where null allows it; anything else raises a ValueError naming name."""
    if null and x is None:
        return None
    if isinstance(x, numbers.Integral) and not isinstance(x, bool) and least <= x <= sys.maxsize:
        return int(x)
    above = f" and <= {sys.maxsize}" if isinstance(x, numbers.Integral) and x > sys.maxsize else ""
    raise ValueError(f"{name} must be an integer >= {least}{above}{' or null' if null else ''}, "
                     f"got {x!r}")


def _check_fields(obj, **least) -> None:
    """Check every number field of the frozen dataclass obj by its annotation
    string and store it back as a plain Python value, so a scene or config
    document is plain YAML and JSON: a "float" is a finite real, not a bool,
    stored as a float; an "int" (or "int | None", which allows None) is an
    integer >= least[name] (default 1) and <= sys.maxsize, stored as an int;
    a "tuple[float, float]" is a list or tuple of two finite reals, stored
    as a tuple of floats.  Other fields are left to the class.  A bad value
    raises a ValueError that names the field.
    """
    for f in fields(obj):
        name, x = f.name, getattr(obj, f.name)
        if f.type == "float":
            if not _finite(x):
                raise ValueError(f"{name} must be a finite number, got {x!r}")
            x = float(x)
        elif f.type in ("int", "int | None"):
            x = _integer(name, x, least.get(name, 1), null=f.type != "int")
        elif f.type == "tuple[float, float]":
            if not (isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_finite, x))):
                raise ValueError(f"{name} must be a pair of numbers [x1, x2], got {x!r}")
            x = (float(x[0]), float(x[1]))
        else:
            continue
        object.__setattr__(obj, name, x)


@dataclass(frozen=True)
class KGrid:
    """Wavenumber interval [k_min, k_max] cut into n_sub uniform subintervals.

    midpoints are the centers of the subintervals; they carry the measured
    multifrequency data and the midpoint projection rule.
    """

    k_min: float
    k_max: float
    n_sub: int

    def __post_init__(self):
        _check_fields(self)
        if not (0 < self.k_min < self.k_max < np.inf):
            raise ValueError(f"need 0 < k_min < k_max < inf, got [{self.k_min}, {self.k_max}]")

    @property
    def h_k(self) -> float:
        return (self.k_max - self.k_min) / self.n_sub

    @property
    def midpoints(self) -> np.ndarray:
        return self.k_min + (np.arange(self.n_sub) + 0.5) * self.h_k

    @property
    def k0(self) -> float:
        return 0.5 * (self.k_min + self.k_max)


def _quadrature(kg: KGrid):
    """Nodes and weights of the composite Gauss-Legendre rule on [k_min, k_max]."""
    edges = np.linspace(kg.k_min, kg.k_max, N_PANELS + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES)
        weights.append(0.5 * (b - a) * _GL_WEIGHTS)
    return np.concatenate(nodes), np.concatenate(weights)


def _psi(n: int, k: np.ndarray, k0: float) -> np.ndarray:
    """Raw basis function psi_n, n >= 1."""
    return (k - k0) ** (n - 1) * np.exp(k - k0)


def _dpsi(n: int, k: np.ndarray, k0: float) -> np.ndarray:
    """Analytic derivative psi_n' = (n-1)(k-k0)^(n-2) e^(k-k0) + psi_n."""
    e = np.exp(k - k0)
    if n == 1:
        return e
    return (n - 1) * (k - k0) ** (n - 2) * e + (k - k0) ** (n - 1) * e


@dataclass(frozen=True)
class BasisSet:
    """Orthonormal basis truncated at n_modes, with its coupling matrices.

    coeff[n, p] holds the Gram-Schmidt combination Phi_n = sum_p coeff[n, p] psi_{p+1},
    so Phi_n can be evaluated at arbitrary k by eval_phi, the only source of
    its samples; D, S and B are built from the analytic psi', never through
    differencing.

    B[m, n, l] = b_{mn}^{(l)}.  Immutable after construction; safe to share.
    """

    kgrid: KGrid
    n_modes: int
    coeff: np.ndarray
    mat_D: np.ndarray
    mat_S: np.ndarray
    tensor_B: np.ndarray

    def eval_phi(self, k) -> np.ndarray:
        """Sample all Phi_n at the points k; shape (n_modes,) + k.shape."""
        k = np.asarray(k, dtype=float)
        samples = np.stack([_psi(n, k, self.kgrid.k0) for n in range(1, self.n_modes + 1)])
        return np.tensordot(self.coeff, samples, axes=(1, 0))


def build_basis(kg: KGrid, n_modes: int) -> BasisSet:
    """Orthonormalize psi_1..psi_N on kg and assemble D, S, B.

    Modified Gram-Schmidt with one reorthogonalization pass; raises BasisError
    if some psi_n is numerically dependent on its predecessors, which signals
    that n_modes is too large for the interval.  No more modes than
    quadrature nodes can be independent on them, so more raise BasisError
    before any psi_n is sampled.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    (k, w), k0 = _quadrature(kg), kg.k0
    if n_modes > k.size:
        raise BasisError(
            f"n_modes = {n_modes} exceeds the {k.size} quadrature nodes in k, on which "
            f"at most {k.size} modes can be independent; reduce n_modes"
        )
    psi = np.stack([_psi(n, k, k0) for n in range(1, n_modes + 1)])
    dpsi = np.stack([_dpsi(n, k, k0) for n in range(1, n_modes + 1)])

    phi = np.zeros_like(psi)
    coeff = np.zeros((n_modes, n_modes))
    for n in range(n_modes):
        v = psi[n].copy()
        c = np.zeros(n_modes)
        c[n] = 1.0
        for _ in range(2):
            for m in range(n):
                r = np.sum(w * v * phi[m])
                v -= r * phi[m]
                c -= r * coeff[m]
        nrm = np.sqrt(np.sum(w * v * v))
        ref = np.sqrt(np.sum(w * psi[n] * psi[n]))
        # not >: samples whose squares underflow give 0 on both sides
        if not nrm > GS_DEPENDENCE_TOL * ref:
            raise BasisError(
                f"psi_{n + 1} is numerically dependent on psi_1..psi_{n} "
                f"(residual {nrm:.3e} vs norm {ref:.3e}); reduce n_modes"
            )
        phi[n] = v / nrm
        coeff[n] = c / nrm

    mat_D, mat_S, tensor_B = _matrices_from_samples(phi, coeff @ dpsi, k, w)
    return BasisSet(
        kgrid=kg,
        n_modes=n_modes,
        coeff=coeff,
        mat_D=mat_D,
        mat_S=mat_S,
        tensor_B=tensor_B,
    )


def _matrices_from_samples(phi, dphi, k, w):
    # d_mn = int Phi_m Phi_n' ; s_mn = -2i int Phi_m (Phi_n + k Phi_n') ;
    # b_mn^(l) = int 2k Phi_m Phi_n (Phi_l + k Phi_l')
    g = phi + k * dphi
    mat_D = np.einsum("mq,nq,q->mn", phi, dphi, w)
    mat_S = -2j * np.einsum("mq,nq,q->mn", phi, g, w)
    tensor_B = np.einsum("mq,nq,lq,q->mnl", phi, phi, g, 2.0 * k * w)
    return mat_D, mat_S, tensor_B


def project(samples: np.ndarray, bs: BasisSet) -> np.ndarray:
    """Midpoint-rule projection onto the basis.

    samples has the midpoint axis last, shape (..., n_sub); returns the
    coefficient array of shape (..., n_modes) with entry n approximating
    int f(k) Phi_n(k) dk.
    """
    samples = np.asarray(samples)
    if samples.shape[-1] != bs.kgrid.n_sub:
        raise ValueError(
            f"expected {bs.kgrid.n_sub} midpoint samples, got {samples.shape[-1]}"
        )
    return np.einsum("...r,nr->...n", samples, bs.eval_phi(bs.kgrid.midpoints)) * bs.kgrid.h_k
