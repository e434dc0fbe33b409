"""Built-in check suite: fast, self-contained correctness probes.

Each check rebuilds what it needs from scratch, measures an error against an
independent reference (closed form, analytic series, or finite differences),
and returns the measured number next to its threshold.  The CLI `validate`
command prints one line per check and exits nonzero if any fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .basis import BasisSet, KGrid, build_basis
from .cylinder import disk_total_field
from .forward import Disk, Grid2D, IncidentWave, rasterize, solve_forward
from .inversion import InversionConfig, run_inversion
from .objective import evaluate_and_gradient
from .scenarios import get_scenario, simulate_scenario

__all__ = [
    "CheckResult",
    "check_basis_orthonormal",
    "check_basis_structure",
    "check_forward_oracle",
    "check_gradient",
    "check_null_scatterer",
    "run_all_checks",
    "format_report",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: measured {self.measured:.3e}, threshold {self.threshold:.0e}{extra}"


def _default_basis() -> BasisSet:
    return build_basis(KGrid(0.5, 2.0, 50), 4)


def check_basis_orthonormal(bs: BasisSet | None = None) -> CheckResult:
    """Gram matrix of eval_phi against the identity, in a 64-node Gauss-Legendre
    rule on [k_min, k_max] that is not the one Gram-Schmidt ran in."""
    bs = _default_basis() if bs is None else bs
    t, w = leggauss(64)
    half = 0.5 * (bs.kgrid.k_max - bs.kgrid.k_min)
    phi = bs.eval_phi(bs.kgrid.k0 + half * t)
    gram = np.einsum("mq,nq,q->mn", phi, phi, half * w)
    resid = float(np.abs(gram - np.eye(bs.n_modes)).max())
    return CheckResult("basis orthonormality", resid < 1e-8, resid, 1e-8)


def check_basis_structure(bs: BasisSet | None = None) -> CheckResult:
    """D must be unit upper triangular: ones on the diagonal, zeros below."""
    bs = _default_basis() if bs is None else bs
    D = bs.mat_D
    diag_err = np.abs(np.diagonal(D) - 1.0).max()
    below = np.abs(np.tril(D, -1)).max()
    worst = float(max(diag_err, below))
    return CheckResult("derivative-matrix structure", worst < 1e-6, worst, 1e-6)


def check_forward_oracle(k: float = 2.0, n_cells: int = 28) -> CheckResult:
    """Volume-integral solve for one disk against the analytic cylinder series.

    Compared on nodes at least one spacing away from the interface, where
    point sampling of the discontinuous coefficient is unambiguous.
    """
    grid = Grid2D(0.8, n_cells)
    disk = Disk(center=(0.0, 0.45), radius=0.2, value=3.0)
    coeff = rasterize([disk], grid)
    u = solve_forward(coeff, k)

    X1, X2 = np.meshgrid(grid.nodes, grid.nodes)
    pts = np.stack([X1, X2], axis=-1)
    exact = disk_total_field(pts, disk.center, disk.radius, disk.value,
                             IncidentWave.direction, k)
    r = np.hypot(X1 - disk.center[0], X2 - disk.center[1])
    away = np.abs(r - disk.radius) >= grid.h
    err = float(np.linalg.norm((u - exact)[away]) / np.linalg.norm(exact[away]))
    return CheckResult("forward disk oracle", err < 0.01, err, 0.01, detail=f"k={k}, Nx={n_cells}")


def check_gradient(seed: int = 7, n_directions: int = 20) -> CheckResult:
    """Analytic gradient against central differences on a tiny grid."""
    rng = np.random.default_rng(seed)
    grid = Grid2D(0.8, 6)
    bs = build_basis(KGrid(0.5, 2.0, 50), 2)
    shape = (bs.n_modes, grid.n_nodes, grid.n_nodes)

    def crandn():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    F = 0.1 * crandn()
    W = 0.1 * crandn()
    cfg = InversionConfig()

    def J(x):
        return evaluate_and_gradient(x, F, grid, bs, cfg)[0]

    grad = evaluate_and_gradient(W, F, grid, bs, cfg)[1]

    t = 1e-6
    worst = 0.0
    for _ in range(n_directions):
        delta = crandn()
        delta /= np.linalg.norm(delta)
        fd = (J(W + t * delta) - J(W - t * delta)) / (2 * t)
        an = float(np.real(np.vdot(grad, delta)))
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-14))
    return CheckResult("objective gradient", worst < 1e-5, worst, 1e-5,
                       detail=f"{n_directions} directions")


def check_null_scatterer() -> CheckResult:
    """Zero coefficient, clean data: the loop must exit at once with a ~ 0."""
    sc = get_scenario("null")
    _, clean, _ = simulate_scenario(sc)
    res = run_inversion(clean, sc.config)
    peak = float(np.abs(res.coefficient.values).max())
    quick = res.converged and len(res.records) <= 3
    return CheckResult("null scatterer", peak < 0.05 and quick, peak, 0.05,
                       detail=f"stopped after {len(res.records) - 1} iterations")


def run_all_checks() -> list[CheckResult]:
    return [
        check_basis_orthonormal(),
        check_basis_structure(),
        check_forward_oracle(),
        check_gradient(),
        check_null_scatterer(),
    ]


def format_report(results) -> str:
    lines = [r.line() for r in results]
    n_bad = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_bad}/{len(results)} checks passed")
    return "\n".join(lines)
