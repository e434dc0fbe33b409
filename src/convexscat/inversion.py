"""Gradient-descent reconstruction loop.

Step 1 builds the data carrier F from the transformed Cauchy traces and
starts at V0 = F (so W0 = 0).  Each iteration evaluates the functional and
its gradient at Wn = Vn - F, takes one fixed-size descent step, reads the
coefficient off the stepped field, re-solves the direct problem with it at
every wavenumber, and maps the new fields back to Vn+1.  The loop stops when
consecutive functional values differ by less than the tolerance, or at the
iteration cap, or when a re-solve fails.  Negative values of the final
coefficient are cut to zero only at output time; inner iterates keep their
sign.  The grids come from the data, and the cutoff width is xi = R/10.

Two ingredients keep the re-solve well posed.  Measured traces are smoothed
along the line before the carrier is built (white noise at the grid scale
would otherwise reach the recovery's second differences at 1/h^2 strength),
and recover_coefficient reads the coefficient only on the admissible
support, clear of the outer ring and of the row adjacent to the measurement
line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
from scipy.linalg.blas import dznrm2

from .basis import _check_fields, build_basis
from .carrier import build_carrier, build_cutoff
from .fieldtransform import (
    NearZeroTotalField,
    cauchy_to_v_data,
    log_to_coeffs,
    recover_coefficient,
    smooth_traces,
    total_to_log,
)
from .forward import (
    CauchyData,
    Coefficient,
    IllConditionedSystem,
    solve_forward_multi,
)
from .objective import evaluate_and_gradient

# Widest trace smoothing, in grid spacings.  A Gaussian this wide already
# averages a 225-node measurement line almost flat (its weights vary by 2.5%
# across it); scipy's filter holds 8 sigma + 1 taps, 64 KB here and 59.6 GiB
# at 1e9.
TRACE_SIGMA_MAX = 1e3

__all__ = ["InversionConfig", "IterationRecord", "InversionResult", "run_inversion", "ablation_no_weight"]


@dataclass(frozen=True)
class InversionConfig:
    """Method parameters of the reconstruction; defaults are the reference setup.

    Every field is checked on construction: floats are finite, epsilon and
    tolerance positive, the penalty weights, lam and trace_sigma nonnegative,
    trace_sigma at most TRACE_SIGMA_MAX, max_iterations and n_modes integers
    from 1 to sys.maxsize.  A float field given as an integer (YAML `lam: 0`)
    is then stored as a float, so the manifest writes 0.0 as the default does.
    """

    epsilon: float = 1e-3
    rho: float = 1e-5
    alpha1: float = 1e-3
    alpha2: float = 1e-5
    lam: float = 5.0
    shift: float = 1.0
    tolerance: float = 1e-3
    max_iterations: int = 25
    n_modes: int = 4
    # width (in grid spacings) of the Gaussian applied to each measured mode
    # trace along the line before the carrier is assembled; 0 disables, and
    # at most TRACE_SIGMA_MAX
    trace_sigma: float = 2.5

    def __post_init__(self):
        _check_fields(self)
        for name in ("epsilon", "tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("rho", "alpha1", "alpha2", "lam", "trace_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if self.trace_sigma > TRACE_SIGMA_MAX:
            raise ValueError(f"trace_sigma must be at most {TRACE_SIGMA_MAX:g} grid spacings, "
                             f"got {self.trace_sigma!r}")


@dataclass(frozen=True)
class IterationRecord:
    n: int
    J_value: float
    gradient_norm: float
    a_max: float


@dataclass(frozen=True)
class InversionResult:
    """stop says how the run ended; error is the re-solve failure, if that ended it.

    config is the InversionConfig the loop ran with.  Each record is one
    gradient evaluation; every record but the last was followed by one
    multi-wavenumber re-solve (the last one's failed, if error is set).
    """

    coefficient: Coefficient
    records: tuple
    stop: Literal["tolerance", "iteration_cap", "resolve_failed"]
    config: InversionConfig
    error: Exception | None = None

    @property
    def converged(self) -> bool:
        return self.stop == "tolerance"


def _run_loop(cd: CauchyData, cfg: InversionConfig, keep_best: bool):
    """The descent loop of both public runs.

    keep_best disables the tolerance stop and returns the smallest-J iterate
    instead of the last one.  A failed re-solve ends either run early.  Each
    re-solve is a fresh solve_forward_multi call that keeps nothing for the
    next one.
    """
    grid = cd.grid
    kg = cd.kgrid
    bs = build_basis(kg, cfg.n_modes)

    G0, G1 = cauchy_to_v_data(cd, bs)
    G0 = smooth_traces(G0, cfg.trace_sigma)
    G1 = smooth_traces(G1, cfg.trace_sigma)
    chi = build_cutoff(grid.half_width / 10, grid)
    F = build_carrier(G0, G1, chi, grid)

    V = F.copy()
    records: list[IterationRecord] = []
    stop = error = None
    best = (np.inf, V)

    for n in range(cfg.max_iterations + 1):
        W = V - F
        J, grad = evaluate_and_gradient(W, F, grid, bs, cfg)
        if J < best[0]:
            best = (J, V)

        if not keep_best and records and abs(J - records[-1].J_value) < cfg.tolerance:
            stop = "tolerance"
        elif n == cfg.max_iterations:
            stop = "iteration_cap"
        if stop:
            a_n = recover_coefficient(V, bs, grid)
        else:
            # a step that overflows gives a non-finite coefficient, which the re-solve rejects
            with np.errstate(over="ignore", invalid="ignore"):
                V_step = (W - cfg.epsilon * grad) + F
            a_n = recover_coefficient(V_step, bs, grid)
            try:
                u = solve_forward_multi(a_n, kg)
                V = log_to_coeffs(total_to_log(u, grid, kg), bs)
            except (NearZeroTotalField, IllConditionedSystem) as exc:
                error = exc
                stop = "resolve_failed"

        with np.errstate(over="ignore"):
            grad_norm = float(np.linalg.norm(grad))
        if grad_norm == np.inf:  # the sum of squares overflowed; BLAS's norm is scaled
            grad_norm = float(dznrm2(grad.ravel()))
        records.append(IterationRecord(n, J, grad_norm, float(a_n.values.max())))
        if stop:
            break

    # a tolerance or cap stop recovered a_n from V itself
    if keep_best or error is not None:
        a_n = recover_coefficient(best[1] if keep_best else V, bs, grid)
    return InversionResult(
        coefficient=Coefficient(grid=grid, values=np.maximum(a_n.values, 0.0)),
        records=tuple(records),
        stop=stop,
        config=cfg,
        error=error,
    )


def run_inversion(cd: CauchyData, cfg: InversionConfig) -> InversionResult:
    """Full reconstruction from measured Cauchy data; see module docstring."""
    return _run_loop(cd, cfg, keep_best=False)


def ablation_no_weight(cd: CauchyData, cfg: InversionConfig) -> InversionResult:
    """Unweighted comparison run: lam forced to 0, exactly 20 iterations.

    The tolerance stop is disabled; the returned coefficient comes from the
    iterate with the smallest functional value, which is the fairest reading
    of a run that never meets the stopping rule.
    """
    return _run_loop(cd, replace(cfg, lam=0.0, max_iterations=20), keep_best=True)
