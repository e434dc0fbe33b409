"""Tests for the log change of variables, projection, traces and recovery."""

import numpy as np
import pytest

from convexscat import (
    Disk,
    Grid2D,
    IncidentWave,
    KGrid,
    NearZeroTotalField,
    build_basis,
    cauchy_to_v_data,
    log_to_coeffs,
    project,
    rasterize,
    recover_coefficient,
    simulate_scenario,
    smooth_traces,
    solve_forward_multi,
    total_to_log,
    trace_cauchy,
)
from convexscat.forward import CauchyData
from convexscat.scenarios import get_scenario

# the nodes recover_coefficient reads a on: rows 1..n-3, columns 1..n-2
READABLE = np.s_[1:-2, 1:-1]


def _readable(a):
    """a on the readable nodes, after checking that it is exactly zero elsewhere."""
    outside = a.copy()
    outside[READABLE] = 0.0
    assert not outside.any()
    return a[READABLE]


@pytest.fixture(scope="module")
def disk_data(default_kgrid, default_basis):
    # one mid-resolution solve of the reference disk shared by several tests
    grid = Grid2D(0.8, 56)
    truth = rasterize([Disk(center=(0.0, 0.45), radius=0.2, value=3.0)], grid)
    fields = solve_forward_multi(truth, default_kgrid)
    lf = total_to_log(fields, grid, default_kgrid)
    cd = trace_cauchy(fields[(Ellipsis,) + truth.box], truth, default_kgrid)
    return grid, truth, fields, lf, cd


def _incident_stack(grid, kg):
    _, X2 = grid.mesh()
    return np.stack([IncidentWave.field(X2, k) for k in kg.midpoints])


def test_log_of_incident_field_is_zero(default_kgrid):
    grid = Grid2D(0.8, 10)
    u_in = _incident_stack(grid, default_kgrid)
    lf = total_to_log(u_in, grid, default_kgrid)
    assert np.max(np.abs(lf.v)) <= 1e-14
    assert lf.branch_jumps == 0


def test_log_roundtrip_on_manufactured_field(default_kgrid, default_basis):
    # u = u_in exp(k^2 v0) must give back v0 through the principal log
    grid = Grid2D(0.8, 12)
    X1, X2 = grid.mesh()
    phi1 = default_basis.eval_phi(default_kgrid.midpoints)[0]
    v0 = 0.01 * (X1**2 + X2)[None] * phi1[:, None, None]
    ks = default_kgrid.midpoints[:, None, None]
    u = _incident_stack(grid, default_kgrid) * np.exp(ks**2 * v0)
    lf = total_to_log(u, grid, default_kgrid)
    assert np.max(np.abs(lf.v - v0)) <= 1e-10 * np.max(np.abs(v0))


def test_log_exp_roundtrip_on_scattering_field(default_kgrid, disk_data):
    grid, _, fields, lf, _ = disk_data
    ks = default_kgrid.midpoints[:, None, None]
    u_back = np.exp(ks**2 * lf.v) * _incident_stack(grid, default_kgrid)
    assert np.max(np.abs(u_back - fields)) <= 1e-9 * np.max(np.abs(fields))


def test_log_matches_complex_log_of_the_ratio(default_kgrid, disk_data):
    grid, _, fields, lf, _ = disk_data
    ks = default_kgrid.midpoints[:, None, None]
    v = np.log(fields / _incident_stack(grid, default_kgrid)) / ks**2
    assert np.max(np.abs(lf.v - v)) <= 1e-15


def test_branch_jumps_count_phase_wraps(default_kgrid):
    # the phase of p rises through pi between neighbouring wavenumbers at
    # some nodes and not at others
    grid = Grid2D(0.8, 10)
    X1, X2 = grid.mesh()
    ks = default_kgrid.midpoints[:, None, None]
    p = (1.5 + 0.5 * X1) * np.exp(1j * (1.0 + (ks - 0.5) + 2.0 * X2))
    u = _incident_stack(grid, default_kgrid) * p
    lf = total_to_log(u, grid, default_kgrid)
    jumps = np.count_nonzero(np.abs(np.diff(np.angle(p), axis=0)) > np.pi)
    assert 0 < jumps < p[0].size
    assert lf.branch_jumps == jumps
    assert np.max(np.abs(lf.v - np.log(p) / ks**2)) <= 1e-14


def test_no_branch_jumps_on_reference_disk(disk_data):
    _, _, _, lf, _ = disk_data
    assert lf.branch_jumps == 0


def test_near_zero_field_is_refused(default_kgrid):
    grid = Grid2D(0.8, 8)
    u = _incident_stack(grid, default_kgrid)
    u[3, 4, 4] *= 1e-9
    with pytest.raises(NearZeroTotalField):
        total_to_log(u, grid, default_kgrid)


def test_projection_of_zero_field(default_kgrid, default_basis):
    grid = Grid2D(0.8, 8)
    v = np.zeros((default_kgrid.n_sub, grid.n_nodes, grid.n_nodes), dtype=complex)
    lf = total_to_log(np.exp(default_kgrid.midpoints[:, None, None]**2 * v)
                      * _incident_stack(grid, default_kgrid), grid, default_kgrid)
    V = log_to_coeffs(lf, default_basis)
    assert np.max(np.abs(V)) <= 1e-14


def test_projection_picks_out_single_mode(default_kgrid, default_basis):
    # v(x, k) = c(x) Phi_2(k) projects to (0, c, 0, 0) up to midpoint-rule error
    grid = Grid2D(0.8, 8)
    X1, X2 = grid.mesh()
    c = (0.3 * X1 - 0.2j * X2).astype(complex)
    phi2 = default_basis.eval_phi(default_kgrid.midpoints)[1]
    from convexscat.fieldtransform import LogField

    lf = LogField(v=c[None] * phi2[:, None, None], branch_jumps=0)
    V = log_to_coeffs(lf, default_basis)
    scale = np.max(np.abs(c))
    assert np.max(np.abs(V[1] - c)) <= 5e-3 * scale
    for n in (0, 2, 3):
        assert np.max(np.abs(V[n])) <= 5e-3 * scale


def test_truncation_residual_small_on_reference_disk(default_basis, disk_data):
    # four modes carry the simulated log field to about one percent
    _, _, _, lf, _ = disk_data
    V = log_to_coeffs(lf, default_basis)
    synth = np.moveaxis(V, 0, -1) @ default_basis.eval_phi(default_basis.kgrid.midpoints)
    v_mid = np.moveaxis(lf.v, 0, -1)
    resid = np.linalg.norm(synth - v_mid) / np.linalg.norm(v_mid)
    assert resid < 0.1


def test_null_scatterer_data_transforms_to_zero(default_basis):
    _, clean, _ = simulate_scenario(get_scenario("null"))
    G0, G1 = cauchy_to_v_data(clean, default_basis)
    assert np.max(np.abs(G0)) <= 1e-12
    assert np.max(np.abs(G1)) <= 1e-12


def test_trace_transform_is_the_substitution_formula(default_kgrid, default_basis):
    # craft traces whose transformed values are known exactly, then compare
    # the projected output against the same projection of those values
    grid = Grid2D(0.8, 16)
    x1 = grid.nodes
    ks = default_kgrid.midpoints
    u_in = IncidentWave.field(grid.half_width, ks)
    r = 0.02 * x1**2 - 0.01j * x1
    q = 0.05 * np.cos(x1) + 0.03j * x1
    k2 = ks[None, :] ** 2
    g0 = u_in * np.exp(k2 * r[:, None])
    g1 = (k2 * q[:, None] - 1j * ks[None, :]) * g0
    cd = CauchyData(grid=grid, kgrid=default_kgrid, g0=g0, g1=g1)
    G0, G1 = cauchy_to_v_data(cd, default_basis)
    ones = project(np.ones(default_kgrid.n_sub), default_basis)
    assert np.max(np.abs(G0 - np.outer(ones, r))) <= 1e-12
    assert np.max(np.abs(G1 - np.outer(ones, q))) <= 1e-12


def test_trace_transform_is_the_field_map_on_the_top_row(default_kgrid, default_basis):
    # the data's G0 and the top row of V from the solved fields come from one
    # Log(u/u_in)/k^2, so the alpha1 term compares like with like exactly;
    # the data here are the fields' top row itself, which trace_cauchy gives
    # up to rounding (test_forward)
    sc = get_scenario("example1")
    grid = Grid2D(sc.half_width, sc.n_cells)
    truth = rasterize(sc.shapes, grid)
    fields = solve_forward_multi(truth, default_kgrid)
    g0 = fields[:, -1, :].T
    cd = CauchyData(grid=grid, kgrid=default_kgrid, g0=g0, g1=np.zeros_like(g0))
    V = log_to_coeffs(total_to_log(fields, grid, default_kgrid), default_basis)
    assert np.array_equal(cauchy_to_v_data(cd, default_basis)[0], V[:, -1, :])


def test_trace_transform_refuses_a_basis_on_another_grid():
    # grids are compared by value: an interval off by 1e-5 and a midpoint
    # count off by one are both refused before any projection
    grid = Grid2D(0.8, 8)
    for data_kg, basis_kg in ((KGrid(0.5, 2.0, 50), KGrid(0.5, 2.00001, 50)),
                              (KGrid(0.5, 2.0, 12), KGrid(0.5, 2.0, 11))):
        g0 = np.ones((grid.n_nodes, data_kg.n_sub), dtype=complex)
        cd = CauchyData(grid=grid, kgrid=data_kg, g0=g0, g1=np.zeros_like(g0))
        with pytest.raises(ValueError, match="different wavenumber grids"):
            cauchy_to_v_data(cd, build_basis(basis_kg, 2))


def test_trace_transform_refuses_near_zero_trace(default_kgrid, default_basis):
    grid = Grid2D(0.8, 8)
    ks = default_kgrid.midpoints
    g0 = np.broadcast_to(IncidentWave.field(grid.half_width, ks), (grid.n_nodes, ks.size)).copy()
    g0[2, 5] *= 1e-9
    cd = CauchyData(grid=grid, kgrid=default_kgrid, g0=g0, g1=np.zeros_like(g0))
    with pytest.raises(NearZeroTotalField):
        cauchy_to_v_data(cd, default_basis)


def test_trace_transform_matches_volume_log_derivative(default_kgrid, default_basis, disk_data):
    # chain-rule formula against one-sided differencing of v near the line,
    # at two resolutions to confirm the gap shrinks at second order
    def gap(grid, truth, fields, lf, cd):
        G0, G1 = cauchy_to_v_data(cd, default_basis)
        h = grid.h
        dv = (3 * lf.v[:, -1, :] - 4 * lf.v[:, -2, :] + lf.v[:, -3, :]) / (2 * h)
        FD1 = project(np.moveaxis(dv, 0, -1), default_basis).T
        return np.max(np.abs(FD1 - G1)) / np.max(np.abs(G1))

    coarse = gap(*disk_data)
    grid2 = Grid2D(0.8, 112)
    truth2 = rasterize([Disk(center=(0.0, 0.45), radius=0.2, value=3.0)], grid2)
    fields2 = solve_forward_multi(truth2, default_kgrid)
    lf2 = total_to_log(fields2, grid2, default_kgrid)
    cd2 = trace_cauchy(fields2[(Ellipsis,) + truth2.box], truth2, default_kgrid)
    fine = gap(grid2, truth2, fields2, lf2, cd2)
    assert coarse < 6e-3
    assert coarse / fine > 3.0


def test_recovery_of_zero_field(default_basis):
    grid = Grid2D(0.8, 8)
    V = np.zeros((4, 9, 9), dtype=complex)
    a = recover_coefficient(V, default_basis, grid)
    assert np.max(np.abs(a.values)) == 0.0


def test_recovery_matches_elimination_formula_for_quadratic(default_kgrid, default_basis):
    # projected k-independent quadratic: spatial stencils are exact, the only
    # deviation is the fixed basis-truncation factor of the constant profile
    alpha = 0.1
    kk = default_kgrid.k_min
    for ncells in (12, 24):
        grid = Grid2D(0.8, ncells)
        X1, X2 = grid.mesh()
        v = alpha * (X1**2 + X2**2)
        samples = np.repeat(v[..., None], default_kgrid.n_sub, axis=-1)
        V = np.moveaxis(project(samples, default_basis), -1, 0)
        a = _readable(recover_coefficient(V, default_basis, grid).values)
        target = -(4 * alpha + 4 * kk**2 * alpha**2 * (X1**2 + X2**2))[READABLE]
        rel = np.max(np.abs(a - target)) / np.max(np.abs(target))
        assert rel < 5e-3


def test_recovery_second_order_under_refinement(default_kgrid, default_basis):
    # exactly representable k-profile isolates the spatial discretization
    kk = default_kgrid.k_min
    phi1 = default_basis.eval_phi(kk)[0]
    errs = []
    for ncells in (16, 32, 64):
        grid = Grid2D(0.8, ncells)
        X1, X2 = grid.mesh()
        q = 0.05 * np.sin(2 * X1) * np.cos(X2) + 0.03j * np.cos(X1 + 0.3) * np.sin(2 * X2)
        data = np.zeros((default_basis.n_modes, grid.n_nodes, grid.n_nodes), dtype=complex)
        data[0] = q / phi1
        a = _readable(recover_coefficient(data, default_basis, grid).values)
        q1 = 0.1 * np.cos(2 * X1) * np.cos(X2) - 0.03j * np.sin(X1 + 0.3) * np.sin(2 * X2)
        q2 = -0.05 * np.sin(2 * X1) * np.sin(X2) + 0.06j * np.cos(X1 + 0.3) * np.cos(2 * X2)
        lap = -0.25 * np.sin(2 * X1) * np.cos(X2) - 0.15j * np.cos(X1 + 0.3) * np.sin(2 * X2)
        target = -np.real(lap + kk**2 * (q1 * q1 + q2 * q2) - 2j * kk * q2)[READABLE]
        errs.append(np.max(np.abs(a - target)))
    assert errs[0] / errs[1] > 3.4 and errs[1] / errs[2] > 3.4
    assert errs[2] < 1e-3


def test_recovery_refuses_tiny_grids(default_basis):
    V = np.zeros((4, 3, 3), dtype=complex)
    with pytest.raises(ValueError):
        recover_coefficient(V, default_basis, Grid2D(0.8, 2))
    # mode fields and grid must agree
    with pytest.raises(ValueError):
        recover_coefficient(np.zeros((4, 9, 9), dtype=complex), default_basis, Grid2D(0.8, 9))
    # and so must the mode count and the basis
    with pytest.raises(ValueError, match="3 mode fields for a basis of 4 modes"):
        recover_coefficient(np.zeros((3, 9, 9), dtype=complex), default_basis, Grid2D(0.8, 8))


def test_smoothing_is_off_at_zero_width():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((2, 20)) + 1j * rng.standard_normal((2, 20))
    assert smooth_traces(G, 0.0) is G


def test_smoothing_preserves_constants():
    G = np.full((3, 25), 0.7 - 0.2j)
    sm = smooth_traces(G, 2.5)
    assert np.max(np.abs(sm - G)) <= 1e-13


def test_smoothing_is_linear():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
    B = rng.standard_normal((2, 30)) + 1j * rng.standard_normal((2, 30))
    lhs = smooth_traces(A + 2 * B, 2.5)
    rhs = smooth_traces(A, 2.5) + 2 * smooth_traces(B, 2.5)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_smoothing_kills_grid_scale_oscillation():
    # the component the second-difference recovery would amplify hardest
    n = 29
    alt = np.cos(np.pi * np.arange(n)).astype(complex)
    sm = smooth_traces(alt[None], 2.5)
    assert np.max(np.abs(sm[0, 11:-11])) < 1e-4
