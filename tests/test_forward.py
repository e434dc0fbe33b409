"""Tests for the volume-integral scattering solver, traces and noise."""

import numpy as np
import pytest
from scipy.special import hankel1

from convexscat import (
    Coefficient,
    Disk,
    Grid2D,
    IncidentWave,
    Rectangle,
    add_noise,
    disk_total_field,
    make_kgrid,
    rasterize,
    solve_forward,
    solve_forward_multi,
    trace_cauchy,
)
from convexscat.forward import IllConditionedSystem, _kernel_table

WAVE = IncidentWave()
DISK = Disk(center=(0.0, 0.45), radius=0.2, value=3.0)

# disk (0, 0.45) r=0.2 a=3, downward wave, k=1, probe (0.3, 0.1); first
# computed by the analytic series and cross-checked against a 113x113
# volume solve (relative gap 7.7e-6)
FROZEN_PROBE = 1.0788577122933025 - 2.2894482652345380e-2j


def test_zero_coefficient_returns_incident_field():
    grid = Grid2D(0.8, 12)
    coeff = rasterize([], grid)
    u = solve_forward(coeff, 1.3)
    X1, X2 = grid.mesh()
    assert np.array_equal(u, WAVE.field(X1, X2, 1.3))


def test_probe_value_regression():
    val = disk_total_field(np.array([0.3, 0.1]), (0.0, 0.45), 0.2, 3.0, (0.0, -1.0), 1.0)
    assert abs(complex(val) - FROZEN_PROBE) <= 1e-12


def _oracle_error(ncells, k):
    grid = Grid2D(0.8, ncells)
    truth = rasterize([DISK], grid)
    u = solve_forward(truth, k)
    X1, X2 = grid.mesh()
    pts = np.stack([X1, X2], axis=-1)
    exact = disk_total_field(pts, DISK.center, DISK.radius, DISK.value, (0.0, -1.0), k)
    mask = np.abs(np.hypot(X1 - DISK.center[0], X2 - DISK.center[1]) - DISK.radius) > grid.h
    return np.linalg.norm((u - exact)[mask]) / np.linalg.norm(exact[mask])


@pytest.mark.parametrize("k", [1.0, 2.0])
def test_solver_matches_cylinder_series(k):
    assert _oracle_error(28, k) < 0.01


def test_solver_error_shrinks_under_refinement():
    # quadrature is second order; doubling the grid should at least halve it
    e28 = _oracle_error(28, 2.0)
    e56 = _oracle_error(56, 2.0)
    assert e56 < e28 / 2


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_solver_matches_dense_nystrom_system(k):
    # the full collocation matrix, assembled entry by entry from the kernel
    # table; a flipped or shifted circulant embedding breaks the agreement
    grid = Grid2D(0.8, 12)
    n = grid.n_nodes
    rng = np.random.default_rng(5)
    a = np.zeros((n, n))
    a[1:-1, 1:-1] = rng.uniform(0.2, 3.0, (n - 2, n - 2))
    table = _kernel_table(grid, k)
    I, J = np.divmod(np.arange(n * n), n)
    G = table[np.abs(I[:, None] - I[None, :]), np.abs(J[:, None] - J[None, :])]
    A = np.eye(n * n) - k * k * grid.h ** 2 * G * a.ravel()[None, :]
    X1, X2 = grid.mesh()
    dense = np.linalg.solve(A, WAVE.field(X1, X2, k).ravel()).reshape(n, n)
    u = solve_forward(Coefficient(grid, a), k)
    assert np.max(np.abs(u - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_stalled_solve_is_refused():
    # a block rising from -1.3e7 to 1.1e8 along x2, the shape of a diverged
    # unweighted iterate; GMRES stalls far above the residual bound
    grid = Grid2D(0.8, 16)
    n = grid.n_nodes
    a = np.zeros((n, n))
    a[1:-1, 1:-1] = np.linspace(-1.3e7, 1.1e8, n - 2)[:, None]
    with pytest.raises(IllConditionedSystem,
                       match=r"k=0\.5: GMRES stopped after \d+ iterations with relative residual"):
        solve_forward(Coefficient(grid, a), 0.5)


def test_solver_rejects_nonpositive_wavenumber():
    grid = Grid2D(0.8, 8)
    coeff = rasterize([], grid)
    with pytest.raises(ValueError):
        solve_forward(coeff, 0.0)
    with pytest.raises(ValueError):
        solve_forward(coeff, -2.0)


def test_multi_solve_stacks_per_wavenumber():
    grid = Grid2D(0.8, 16)
    truth = rasterize([DISK], grid)
    kg = make_kgrid(0.5, 2.0, 3)
    stack = solve_forward_multi(truth, kg)
    assert stack.shape == (3, 17, 17)
    for m, k in enumerate(kg.midpoints):
        assert np.array_equal(stack[m], solve_forward(truth, k))


def test_trace_of_zero_coefficient_is_incident_data():
    grid = Grid2D(0.8, 12)
    coeff = rasterize([], grid)
    kg = make_kgrid(0.5, 2.0, 4)
    fields = solve_forward_multi(coeff, kg)
    cd = trace_cauchy(fields, coeff, kg)
    x1 = grid.nodes
    ks = kg.midpoints
    u_in = WAVE.field(x1[:, None], grid.half_width, ks[None, :])
    assert np.max(np.abs(cd.g0 - u_in)) <= 1e-14
    assert np.max(np.abs(cd.g1 - (-1j) * ks[None, :] * u_in)) <= 1e-14


def test_trace_derivative_matches_one_sided_differences():
    # kernel-differentiated g1 against a 4th-order stencil on the solved rows
    kg = make_kgrid(0.5, 2.0, 6)

    def gap(ncells):
        grid = Grid2D(0.8, ncells)
        truth = rasterize([DISK], grid)
        f = solve_forward_multi(truth, kg)
        cd = trace_cauchy(f, truth, kg)
        fd = (25 * f[:, -1, :] - 48 * f[:, -2, :] + 36 * f[:, -3, :]
              - 16 * f[:, -4, :] + 3 * f[:, -5, :]) / (12 * grid.h)
        return np.max(np.abs(fd.T - cd.g1)) / np.max(np.abs(cd.g1))

    coarse, fine = gap(56), gap(112)
    assert coarse < 5e-4
    assert coarse / fine > 8


def test_trace_matches_direct_kernel_sum():
    # the offset-table trace against the kernel summed over the full
    # (top row x support) distance matrix; support spans several rows and
    # both edge columns, so the column offset n-1 is exercised too
    grid = Grid2D(0.8, 12)
    n = grid.n_nodes
    kg = make_kgrid(0.5, 2.0, 3)
    rng = np.random.default_rng(11)
    a = np.zeros((n, n))
    a[2:9, :] = rng.uniform(0.2, 3.0, (7, n))
    a[4, 3:6] = 0.0
    coeff = Coefficient(grid, a)
    fields = solve_forward_multi(coeff, kg)
    cd = trace_cauchy(fields, coeff, kg)

    x1, x2_top = grid.nodes, grid.half_width
    X1, X2 = grid.mesh()
    sup = a != 0
    y1, y2, a_s = X1[sup], X2[sup], a[sup]
    for m, k in enumerate(kg.midpoints):
        dx2 = x2_top - y2[None, :]
        r = np.hypot(x1[:, None] - y1[None, :], dx2)
        dK = -0.25j * k * hankel1(1, k * r) * dx2 / r
        g1 = WAVE.dx2(x1, x2_top, k) + (k * k * grid.h ** 2) * (dK @ (a_s * fields[m][sup]))
        assert np.max(np.abs(cd.g1[:, m] - g1)) <= 1e-12 * np.max(np.abs(g1))
    assert np.array_equal(cd.g0, fields[:, -1, :].T)


def test_trace_refuses_support_on_measurement_row():
    grid = Grid2D(0.8, 12)
    kg = make_kgrid(0.5, 2.0, 3)
    a = np.zeros((grid.n_nodes, grid.n_nodes))
    a[-1, 5] = 1.0
    coeff = Coefficient(grid, a)
    fields = solve_forward_multi(rasterize([], grid), kg)
    with pytest.raises(ValueError, match=r"measurement row i = 12"):
        trace_cauchy(fields, coeff, kg)


def test_trace_refuses_fields_of_the_wrong_shape():
    grid = Grid2D(0.8, 12)
    kg = make_kgrid(0.5, 2.0, 3)
    coeff = rasterize([DISK], grid)
    fields = solve_forward_multi(coeff, kg)
    for bad in (fields[:2], fields[:, :-1, :], fields[0]):
        with pytest.raises(ValueError, match=r"fields must have shape"):
            trace_cauchy(bad, coeff, kg)


def test_scattered_field_decays_away_from_support():
    grid = Grid2D(1.6, 56)
    truth = rasterize([DISK], grid)
    u = solve_forward(truth, 1.5)
    X1, X2 = grid.mesh()
    sc = np.abs(u - WAVE.field(X1, X2, 1.5))
    row_max = sc.max(axis=1)
    rows = grid.nodes
    # support occupies x2 in [0.25, 0.65]; march away on both sides
    below = row_max[rows < 0.25 - 1e-9][::-1]
    above = row_max[rows > 0.65 + 1e-9]
    for seq in (below, above):
        assert len(seq) > 10
        assert all(b <= a * 1.1 for a, b in zip(seq, seq[1:]))


def test_rasterize_membership_and_overlap():
    grid = Grid2D(0.8, 16)
    base = Disk(center=(0.0, 0.4), radius=0.25, value=1.0)
    top = Rectangle(lo=(-0.1, 0.3), hi=(0.1, 0.5), value=2.0)
    coeff = rasterize([base, top], grid)
    X1, X2 = grid.mesh()
    inside_top = top.contains(X1, X2)
    only_base = base.contains(X1, X2) & ~inside_top
    assert np.all(coeff.values[inside_top] == 2.0)
    assert np.all(coeff.values[only_base] == 1.0)
    assert np.all(coeff.values[~(inside_top | only_base)] == 0.0)
    # cell averages interpolate across the interface and never overshoot
    assert np.all(coeff.cell_mean >= 0) and np.all(coeff.cell_mean <= 2.0)
    cut = coeff.cell_mean != coeff.values
    assert np.any(cut)


def test_rasterize_rejects_boundary_support():
    grid = Grid2D(0.8, 16)
    with pytest.raises(ValueError):
        rasterize([Disk(center=(0.0, 0.7), radius=0.2, value=1.0)], grid)
    # and negative synthetic values
    with pytest.raises(ValueError):
        rasterize([Disk(center=(0.0, 0.0), radius=0.2, value=-1.0)], grid)


def _small_cauchy():
    grid = Grid2D(0.8, 12)
    truth = rasterize([DISK], grid)
    kg = make_kgrid(0.5, 2.0, 5)
    fields = solve_forward_multi(truth, kg)
    return trace_cauchy(fields, truth, kg)


def test_noise_level_is_exact_in_weighted_norm():
    cd = _small_cauchy()
    noisy = add_noise(cd, 0.05, seed=7)
    # independent trapezoid weights over boundary x wavenumber
    wx = np.full(cd.grid.n_nodes, cd.grid.h)
    wx[0] = wx[-1] = cd.grid.h / 2
    wk = np.full(cd.kgrid.n_sub, cd.kgrid.h_k)
    wk[0] = wk[-1] = cd.kgrid.h_k / 2
    w = wx[:, None] * wk[None, :]

    def norm(z):
        return np.sqrt(np.sum(w * np.abs(z) ** 2))

    assert abs(norm(noisy.g0 - cd.g0) / norm(cd.g0) - 0.05) <= 1e-12
    assert abs(norm(noisy.g1 - cd.g1) / norm(cd.g1) - 0.05) <= 1e-12
    assert noisy.noise_level == 0.05 and noisy.seed == 7


def test_noise_is_deterministic_per_seed():
    cd = _small_cauchy()
    a = add_noise(cd, 0.05, seed=3)
    b = add_noise(cd, 0.05, seed=3)
    c = add_noise(cd, 0.05, seed=4)
    assert np.array_equal(a.g0, b.g0) and np.array_equal(a.g1, b.g1)
    assert not np.array_equal(a.g0, c.g0)


def test_zero_noise_returns_data_unchanged():
    cd = _small_cauchy()
    assert add_noise(cd, 0.0, seed=1) is cd
    with pytest.raises(ValueError):
        add_noise(cd, -0.01)


def test_grid_validation_and_geometry():
    for half_width in (0.0, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError):
            Grid2D(half_width, 8)
    with pytest.raises(ValueError):
        Grid2D(0.8, 1)
    for k_min, k_max in ((0.5, float("inf")), (float("nan"), 2.0), (0.5, float("nan"))):
        with pytest.raises(ValueError):
            make_kgrid(k_min, k_max, 4)
    grid = Grid2D(0.8, 28)
    assert grid.n_nodes == 29
    assert grid.h == pytest.approx(1.6 / 28)
    assert grid.nodes[0] == -0.8 and grid.nodes[-1] == 0.8
    assert grid.gamma_row == 28
