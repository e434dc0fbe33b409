"""Tests for the volume-integral scattering solver, traces and noise."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter
from scipy.special import hankel1, j0, j1, y0, y1

from convexscat import (
    Coefficient,
    Disk,
    Grid2D,
    IncidentWave,
    KGrid,
    Rectangle,
    ablation_no_weight,
    add_noise,
    disk_total_field,
    rasterize,
    solve_forward,
    solve_forward_multi,
    trace_cauchy,
)
from convexscat import forward
from convexscat.forward import (
    K_LEVELS,
    IllConditionedSystem,
    _gmres,
    _kernel_table,
    _lattice_radii,
    _offset_product,
)
from convexscat.scenarios import BUILTIN_SCENARIOS, get_scenario
from convexscat.validate import check_forward_oracle

DISK = Disk(center=(0.0, 0.45), radius=0.2, value=3.0)

# disk (0, 0.45) r=0.2 a=3, downward wave, k=1, probe (0.3, 0.1); first
# computed by the analytic series and cross-checked against a 113x113
# volume solve (relative gap 7.7e-6)
FROZEN_PROBE = 1.0788577122933025 - 2.2894482652345380e-2j


def test_zero_coefficient_returns_incident_field():
    grid = Grid2D(0.8, 12)
    coeff = rasterize([], grid)
    u = solve_forward(coeff, 1.3)
    _, X2 = grid.mesh()
    assert np.array_equal(u, IncidentWave.field(X2, 1.3))
    # its support box is empty, and so is its field on the box
    assert solve_forward(coeff, 1.3, None, True).shape == (0, 0)


def test_incident_wave_is_the_plane_wave_of_its_direction():
    # the x2-only form against exp(ik(d1 x1 + d2 x2)), the oracle's convention
    X1, X2 = Grid2D(0.8, 16).mesh()
    d1, d2 = IncidentWave.direction
    for k in (0.5, 1.3, 4.0):
        assert np.array_equal(IncidentWave.field(X2, k), np.exp(1j * k * (d1 * X1 + d2 * X2)))


def test_probe_value_regression():
    val = disk_total_field(np.array([0.3, 0.1]), (0.0, 0.45), 0.2, 3.0, (0.0, -1.0), 1.0)
    assert abs(complex(val) - FROZEN_PROBE) <= 1e-12


def test_solver_error_shrinks_under_refinement():
    # quadrature is second order; doubling the grid should at least halve it
    e28 = check_forward_oracle(2.0, 28).measured
    e56 = check_forward_oracle(2.0, 56).measured
    assert e56 < e28 / 2


@pytest.mark.parametrize("k", [0.515, 1.985, 6.0, [0.515, 1.985, 6.0], [[0.515, 1.985], [6.0, 3.5]]],
                         ids=["0.515", "1.985", "6.0", "stack3", "stack2x2"])
@pytest.mark.parametrize("ncells", [12, 28, 56])
def test_kernel_table_matches_hankel_function(ncells, k):
    # the dense-solve oracles below read _kernel_table itself, so its values
    # are checked here against scipy's Hankel routine and the self-cell
    # formula; gathered from one Bessel evaluation per distinct radius, they
    # must also be the very bits of an evaluation on every offset
    grid = Grid2D(0.8, ncells)
    k = np.asarray(k, dtype=float)
    n = grid.n_nodes
    table = _kernel_table(grid, k, (n, n))
    assert table.shape == k.shape + (n, n)
    off = np.arange(n)
    rho = np.sqrt(off[:, None] ** 2 + off[None, :] ** 2)
    kr = (k[..., None] * grid.h) * rho[rho > 0]
    got, same = table[..., rho > 0], 0.25j * (j0(kr) + 1j * y0(kr))
    for part in (np.real, np.imag):
        assert np.array_equal(part(got), part(same))
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(same)))
    ref = 0.25j * hankel1(0, kr)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14
    rho0 = grid.h / np.sqrt(np.pi)
    self_cell = 0.25j - (np.euler_gamma + np.log(k * rho0 / 2) - 0.5) / (2 * np.pi)
    assert np.all(np.abs(table[..., 0, 0] - self_cell) <= 1e-15 * np.abs(self_cell))
    # a window's table covers only the offsets it needs: a smaller lattice,
    # square or not, holds the same bits at the same offsets
    for shape in ((n, n), (1, 1), (n // 2, n), (3, n // 3 + 1)):
        assert np.array_equal(_kernel_table(grid, k, shape), table[..., :shape[0], :shape[1]])
    # the cache hands its geometry to every caller, so no caller may write to it
    radii, index = _lattice_radii(n, n - 3)
    assert not radii.flags.writeable and not index.flags.writeable


def _dense_nystrom_field(grid, a, k):
    # the full collocation matrix, assembled entry by entry from the kernel table
    n = grid.n_nodes
    table = _kernel_table(grid, k, (n, n))
    I, J = np.divmod(np.arange(n * n), n)
    G = table[np.abs(I[:, None] - I[None, :]), np.abs(J[:, None] - J[None, :])]
    A = np.eye(n * n) - k * k * grid.h ** 2 * G * a.ravel()[None, :]
    _, X2 = grid.mesh()
    return np.linalg.solve(A, IncidentWave.field(X2, k).ravel()).reshape(n, n)


def _assert_matches_dense_nystrom(grid, a, k):
    dense = _dense_nystrom_field(grid, a, k)
    u = solve_forward(Coefficient(grid, a), k)
    assert np.max(np.abs(u - dense)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_solver_matches_dense_nystrom_system(k):
    # dense support: a flipped or shifted circulant embedding breaks the agreement
    grid = Grid2D(0.8, 12)
    n = grid.n_nodes
    rng = np.random.default_rng(5)
    a = np.zeros((n, n))
    a[1:-1, 1:-1] = rng.uniform(0.2, 3.0, (n - 2, n - 2))
    _assert_matches_dense_nystrom(grid, a, k)


def _sparse_support(kind, n):
    rng = np.random.default_rng(7)
    a = np.zeros((n, n))
    if kind == "node":
        a[6, 4] = 2.0
    elif kind == "row":
        a[5, 2:9] = rng.uniform(0.2, 3.0, 7)
    elif kind == "column":
        a[2:10, 7] = rng.uniform(0.2, 3.0, 8)
    elif kind == "last-column":
        a[3:7, 9:] = rng.uniform(0.2, 3.0, (4, n - 9))
    elif kind == "holed-block":
        a[2:6, 5:11] = rng.uniform(0.2, 3.0, (4, 6))
        a[3, 7] = 0.0
    elif kind == "first-corner":
        a[1:5, 1:4] = rng.uniform(0.2, 3.0, (4, 3))
        a[1, 1] = 0.0
    elif kind == "last-corner":
        a[n - 4:n - 1, n - 6:n - 1] = rng.uniform(0.2, 3.0, (3, 5))
        a[n - 2, n - 2] = 0.0
    return a


@pytest.mark.parametrize("k", [0.5, 2.0])
@pytest.mark.parametrize("kind", ["node", "row", "column", "last-column", "holed-block",
                                  "first-corner", "last-corner"])
def test_box_solve_matches_dense_nystrom_system(kind, k):
    # the solve runs on the support's bounding box and extends the field from
    # it to the grid; a box or an output window shifted by one row or column
    # breaks the agreement.  The corner boxes touch the first and the last
    # interior row and column, the extremes of the box-to-grid offsets.
    grid = Grid2D(0.8, 12)
    _assert_matches_dense_nystrom(grid, _sparse_support(kind, grid.n_nodes), k)


def _rising_block(grid):
    # a block rising from -1.3e7 to 1.1e8 along x2, the shape of a diverged
    # unweighted iterate
    n = grid.n_nodes
    a = np.zeros((n, n))
    a[1:-1, 1:-1] = np.linspace(-1.3e7, 1.1e8, n - 2)[:, None]
    return a


def test_rising_block_on_a_coarse_grid_matches_dense_nystrom_system():
    # condition number about 1.9e7 at 16 cells, and still solved to the bound
    grid = Grid2D(0.8, 16)
    _assert_matches_dense_nystrom(grid, _rising_block(grid), 0.5)


def test_stalled_solve_is_refused():
    # the same block at 28 cells stalls far above the residual bound: after
    # two cycles its average rate cannot reach the bound in the steps left
    grid = Grid2D(0.8, 28)
    with pytest.raises(IllConditionedSystem,
                       match=r"k=0\.5: GMRES stagnated after 200 of 500 iterations "
                             r"with relative residual"):
        solve_forward(Coefficient(grid, _rising_block(grid)), 0.5)


def test_a_non_finite_system_is_refused_before_a_step_uses_it():
    # a coefficient the recovery overflowed to nan, and a finite one so large
    # that the first product overflows, are failed solves, not numpy errors
    coeff = rasterize([DISK], Grid2D(0.8, 16))
    grid, mean = coeff.grid, coeff.cell_mean
    with pytest.raises(IllConditionedSystem, match=r"k=1\.0: coefficient is not finite at \d+ nodes"):
        solve_forward(Coefficient(grid, np.where(mean > 0, np.nan, 0.0)), 1.0)
    with pytest.raises(IllConditionedSystem, match=r"k=1\.0: GMRES Krylov column 1 is not finite"):
        solve_forward(Coefficient(grid, np.where(mean > 0, 1.5e308, 0.0)), 1.0)


def test_restarted_solves_match_dense_nystrom_system(monkeypatch):
    # three steps per cycle: every solve restarts several times, so each
    # restart residual, read from the box window of the box-to-grid product,
    # decides whether a solve goes on; a window shifted by one row or by one
    # column fails this test
    monkeypatch.setattr(forward, "GMRES_RESTART", 3)
    grid = Grid2D(0.8, 12)
    for k in (0.5, 2.0):
        for kind in ("holed-block", "first-corner", "last-corner"):
            _assert_matches_dense_nystrom(grid, _sparse_support(kind, grid.n_nodes), k)
        rng = np.random.default_rng(5)
        a = np.zeros((grid.n_nodes, grid.n_nodes))
        a[1:-1, 1:-1] = rng.uniform(0.2, 3.0, (grid.n_nodes - 2, grid.n_nodes - 2))
        _assert_matches_dense_nystrom(grid, a, k)
    stalled = Grid2D(0.8, 28)
    with pytest.raises(IllConditionedSystem,
                       match=r"k=0\.5: GMRES stagnated after 75 of 500 iterations"):
        solve_forward(Coefficient(stalled, _rising_block(stalled)), 0.5)


def test_gmres_takes_one_step_per_distinct_eigenvalue():
    rng = np.random.default_rng(3)
    d = np.repeat([1.0, 2.5, 4.0 + 1.0j], 7)
    b = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
    x, iterations = _gmres(lambda v: d * v, b, lambda x: b - d * x)
    assert iterations <= 3
    assert np.linalg.norm(d * x - b) <= 1e-12 * np.linalg.norm(b)


def test_gmres_zero_right_hand_side_returns_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = np.zeros(6, dtype=complex)
        x, iterations = _gmres(lambda v: 2.0 * v, b, lambda x: b - 2.0 * x)
    assert iterations == 0
    assert np.array_equal(x, np.zeros(6))


def test_gmres_from_a_start_vector():
    # a start that solves the system takes no step and comes back as is; a
    # perturbed one is driven to the same 1e-12 |b| tolerance as a zero start
    rng = np.random.default_rng(4)
    n = 40
    A = np.eye(n) + 0.3 / np.sqrt(n) * (rng.standard_normal((n, n))
                                        + 1j * rng.standard_normal((n, n)))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    exact = np.linalg.solve(A, b)
    x, iterations = _gmres(lambda v: A @ v, b, lambda x: b - A @ x, exact)
    assert iterations == 0
    assert np.array_equal(x, exact)
    start = exact + 1e-3 * rng.standard_normal(n)
    x, iterations = _gmres(lambda v: A @ v, b, lambda x: b - A @ x, start)
    x0, iterations0 = _gmres(lambda v: A @ v, b, lambda x: b - A @ x)
    assert 0 < iterations <= iterations0
    for solution in (x, x0):
        assert np.linalg.norm(b - A @ solution) <= 1e-12 * np.linalg.norm(b)


def test_gmres_singular_least_squares_factor_is_refused():
    # the zero operator leaves a zero pivot in the cycle's triangular factor;
    # the triangular solve reports it as a failed solve, not a LinAlgError
    b = np.ones(4, dtype=complex)
    with pytest.raises(IllConditionedSystem, match="least-squares factor is singular at column 1"):
        _gmres(lambda v: 0.0 * v, b, lambda x: b)


def test_gmres_stops_after_a_cycle_without_progress():
    # the cyclic shift maps e_j to e_(j+1), so from b = e_1 every Krylov step
    # leaves the residual at |b| until the basis holds all n > GMRES_RESTART
    # unknowns: no progress in the first cycle predicts none in the rest
    n = forward.GMRES_RESTART + 1
    b = np.zeros(n, dtype=complex)
    b[0] = 1.0
    x, iterations = _gmres(lambda v: np.roll(v, 1), b, lambda x: b - np.roll(x, 1))
    assert iterations == forward.GMRES_RESTART
    assert np.linalg.norm(b - np.roll(x, 1)) == pytest.approx(1.0)


def test_gmres_slow_but_converging_solve_runs_to_the_tolerance():
    # 600 distinct eigenvalues over [1, 2000]: each cycle cuts the residual
    # by about 1e-4, so the solve needs four cycles, and the stagnation rule,
    # here against the tolerance itself, never ends it early
    d = np.linspace(1.0, 2000.0, 600)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
    x, iterations = _gmres(lambda v: d * v, b, lambda x: b - d * x)
    assert 3 * forward.GMRES_RESTART < iterations < forward.GMRES_MAX_ITER
    assert np.linalg.norm(b - d * x) <= 1e-12 * np.linalg.norm(b)


def test_unweighted_run_fails_fast_with_the_records_of_a_full_stall(example1_sim,
                                                                    example1_ablation,
                                                                    monkeypatch):
    # the unweighted run's n = 2 re-solve stalls at the lowest wavenumber;
    # it now ends after one cycle, and the run keeps the records and the
    # coefficient it had when the stall ran all GMRES_MAX_ITER steps
    _, _, noisy = example1_sim
    cfg, fast = example1_ablation
    assert fast.stop == "resolve_failed"
    assert isinstance(fast.error, IllConditionedSystem)
    assert re.match(r"scattering solve at k=0\.515: GMRES stagnated after 100 of 500 "
                    r"iterations with relative residual", str(fast.error))
    gmres = forward._gmres
    monkeypatch.setattr(forward, "_gmres", lambda apply, b, residual, x0=None, accept=None:
                        gmres(apply, b, residual, x0, math.inf))
    full = ablation_no_weight(noisy, cfg)
    assert re.match(r"scattering solve at k=0\.515: GMRES stopped after 500 iterations",
                    str(full.error))
    assert full.stop == fast.stop
    assert full.records == fast.records
    assert np.array_equal(full.coefficient.values, fast.coefficient.values)


@pytest.mark.parametrize("boxed", [False, True], ids=["grid", "box"])
def test_solve_from_its_own_solution_extends_it_to_the_grid(boxed, monkeypatch):
    # a start that already meets the tolerance runs no GMRES cycle, so the
    # box-to-window extension and the residual check run on the start
    # itself; on the box window that product is GMRES's own
    coeff = rasterize([DISK], Grid2D(0.8, 16))
    box = coeff.box
    u = solve_forward(coeff, 1.0, None, boxed)
    gmres = forward._gmres
    steps = []

    def counted(*args):
        x, iterations = gmres(*args)
        steps.append(iterations)
        return x, iterations

    monkeypatch.setattr(forward, "_gmres", counted)
    again = solve_forward(coeff, 1.0, u if boxed else u[box], boxed)
    assert steps == [0]
    assert np.max(np.abs(again - u)) <= 1e-12 * np.max(np.abs(u))


def test_solver_rejects_nonpositive_wavenumber():
    grid = Grid2D(0.8, 8)
    coeff = rasterize([], grid)
    # nan fails k <= 0 too, and a disk would reach GMRES with it
    for c in (coeff, rasterize([DISK], grid)):
        for k in (0.0, -2.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="wavenumber must be positive and finite"):
                solve_forward(c, k)


def test_multi_solve_stacks_per_wavenumber():
    grid = Grid2D(0.8, 16)
    truth = rasterize([DISK], grid)
    kg = KGrid(0.5, 2.0, 3)
    stack = solve_forward_multi(truth, kg)
    assert stack.shape == (3, 17, 17)
    for m, k in enumerate(kg.midpoints):
        assert np.array_equal(stack[m], solve_forward(truth, k))


def _count_solves(monkeypatch):
    # records the wavenumber of every solve_forward call from now on; returns
    # the record and the unpatched solve_forward
    calls = []
    solve = forward.solve_forward
    monkeypatch.setattr(forward, "solve_forward",
                        lambda c, k, *rest: calls.append(k) or solve(c, k, *rest))
    return calls, solve


def _full_grid_residual(coeff, k, u):
    # |u - k^2 h^2 K(a u) - u_in| / |u_in| from one grid-to-grid product, with
    # no bounding box and no batching over k
    grid = coeff.grid
    full = (slice(0, grid.n_nodes), slice(0, grid.n_nodes))
    table = (k * k * grid.h ** 2) * _kernel_table(grid, k, (grid.n_nodes,) * 2)
    c = _offset_product(table, coeff.quadrature_mean(), full, full)(u)
    u_in = IncidentWave.field(grid.mesh()[1], k)
    return np.linalg.norm(u - c - u_in) / np.linalg.norm(u_in)


def _iterate_like(grid):
    # dense smooth random field from -1 to 4, the range of an inversion iterate
    n = grid.n_nodes
    z = gaussian_filter(np.random.default_rng(0).standard_normal((n, n)), 2.0)
    a = np.zeros((n, n))
    a[2:-2, 2:-3] = (z[2:-2, 2:-3] - z.min()) / (z.max() - z.min()) * 5.0 - 1.0
    return Coefficient(grid, a)


def _high_contrast(grid):
    # moderate values with a column of spikes in the hundreds along one edge,
    # like the first unweighted iterate
    n = grid.n_nodes
    rng = np.random.default_rng(0)
    a = np.zeros((n, n))
    a[12:-2, 2:-2] = rng.uniform(-25.0, 10.0, (n - 14, n - 4))
    a[12:-2, 2] = rng.uniform(-600.0, 400.0, n - 14)
    return Coefficient(grid, a)


@pytest.mark.parametrize("case", ["example1-28", "example1-56", "iterate-like"])
def test_multi_solve_interpolates_in_k(case, default_kgrid, monkeypatch):
    if case == "iterate-like":
        coeff = _iterate_like(Grid2D(0.8, 28))
    else:
        coeff = rasterize(get_scenario("example1").shapes, Grid2D(0.8, int(case[-2:])))
    calls, solve = _count_solves(monkeypatch)
    stack = forward.solve_forward_multi(coeff, default_kgrid)
    ks = default_kgrid.midpoints
    assert len(calls) < ks.size
    for m, k in enumerate(ks):
        direct = solve(coeff, k)
        if k in calls:
            assert np.array_equal(stack[m], direct)
        assert np.max(np.abs(stack[m] - direct)) <= 1e-10 * np.max(np.abs(direct))
        assert _full_grid_residual(coeff, k, stack[m]) < 1e-10


@pytest.mark.parametrize("case", ["example1-28", "example2b-56"])
def test_windowed_solves_are_the_whole_grid_fields_on_the_window(case, default_kgrid,
                                                                 monkeypatch):
    # the box window holds the whole-grid field's values on its nodes, and
    # every directly solved midpoint is solve_forward's field on the box,
    # bit for bit
    name, ncells = case.split("-")
    coeff = rasterize(get_scenario(name).shapes, Grid2D(0.8, int(ncells)))
    box = coeff.box
    whole = solve_forward_multi(coeff, default_kgrid)
    ks = default_kgrid.midpoints
    calls, solve = _count_solves(monkeypatch)
    stack = forward.solve_forward_multi(coeff, default_kgrid, on_box=True)
    assert len(calls) < ks.size
    assert stack.shape == (ks.size,) + whole[(0,) + box].shape
    part = whole[(Ellipsis,) + box]
    assert np.max(np.abs(stack - part)) <= 1e-12 * np.max(np.abs(part))
    for m, k in enumerate(ks):
        if k in calls:
            assert np.array_equal(stack[m], solve(coeff, k, None, True))


def test_batched_residuals_match_one_product_per_wavenumber(default_kgrid):
    # the chunked residual check against one unbatched grid-to-grid product
    # per field, on fields perturbed away from the solution; 50 wavenumbers
    # make several chunks and a partial last one
    coeff = rasterize(get_scenario("example1").shapes, Grid2D(0.8, 28))
    ks = default_kgrid.midpoints
    rng = np.random.default_rng(2)
    fields = np.stack([solve_forward(coeff, k) for k in ks])
    fields *= 1 + 1e-6 * rng.standard_normal(fields.shape)
    batched = forward._interpolation_residuals(coeff, ks, fields, False)
    direct = [_full_grid_residual(coeff, k, u) for k, u in zip(ks, fields)]
    assert np.allclose(batched, direct, rtol=1e-9, atol=0)
    assert np.all(batched > 1e-8)


@pytest.mark.parametrize("shape", [(54, 54), (45, 49), (3, 54, 54), (4, 45, 49)],
                         ids=["even", "odd", "stacked-even", "stacked-odd"])
def test_fft2_is_bit_identical_to_scipy_fft2(shape):
    # the direct pocketfft call is the transform scipy.fft.fft2 / ifft2 make,
    # bit for bit, written to another array or in place
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for direction, reference in ((True, scipy.fft.fft2), (False, scipy.fft.ifft2)):
        expected = reference(x)
        out = np.empty_like(x)
        assert forward._fft2(x, direction, out) is out
        assert np.array_equal(out, expected)
        inplace = x.copy()
        assert forward._fft2(inplace, direction, inplace) is inplace
        assert np.array_equal(inplace, expected)


def test_circulant_product_reuses_its_buffers_without_stale_values(default_kgrid):
    # one product called several times in a row, on a box window and on a
    # stacked grid window of three wavenumbers: each result, read before the
    # next call, equals the product of a freshly built one
    coeff = rasterize(get_scenario("example1").shapes, Grid2D(0.8, 28))
    grid = coeff.grid
    a = coeff.quadrature_mean()
    box = coeff.box
    full = (slice(0, grid.n_nodes), slice(0, grid.n_nodes))
    k = default_kgrid.midpoints[:3]
    tables = (k * k * grid.h ** 2)[:, None, None] * _kernel_table(grid, k, (grid.n_nodes,) * 2)
    rng = np.random.default_rng(4)
    for table, window in ((tables[0], box), (tables, full)):
        product = _offset_product(table, a[box], box, window)
        for _ in range(3):
            shape = table.shape[:-2] + a[box].shape
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            result = product(v)
            assert result.shape == table.shape[:-2] + tuple(s.stop - s.start for s in window)
            assert np.array_equal(result, _offset_product(table, a[box], box, window)(v))


def test_multi_solve_falls_back_on_high_contrast(default_kgrid, monkeypatch):
    # u/u_in is far from resolved on the first level, so every midpoint is
    # solved directly; only the first level's interior nodes are extra
    coeff = _high_contrast(Grid2D(0.8, 28))
    calls, solve = _count_solves(monkeypatch)
    stack = forward.solve_forward_multi(coeff, default_kgrid)
    ks = default_kgrid.midpoints
    assert len(calls) <= ks.size + 4
    for m, k in enumerate(ks):
        assert np.array_equal(stack[m], solve(coeff, k))


@pytest.mark.parametrize("boxed", [False, True], ids=["grid", "box"])
def test_multi_solve_replaces_a_field_that_fails_the_residual_check(boxed, default_kgrid,
                                                                    monkeypatch):
    check = forward._interpolation_residuals
    refused = []

    def failing(coeff, ks, fields, *rest):
        resid = check(coeff, ks, fields, *rest)
        refused.extend(ks[[5, 20]])
        resid[5], resid[20] = 1.0, np.nan
        return resid

    monkeypatch.setattr(forward, "_interpolation_residuals", failing)
    coeff = rasterize(get_scenario("example1").shapes, Grid2D(0.8, 28))
    calls, solve = _count_solves(monkeypatch)
    stack = forward.solve_forward_multi(coeff, default_kgrid, on_box=boxed)
    assert calls[-2:] == refused
    for k in refused:
        m = int(np.flatnonzero(default_kgrid.midpoints == k)[0])
        assert np.array_equal(stack[m], solve(coeff, k, None, boxed))


def test_multi_solve_falls_back_when_a_node_fails(default_kgrid, monkeypatch):
    # a node between midpoints that cannot be solved sends every midpoint to
    # solve_forward, except the first, which was the first node solved
    coeff = rasterize(get_scenario("example1").shapes, Grid2D(0.8, 28))
    ks = default_kgrid.midpoints
    solve = forward.solve_forward
    calls = []

    def solve_or_fail(c, k, *rest):
        calls.append(k)
        if len(calls) == 2:
            raise IllConditionedSystem("refused")
        return solve(c, k, *rest)

    monkeypatch.setattr(forward, "solve_forward", solve_or_fail)
    stack = forward.solve_forward_multi(coeff, default_kgrid)
    assert calls[1] not in ks
    assert calls[2:] == list(ks[1:])
    for m, k in enumerate(ks):
        assert np.array_equal(stack[m], solve(coeff, k))


def test_finer_level_nodes_start_from_the_coarser_interpolant(default_kgrid, monkeypatch):
    # every node a finer level adds starts GMRES from the coarser level's
    # interpolant and takes fewer steps than from zero; the first level's
    # nodes start from zero
    coeff = rasterize(get_scenario("example1").shapes, Grid2D(0.8, 28))
    gmres = forward._gmres
    steps = []

    def counted(apply, b, residual, x0=None, *rest):
        x, iterations = gmres(apply, b, residual, x0, *rest)
        steps.append((x0 is not None, iterations))
        return x, iterations

    monkeypatch.setattr(forward, "_gmres", counted)
    calls, solve = _count_solves(monkeypatch)
    forward.solve_forward_multi(coeff, default_kgrid)
    nodes = list(zip(calls, steps))
    steps.clear()
    for k, _ in nodes:
        solve(coeff, k)
    first = K_LEVELS[0] + 1
    assert [warm for _, (warm, _) in nodes] == [False] * first + [True] * (len(nodes) - first)
    assert len(nodes) > first
    for (_, (warm, iterations)), (_, cold) in zip(nodes, steps):
        assert iterations < cold if warm else iterations == cold


def test_multi_solve_keeps_no_state_between_calls(default_kgrid):
    # A, then B on another support box, then A again: the second A stack is
    # the first one bit for bit, so no call leaves anything behind for the next
    grid = Grid2D(0.8, 28)
    a = rasterize(get_scenario("example1").shapes, grid)
    b = _iterate_like(grid)
    assert a.box != b.box
    first = solve_forward_multi(a, default_kgrid)
    solve_forward_multi(b, default_kgrid)
    assert np.array_equal(solve_forward_multi(a, default_kgrid), first)


def test_multi_solve_stall_at_the_lowest_k_raises_at_the_first_midpoint(default_kgrid,
                                                                        monkeypatch):
    grid = Grid2D(0.8, 28)
    calls, _ = _count_solves(monkeypatch)
    with pytest.raises(IllConditionedSystem,
                       match=r"^scattering solve at k=0\.515: GMRES stagnated after 200 of 500 "
                             r"iterations"):
        forward.solve_forward_multi(Coefficient(grid, _rising_block(grid)), default_kgrid)
    assert calls == [default_kgrid.midpoints[0]]


def test_trace_of_zero_coefficient_is_incident_data():
    # a null scatterer has no box: no field values, and the incident traces
    grid = Grid2D(0.8, 12)
    coeff = rasterize([], grid)
    kg = KGrid(0.5, 2.0, 4)
    fields = solve_forward_multi(coeff, kg, on_box=True)
    assert fields.shape == (4, 0, 0)
    cd = trace_cauchy(fields, coeff, kg)
    ks = kg.midpoints
    u_in = IncidentWave.field(grid.half_width, ks)
    assert np.max(np.abs(cd.g0 - u_in)) <= 1e-14
    assert np.max(np.abs(cd.g1 - (-1j) * ks * u_in)) <= 1e-14


def test_trace_derivative_matches_one_sided_differences():
    # kernel-differentiated g1 against a 4th-order stencil on the solved rows
    kg = KGrid(0.5, 2.0, 6)

    def gap(ncells):
        grid = Grid2D(0.8, ncells)
        truth = rasterize([DISK], grid)
        f = solve_forward_multi(truth, kg)
        cd = trace_cauchy(f[(Ellipsis,) + truth.box], truth, kg)
        fd = (25 * f[:, -1, :] - 48 * f[:, -2, :] + 36 * f[:, -3, :]
              - 16 * f[:, -4, :] + 3 * f[:, -5, :]) / (12 * grid.h)
        return np.max(np.abs(fd.T - cd.g1)) / np.max(np.abs(cd.g1))

    coarse, fine = gap(56), gap(112)
    assert coarse < 5e-4
    assert coarse / fine > 8


def _direct_kernel_traces(fields, coeff, kg):
    # (g0, g1) from the kernels summed over the full (top row x support)
    # distance matrix, with scipy's Hankel routine; fields on the whole grid
    grid = coeff.grid
    a = coeff.quadrature_mean()
    x1, x2_top = grid.nodes, grid.half_width
    X1, X2 = grid.mesh()
    sup = a != 0
    y1, y2, a_s = X1[sup], X2[sup], a[sup]
    g0, g1 = [], []
    for m, k in enumerate(kg.midpoints):
        dx2 = x2_top - y2[None, :]
        r = np.hypot(x1[:, None] - y1[None, :], dx2)
        K = 0.25j * hankel1(0, k * r)
        dK = -0.25j * k * hankel1(1, k * r) * dx2 / r
        au = (k * k * grid.h ** 2) * a_s * fields[m][sup]
        u_in = IncidentWave.field(x2_top, k)
        g0.append(u_in + K @ au)
        g1.append(1j * k * IncidentWave.direction[1] * u_in + dK @ au)
    return np.stack(g0, axis=1), np.stack(g1, axis=1)


def _holed_rows(grid):
    # support over several rows and both edge columns, so the column offset
    # n-1 is exercised too, with a hole inside
    n = grid.n_nodes
    a = np.zeros((n, n))
    a[2:9, :] = np.random.default_rng(11).uniform(0.2, 3.0, (7, n))
    a[4, 3:6] = 0.0
    return Coefficient(grid, a)


@pytest.mark.parametrize("case", ["holed-rows", "example1", "example2b"])
def test_trace_matches_direct_kernel_sum(case):
    # the offset-table traces from the box part of whole-grid fields against
    # the kernels summed over the full distance matrix; g0 is the field's top
    # row, and so up to rounding what today's whole-grid solve extends it to
    grid = Grid2D(0.8, 12 if case == "holed-rows" else 28)
    coeff = _holed_rows(grid) if case == "holed-rows" else rasterize(get_scenario(case).shapes, grid)
    kg = KGrid(0.5, 2.0, 3)
    fields = solve_forward_multi(coeff, kg)
    box = coeff.box
    cd = trace_cauchy(fields[(Ellipsis,) + box], coeff, kg)
    for got, direct in zip((cd.g0, cd.g1), _direct_kernel_traces(fields, coeff, kg)):
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))
    top = fields[:, -1, :].T
    assert np.max(np.abs(cd.g0 - top)) <= 1e-13 * np.max(np.abs(top))


def _whole_grid_traces(fields, coeff, kg):
    # the traces as read from whole-grid fields before the box window: g0 the
    # top row, g1 the incident derivative plus one FFT convolution of H1 rows
    # along whole rows of a u
    grid = coeff.grid
    n = grid.n_nodes
    mean = coeff.quadrature_mean()
    rows = np.flatnonzero(np.any(mean != 0, axis=1))
    ks = kg.midpoints[:, None, None]
    di = (grid.gamma_row - rows)[:, None]
    rho = np.hypot(di, np.arange(n)[None, :])
    kr = ks * grid.h * rho
    table = (-0.25j * grid.h ** 2) * ks ** 3 * (j1(kr) + 1j * y1(kr)) * (di / rho)
    size = scipy.fft.next_fast_len(2 * n - 1)
    circ = np.zeros(table.shape[:2] + (size,), dtype=complex)
    circ[..., :n] = table
    circ[..., size - n + 1:] = table[..., :0:-1]
    au_hat = scipy.fft.fft(mean[rows] * fields[:, rows, :], size)
    scattered = scipy.fft.ifft(np.einsum("mrf,mrf->mf", scipy.fft.fft(circ), au_hat))[:, :n]
    k = kg.midpoints
    g1 = 1j * k * IncidentWave.direction[1] * IncidentWave.field(grid.half_width, k) + scattered.T
    return fields[:, grid.gamma_row, :].T, g1


@pytest.mark.parametrize("name", ["example1", "example2b"])
def test_box_traces_match_the_whole_grid_traces(name, default_kgrid):
    # the simulate path, box fields and the representation formula, against
    # the top row and the H1 convolution of whole-grid fields: one disk and
    # two, on the refined grid simulate solves them on
    coeff = rasterize(get_scenario(name).shapes, Grid2D(0.8, 56))
    cd = trace_cauchy(solve_forward_multi(coeff, default_kgrid, on_box=True), coeff, default_kgrid)
    reference = _whole_grid_traces(solve_forward_multi(coeff, default_kgrid), coeff, default_kgrid)
    for got, ref in zip((cd.g0, cd.g1), reference):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_trace_refuses_support_on_measurement_row():
    grid = Grid2D(0.8, 12)
    kg = KGrid(0.5, 2.0, 3)
    a = np.zeros((grid.n_nodes, grid.n_nodes))
    a[-1, 5] = 1.0
    coeff = Coefficient(grid, a)
    fields = np.ones((3, 1, 1), dtype=complex)  # the shape of its box
    with pytest.raises(ValueError, match=r"measurement row i = 12"):
        trace_cauchy(fields, coeff, kg)


def test_trace_refuses_fields_of_the_wrong_shape():
    grid = Grid2D(0.8, 12)
    kg = KGrid(0.5, 2.0, 3)
    coeff = rasterize([DISK], grid)
    fields = solve_forward_multi(coeff, kg, on_box=True)
    # whole-grid fields are refused too: the traces read the box only
    for bad in (fields[:2], fields[:, :-1, :], fields[0], solve_forward_multi(coeff, kg)):
        with pytest.raises(ValueError, match=r"fields must have shape"):
            trace_cauchy(bad, coeff, kg)


def test_scattered_field_decays_away_from_support():
    grid = Grid2D(1.6, 56)
    truth = rasterize([DISK], grid)
    u = solve_forward(truth, 1.5)
    _, X2 = grid.mesh()
    sc = np.abs(u - IncidentWave.field(X2, 1.5))
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


def _stack_every_shape(shapes, x1, x2):
    vals = np.zeros(np.broadcast(x1, x2).shape)
    for shape in shapes:
        vals[shape.contains(x1, x2)] = shape.value
    return vals


def _probe_samples(grid):
    # the 5x5 probe of every cell, its edges included
    X1, X2 = grid.mesh()
    probe = np.linspace(-0.5, 0.5, 5) * grid.h
    return (X1[..., None, None] + probe[None, None, :, None],
            X2[..., None, None] + probe[None, None, None, :])


def _one_shot_cut(shapes, grid):
    # a cell is cut when its probe samples hold more than one value or a
    # shape's edge crosses the open square between its edge samples
    probed = _stack_every_shape(shapes, *_probe_samples(grid))
    cut = probed.max(axis=(2, 3)) != probed.min(axis=(2, 3))
    p1, p2 = _probe_samples(grid)
    for shape in shapes:
        cut |= shape.crosses(p1[..., 0, 0], p1[..., -1, 0], p2[..., 0, 0], p2[..., 0, -1])
    return cut


def _midpoint_samples(grid, cells, n_sub=forward._CELL_SAMPLES):
    X1, X2 = grid.mesh()
    sub = (np.arange(n_sub) + 0.5) / n_sub - 0.5
    return (X1[cells][:, None, None] + (sub * grid.h)[None, :, None],
            X2[cells][:, None, None] + (sub * grid.h)[None, None, :])


def _one_shot_cell_mean(shapes, grid, values, n_sub=forward._CELL_SAMPLES):
    # the rasterizer's cut-cell quadrature over the whole grid at once: a
    # 5x5 probe of every cell, then the float mean of n_sub x n_sub midpoint
    # samples of every cut cell, every shape stacked on every sample, later
    # shapes winning
    cut = _one_shot_cut(shapes, grid)
    mean = values.astype(float).copy()
    mean[cut] = _stack_every_shape(shapes, *_midpoint_samples(grid, cut, n_sub)).mean(axis=(1, 2))
    return mean


def _probe_line(grid, node, point):
    # node coordinate plus the probe's point-th offset (0..4, 0 and 4 the
    # cell edges), in the float the rasterizer's probe computes
    return float(grid.nodes[node] + np.linspace(-0.5, 0.5, 5)[point] * grid.h)


def _sample_line(grid, node, point):
    # node coordinate plus the point-th of the _CELL_SAMPLES midpoint
    # offsets, in the float the rasterizer's quadrature computes
    n_sub = forward._CELL_SAMPLES
    return float(grid.nodes[node] + ((np.arange(n_sub) + 0.5) / n_sub - 0.5)[point] * grid.h)


# On these grids x_n - h/2 + h/2 rounds below x_n for node n = 13 (28 cells)
# and n = 27 (56 cells), so a culling box that is not widened misses a shape
# that reaches exactly that cell edge.  A rectangle whose right edge is the
# left edge of column 13 and whose bottom edge is the probe line a quarter
# cell above node row 10:
EDGE_GRID = Grid2D(0.8, 28)
EDGE_RECTANGLE = Rectangle(lo=(-0.3, _probe_line(EDGE_GRID, 10, 3)),
                           hi=(_probe_line(EDGE_GRID, 13, 0), 0.4), value=0.7)
# A disk tangent from below to the bottom edge of cell (27, 13), over a rectangle.
FINE_GRID = Grid2D(0.8, 56)
TANGENT_DISK = Disk(center=(float(FINE_GRID.nodes[13]), _probe_line(FINE_GRID, 27, 0) - 0.1),
                    radius=0.1, value=2.0)
UNDER_TANGENT = Rectangle(lo=(_probe_line(FINE_GRID, 3, 3), _probe_line(FINE_GRID, 1, 3)),
                          hi=(_probe_line(FINE_GRID, 52, 1), 0.35), value=0.3)
# A disk centred on a midpoint sample of cell (30, 20) whose radius, 3.5
# cells, is a whole number of sample spacings, so that the sample lines
# through its sides are tangent to it; and a rectangle whose four edges are
# midpoint sample lines, each sample on an edge inside.
SAMPLE_DISK = Disk(center=(_sample_line(FINE_GRID, 20, 25), _sample_line(FINE_GRID, 30, 5)),
                   radius=3.5 * FINE_GRID.h, value=0.7)
SAMPLE_RECTANGLE = Rectangle(lo=(_sample_line(FINE_GRID, 10, 3), _sample_line(FINE_GRID, 12, 0)),
                             hi=(_sample_line(FINE_GRID, 15, 31), _sample_line(FINE_GRID, 17, 16)),
                             value=0.7)

# On 16 cells node row 9 sits just below 0.1, so its probe line a quarter
# cell up rounds just below 0.125: a strip from 0.125 to 0.140625 contains
# no probe sample of the cells it crosses.  Two equal strips whose gap of
# 0.023 lies between the probe lines at 0.075 and 0.1 hold 0.7 at every
# probe sample of row 9.
STRIP_GRID = Grid2D(0.8, 16)
THIN_STRIP = Rectangle(lo=(0.0, 0.125), hi=(0.25, 0.140625), value=0.3)
GAPPED_STRIPS = (Rectangle(lo=(-0.3, -0.3), hi=(0.3, 0.076), value=0.7),
                 Rectangle(lo=(-0.3, 0.099), hi=(0.3, 0.3), value=0.7))

EDGE_SCENES = {
    # the later shape wins where both reach a cell, also in culled ones
    "rectangle-over-disk": ((Disk(center=(0.0, 0.1), radius=0.3, value=2.0),
                             Rectangle(lo=(-0.05, -0.1), hi=(0.4, 0.3), value=1.5)), EDGE_GRID),
    "rectangle-edge-on-probe-lines": ((EDGE_RECTANGLE,), EDGE_GRID),
    "disk-tangent-to-a-probe-line": ((UNDER_TANGENT, TANGENT_DISK), FINE_GRID),
    "disk-on-sample-lines": ((SAMPLE_DISK,), FINE_GRID),
    "rectangle-edges-on-sample-lines": ((SAMPLE_RECTANGLE, SAMPLE_DISK), FINE_GRID),
    "strip-between-probe-lines": ((THIN_STRIP,), STRIP_GRID),
    "gap-between-probe-lines": (GAPPED_STRIPS, STRIP_GRID),
}


def test_edge_scenes_touch_the_edge_that_an_unwidened_box_misses():
    rect_x1 = EDGE_RECTANGLE.bounds()[1][0]
    assert EDGE_RECTANGLE.contains(rect_x1, EDGE_GRID.nodes[14])
    assert not EDGE_GRID.nodes[13] <= rect_x1 + 0.5 * EDGE_GRID.h
    disk_x2 = _probe_line(FINE_GRID, 27, 0)
    assert TANGENT_DISK.contains(FINE_GRID.nodes[13], disk_x2)
    assert not FINE_GRID.nodes[27] <= TANGENT_DISK.bounds()[1][1] + 0.5 * FINE_GRID.h


def test_sample_line_scenes_put_shape_edges_on_samples():
    # the disk's centre and the rectangle's corners are midpoint samples;
    # the vertical sample line through the disk's left side meets it in at
    # most two samples, and the one through its centre meets it from within
    # a sample spacing of its bottom to within one of its top
    c1, c2 = SAMPLE_DISK.center
    n_sub = forward._CELL_SAMPLES
    spacing = FINE_GRID.h / n_sub
    assert SAMPLE_RECTANGLE.contains(*SAMPLE_RECTANGLE.lo)
    assert SAMPLE_RECTANGLE.contains(*SAMPLE_RECTANGLE.hi)
    column = (FINE_GRID.nodes[:, None]
              + ((np.arange(n_sub) + 0.5) / n_sub - 0.5) * FINE_GRID.h).ravel()
    side = column[np.argmin(np.abs(column - (c1 - SAMPLE_DISK.radius)))]
    assert abs(side - (c1 - SAMPLE_DISK.radius)) < 1e-12
    assert np.count_nonzero(SAMPLE_DISK.contains(side, column)) <= 2
    inside = column[SAMPLE_DISK.contains(c1, column)]
    assert abs(inside[0] - (c2 - SAMPLE_DISK.radius)) < spacing
    assert abs(inside[-1] - (c2 + SAMPLE_DISK.radius)) < spacing


def _assert_rasterize_is_unculled(shapes, grid):
    # node values as every shape stacked on every node, and cell means as
    # the one-shot quadrature of every cell
    coeff = rasterize(shapes, grid)
    X1, X2 = grid.mesh()
    values = _stack_every_shape(shapes, X1, X2)
    assert coeff.values.tobytes() == values.tobytes()
    assert coeff.cell_mean.tobytes() == _one_shot_cell_mean(shapes, grid, values).tobytes()


@pytest.mark.parametrize("n_cells", [28, 56, 112])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_culled_rasterize_is_bit_identical_to_every_shape_on_every_cell(name, n_cells):
    # only the cells some shape's box reaches are probed and sampled, block
    # by block: the same means as with no culling and no blocks at all
    _assert_rasterize_is_unculled(get_scenario(name).shapes, Grid2D(0.8, n_cells))


def test_a_bit_identical_builtin_case_spans_several_blocks():
    # so the block seams of the culled rasterizer are tested
    reach = forward._reach(get_scenario("example2b").shapes, Grid2D(0.8, 112))
    assert np.count_nonzero(reach.any(axis=0)) > 3 * forward._RASTER_BLOCK


@pytest.mark.parametrize("scene", sorted(EDGE_SCENES))
def test_culled_rasterize_is_bit_identical_on_edge_scenes(scene):
    _assert_rasterize_is_unculled(*EDGE_SCENES[scene])


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
@pytest.mark.parametrize("block", [1, 7, 513])
def test_blocks_of_any_size_give_the_one_shot_means(block, name, monkeypatch):
    # one cell per block, so most blocks hold no cut cell; a block size
    # that divides no run of cut cells; and one past the default, so the
    # last block holds a single cell when the reach is a multiple of it
    monkeypatch.setattr(forward, "_RASTER_BLOCK", block)
    _assert_rasterize_is_unculled(get_scenario(name).shapes, Grid2D(0.8, 112))


# shapes clear of the boundary ring of a grid of at least 16 cells on
# (-0.8, 0.8)^2; coordinates are drawn uniformly or snapped to a probe line
_COORD = st.floats(-0.5, 0.3)
_SIZE = st.floats(0.01, 0.25)
_VALUE = st.sampled_from([0.3, 0.7, 1.5, 2.0, 3.0])


@st.composite
def _scene(draw):
    n_cells = draw(st.sampled_from([16, 28, 40]))
    grid = Grid2D(0.8, n_cells)
    probe = np.linspace(-0.5, 0.5, 5) * grid.h

    def coord():
        if draw(st.booleans()):
            return draw(_COORD)
        node = grid.nodes[draw(st.integers(n_cells // 4, 5 * n_cells // 8))]
        return float(node + probe[draw(st.integers(0, 4))])

    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        lo = (coord(), coord())
        if draw(st.booleans()):
            shapes.append(Disk(center=lo, radius=draw(_SIZE), value=draw(_VALUE)))
        else:
            hi = (lo[0] + draw(_SIZE), lo[1] + draw(_SIZE))
            shapes.append(Rectangle(lo=lo, hi=hi, value=draw(_VALUE)))
    return tuple(shapes), grid


@settings(max_examples=25, deadline=None)
@given(scene=_scene())
def test_culled_rasterize_is_bit_identical_on_drawn_scenes(scene):
    _assert_rasterize_is_unculled(*scene)


@settings(max_examples=25, deadline=None)
@given(scene=_scene(), block=st.integers(1, 64))
def test_blocks_of_any_size_give_the_one_shot_means_on_drawn_scenes(scene, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forward, "_RASTER_BLOCK", block)
        _assert_rasterize_is_unculled(*scene)


def _section(shape, x1):
    # the x2 interval [lo, hi] a disk or rectangle covers on each vertical
    # line x1, empty (lo > hi) on the lines that miss it
    if isinstance(shape, Disk):
        (c1, c2), r = shape.center, shape.radius
        on = np.abs(x1 - c1) <= r
        half = np.sqrt(np.where(on, r * r - (x1 - c1) ** 2, 0.0))
        return np.where(on, c2 - half, np.inf), np.where(on, c2 + half, -np.inf)
    on = (x1 >= shape.lo[0]) & (x1 <= shape.hi[0])
    return np.where(on, shape.lo[1], np.inf), np.where(on, shape.hi[1], -np.inf)


def _reference_cell_mean(shapes, grid, n_lines=256):
    # each cell's average of the stacked shapes, later shapes winning: exact
    # along each of n_lines vertical lines of the cell, whose covered
    # segments end where the shapes' sections do, and the midpoint rule
    # across the lines.  A cell whose square misses every shape's bounds
    # averages to 0
    X1, X2 = grid.mesh()
    near = np.zeros(X1.shape, dtype=bool)
    for shape in shapes:
        lo, hi = shape.bounds()
        near |= ((np.abs(X1 - np.clip(X1, lo[0], hi[0])) <= 0.5 * grid.h)
                 & (np.abs(X2 - np.clip(X2, lo[1], hi[1])) <= 0.5 * grid.h))
    mean = np.zeros(X1.shape)
    x1 = X1[near][:, None] + ((np.arange(n_lines) + 0.5) / n_lines - 0.5) * grid.h
    bottom = np.broadcast_to(X2[near][:, None] - 0.5 * grid.h, x1.shape)
    top = bottom + grid.h
    sections = [_section(shape, x1) for shape in shapes]
    ends = np.sort([bottom, top] + [np.clip(e, bottom, top) for sec in sections for e in sec],
                   axis=0)
    total = np.zeros(x1.shape)
    for a, b in zip(ends[:-1], ends[1:]):
        mid = 0.5 * (a + b)
        value = np.zeros(x1.shape)
        for shape, (lo, hi) in zip(shapes, sections):
            value[(mid >= lo) & (mid <= hi)] = shape.value
        total += (b - a) * value
    mean[near] = total.mean(axis=1) / grid.h
    return mean


def _assert_cell_means_are_within_a_sample_line(shapes, grid):
    # the S x S midpoint count of a cut cell is off by less than a sample
    # line at each edge it meets, in x1 and in x2, plus the midpoint rule's
    # error across the lines, so every cell mean is within 3 sum|value| / S
    # of the cell's average; no shape's edge crosses an uncut cell, whose
    # mean is exact.  The builtins come within 0.35 max|value| / S
    coeff = rasterize(shapes, grid)
    bound = 3 * sum(abs(shape.value) for shape in shapes) / forward._CELL_SAMPLES
    error = np.abs(coeff.cell_mean - _reference_cell_mean(shapes, grid))
    assert error.max(initial=0.0) <= bound


@pytest.mark.parametrize("n_cells", [28, 56, 112])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_cell_means_are_within_a_sample_line_of_the_cell_averages(name, n_cells):
    _assert_cell_means_are_within_a_sample_line(get_scenario(name).shapes, Grid2D(0.8, n_cells))


@pytest.mark.parametrize("scene", sorted(EDGE_SCENES))
def test_cell_means_are_within_a_sample_line_of_the_cell_averages_on_edge_scenes(scene):
    _assert_cell_means_are_within_a_sample_line(*EDGE_SCENES[scene])


@settings(max_examples=25, deadline=None)
@given(scene=_scene())
def test_cell_means_are_within_a_sample_line_of_the_cell_averages_on_drawn_scenes(scene):
    _assert_cell_means_are_within_a_sample_line(*scene)


def test_the_reference_cell_mean_is_the_area_of_a_disk_and_of_a_rectangle():
    # the reference integrates a disk and a rectangle over the grid to their
    # areas, the disk to the error of the midpoint rule across the lines
    grid = Grid2D(0.8, 28)
    disk = Disk(center=(0.01, 0.02), radius=0.3, value=2.0)
    rect = Rectangle(lo=(-0.33, -0.21), hi=(0.17, 0.4), value=1.5)
    assert abs(_reference_cell_mean([disk], grid).sum() * grid.h ** 2
               - 2.0 * math.pi * 0.09) < 1e-5
    assert abs(_reference_cell_mean([rect], grid).sum() * grid.h ** 2 - 1.5 * 0.5 * 0.61) < 1e-12


@settings(max_examples=50, deadline=None)
@given(scene=_scene())
def test_a_shape_reaches_every_cell_where_it_contains_a_probe_sample(scene):
    # the culling contract: a shape skipped for a cell contains none of its
    # samples.  The probe's edge samples are the only ones that can lie a
    # rounding error outside a cell's h x h neighbourhood, so they are the
    # ones that need the widened box
    shapes, grid = scene
    X1, X2 = grid.mesh()
    probe = np.linspace(-0.5, 0.5, 5) * grid.h
    p1 = X1[..., None, None] + probe[None, None, :, None]
    p2 = X2[..., None, None] + probe[None, None, None, :]
    for shape, reach in zip(shapes, forward._reach(shapes, grid)):
        assert np.all(reach[shape.contains(p1, p2).any(axis=(2, 3))])


def test_the_strip_scenes_hide_from_the_probe():
    # every probe sample of cell (9, 9), which both scenes cross, holds one
    # value, and the 32 x 32 midpoint samples give the strip and the gap
    # their area
    X1, X2 = _probe_samples(STRIP_GRID)
    for shapes, held in (((THIN_STRIP,), 0.0), (GAPPED_STRIPS, 0.7)):
        assert np.all(_stack_every_shape(shapes, X1[9, 9], X2[9, 9]) == held)
    h = STRIP_GRID.h
    strip = rasterize([THIN_STRIP], STRIP_GRID).cell_mean
    assert abs(strip.sum() * h * h - 0.3 * 0.25 * 0.015625) < 0.3 * 0.25 * h / 32
    gapped = rasterize(GAPPED_STRIPS, STRIP_GRID).cell_mean
    assert abs(gapped.sum() * h * h - 0.7 * 0.6 * 0.577) < 2 * 0.7 * 0.6 * h / 32


@pytest.mark.parametrize("shape, square, crosses", [
    (Rectangle(lo=(0.0, 0.0), hi=(1.0, 1.0), value=1.0), (0.2, 0.4, 0.2, 0.4), False),
    (Rectangle(lo=(0.0, 0.0), hi=(1.0, 1.0), value=1.0), (0.0, 1.0, 0.0, 1.0), False),
    (Rectangle(lo=(0.0, 0.0), hi=(1.0, 1.0), value=1.0), (1.0, 2.0, 0.2, 0.4), False),
    (Rectangle(lo=(0.0, 0.0), hi=(1.0, 1.0), value=1.0), (0.9, 2.0, 0.2, 0.4), True),
    (Rectangle(lo=(0.3, 0.3), hi=(0.4, 0.4), value=1.0), (0.0, 1.0, 0.0, 1.0), True),
    (Disk(center=(0.0, 0.0), radius=1.0, value=1.0), (-0.5, 0.5, -0.5, 0.5), False),
    (Disk(center=(0.0, 0.0), radius=1.0, value=1.0), (1.0, 2.0, -0.5, 0.5), False),
    (Disk(center=(0.0, 0.0), radius=1.0, value=1.0), (0.5, 2.0, 0.5, 2.0), True),
    (Disk(center=(0.0, 0.0), radius=0.1, value=1.0), (-0.5, 0.5, -0.5, 0.5), True),
    (Disk(center=(0.0, 0.0), radius=0.5, value=1.0), (-0.5, 0.5, -0.5, 0.5), True),
], ids=["inside", "equal", "touching", "across", "within", "covering", "tangent", "corner",
        "small", "inscribed"])
def test_a_shape_crosses_a_square_its_edge_meets_inside(shape, square, crosses):
    assert bool(shape.crosses(*square)) is crosses


def test_a_shape_reaches_the_cell_whose_edge_it_touches():
    assert forward._reach([EDGE_RECTANGLE], EDGE_GRID)[0][14, 13]
    assert forward._reach([TANGENT_DISK], FINE_GRID)[0][27, 13]


def test_coefficient_box_is_the_support_box_computed_once():
    coeff = rasterize(get_scenario("example2b").shapes, Grid2D(0.8, 56))
    box = coeff.box
    assert coeff.box is box
    # the bounding box of the cell means, and of the node values without them
    for c in (coeff, Coefficient(grid=coeff.grid, values=coeff.values)):
        ii, jj = np.nonzero(c.quadrature_mean())
        assert c.box == (slice(ii.min(), ii.max() + 1), slice(jj.min(), jj.max() + 1))
    assert coeff.box != Coefficient(grid=coeff.grid, values=coeff.values).box
    assert rasterize([], coeff.grid).box == (slice(0, 0), slice(0, 0))


def test_rasterize_memory_does_not_grow_with_the_interface():
    # example2b's two disks cut 448 cells at 224 cells per side.  The probe
    # and the 32 x 32 samples are taken per block of _RASTER_BLOCK reached
    # cells, so neither grows with the interface or the disks' boxes: the
    # peak is about 3.3 MB, most of it the node-sized arrays (numpy reports
    # its arrays to tracemalloc)
    shapes = get_scenario("example2b").shapes
    tracemalloc.start()
    try:
        rasterize(shapes, Grid2D(0.8, 224))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


def test_rasterize_rejects_boundary_support():
    grid = Grid2D(0.8, 16)
    with pytest.raises(ValueError):
        rasterize([Disk(center=(0.0, 0.7), radius=0.2, value=1.0)], grid)
    # and negative synthetic values
    with pytest.raises(ValueError):
        rasterize([Disk(center=(0.0, 0.0), radius=0.2, value=-1.0)], grid)


def test_rasterize_refuses_a_shape_outside_the_domain_before_sampling():
    # a far disk is refused by its bounds, so its overflowing squares are
    # never computed; a shape that meets the closed domain, even one of
    # radius 1e200, reaches the boundary check without a warning
    grid = Grid2D(0.8, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^shapes\[1\] lies wholly outside the domain "
                                             r"\[-0\.8, 0\.8\]\^2"):
            rasterize([DISK, Disk(center=(1e200, 0.0), radius=0.1, value=1.0)], grid)
        for shape in (Disk(center=(1e200, 0.0), radius=1e200, value=1.0),
                      Rectangle(lo=(0.8, -0.1), hi=(1.0, 0.1), value=1.0)):
            with pytest.raises(ValueError, match="support touches the domain boundary"):
                rasterize([shape], grid)


def _scaled(shape, s):
    if isinstance(shape, Disk):
        return Disk(center=(shape.center[0] * s, shape.center[1] * s), radius=shape.radius * s,
                    value=shape.value)
    return Rectangle(lo=(shape.lo[0] * s, shape.lo[1] * s), hi=(shape.hi[0] * s, shape.hi[1] * s),
                     value=shape.value)


@pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 560], ids=["2^-600", "2^560"])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_rasterize_is_the_same_at_any_power_of_two_scale(name, scale):
    # a disk's squared distances leave the double range at both scales, so
    # its test must compare in units of its radius; scaling by a power of
    # two is exact, and every sample and mean are the same floats
    shapes = get_scenario(name).shapes
    for n_cells in (28, 56):
        coeff = rasterize(shapes, Grid2D(0.8, n_cells))
        scaled = rasterize([_scaled(shape, scale) for shape in shapes],
                           Grid2D(0.8 * scale, n_cells))
        assert np.array_equal(scaled.values, coeff.values)
        assert np.array_equal(scaled.cell_mean, coeff.cell_mean)


def test_disk_contains_at_tiny_and_subnormal_radii():
    # a disk of radius 0.3e-170 holds 57 of the 841 nodes of a 1e-170 domain
    grid = Grid2D(1e-170, 28)
    assert Disk(center=(0.0, 0.0), radius=0.3e-170, value=1.0).contains(*grid.mesh()).sum() == 57
    # the radius's 2^-e would overflow for the smallest subnormal
    tiny = Disk(center=(0.0, 0.0), radius=5e-324, value=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tiny.contains([0.0, 5e-324, 1e-323, 1.0], 0.0).tolist() == [
            True, True, False, False]


def _small_cauchy():
    grid = Grid2D(0.8, 12)
    truth = rasterize([DISK], grid)
    kg = KGrid(0.5, 2.0, 5)
    return trace_cauchy(solve_forward_multi(truth, kg, on_box=True), truth, kg)


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
    for delta in (-0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise level must be finite and nonnegative"):
            add_noise(cd, delta)


def test_grid_validation_and_geometry():
    for half_width in (0.0, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError):
            Grid2D(half_width, 8)
    with pytest.raises(ValueError):
        Grid2D(0.8, 1)
    for n_cells in (6.5, 8.0, True):
        with pytest.raises(ValueError, match="n_cells"):
            Grid2D(0.8, n_cells)
    for k_min, k_max in ((0.5, float("inf")), (float("nan"), 2.0), (0.5, float("nan"))):
        with pytest.raises(ValueError):
            KGrid(k_min, k_max, 4)
    grid = Grid2D(0.8, 28)
    assert grid.n_nodes == 29
    assert grid.h == pytest.approx(1.6 / 28)
    assert grid.nodes[0] == -0.8 and grid.nodes[-1] == 0.8
    assert grid.gamma_row == 28
