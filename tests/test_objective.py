"""Tests for the weighted functional, its residual and its gradient.

The main oracle is _loop_J: a deliberately slow node-by-node transcription
of the discretized functional that addresses the unknowns only through the
lined (flat) indexing.  Agreement with evaluate_and_gradient therefore pins
both the arithmetic and the index bookkeeping at once.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexscat import (
    Grid2D,
    InversionConfig,
    KGrid,
    build_basis,
    evaluate_and_gradient,
)
from convexscat.objective import _carleman_weight, _q_interior


@pytest.fixture(scope="module")
def small_basis():
    # cheap two-mode basis for gradient instances
    return build_basis(KGrid(0.5, 2.0, 12), 2)


def _rand_field(grid, n_modes, rng, scale=0.1):
    shape = (n_modes, grid.n_nodes, grid.n_nodes)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _zero_field(grid, n_modes):
    return np.zeros((n_modes, grid.n_nodes, grid.n_nodes), dtype=complex)


def _lined(a):
    """Flat vector of [r, i, j] fields with i fastest, then j, then r."""
    return a.transpose(0, 2, 1).reshape(-1)


def _params(bs, F, grid, rho=1e-5, alpha1=1e-3, alpha2=1e-5, lam=5.0, shift=1.0):
    """Everything evaluate_and_gradient takes after W, in call order."""
    cfg = InversionConfig(rho=rho, alpha1=alpha1, alpha2=alpha2, lam=lam, shift=shift)
    return F, grid, bs, cfg


def _J(W, params):
    return evaluate_and_gradient(W, *params)[0]


def _loop_J(W, params):
    """Node-by-node transcription of the functional over the lined vector.

    Indices (i, j, r) are one-based, i the x2 row; the flat address is
    (i-1) + (j-1) n + (r-1) n^2 with n nodes per side.  No vectorization and
    no shared helpers with the implementation under test.
    """
    F, grid, bs, cfg = params
    n = grid.n_nodes
    npts = n * n
    N = W.shape[0]
    h = grid.h
    nodes = grid.nodes
    w = _lined(W)
    wh = w + _lined(F)
    lam, shift = cfg.lam, cfg.shift
    D, S, B = bs.mat_D, bs.mat_S, bs.tensor_B

    def m(i, j, r):
        return (i - 1) + (j - 1) * n + (r - 1) * npts

    def phi(i):
        t = nodes[i - 1] - shift
        return math.exp(-lam * t * t)

    J = 0.0
    for mm in range(1, N + 1):
        for j in range(2, n):
            for i in range(2, n):
                acc = 0.0 + 0.0j
                for r in range(1, N + 1):
                    acc += D[mm - 1, r - 1] / h**2 * (
                        wh[m(i + 1, j, r)] + wh[m(i - 1, j, r)]
                        + wh[m(i, j + 1, r)] + wh[m(i, j - 1, r)]
                        - 4 * wh[m(i, j, r)]
                    )
                    for s in range(1, N + 1):
                        acc += B[mm - 1, r - 1, s - 1] / h**2 * (
                            wh[m(i, j + 1, r)] - wh[m(i, j, r)]
                        ) * (wh[m(i, j + 1, s)] - wh[m(i, j, s)])
                        acc += B[mm - 1, r - 1, s - 1] / h**2 * (
                            wh[m(i + 1, j, r)] - wh[m(i, j, r)]
                        ) * (wh[m(i + 1, j, s)] - wh[m(i, j, s)])
                    acc += S[mm - 1, r - 1] / h * (wh[m(i + 1, j, r)] - wh[m(i, j, r)])
                J += h**2 * abs(acc * phi(i)) ** 2

    for r in range(1, N + 1):
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                J += cfg.rho * h**2 * abs(w[m(i, j, r)]) ** 2
        for j in range(2, n):
            for i in range(2, n):
                J += cfg.rho * h**2 * (
                    abs((w[m(i, j + 1, r)] - w[m(i, j, r)]) / h) ** 2
                    + abs((w[m(i + 1, j, r)] - w[m(i, j, r)]) / h) ** 2
                    + abs((w[m(i, j + 1, r)] - 2 * w[m(i, j, r)] + w[m(i, j - 1, r)]) / h**2) ** 2
                    + abs((w[m(i + 1, j, r)] - 2 * w[m(i, j, r)] + w[m(i - 1, j, r)]) / h**2) ** 2
                    + 2 * abs((
                        w[m(i + 1, j + 1, r)] - w[m(i - 1, j + 1, r)]
                        - w[m(i + 1, j - 1, r)] + w[m(i - 1, j - 1, r)]
                    ) / h**2) ** 2
                )
        for j in range(1, n + 1):
            J += cfg.alpha1 * h * abs(w[m(n, j, r)]) ** 2
        for j in range(2, n):
            J += cfg.alpha2 * h * abs((w[m(n, j, r)] - w[m(n - 1, j, r)]) / h) ** 2
    return J


def test_value_matches_loop_oracle_tiny():
    # single mode, 5x5 grid, no carrier: the smallest nontrivial instance
    grid = Grid2D(0.8, 4)
    bs = build_basis(KGrid(0.5, 2.0, 12), 1)
    rng = np.random.default_rng(3)
    W = _rand_field(grid, 1, rng, scale=0.5)
    params = _params(bs, _zero_field(grid, 1), grid)
    J = _J(W, params)
    J_loop = _loop_J(W, params)
    assert abs(J - J_loop) <= 1e-12 * max(1.0, abs(J_loop))


def test_value_matches_loop_oracle_with_carrier():
    # three modes, 8x8 grid, nonzero carrier and all regularizers on; then the
    # same node count with another spacing, and other penalty weights on the
    # first grid, so operators or forms cached under too short a key show
    grid = Grid2D(0.8, 7)
    bs = build_basis(KGrid(0.5, 2.0, 12), 3)
    rng = np.random.default_rng(11)
    W = _rand_field(grid, 3, rng, scale=0.3)
    F = _rand_field(grid, 3, rng, scale=0.2)
    weights = dict(rho=3e-4, alpha1=2e-2, alpha2=7e-4, lam=2.5)
    for params in (
        _params(bs, F, grid, **weights),
        _params(bs, F, Grid2D(1.0, 7), **weights),
        _params(bs, F, grid, rho=2e-2, alpha1=0.4, alpha2=5e-2, lam=2.5),
    ):
        J = _J(W, params)
        J_loop = _loop_J(W, params)
        assert abs(J - J_loop) <= 1e-12 * max(1.0, abs(J_loop))


def test_residual_zero_for_constant_field():
    grid = Grid2D(0.8, 6)
    bs = build_basis(KGrid(0.5, 2.0, 12), 2)
    data = np.ones((2, 7, 7), dtype=complex) * (1.3 - 0.4j)
    q = _q_interior(data, bs, grid)[0]
    assert q.shape == (2, 5, 5)
    assert np.max(np.abs(q)) == 0.0


def test_residual_matches_hand_stencil_on_3x3():
    # one interior node; recompute the single residual component by hand
    grid = Grid2D(0.8, 2)
    bs = build_basis(KGrid(0.5, 2.0, 12), 1)
    h = grid.h
    vals = np.array(
        [
            [0.3 + 0.1j, -0.2 + 0.5j, 1.1 - 0.7j],
            [0.8 - 0.3j, 0.4 + 0.9j, -0.6 + 0.2j],
            [-1.0 + 0.6j, 0.7 - 0.1j, 0.2 + 0.8j],
        ]
    )
    d = bs.mat_D[0, 0]
    b = bs.tensor_B[0, 0, 0]
    s = bs.mat_S[0, 0]
    lap = vals[2, 1] + vals[0, 1] + vals[1, 2] + vals[1, 0] - 4 * vals[1, 1]
    f1 = vals[1, 2] - vals[1, 1]
    f2 = vals[2, 1] - vals[1, 1]
    expected = d * lap / h**2 + b * (f1 * f1 + f2 * f2) / h**2 + s * f2 / h
    got = _q_interior(vals[None], bs, grid)[0][0, 0, 0]
    assert abs(got - expected) <= 1e-13 * abs(expected)


def test_residual_quadratic_in_x2_closed_form():
    # Vhat_1 = x2^2 collapses every stencil to a closed form in x2
    grid = Grid2D(0.8, 8)
    bs = build_basis(KGrid(0.5, 2.0, 12), 1)
    h = grid.h
    _, X2 = grid.mesh()
    q = _q_interior((X2**2).astype(complex)[None], bs, grid)[0][0]
    d = bs.mat_D[0, 0]
    b = bs.tensor_B[0, 0, 0]
    s = bs.mat_S[0, 0]
    x2 = X2[1:-1, 1:-1]
    expected = 2 * d + b * (2 * x2 + h) ** 2 + s * (2 * x2 + h)
    assert np.max(np.abs(q - expected)) <= 1e-11 * np.max(np.abs(expected))


def test_zero_argument_is_stationary(small_basis):
    grid = Grid2D(0.8, 6)
    W = _zero_field(grid, 2)
    params = _params(small_basis, _zero_field(grid, 2), grid)
    J, grad = evaluate_and_gradient(W, *params)
    assert J == 0.0
    assert grad.shape == W.shape
    assert np.max(np.abs(grad)) == 0.0


def test_weight_closed_form_values():
    grid = Grid2D(0.8, 8)
    prof = _carleman_weight(grid, lam=5.0, shift=1.0)
    i_top = grid.gamma_row
    assert math.isclose(prof[i_top], math.exp(-5 * (0.8 - 1.0) ** 2), rel_tol=1e-15)
    assert np.all(prof > 0) and np.all(prof <= 1)
    # grows monotonically toward the measurement row since shift > half_width
    assert np.all(np.diff(prof) > 0)


def _fd_pair(W, params, delta, t=1e-6):
    fd = (_J(W + t * delta, params) - _J(W - t * delta, params)) / (2 * t)
    ip = float(np.real(np.vdot(evaluate_and_gradient(W, *params)[1], delta)))
    return fd, ip


def test_gradient_matches_central_differences(small_basis):
    grid = Grid2D(0.8, 6)
    rng = np.random.default_rng(7)
    W = _rand_field(grid, 2, rng)
    params = _params(small_basis, _rand_field(grid, 2, rng), grid)
    for _ in range(5):
        delta = rng.standard_normal(W.shape)
        for d in (delta, 1j * delta):
            fd, ip = _fd_pair(W, params, d)
            assert abs(fd - ip) <= 1e-5 * max(1.0, abs(fd))


def test_gradient_consistent_along_descent(small_basis):
    # the finite-difference identity holds at the points a descent run visits
    grid = Grid2D(0.8, 6)
    rng = np.random.default_rng(19)
    W = _rand_field(grid, 2, rng, scale=0.05)
    params = _params(small_basis, _rand_field(grid, 2, rng, scale=0.05), grid)
    visited = [W]
    J_seen = [_J(W, params)]
    for _ in range(2):
        g = evaluate_and_gradient(visited[-1], *params)[1]
        visited.append(visited[-1] - 3e-4 * g)
        J_seen.append(_J(visited[-1], params))
    assert all(b < a for a, b in zip(J_seen, J_seen[1:]))
    for Wn in visited:
        delta = rng.standard_normal(Wn.shape)
        fd, ip = _fd_pair(Wn, params, delta)
        assert abs(fd - ip) <= 1e-5 * max(1.0, abs(fd))


def _h2_form_matrix(grid, rho, alpha1, alpha2):
    """The quadratic form behind the regularizers as an explicit dense matrix.

    Every penalized difference contributes c * l l^T with l its stencil row;
    the gradient of w^H M w in the repo convention is then exactly 2 M w.
    """
    n = grid.n_nodes
    h = grid.h
    M = np.zeros((n * n, n * n))

    def add(row, c):
        v = np.zeros(n * n)
        for (i, j), val in row.items():
            v[(i - 1) + (j - 1) * n] = val
        M[:] += c * np.outer(v, v)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            add({(i, j): 1.0}, rho * h * h)
    for i in range(2, n):
        for j in range(2, n):
            add({(i, j + 1): 1 / h, (i, j): -1 / h}, rho * h * h)
            add({(i + 1, j): 1 / h, (i, j): -1 / h}, rho * h * h)
            add({(i, j + 1): 1 / h**2, (i, j): -2 / h**2, (i, j - 1): 1 / h**2}, rho * h * h)
            add({(i + 1, j): 1 / h**2, (i, j): -2 / h**2, (i - 1, j): 1 / h**2}, rho * h * h)
            add(
                {
                    (i + 1, j + 1): 1 / h**2,
                    (i - 1, j + 1): -1 / h**2,
                    (i + 1, j - 1): -1 / h**2,
                    (i - 1, j - 1): 1 / h**2,
                },
                2 * rho * h * h,
            )
    for j in range(1, n + 1):
        add({(n, j): 1.0}, alpha1 * h)
    for j in range(2, n):
        add({(n, j): 1 / h, (n - 1, j): -1 / h}, alpha2 * h)
    return M


def test_pure_regularizer_gradient_matches_explicit_matrix():
    # zero out D, S, B so only the quadratic regularizers remain
    grid = Grid2D(0.8, 4)
    bs = build_basis(KGrid(0.5, 2.0, 12), 1)
    bs0 = replace(
        bs,
        mat_D=np.zeros_like(bs.mat_D),
        mat_S=np.zeros_like(bs.mat_S),
        tensor_B=np.zeros_like(bs.tensor_B),
    )
    rho, a1, a2 = 0.7, 0.3, 0.11
    params = _params(bs0, _zero_field(grid, 1), grid, rho=rho, alpha1=a1, alpha2=a2)
    rng = np.random.default_rng(23)
    W = _rand_field(grid, 1, rng, scale=1.0)
    M = _h2_form_matrix(grid, rho, a1, a2)
    flat = _lined(W)
    expected_grad = 2 * (M @ flat)
    J, grad = evaluate_and_gradient(W, *params)
    got = _lined(grad)
    assert np.max(np.abs(got - expected_grad)) <= 1e-12 * np.max(np.abs(expected_grad))
    J_form = float(np.real(np.vdot(flat, M @ flat)))
    assert abs(J - J_form) <= 1e-12 * J_form


@given(seed=st.integers(0, 2**31 - 1), lam_lo=st.floats(0.0, 8.0), step=st.floats(0.01, 8.0))
@settings(max_examples=20, deadline=None)
def test_raising_weight_strength_never_raises_residual(default_basis, seed, lam_lo, step):
    # phi^2 is pointwise nonincreasing in lam away from x2 = shift
    grid = Grid2D(0.8, 8)
    rng = np.random.default_rng(seed)
    W = _rand_field(grid, default_basis.n_modes, rng)
    F = _zero_field(grid, default_basis.n_modes)

    def residual_term(lam):
        return _J(W, _params(default_basis, F, grid, rho=0.0, alpha1=0.0, alpha2=0.0, lam=lam))

    J_lo = residual_term(lam_lo)
    J_hi = residual_term(lam_lo + step)
    assert J_lo >= 0 and J_hi >= 0
    assert J_hi <= J_lo * (1 + 1e-12) + 1e-15


def test_invalid_parameters_rejected(small_basis):
    # W, F, the grid and the basis must agree on (n_modes, n_nodes, n_nodes);
    # the range checks of rho, alpha and lam live in InversionConfig
    grid = Grid2D(0.8, 6)
    W = _zero_field(grid, 2)
    cfg = InversionConfig()
    for bad in (
        (_zero_field(Grid2D(0.8, 8), 2), W, grid),
        (W, _zero_field(Grid2D(0.8, 8), 2), grid),
        (W, W, Grid2D(0.8, 8)),
        (_zero_field(grid, 3), _zero_field(grid, 3), grid),
    ):
        with pytest.raises(ValueError):
            evaluate_and_gradient(bad[0], bad[1], bad[2], small_basis, cfg)
