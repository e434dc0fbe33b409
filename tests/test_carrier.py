"""Tests for the cutoff profile and the boundary-data carrier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexscat import Grid2D, build_carrier, build_cutoff, cauchy_to_v_data

R = 0.8
XI = R / 10  # the cutoff's transition width


def test_cutoff_branch_values_exact():
    # 41 nodes put -xi, (R-2xi)/2 and R-xi exactly on the line
    grid = Grid2D(R, 40)
    chi = build_cutoff(grid)
    nodes = grid.nodes

    def at(t):
        return chi[np.argmin(np.abs(nodes - t))]

    assert at(-R) == 0.0
    assert at(-XI) == 0.0
    assert at(R - XI) == 1.0
    assert at(R) == 1.0
    # equal bump halves at the midpoint of the transition band
    assert abs(at((R - 2 * XI) / 2) - 0.5) <= 1e-12


@given(half_width=st.floats(1e-3, 1e3), n=st.integers(4, 48))
@settings(max_examples=40, deadline=None)
def test_cutoff_range_and_monotonicity(half_width, n):
    grid = Grid2D(half_width, n)
    chi = build_cutoff(grid)
    assert np.all(np.isfinite(chi))
    assert np.all(chi >= 0) and np.all(chi <= 1)
    assert np.all(np.diff(chi) >= 0)
    assert chi[0] == 0.0 and chi[-1] == 1.0


def test_cutoff_second_differences_stay_bounded():
    # smoothness: refining the line must not grow the discrete curvature
    peaks = []
    for n in (28, 56, 112):
        grid = Grid2D(R, n)
        chi = build_cutoff(grid)
        peaks.append(np.max(np.abs(np.diff(chi, 2))) / grid.h**2)
    assert peaks[-1] < 16
    assert peaks[2] / peaks[1] < 1.1 and peaks[1] / peaks[0] < 1.1


def test_cutoff_rejects_bad_transition_width():
    # the smallest positive half_width is a valid grid, but R/10 is 0
    with pytest.raises(ValueError, match="R/10 underflows to 0 at half_width 5e-324"):
        build_cutoff(Grid2D(5e-324, 10))


def _random_traces(grid, n_modes, seed):
    rng = np.random.default_rng(seed)
    shape = (n_modes, grid.n_nodes)
    make = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return make(), make()


def test_carrier_zero_data_gives_zero_field():
    grid = Grid2D(R, 12)
    Z = np.zeros((3, grid.n_nodes), dtype=complex)
    F = build_carrier(Z, Z, build_cutoff(grid), grid)
    assert np.max(np.abs(F)) == 0.0


def test_carrier_equals_dirichlet_trace_on_top_row():
    grid = Grid2D(R, 28)
    G0, G1 = _random_traces(grid, 4, seed=2)
    F = build_carrier(G0, G1, build_cutoff(grid), grid)
    assert np.array_equal(F[:, -1, :], G0)


def test_carrier_discrete_neumann_is_exact_below_transition():
    # chi = 1 on the two top rows whenever h < xi, so the backward
    # difference reproduces G1 up to rounding
    grid = Grid2D(R, 28)
    assert grid.h < XI
    G0, G1 = _random_traces(grid, 4, seed=3)
    F = build_carrier(G0, G1, build_cutoff(grid), grid)
    dn = (F[:, -1, :] - F[:, -2, :]) / grid.h
    assert np.max(np.abs(dn - G1)) <= 1e-12 * np.max(np.abs(G1))


def test_carrier_vanishes_below_cut():
    grid = Grid2D(R, 28)
    G0, G1 = _random_traces(grid, 4, seed=4)
    F = build_carrier(G0, G1, build_cutoff(grid), grid)
    dead = grid.nodes <= -XI
    assert dead.any()
    assert np.max(np.abs(F[:, dead, :])) == 0.0


def test_carrier_linear_in_boundary_data():
    grid = Grid2D(R, 16)
    cutoff = build_cutoff(grid)
    Ga0, Ga1 = _random_traces(grid, 2, seed=5)
    Gb0, Gb1 = _random_traces(grid, 2, seed=6)
    both = build_carrier(Ga0 + Gb0, Ga1 + Gb1, cutoff, grid)
    parts = build_carrier(Ga0, Ga1, cutoff, grid) + build_carrier(Gb0, Gb1, cutoff, grid)
    assert np.allclose(both, parts, rtol=0, atol=1e-14)


def test_carrier_rejects_mismatched_shapes():
    grid = Grid2D(R, 16)
    cutoff = build_cutoff(grid)
    G0 = np.zeros((2, grid.n_nodes), dtype=complex)
    with pytest.raises(ValueError):
        build_carrier(G0, np.zeros((3, grid.n_nodes), dtype=complex), cutoff, grid)
    with pytest.raises(ValueError):
        build_carrier(G0, np.zeros((2, grid.n_nodes + 1), dtype=complex), cutoff, grid)


def test_carrier_neumann_on_simulated_data(example1_sim, default_basis):
    # the construction promise on actual transformed measurement traces
    _, clean, _ = example1_sim
    G0, G1 = cauchy_to_v_data(clean, default_basis)
    grid = clean.grid
    F = build_carrier(G0, G1, build_cutoff(grid), grid)
    dn = (F[:, -1, :] - F[:, -2, :]) / grid.h
    tol = max(1e-2, 5 * grid.h * float(np.max(np.abs(G1))))
    assert np.max(np.abs(dn - G1)) <= tol
