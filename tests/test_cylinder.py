"""Tests for the analytic penetrable-cylinder series solution.

This module is the reference the volume solver is judged against, so it is
checked only against things that do not depend on any solver: the PDE via
finite differences, interface continuity, symmetry, and series convergence.
"""

import numpy as np
import pytest
from scipy.special import h1vp, hankel1, jv, jvp

from convexscat import disk_total_field
from convexscat.cylinder import disk_series

K = 1.7
A = 2.0
RADIUS = 0.3
DOWN = (0.0, -1.0)


def _field(points, k=K, a=A, center=(0.0, 0.0), n_max=40):
    return disk_total_field(np.asarray(points, dtype=float), center, RADIUS, a, DOWN, k, n_max=n_max)


def test_zero_contrast_reduces_to_incident_wave():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.7, 0.7, size=(50, 2))
    u = disk_total_field(pts, (0.0, 0.0), RADIUS, 0.0, DOWN, K)
    u_in = np.exp(1j * K * (DOWN[0] * pts[:, 0] + DOWN[1] * pts[:, 1]))
    assert np.max(np.abs(u - u_in)) <= 1e-12


def test_interface_matching_residual_is_tiny():
    # both interface continuity equations, mode by mode, at the default n_max
    radius, n = 0.2, np.arange(-40, 41)
    for k, a in ((0.5, 3.0), (2.0, 3.0), (1.3, 0.7)):
        series = disk_series(k, a, radius)
        assert series.converged
        ka, kia = k * radius, series.k_int * radius
        val = jv(n, ka) + series.a_out * hankel1(n, ka) - series.b_in * jv(n, kia)
        der = (k * (jvp(n, ka) + series.a_out * h1vp(n, ka))
               - series.b_in * series.k_int * jvp(n, kia))
        assert max(np.abs(val).max(), np.abs(der).max()) < 1e-12


def test_field_satisfies_helmholtz_equation():
    # 5-point residual at probes away from the interface, both media
    h = 1e-3
    offsets = np.array([[0, 0], [h, 0], [-h, 0], [0, h], [0, -h]])
    for probe, coeff in (((0.05, 0.1), A), ((0.45, 0.2), 0.0), ((-0.5, -0.4), 0.0)):
        pts = np.asarray(probe)[None, :] + offsets
        u = _field(pts)
        lap = (u[1] + u[2] + u[3] + u[4] - 4 * u[0]) / h**2
        resid = lap + K**2 * (1 + coeff) * u[0]
        assert abs(resid) <= 1e-4 * K**2 * abs(u[0])


def test_field_continuous_across_interface():
    theta = np.linspace(0, 2 * np.pi, 17)[:-1]
    eps = 1e-7
    inner = np.stack([(RADIUS - eps) * np.cos(theta), (RADIUS - eps) * np.sin(theta)], axis=-1)
    outer = np.stack([(RADIUS + eps) * np.cos(theta), (RADIUS + eps) * np.sin(theta)], axis=-1)
    assert np.max(np.abs(_field(inner) - _field(outer))) <= 1e-6


def test_normal_derivative_continuous_across_interface():
    theta = np.linspace(0.2, 2 * np.pi, 9)[:-1]
    d = 1e-5
    nx, ny = np.cos(theta), np.sin(theta)

    def radial_derivative(r0, sign):
        p1 = np.stack([r0 * nx, r0 * ny], axis=-1)
        p2 = np.stack([(r0 + sign * d) * nx, (r0 + sign * d) * ny], axis=-1)
        return sign * (_field(p2) - _field(p1)) / d

    inner = radial_derivative(RADIUS - 10 * d, 1.0)
    outer = radial_derivative(RADIUS + 10 * d, -1.0)
    scale = np.max(np.abs(outer))
    assert np.max(np.abs(inner - outer)) <= 1e-2 * scale


def test_mirror_symmetry_for_downward_incidence():
    # geometry and wave are both symmetric in x1 when the center sits on x1=0
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.7, 0.7, size=(40, 2))
    mirrored = pts * np.array([-1.0, 1.0])
    u = disk_total_field(pts, (0.0, 0.45), 0.2, 3.0, DOWN, 2.0)
    um = disk_total_field(mirrored, (0.0, 0.45), 0.2, 3.0, DOWN, 2.0)
    assert np.max(np.abs(u - um)) <= 1e-12


def test_translation_covariance():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.7, 0.7, size=(30, 2))
    c = np.array([0.15, 0.35])
    phase = np.exp(1j * K * (DOWN[0] * c[0] + DOWN[1] * c[1]))
    u_moved = disk_total_field(pts, tuple(c), RADIUS, A, DOWN, K)
    u_origin = disk_total_field(pts - c, (0.0, 0.0), RADIUS, A, DOWN, K)
    assert np.max(np.abs(u_moved - phase * u_origin)) <= 1e-12


def test_series_truncation_is_stable():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.7, 0.7, size=(30, 2))
    assert np.max(np.abs(_field(pts, n_max=40) - _field(pts, n_max=60))) <= 1e-12


def test_unconverged_series_is_refused():
    with pytest.raises(RuntimeError):
        disk_total_field(np.zeros((1, 2)), (0.0, 0.0), RADIUS, A, DOWN, K, n_max=2)
    with pytest.raises(ValueError):
        disk_series(-1.0, A, RADIUS)
    with pytest.raises(ValueError):
        disk_series(K, A, 0.0)
