"""Basis construction checked against 50-digit quadrature and structure laws.

The raw functions are psi_n(k) = (k - k0)^(n-1) e^(k - k0), so every inner
product reduces to integrals of t^p e^(2t), which obey the exact recursion
I_p = [t^p e^(2t) / 2] - (p/2) I_(p-1).  That recursion, evaluated in mpmath,
is the reference nothing in the package shares code with.
"""

from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexscat.basis import (
    BasisError,
    KGrid,
    _quadrature,
    build_basis,
    project,
)


def _recursion_moments(a: float, b: float, p_max: int):
    """I_p = int_a^b t^p e^(2t) dt for p = 0..p_max, 50 digits."""
    with mp.workdps(50):
        a, b = mp.mpf(a), mp.mpf(b)
        vals = [(mp.e ** (2 * b) - mp.e ** (2 * a)) / 2]
        for p in range(1, p_max + 1):
            boundary = (b ** p * mp.e ** (2 * b) - a ** p * mp.e ** (2 * a)) / 2
            vals.append(boundary - mp.mpf(p) / 2 * vals[p - 1])
        return [float(v) for v in vals]


def test_quadrature_matches_recursion(default_kgrid):
    # <psi_m, psi_n> = I_(m+n-2) over the shifted interval
    kg = default_kgrid
    n = 4
    (k, w), k0 = _quadrature(kg), kg.k0
    t = k - k0
    moments = _recursion_moments(kg.k_min - k0, kg.k_max - k0, 2 * n - 2)
    for m in range(1, n + 1):
        for q in range(1, n + 1):
            quad = float(np.sum(w * t ** (m - 1) * np.exp(t) * t ** (q - 1) * np.exp(t)))
            ref = moments[m + q - 2]
            assert abs(quad - ref) <= 1e-13 * max(1.0, abs(ref))


def _gram(bs):
    """Gram matrix of Phi_n, sampled by eval_phi, in the basis's own quadrature."""
    k, w = _quadrature(bs.kgrid)
    phi = bs.eval_phi(k)
    return np.einsum("mq,nq,q->mn", phi, phi, w)


def test_gram_matrix_is_identity(default_basis):
    # eval_phi is the only source of samples, so this also checks that the
    # stored coefficients reproduce the Gram-Schmidt output
    bs = default_basis
    assert np.abs(_gram(bs) - np.eye(bs.n_modes)).max() < 1e-12


def test_derivative_matrix_against_mpmath(default_basis):
    # d_mn = int Phi_m Phi_n' with Phi from the package's own coefficients,
    # integrated independently at 50 digits
    bs = default_basis
    kg = bs.kgrid
    coeff = bs.coeff

    def phi_mp(n, k):
        t = k - mp.mpf(kg.k0)
        return sum(mp.mpf(coeff[n, p]) * t ** p * mp.e ** t for p in range(bs.n_modes))

    def dphi_mp(n, k):
        t = k - mp.mpf(kg.k0)
        total = mp.mpf(0)
        for p in range(bs.n_modes):
            c = mp.mpf(coeff[n, p])
            total += c * (p * t ** (p - 1) if p else 0) * mp.e ** t + c * t ** p * mp.e ** t
        return total

    with mp.workdps(50):
        for m in range(bs.n_modes):
            for n in range(bs.n_modes):
                ref = float(mp.quad(lambda k: phi_mp(m, k) * dphi_mp(n, k),
                                    [kg.k_min, kg.k_max]))
                assert abs(bs.mat_D[m, n] - ref) < 1e-11


def test_structure_unit_upper_triangular(default_basis):
    D = default_basis.mat_D
    assert np.abs(np.diagonal(D) - 1.0).max() < 1e-12
    assert np.abs(np.tril(D, -1)).max() < 1e-12


def test_B_tensor_symmetric_in_first_pair(default_basis):
    B = default_basis.tensor_B
    assert np.abs(B - B.transpose(1, 0, 2)).max() < 1e-12 * np.abs(B).max()


@settings(deadline=None, max_examples=25)
@given(
    k_min=st.floats(0.2, 3.0),
    width=st.floats(0.4, 3.0),
    n_modes=st.integers(1, 5),
)
def test_structure_holds_on_any_interval(k_min, width, n_modes):
    kg = KGrid(k_min, k_min + width, 10)
    try:
        bs = build_basis(kg, n_modes)
    except BasisError:
        return  # legitimately rejected: interval too narrow for that many modes
    assert np.abs(_gram(bs) - np.eye(n_modes)).max() < 1e-8
    assert np.abs(np.diagonal(bs.mat_D) - 1.0).max() < 1e-8
    assert np.abs(np.tril(bs.mat_D, -1)).max() < 1e-8


def test_project_synthesize_roundtrip_converges():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    errs = {}
    for nk in (50, 200):
        bs = build_basis(KGrid(0.5, 2.0, nk), 4)
        back = project(c @ bs.eval_phi(bs.kgrid.midpoints), bs)
        errs[nk] = np.abs(back - c).max() / np.abs(c).max()
    # midpoint-rule projection: second order in the k spacing
    assert errs[50] < 1e-2
    assert errs[200] < 1e-3
    assert errs[50] / errs[200] > 8


def test_replaced_grid_carries_its_own_midpoints():
    # a grid is its three numbers: replacing n_sub moves the midpoints with it
    kg = replace(KGrid(0.5, 2.0, 50), n_sub=5)
    assert kg.midpoints.size == 5
    assert np.array_equal(kg.midpoints, KGrid(0.5, 2.0, 5).midpoints)
    bs = build_basis(kg, 3)
    assert project(np.ones(5), bs).shape == (3,)


def test_samples_whose_squares_underflow_are_dependent():
    # psi_2 ~ 1e-151 on this interval: its squares, and so both sides of the
    # dependence test, underflow to 0, which must refuse psi_2, not divide by it
    with pytest.raises(BasisError, match=r"psi_2 is numerically dependent .*residual 0\.000e\+00"):
        build_basis(KGrid(1e-150, 1.5e-150, 10), 4)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        build_basis(KGrid(0.5, 2.0, 5), 0)
    # more modes than quadrature nodes are refused before any psi_n is sampled
    kg = KGrid(0.5, 2.0, 5)
    n_nodes = _quadrature(kg)[0].size
    for n_modes in (n_nodes + 1, 10**30):
        with pytest.raises(BasisError, match=f"exceeds the {n_nodes} quadrature"):
            build_basis(kg, n_modes)
    with pytest.raises(ValueError):
        KGrid(2.0, 0.5, 5)
    with pytest.raises(ValueError):
        KGrid(0.5, 2.0, 0)
    # a subinterval count must be an integer: 2.5 would put a midpoint at k_max
    for n_sub in (2.5, True, 3.0):
        with pytest.raises(ValueError, match="n_sub"):
            KGrid(0.5, 2.0, n_sub)
