"""Tests for the reconstruction loop: stepping, stopping, records, ablation."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from convexscat import (
    Disk,
    InversionConfig,
    NearZeroTotalField,
    Scenario,
    ablation_no_weight,
    inversion,
    recover_coefficient,
    run_inversion,
    simulate_scenario,
    solve_forward_multi,
)


@pytest.fixture(scope="module")
def small_case():
    # cheap single-disk setup for loop-mechanics tests
    cfg = InversionConfig(n_modes=3)
    sc = Scenario(
        "small-disk",
        (Disk(center=(0.0, 0.4), radius=0.25, value=1.5),),
        noise_level=0.05,
        seed=1,
        n_cells=16,
        n_k=10,
    )
    truth, clean, noisy = simulate_scenario(sc)
    return cfg, truth, noisy


def test_config_defaults_are_the_reference_setup():
    cfg = InversionConfig()
    assert cfg.epsilon == 1e-3 and cfg.alpha1 == 1e-3
    assert cfg.rho == 1e-5 and cfg.alpha2 == 1e-5
    assert cfg.lam == 5.0 and cfg.shift == 1.0
    assert cfg.tolerance == 1e-3 and cfg.max_iterations == 25
    assert cfg.n_modes == 4 and cfg.trace_sigma == 2.5
    # method parameters only: the grids come from the data
    assert [f.name for f in fields(InversionConfig)] == [
        "epsilon", "rho", "alpha1", "alpha2", "lam", "shift", "tolerance",
        "max_iterations", "n_modes", "trace_sigma",
    ]


def test_config_validation():
    # every field is checked on construction, and the error names the field
    for bad in (
        dict(epsilon=0.0),
        dict(epsilon=-1e-3),
        dict(epsilon=math.nan),
        dict(epsilon="1e-3"),
        dict(tolerance=0.0),
        dict(tolerance=math.nan),
        dict(max_iterations=0),
        dict(max_iterations=2.5),
        dict(max_iterations=True),
        dict(n_modes=0),
        dict(n_modes=False),
        dict(trace_sigma=-1.0),
        dict(trace_sigma=math.nan),
        dict(lam=math.inf),
        dict(lam=-1.0),
        dict(lam=-0.1),
        dict(lam=True),
        dict(rho=math.nan),
        dict(rho=-1.0),
        dict(rho=-1e-5),
        dict(alpha1=-1e-3),
        dict(alpha2=-math.inf),
        dict(shift=math.inf),
    ):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            InversionConfig(**bad)
    # integer values are valid floats, stored as floats, and zero weights are allowed
    cfg = InversionConfig(lam=0, rho=0, alpha1=0, alpha2=0, trace_sigma=0, shift=-1)
    assert all(type(getattr(cfg, f.name)) is float for f in fields(cfg) if f.type == "float")
    assert cfg.lam == 0.0 and cfg.shift == -1.0


def test_small_run_converges_with_consistent_records(small_case):
    cfg, _, noisy = small_case
    res = run_inversion(noisy, cfg)
    assert res.converged and res.error is None
    assert [r.n for r in res.records] == list(range(len(res.records)))
    Js = [r.J_value for r in res.records]
    assert all(b <= a * 1.01 for a, b in zip(Js, Js[1:]))
    assert np.all(res.coefficient.values >= 0)


def test_clamping_is_output_only(small_case, monkeypatch):
    # record every recovered coefficient and every coefficient a re-solve gets
    cfg, _, noisy = small_case
    recovered, solved = [], []

    def recover(*args):
        a = recover_coefficient(*args)
        recovered.append(a.values)
        return a

    def solve(coeff, *args):
        solved.append(coeff.values)
        return solve_forward_multi(coeff, *args)

    monkeypatch.setattr(inversion, "recover_coefficient", recover)
    monkeypatch.setattr(inversion, "solve_forward_multi", solve)
    res = run_inversion(noisy, cfg)
    # inner iterates keep their sign: a re-solve sees negative values
    assert min(a.min() for a in solved) < 0
    # the final recovery is cut to zero only at output
    assert recovered[-1].min() < 0
    assert np.array_equal(res.coefficient.values, np.maximum(recovered[-1], 0))


def test_runs_are_deterministic(small_case):
    cfg, _, noisy = small_case
    a = run_inversion(noisy, cfg)
    b = run_inversion(noisy, cfg)
    key = lambda res: [(r.n, r.J_value, r.gradient_norm, r.a_max) for r in res.records]
    assert key(a) == key(b)
    assert np.array_equal(a.coefficient.values, b.coefficient.values)
    assert a.converged == b.converged
    assert a.stop == b.stop


def test_ablation_runs_exactly_twenty_steps(small_case):
    cfg, _, noisy = small_case
    res = ablation_no_weight(noisy, replace(cfg, epsilon=1e-5))
    assert not res.converged
    assert [r.n for r in res.records] == list(range(21))
    assert res.stop == "iteration_cap" and res.error is None
    # the config it ran with, not the one it was given
    assert (res.config.lam, res.config.max_iterations) == (0.0, 20)


def test_ablation_reports_rises_and_survives_solve_failure(small_case):
    # with the reference step the unweighted functional blows up: the loop
    # must stop early on the failed re-solve and return the best iterate seen
    cfg, _, noisy = small_case
    res = ablation_no_weight(noisy, cfg)
    assert not res.converged
    assert res.stop == "resolve_failed"
    assert isinstance(res.error, NearZeroTotalField)
    assert np.all(np.isfinite(res.coefficient.values))
    assert np.all(res.coefficient.values >= 0)
    Js = [r.J_value for r in res.records]
    # the run got worse after its best point, which is why best-iterate matters
    assert min(Js) < Js[-1]


def test_reference_run_decreases_objective(example1_run):
    # the weighted functional must keep descending through the early phase
    _, res = example1_run
    assert res.converged
    Js = [r.J_value for r in res.records]
    for a, b in zip(Js, Js[1:]):
        assert b <= a * 1.01
    assert np.all(res.coefficient.values >= 0)
