import pytest

from convexscat.basis import KGrid, build_basis
from convexscat.inversion import ablation_no_weight, run_inversion
from convexscat.scenarios import get_scenario, simulate_scenario


@pytest.fixture(scope="session")
def default_kgrid():
    return KGrid(0.5, 2.0, 50)


@pytest.fixture(scope="session")
def default_basis(default_kgrid):
    return build_basis(default_kgrid, 4)


@pytest.fixture(scope="session")
def example1_sim():
    """(truth, clean, noisy) for the single-disk scenario; solved once per session."""
    return simulate_scenario(get_scenario("example1"))


@pytest.fixture(scope="session")
def example1_run(example1_sim):
    """Reference reconstruction from the noisy single-disk data, shared by
    the loop-behavior tests and the acceptance gates."""
    _, _, noisy = example1_sim
    cfg = get_scenario("example1").config
    return cfg, run_inversion(noisy, cfg)


@pytest.fixture(scope="session")
def example1_ablation(example1_sim):
    """Unweighted comparison run, at most 20 iterations, on the same noisy data."""
    _, _, noisy = example1_sim
    cfg = get_scenario("example1").config
    return cfg, ablation_no_weight(noisy, cfg)
