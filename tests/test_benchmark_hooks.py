"""The benchmark in perfbench/ reaches into the library by name.

perfbench/tracer.py replaces each (module, attribute) in its TARGETS table
with a timing wrapper, and perfbench/workloads.py imports the readers and
scenario helpers it checks passes with.  A rename or deletion in the library
would otherwise break only a benchmark run, so both are loaded here.  The
tracer's `forward.solve` span and `forward.solves` count wrap solve_forward,
so solve_forward_multi must keep calling it through the module, once per
solved wavenumber.  Its `forward.rasterize` span wraps scenarios.rasterize,
which simulate_scenario calls once per grid.
"""

import importlib
import importlib.util
from pathlib import Path

from convexscat import Disk, Grid2D, KGrid, Scenario, forward, rasterize, scenarios

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    targets = _load("tracer").TARGETS
    assert targets
    missing = [f"{mod}.{attr}" for mod, attr, _ in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
    # importing the workloads module resolves every library name it uses
    assert _load("workloads").WORKLOADS == ("simulate", "invert", "ablate")


def test_multi_solve_calls_solve_forward_once_per_wavenumber(monkeypatch):
    calls = []
    solve = forward.solve_forward
    monkeypatch.setattr(forward, "solve_forward",
                        lambda coeff, k, *rest: calls.append(k) or solve(coeff, k, *rest))
    kg = KGrid(0.5, 2.0, 3)
    coeff = rasterize([Disk(center=(0.0, 0.3), radius=0.2, value=1.0)], Grid2D(0.8, 8))
    forward.solve_forward_multi(coeff, kg)
    assert calls == list(kg.midpoints)


def test_simulate_rasterizes_once_per_grid(monkeypatch):
    grids = []
    raster = scenarios.rasterize
    monkeypatch.setattr(scenarios, "rasterize",
                        lambda shapes, grid: grids.append(grid) or raster(shapes, grid))
    sc = Scenario("small", (Disk(center=(0.0, 0.3), radius=0.2, value=1.0),), n_cells=8, n_k=3)
    scenarios.simulate_scenario(sc)
    assert grids == [Grid2D(0.8, 8), Grid2D(0.8, 8 * scenarios.REFINE)]
