"""The noise-sweep script's exit status reflects failed re-solves."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from convexscat import Coefficient, Grid2D, InversionConfig
from convexscat.forward import IllConditionedSystem
from convexscat.inversion import InversionResult, IterationRecord

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "noise_sweep.py"


@pytest.fixture
def noise_sweep(monkeypatch):
    spec = importlib.util.spec_from_file_location("noise_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "simulate_scenario", lambda sc: (None, None, None))
    return module


def _result(error):
    grid = Grid2D(0.8, 8)
    values = np.zeros((grid.n_nodes, grid.n_nodes))
    values[6, 4] = 2.9
    return InversionResult(coefficient=Coefficient(grid, values),
                           records=(IterationRecord(0, 1.0, 1.0, 2.9),),
                           stop="tolerance" if error is None else "resolve_failed",
                           config=InversionConfig(), error=error)


def test_a_failed_resolve_fails_the_sweep(noise_sweep, monkeypatch, capsys):
    errors = iter([None, IllConditionedSystem("scattering solve at k=0.515: stalled")])
    monkeypatch.setattr(noise_sweep, "run_inversion", lambda data, cfg: _result(next(errors)))
    assert noise_sweep.main(["--deltas", "0.0", "0.05"]) == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert "error" not in rows[0]
    assert rows[1].endswith("error: scattering solve at k=0.515: stalled")
    assert [row.split()[1] for row in rows] == ["tolerance", "resolve_failed"]


def test_a_clean_sweep_exits_zero(noise_sweep, monkeypatch):
    monkeypatch.setattr(noise_sweep, "run_inversion", lambda data, cfg: _result(None))
    assert noise_sweep.main(["--deltas", "0.0", "0.05"]) == 0
