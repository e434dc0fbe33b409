"""Release gates: one test per acceptance criterion, at the stated tolerance.

Each test prints the measured numbers next to its thresholds, so a -v run
reads as a checklist.  The reference reconstruction and its no-weight
comparison run come from session fixtures and are computed once.  Criteria
1-4 measure through the `convexscat validate` probes and assert the measured
number against a bound written here, so a threshold edited in validate
cannot loosen a gate.
"""

import time

import numpy as np
import pytest

from convexscat import (
    Disk,
    InversionConfig,
    KGrid,
    build_basis,
    get_scenario,
    run_inversion,
    simulate_scenario,
    write_cauchy,
    write_coefficient,
    write_history,
)
from convexscat.inversion import ablation_no_weight
from convexscat.validate import (
    check_basis_orthonormal,
    check_basis_structure,
    check_forward_oracle,
    check_gradient,
    check_null_scatterer,
)

TRUE_DISK = Disk(center=(0.0, 0.45), radius=0.2, value=3.0)


def _report(label, **measured):
    parts = ", ".join(f"{k}={v}" for k, v in measured.items())
    print(f"{label}: {parts}")


# --- 1. basis structure -----------------------------------------------------

def test_criterion_1_basis_structure_and_build_time():
    t0 = time.perf_counter()
    bs = build_basis(KGrid(0.5, 2.0, 50), 4)
    elapsed = time.perf_counter() - t0

    structure = check_basis_structure(bs)
    ortho = check_basis_orthonormal(bs)
    _report("criterion 1", structure_err=f"{structure.measured:.3e}",
            ortho_err=f"{ortho.measured:.3e}", build_seconds=round(elapsed, 3))
    assert structure.measured < 1e-6  # unit diagonal, zero strict lower triangle
    assert ortho.measured < 1e-8
    assert elapsed < 1.0


# --- 2. forward solver vs analytic cylinder series ---------------------------

@pytest.mark.parametrize("k", [1.0, 2.0])
def test_criterion_2_forward_oracle(k):
    e28 = check_forward_oracle(k, 28).measured
    e56 = check_forward_oracle(k, 56).measured
    _report("criterion 2", k=k, rel_err_28=f"{e28:.3e}", rel_err_56=f"{e56:.3e}")
    assert e28 < 0.01
    assert e56 < e28


# --- 3. gradient of the weighted objective -----------------------------------

def test_criterion_3_gradient_matches_central_differences():
    worst = check_gradient().measured
    _report("criterion 3", worst_rel_err=f"{worst:.3e}")
    assert worst < 1e-5


# --- 4. null scatterer -------------------------------------------------------

def test_criterion_4_null_scatterer_immediate_clean_exit():
    t0 = time.perf_counter()
    res = check_null_scatterer()
    elapsed = time.perf_counter() - t0

    _report("criterion 4", max_abs_a=f"{res.measured:.3e}", run=res.detail,
            seconds=round(elapsed, 2))
    assert res.passed  # converged within 2 iterations
    assert res.measured < 0.05
    assert elapsed < 60.0


# --- 5. single-disk reproduction ---------------------------------------------

def test_criterion_5_single_disk_reconstruction(example1_run):
    cfg, result = example1_run
    # the stated reference parameters are exactly the defaults
    assert cfg == InversionConfig()
    assert (cfg.lam, cfg.shift, cfg.epsilon, cfg.alpha1) == (5.0, 1.0, 1e-3, 1e-3)
    assert (cfg.rho, cfg.alpha2, cfg.tolerance) == (1e-5, 1e-5, 1e-3)

    values = result.coefficient.values
    g = result.coefficient.grid
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    peak = float(values[i, j])
    x1, x2 = float(g.nodes[j]), float(g.nodes[i])

    _report("criterion 5", iterations=result.records[-1].n, peak=f"{peak:.4f}",
            x1=f"{x1:+.4f}", x2=f"{x2:+.4f}")
    assert result.converged and result.records[-1].n <= 10
    assert 2.7 <= peak <= 3.3
    assert abs(x1 - TRUE_DISK.center[0]) <= 2 * g.h + 1e-12
    # upper half of the true disk: x2 in [0.45, 0.65]
    assert 0.45 - 1e-12 <= x2 <= 0.65 + 1e-12


# --- 6. weight ablation ------------------------------------------------------

def test_criterion_6_no_weight_run_is_worse(example1_run, example1_ablation):
    cfg, weighted = example1_run
    acfg, ablated = example1_ablation
    assert acfg == cfg

    Js = [r.J_value for r in ablated.records]
    diffs = np.abs(np.diff(Js))
    err_weighted = abs(float(weighted.coefficient.values.max()) - TRUE_DISK.value)
    err_ablated = abs(float(ablated.coefficient.values.max()) - TRUE_DISK.value)

    _report("criterion 6", iterations=ablated.records[-1].n,
            min_dJ=f"{diffs.min():.3e}",
            err_weighted=f"{err_weighted:.4f}", err_ablated=f"{err_ablated:.4f}")
    assert not ablated.converged
    assert ablated.records[-1].n <= 20
    assert np.all(diffs >= cfg.tolerance)  # the stopping rule never fires
    assert err_ablated > err_weighted


# --- 7. two-disk scene -------------------------------------------------------

@pytest.fixture(scope="module")
def example2b_run():
    sc = get_scenario("example2b")
    _, _, noisy = simulate_scenario(sc)
    return run_inversion(noisy, sc.config)


def _local_maxima(values, nodes, floor):
    """Interior nodes strictly above their 8 neighbours and above floor."""
    peaks = []
    for i in range(1, values.shape[0] - 1):
        for j in range(1, values.shape[1] - 1):
            v = values[i, j]
            block = values[i - 1:i + 2, j - 1:j + 2]
            if v >= floor and v > block.max() - 1e-15 and (block < v).sum() == 8:
                peaks.append((float(v), float(nodes[j]), float(nodes[i])))
    return sorted(peaks, reverse=True)


def test_criterion_7_two_disks_resolved_and_ordered(example2b_run):
    result = example2b_run
    g = result.coefficient.grid
    truth = {s.center[0]: s.value for s in get_scenario("example2b").shapes}
    peaks = _local_maxima(result.coefficient.values, g.nodes, floor=0.75)

    _report("criterion 7", peaks=[(f"{v:.3f}", f"x1={x1:+.3f}") for v, x1, _ in peaks[:4]])
    assert len(peaks) >= 2
    (va, x1a, _), (vb, x1b, _) = peaks[0], peaks[1]
    assert abs(x1a - x1b) >= 2 * g.h  # separated along x1
    left_value = va if x1a < x1b else vb
    right_value = vb if x1a < x1b else va
    # truth has the stronger inclusion on the left (2.0 vs 1.5)
    assert truth[-0.3] > truth[0.3]
    assert left_value > right_value


# --- 8. determinism ----------------------------------------------------------

def _emit(tmp, tag, truth, clean, noisy, result):
    paths = {
        "truth": tmp / f"{tag}_truth.txt",
        "clean": tmp / f"{tag}_clean.txt",
        "noisy": tmp / f"{tag}_noisy.txt",
        "coeff": tmp / f"{tag}_coefficient.txt",
        "hist": tmp / f"{tag}_history.txt",
    }
    write_coefficient(truth, paths["truth"])
    write_cauchy(clean, paths["clean"])
    write_cauchy(noisy, paths["noisy"])
    write_coefficient(result.coefficient, paths["coeff"])
    write_history(result.records, paths["hist"])
    return {name: p.read_bytes() for name, p in paths.items()}


def test_criterion_8_reruns_are_bit_identical(
    example1_sim, example1_run, example1_ablation, tmp_path
):
    # criterion 4 pipeline, twice from scratch
    sc = get_scenario("null")
    runs = []
    for tag in ("a", "b"):
        truth, clean, noisy = simulate_scenario(sc)
        result = run_inversion(clean, sc.config)
        runs.append(_emit(tmp_path, f"null_{tag}", truth, clean, noisy, result))
    assert runs[0] == runs[1]

    # criteria 5 and 6 pipelines: fixture run vs an independent rerun
    sc1 = get_scenario("example1")
    truth, clean, noisy = example1_sim
    cfg, weighted = example1_run
    _, ablated = example1_ablation

    truth2, clean2, noisy2 = simulate_scenario(sc1)
    first = _emit(tmp_path, "ex1_a", truth, clean, noisy, weighted)
    second = _emit(tmp_path, "ex1_b", truth2, clean2, noisy2,
                   run_inversion(noisy2, cfg))
    assert first == second

    first_abl = _emit(tmp_path, "abl_a", truth, clean, noisy, ablated)
    second_abl = _emit(tmp_path, "abl_b", truth2, clean2, noisy2,
                       ablation_no_weight(noisy2, cfg))
    assert first_abl == second_abl
    _report("criterion 8", files_compared=3 * len(first), identical=True)
