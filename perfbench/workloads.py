"""The three benchmark workloads: their inputs, one pass each, and its checks.

Every pass goes through the command-line entry `convexscat.cli.main(argv)`
called in-process, so it covers the text I/O and the sha256 manifest as well
as the numerics.  A pass is checked after its timed region; a failed check
marks the pass failed and is never retried.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from pathlib import Path

import numpy as np

from convexscat import cli
from convexscat.cylinder import disk_total_field
from convexscat.forward import IncidentWave
from convexscat.io import read_cauchy, read_coefficient, read_history
from convexscat.scenarios import get_scenario, simulate_scenario

WORKLOADS = ("simulate", "invert", "ablate")
PASS_SCENES = {"simulate": ("example1", "example2b"),
               "invert": ("example1", "example2b"),
               "ablate": ("example1",)}
# scenes whose noisy data files set-up writes before any pass runs
INPUT_SCENES = {"simulate": (), "invert": ("example1", "example2b"), "ablate": ("example1",)}

TRACE_ERR_MAX = 0.01  # criterion 2's oracle bound


def warm_up() -> None:
    """One example2b simulation before any timed pass.

    A process's first solves on arrays of a new, larger size run measurably
    slower than later ones (an example1 simulation takes 1.0-1.3 s first and
    0.75 s after an example2b one), so the warm-up uses the scene with the
    largest solver arrays of any workload.
    """
    simulate_scenario(get_scenario("example2b"))


def run_cli(argv) -> tuple[int | None, str]:
    """cli.main(argv) with its console output captured; returns (exit code, output).

    An exception that escapes the CLI is a failed command, not a failed
    benchmark: the exit code is None and the output ends with the traceback.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main([str(a) for a in argv])
        except Exception:
            rc = None
            traceback.print_exc(file=buf)
    return rc, buf.getvalue()


def make_inputs(workload: str, out: Path, noise_seed: int | None) -> None:
    """Write the noisy data files the workload inverts, via `convexscat simulate`."""
    for scene in INPUT_SCENES[workload]:
        argv = ["simulate", "--scenario", scene, "--out", out / scene]
        if noise_seed is not None:
            argv += ["--seed", noise_seed]
        rc, text = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"simulate {scene} exited {rc}: {text}")


def run_pass(workload: str, seed: int, inputs: Path, out: Path) -> dict:
    """The timed part of one pass: exit code and console output per scene."""
    results = {}
    for scene in PASS_SCENES[workload]:
        if workload == "simulate":
            argv = ["simulate", "--scenario", scene, "--out", out / scene, "--seed", seed]
        else:
            argv = ["invert", "--data", inputs / scene / "cauchy_noisy.txt", "--out", out / scene]
            if workload == "ablate":
                argv.append("--no-carleman")
        results[scene] = run_cli(argv)
    return results


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(out: Path) -> dict:
    """sha256 of every data file a pass wrote; manifests carry timestamps and are left out."""
    return {str(p.relative_to(out)): sha256(p)
            for p in sorted(out.rglob("*.txt"))}


def _manifest_failures(scene_dir: Path) -> list[str]:
    manifest = json.loads((scene_dir / "manifest.json").read_text())
    return [f"{scene_dir.name}: manifest hash of {Path(p).name} does not match the file"
            for p, digest in manifest["outputs"].items() if sha256(Path(p)) != digest]


def trace_err(clean_path: Path) -> float:
    """Relative L2 error of the clean example1 g0 trace against the disk series."""
    cd = read_cauchy(clean_path)
    disk = get_scenario("example1").shapes[0]
    wave = IncidentWave()
    pts = np.stack([cd.grid.nodes, np.full(cd.grid.n_nodes, cd.grid.half_width)], axis=-1)
    exact = np.stack([disk_total_field(pts, disk.center, disk.radius, disk.value,
                                       wave.direction, k)
                      for k in cd.kgrid.midpoints], axis=1)
    return float(np.linalg.norm(cd.g0 - exact) / np.linalg.norm(exact))


def _peak(values, grid):
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    return float(values[i, j]), float(grid.nodes[j]), float(grid.nodes[i])


def _local_maxima(values, nodes, floor):
    """Interior nodes strictly above their 8 neighbours and at least floor."""
    peaks = []
    for i in range(1, values.shape[0] - 1):
        for j in range(1, values.shape[1] - 1):
            v = values[i, j]
            block = values[i - 1:i + 2, j - 1:j + 2]
            if v >= floor and (block < v).sum() == 8:
                peaks.append((float(v), float(nodes[j]), float(nodes[i])))
    return sorted(peaks, reverse=True)


def accuracy(scene: str, scene_dir: Path, inputs: Path) -> dict:
    """peak_err and l2_err of one reconstruction against the scene's truth."""
    a = read_coefficient(scene_dir / "coefficient.txt").values
    truth = read_coefficient(inputs / scene / "truth.txt").values
    true_max = max(s.value for s in get_scenario(scene).shapes)
    return {"peak_err": abs(float(a.max()) - true_max) / true_max,
            "l2_err": float(np.linalg.norm(a - truth) / np.linalg.norm(truth))}


def _criterion_5(scene_dir: Path) -> list[str]:
    """Single disk: converged within 10 iterations, peak in [2.7, 3.3] inside
    2h of the true centre along x1 and in the upper half of the disk."""
    coeff = read_coefficient(scene_dir / "coefficient.txt")
    g = coeff.grid
    peak, x1, x2 = _peak(coeff.values, g)
    disk = get_scenario("example1").shapes[0]
    n = read_history(scene_dir / "history.txt")[-1].n
    fails = []
    if n > 10:
        fails.append(f"example1: {n} iterations > 10")
    if not 2.7 <= peak <= 3.3:
        fails.append(f"example1: peak {peak:.4f} outside [2.7, 3.3]")
    if abs(x1 - disk.center[0]) > 2 * g.h + 1e-12:
        fails.append(f"example1: peak at x1={x1:+.4f}, more than 2h off the centre")
    if not disk.center[1] - 1e-12 <= x2 <= disk.center[1] + disk.radius + 1e-12:
        fails.append(f"example1: peak at x2={x2:+.4f}, outside the upper half of the disk")
    return fails


def _criterion_7(scene_dir: Path) -> list[str]:
    """Two disks: two local maxima >= 0.75, at least 2h apart along x1, the
    stronger true inclusion (left) reconstructed higher."""
    coeff = read_coefficient(scene_dir / "coefficient.txt")
    g = coeff.grid
    peaks = _local_maxima(coeff.values, g.nodes, floor=0.75)
    if len(peaks) < 2:
        return [f"example2b: {len(peaks)} local maxima >= 0.75, need 2"]
    (va, x1a, _), (vb, x1b, _) = peaks[0], peaks[1]
    fails = []
    if abs(x1a - x1b) < 2 * g.h:
        fails.append(f"example2b: top peaks at x1={x1a:+.3f}, {x1b:+.3f} closer than 2h")
    left, right = (va, vb) if x1a < x1b else (vb, va)
    truth = sorted(get_scenario("example2b").shapes, key=lambda s: s.center[0])
    if (left > right) != (truth[0].value > truth[1].value):
        fails.append(f"example2b: left peak {left:.3f} vs right {right:.3f} in the wrong order")
    return fails


def _criterion_6(scene_dir: Path, weighted_peak: float) -> list[str]:
    """No-weight run: at most 20 iterations, the stopping rule never fires,
    and its peak is further from the truth than the weighted run's."""
    records = read_history(scene_dir / "history.txt")
    tol = get_scenario("example1").config.tolerance
    true_value = get_scenario("example1").shapes[0].value
    ablated_peak = float(read_coefficient(scene_dir / "coefficient.txt").values.max())
    fails = []
    if records[-1].n > 20:
        fails.append(f"ablate: {records[-1].n} iterations > 20")
    dJ = np.abs(np.diff([r.J_value for r in records]))
    if np.any(dJ < tol):
        fails.append(f"ablate: |dJ| {dJ.min():.3e} below the tolerance {tol}")
    if not abs(ablated_peak - true_value) > abs(weighted_peak - true_value):
        fails.append(f"ablate: peak {ablated_peak:.4f} is no worse than the weighted "
                     f"run's {weighted_peak:.4f}")
    return fails


def check_pass(workload: str, results: dict, out: Path, inputs: Path,
               reference_hashes: dict | None, weighted_peak: float | None) -> tuple[list, dict]:
    """Failures of one pass (empty when it passed) and its accuracy figures."""
    fails = []
    for scene, (rc, text) in results.items():
        if rc != 0:
            what = "raised" if rc is None else f"exit code {rc}"
            fails.append(f"{scene}: {what}: {text.strip()[-300:]}")
    if fails:
        return fails, {}
    for scene in results:
        fails += _manifest_failures(out / scene)
    hashes = output_hashes(out)
    if reference_hashes is not None and hashes != reference_hashes:
        changed = sorted(k for k in hashes.keys() | reference_hashes.keys()
                         if hashes.get(k) != reference_hashes.get(k))
        fails.append(f"outputs differ from the first pass: {', '.join(changed)}")

    acc = {}
    if workload == "simulate":
        acc["trace_err"] = trace_err(out / "example1" / "cauchy_clean.txt")
        if not acc["trace_err"] < TRACE_ERR_MAX:
            fails.append(f"trace_err {acc['trace_err']:.3e} >= {TRACE_ERR_MAX}")
        return fails, acc

    per_scene = [accuracy(scene, out / scene, inputs) for scene in results]
    acc = {k: max(s[k] for s in per_scene) for k in ("peak_err", "l2_err")}
    if workload == "invert":
        fails += _criterion_5(out / "example1") + _criterion_7(out / "example2b")
    else:
        fails += _criterion_6(out / "example1", weighted_peak)
    return fails, acc


def weighted_reference(inputs: Path, out: Path) -> float:
    """Peak of the weighted example1 reconstruction, criterion 6's reference."""
    rc, text = run_cli(["invert", "--data", inputs / "example1" / "cauchy_noisy.txt",
                        "--out", out])
    if rc not in (0, 3):  # 3: iteration cap; the reconstruction is still written
        raise RuntimeError(f"weighted reference run exited {rc}: {text}")
    return float(read_coefficient(out / "coefficient.txt").values.max())
