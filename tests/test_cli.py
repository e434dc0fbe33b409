"""End-to-end runs of the command surface on a small scene.

The tests call main(argv) in-process and check exit codes, emitted files,
and manifests.  Exit contract: 0 success (invert: tolerance met), 2 usage
or format errors, 3 iteration cap reached without meeting the tolerance,
4 a forward solve failed or its field came too close to zero for the log
transform (invert still writes the history and the manifest).  An invert
manifest's stop key names the same ending: tolerance, iteration_cap or
resolve_failed.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from convexscat import (
    Disk,
    IncidentWave,
    Scenario,
    read_cauchy,
    read_coefficient,
    read_history,
    write_coefficient,
)
from convexscat import cli
from convexscat.cli import main
from convexscat.scenarios import scenario_document


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    sc = Scenario(
        "small-disk",
        (Disk(center=(0.0, 0.4), radius=0.25, value=1.5),),
        noise_level=0.05,
        seed=1,
        n_cells=16,
        n_k=10,
    )
    path = tmp_path_factory.mktemp("scene") / "small.yaml"
    path.write_text(yaml.safe_dump(scenario_document(sc), sort_keys=False))
    return path


@pytest.fixture(scope="module")
def sim_dir(scene_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--scenario", str(scene_file), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    # method parameters only; the grid comes from the data header
    path = tmp_path_factory.mktemp("cfg") / "small.yaml"
    path.write_text(yaml.safe_dump({"n_modes": 3}))
    return path


@pytest.fixture(scope="module")
def inv_dir(sim_dir, config_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("inv")
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
               "--config", str(config_file), "--out", str(out)])
    assert rc == 0
    return out


def _manifest(d):
    return json.loads((d / "manifest.json").read_text())


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_outputs_and_manifest(sim_dir, scene_file):
    for name in ("truth.txt", "cauchy_clean.txt", "cauchy_noisy.txt"):
        assert (sim_dir / name).exists()

    doc = _manifest(sim_dir)
    assert doc["command"] == "simulate"
    assert doc["seed"] == 1
    # the config is the scene document, the mapping the scene file dumps
    assert doc["config"] == yaml.safe_load(scene_file.read_text())
    assert doc["config"]["name"] == "small-disk"
    assert doc["config"]["n_cells"] == 16 and doc["config"]["n_k"] == 10
    assert doc["config"]["shapes"] == [
        {"type": "disk", "center": [0.0, 0.4], "radius": 0.25, "value": 1.5}]
    assert doc["inputs"] == {str(scene_file): _sha(scene_file)}
    for path, digest in doc["outputs"].items():
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest

    truth = read_coefficient(sim_dir / "truth.txt")
    assert truth.values.max() == pytest.approx(1.5)
    noisy = read_cauchy(sim_dir / "cauchy_noisy.txt")
    assert noisy.noise_level == 0.05 and noisy.seed == 1


def test_simulate_is_deterministic(scene_file, sim_dir, tmp_path):
    assert main(["simulate", "--scenario", str(scene_file), "--out", str(tmp_path)]) == 0
    for name in ("truth.txt", "cauchy_clean.txt", "cauchy_noisy.txt"):
        assert (tmp_path / name).read_bytes() == (sim_dir / name).read_bytes()
    assert sorted(_manifest(tmp_path)["outputs"].values()) == sorted(
        _manifest(sim_dir)["outputs"].values()
    )


_SCENE_FILES = {
    # keys left at their defaults, and a float given as an integer
    "custom": "shapes:\n"
              "- {type: rectangle, lo: [-0.3, 0.1], hi: [0.2, 0.5], value: 2}\n"
              "- {type: disk, center: [0.4, 0.3], radius: 0.15, value: 1.25}\n"
              "half_width: 1\nn_cells: 12\nn_k: 6\nseed: 4\n",
    # a refined grid: 56 cells, solved on the 112-cell support box
    "example1-56": "name: example1-56\nseed: 0\nn_cells: 56\nshapes:\n"
                   "- {type: disk, center: [0.0, 0.45], radius: 0.2, value: 3.0}\n",
    # a rectangle drawn over a disk: the later shape wins in the culled
    # cut-cell quadrature
    "rectangle-over-disk": "name: rectangle-over-disk\nseed: 0\nshapes:\n"
                           "- {type: disk, center: [0.0, 0.4], radius: 0.2, value: 2.0}\n"
                           "- {type: rectangle, lo: [-0.05, 0.3], hi: [0.25, 0.5], value: 1.5}\n",
}


@pytest.mark.parametrize("scene", ["example1", *_SCENE_FILES])
def test_simulate_manifest_reproduces_its_run(scene, tmp_path):
    # the manifest's config, dumped as YAML, is a scene file that simulates
    # to the same data files
    if scene in _SCENE_FILES:
        text = _SCENE_FILES[scene]
        scene = tmp_path / f"{scene}.yaml"
        scene.write_text(text)
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scene), "--out", str(sim)]) == 0
    doc = _manifest(sim)
    rebuilt = tmp_path / "rebuilt.yaml"
    rebuilt.write_text(yaml.safe_dump(doc["config"]))
    rerun = tmp_path / "rerun"
    assert main(["simulate", "--scenario", str(rebuilt), "--out", str(rerun)]) == 0

    def by_name(d):
        return {Path(p).name: digest for p, digest in _manifest(d)["outputs"].items()}

    assert by_name(rerun) == by_name(sim)
    assert _manifest(rerun)["config"] == doc["config"]


def test_simulate_seed_override(scene_file, sim_dir, tmp_path):
    rc = main(["simulate", "--scenario", str(scene_file), "--out", str(tmp_path),
               "--seed", "7"])
    assert rc == 0
    assert _manifest(tmp_path)["seed"] == 7
    same = ("truth.txt", "cauchy_clean.txt")
    for name in same:
        assert (tmp_path / name).read_bytes() == (sim_dir / name).read_bytes()
    assert (tmp_path / "cauchy_noisy.txt").read_bytes() != (sim_dir / "cauchy_noisy.txt").read_bytes()
    assert read_cauchy(tmp_path / "cauchy_noisy.txt").seed == 7


def test_simulate_null_scene_gives_incident_traces(tmp_path):
    assert main(["simulate", "--scenario", "null", "--out", str(tmp_path)]) == 0

    truth = read_coefficient(tmp_path / "truth.txt")
    assert np.all(truth.values == 0.0)
    # zero noise level: the clean and noisy files are the same data
    assert (tmp_path / "cauchy_clean.txt").read_bytes() == (tmp_path / "cauchy_noisy.txt").read_bytes()

    cd = read_cauchy(tmp_path / "cauchy_clean.txt")
    x2 = cd.grid.nodes[cd.grid.gamma_row]
    for m, k in enumerate(cd.kgrid.midpoints):
        u = IncidentWave.field(x2, k)
        assert np.allclose(cd.g0[:, m], u, atol=1e-13)
        assert np.allclose(cd.g1[:, m], -1j * k * u, atol=1e-13)


def test_simulate_unknown_scenario_is_a_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "example9", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "example1" in err


def test_invert_outputs_and_exit_code(inv_dir, sim_dir):
    coeff = read_coefficient(inv_dir / "coefficient.txt")
    assert coeff.values.min() >= 0.0
    assert coeff.values.max() > 0.5

    records = read_history(inv_dir / "history.txt")
    assert [r.n for r in records] == list(range(len(records)))
    assert records[-1].J_value <= records[0].J_value

    doc = _manifest(inv_dir)
    assert doc["command"] == "invert"
    assert doc["config"]["n_modes"] == 3 and "n_cells" not in doc["config"]
    assert str(sim_dir / "cauchy_noisy.txt") in doc["inputs"]
    assert doc["stop"] == "tolerance" and doc["error"] is None


def test_invert_is_deterministic(sim_dir, config_file, inv_dir, tmp_path):
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
               "--config", str(config_file), "--out", str(tmp_path)])
    assert rc == 0
    for name in ("coefficient.txt", "history.txt"):
        assert (tmp_path / name).read_bytes() == (inv_dir / name).read_bytes()


def test_invert_reads_config_overrides(sim_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"n_modes": 3, "max_iterations": 1,
                                        "tolerance": 1e-12}))
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
               "--config", str(cfg_path), "--out", str(tmp_path)])
    # cap reached without meeting the (unreachably small) tolerance
    assert rc == 3
    assert len(read_history(tmp_path / "history.txt")) == 2
    assert _manifest(tmp_path)["config"]["max_iterations"] == 1
    assert _manifest(tmp_path)["stop"] == "iteration_cap"
    assert "iterations: 1" in capsys.readouterr().out


def test_invert_no_carleman_runs_the_comparison(sim_dir, config_file, tmp_path, capsys):
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
               "--config", str(config_file), "--out", str(tmp_path), "--no-carleman"])
    assert rc == 0  # the comparison run has no convergence contract
    doc = _manifest(tmp_path)
    assert "--no-carleman" in doc["command"]
    # the manifest holds the config the comparison run used, not the given one
    assert doc["config"]["lam"] == 0.0 and doc["config"]["max_iterations"] == 20
    assert doc["config"]["n_modes"] == 3
    # on this scene the unweighted descent ends at a failed re-solve; the run
    # keeps its best iterate and says so in one warning line
    assert doc["stop"] == "resolve_failed" and doc["error"] is not None
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: re-solve failed at n=")
    coeff = read_coefficient(tmp_path / "coefficient.txt")
    assert np.isfinite(coeff.values).all()
    records = read_history(tmp_path / "history.txt")
    assert [r.n for r in records] == list(range(len(records)))


def test_invert_resolve_failure_is_exit_4(sim_dir, tmp_path, capsys):
    # without the weight the descent blows up until a re-solved field
    # reaches the log floor; that ends the run with one error line, and the
    # iterations that ran are still on record
    # (a coefficient.txt left by an earlier run must not survive next to it)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"n_modes": 3, "lam": 0.0}))
    out = tmp_path / "out"
    out.mkdir()
    (out / "coefficient.txt").write_text("stale\n")
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: re-solve failed at n=5: NearZeroTotalField: total_to_log: |u/u_in|")

    records = read_history(out / "history.txt")
    assert [r.n for r in records] == list(range(6))
    assert all(np.isfinite(r.J_value) for r in records)
    assert not (out / "coefficient.txt").exists()
    doc = _manifest(out)
    assert doc["command"] == "invert" and doc["config"]["lam"] == 0.0
    assert doc["outputs"] == {str(out / "history.txt"): _sha(out / "history.txt")}
    assert doc["stop"] == "resolve_failed"
    assert doc["error"].startswith("NearZeroTotalField: total_to_log")


@pytest.mark.parametrize("key, n", [("epsilon", 0), ("rho", 1)])
def test_a_non_finite_re_solve_is_a_resolve_failure(sim_dir, tmp_path, capsys, key, n):
    # a step this large overflows the recovered coefficient to inf and nan
    # (the rho run only at its second step, once the penalty has grown J);
    # the re-solve names it as a failed solve, not as a fault in the data,
    # and no numpy warning reaches stderr (tier-1 makes one an error)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(f"n_modes: 3\n{key}: 1.0e+300\n")
    out = tmp_path / "out"
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 4
    doc = _manifest(out)
    assert doc["stop"] == "resolve_failed"
    assert doc["error"].startswith("IllConditionedSystem: scattering solve at k=")
    assert "coefficient is not finite" in doc["error"]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: re-solve failed at n={n}: {doc['error']}"]
    # the failed iterate's a_max is nan, and the history keeps it
    records = read_history(out / "history.txt")
    assert [r.n for r in records] == list(range(n + 1))
    assert all(np.isfinite([r.J_value, r.gradient_norm]).all() for r in records)
    assert np.isnan(records[-1].a_max) and np.isfinite([r.a_max for r in records[:-1]]).all()
    assert doc["outputs"] == {str(out / "history.txt"): _sha(out / "history.txt")}


@pytest.mark.parametrize("key", ["rho", "alpha2"])
def test_an_overflowing_penalty_weight_is_an_input_error(sim_dir, tmp_path, capsys, key):
    # finite weights that the 1/h^2 of the differences pushes past the
    # largest double: the run stops before its first step with exit 2, one
    # error line naming the weight, no numpy warning and no output
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(f"n_modes: 3\n{key}: 1.0e+308\n")
    out = tmp_path / "out"
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {sim_dir / 'cauchy_noisy.txt'}: the penalty form overflows on the "
                   f"16-cell grid (h = 0.1) at {key} = 1e+308"]
    assert not out.exists()


def test_a_grid_too_wide_for_the_carleman_weight_is_an_input_error(sim_dir, tmp_path, capsys):
    # at R = 1e300 lam (x2 - shift)^2 overflows: the weight is exp(-inf) = 0
    # with no numpy warning, and the run reaches the penalty's refusal
    data, out = tmp_path / "wide.txt", tmp_path / "out"
    data.write_text((sim_dir / "cauchy_noisy.txt").read_text().replace("\n# 0.8 16 ", "\n# 1e300 16 "))
    assert main(["invert", "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {data}: the penalty form overflows on "
                                                    "the 16-cell grid (h = 1.25e+299) at rho = 1e-05"]
    assert not out.exists()


@pytest.mark.parametrize("k_min, k_max, n_modes, message", [
    ("1.0e-200", "1.0e-199", 4, "psi_2 is numerically dependent on psi_1..psi_1 (residual "
                                "0.000e+00 vs norm 0.000e+00); reduce n_modes"),
    ("1.0e-200", "1.0e-199", 1, "k_min = 1e-200 is too small for the log transform: 1/k^2 "
                                "overflows at the lowest midpoint k = 1.45e-200"),
    ("1.0e-153", "1.0e-152", 1, "k_min = 1e-153 is too small for the log transform: the data's "
                                "basis coefficients G0 are not finite"),
], ids=["basis", "log-transform", "projection"])
def test_wavenumbers_at_the_edge_of_the_double_range_are_an_input_error(tmp_path, capsys, k_min,
                                                                        k_max, n_modes, message):
    # their squares underflow to 0: the basis refuses its second mode, and
    # with one mode the log transform refuses the data; neither divides by
    # 0.  Just above that, 1/k^2 is finite but v = Log(p)/k^2 of the noisy
    # data is about 1e304 and its projection is not finite: refused as
    # input, not as a re-solve of a non-finite coefficient
    scene, sim, out = tmp_path / "tiny-k.yaml", tmp_path / "sim", tmp_path / "out"
    scene.write_text("shapes: [{type: disk, center: [0.0, 0.4], radius: 0.25, value: 1.5}]\n"
                     f"n_cells: 16\nn_k: 10\nk_min: {k_min}\nk_max: {k_max}\n")
    assert main(["simulate", "--scenario", str(scene), "--out", str(sim)]) == 0
    (tmp_path / "cfg.yaml").write_text(f"n_modes: {n_modes}\n")
    capsys.readouterr()
    assert main(["invert", "--data", str(sim / "cauchy_noisy.txt"), "--config",
                 str(tmp_path / "cfg.yaml"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {sim / 'cauchy_noisy.txt'}: {message}"]
    assert not out.exists()


def test_weighted_resolve_failure_names_the_iteration_and_stores_float_config(sim_dir, tmp_path,
                                                                              capsys):
    # lam: 0 is a YAML integer; the weighted run fails like the one above and
    # its error line has the form of the manifest's error and of the
    # --no-carleman warning, and the manifest stores lam as a float
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("n_modes: 3\nlam: 0\n")
    out = tmp_path / "out"
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 4
    doc = _manifest(out)
    n = read_history(out / "history.txt")[-1].n
    assert capsys.readouterr().err.splitlines() == [f"error: re-solve failed at n={n}: {doc['error']}"]
    assert doc["stop"] == "resolve_failed"
    assert isinstance(doc["config"]["lam"], float) and doc["config"]["lam"] == 0.0
    assert '"lam": 0.0' in (out / "manifest.json").read_text()


def test_invert_rejects_bad_config_values_before_any_output(sim_dir, tmp_path, capsys):
    # lam = inf would zero the weight on every row; it must not reach the run.
    # A document that is no mapping is no empty override set either, and a
    # key the loop does not read (output clamping is not a setting) is refused.
    cfg_path = tmp_path / "cfg.yaml"
    out = tmp_path / "out"
    for doc, message in (
        ("lam: .inf", "lam must be a finite number"),
        # scipy's filter would ask for 59.6 GiB of taps, or blame the data file
        ("trace_sigma: 1.0e+9", "trace_sigma must be at most 1000 grid spacings, "
                                f"got 1000000000.0 (in --config {cfg_path})"),
        ("trace_sigma: 1.0e+300", "trace_sigma must be at most 1000 grid spacings, "
                                  f"got 1e+300 (in --config {cfg_path})"),
        ("clamp_negative: false", "unknown config keys: clamp_negative"),
        ("[]", f"config must be a mapping of method parameters, got [] (in --config {cfg_path})"),
        ("0", f"config must be a mapping of method parameters, got 0 (in --config {cfg_path})"),
    ):
        cfg_path.write_text(f"{doc}\n")
        rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
                   "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not out.exists()


def test_invert_rejects_malformed_config_yaml_before_any_output(sim_dir, tmp_path, capsys):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("lam: [1, 2\n")
    out = tmp_path / "out"
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg_path}: line 2: malformed YAML")
    assert not out.exists()


def test_simulate_rejects_malformed_scenario_yaml_before_any_output(tmp_path, capsys):
    scene = tmp_path / "bad.yaml"
    scene.write_text("shapes: [1, 2\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(scene), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {scene}: line 2: malformed YAML")
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("- [1, 2]", "shapes[1]: expected a mapping with a 'type' key, got list"),
    ("- {type: disk, center: [0.0, 0.4], value: 1.5}", "shapes[1]: disk needs radius"),
    ("- {type: disk, center: 0.4, radius: 0.2, value: 1.5}",
     "shapes[1]: center must be a pair of numbers [x1, x2], got 0.4"),
    ("n_cells: 28.5", "n_cells must be an integer >= 2, got 28.5"),
    # the grid simulate solves on is no part of a scene
    ("refine: 2", "unknown scenario keys: refine"),
    ("noise_level: abc", "noise_level must be a finite number, got 'abc'"),
    ("name: [1, 2]", "name must be a string, got [1, 2]"),
    # a scene holds no method parameters: its config key is refused whatever it holds
    ("config: []", "unknown scenario keys: config"),
    ("config: 0", "unknown scenario keys: config"),
    ("1: 2", "unknown scenario keys: 1"),
    ("config: {1: 2}", "unknown scenario keys: config"),
    ("config: {lam: 0.0}", "unknown scenario keys: config"),
    ("- {type: disk, center: [0.0, 0.4], radius: 0.2, value: 1.5, colour: red}",
     "shapes[1]: unknown disk keys: colour"),
    # a shape wholly outside the domain is refused before it is sampled, so
    # a far disk overflows nothing
    ("- {type: disk, center: [1.0e+200, 0.0], radius: 0.1, value: 1.5}",
     "shapes[1] lies wholly outside the domain [-0.8, 0.8]^2: "
     "its bounds are (1e+200, -0.1) to (1e+200, 0.1)"),
    ("- {type: rectangle, lo: [5, 5], hi: [6, 6], value: 1.5}",
     "shapes[1] lies wholly outside the domain [-0.8, 0.8]^2: "
     "its bounds are (5.0, 5.0) to (6.0, 6.0)"),
], ids=["list", "no-radius", "scalar-center", "fractional-n_cells", "refine",
        "text-noise_level", "list-name", "list-config", "scalar-config",
        "int-key", "int-config-key", "config-key", "extra-disk-key", "far-disk",
        "far-rectangle"])
def test_simulate_rejects_a_malformed_scene_before_any_output(tmp_path, capsys, line, message):
    # one shape or top-level value of an otherwise valid scene is malformed
    scene = tmp_path / "bad.yaml"
    scene.write_text("shapes:\n- {type: disk, center: [0.0, 0.4], radius: 0.2, value: 1.5}\n"
                     f"{line}\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(scene), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {scene}: {message}"]
    assert not out.exists()


_DISK = "- {type: disk, center: [0.0, 0.4], radius: 0.2, value: 1.5}"


@pytest.mark.parametrize("shapes, argv, message", [
    (f"{_DISK}\nk_min: 3.0", [], "need 0 < k_min < k_max < inf, got [3.0, 2.0]"),
    (f"{_DISK}\nhalf_width: -0.8", [], "half_width must be positive and finite, got -0.8"),
    (_DISK.replace("0.2", "0.5"), [], "support touches the domain boundary at"),
    # reaches into the reconstruction grid's edge cells but not the fine
    # grid's, and touches no node: the truth's edge-cell means see it
    ("- {type: disk, center: [0.0, 0.6], radius: 0.18, value: 1.0}", [],
     "support touches the domain boundary at"),
    (_DISK.replace("1.5", "-1.5"), [], "synthetic coefficient must be nonnegative, got -1.5"),
    (None, ["--seed", "-1"], "seed must be an integer >= 0 or null, got -1"),
    (_DISK.replace("[0.0", "[.nan"), [], "shapes[0]: center must be a pair of numbers [x1, x2]"),
    (_DISK.replace("0.2", ".nan"), [], "shapes[0]: radius must be a finite number, got nan"),
    (_DISK.replace("1.5", ".inf"), [], "shapes[0]: value must be a finite number, got inf"),
    (_DISK.replace("0.2", str(10**400)), [], "shapes[0]: radius must be a finite number"),
    # the cut-cell mean sums 32 x 32 samples of the value, which must not
    # overflow; refused before any sampling, so no numpy warning is raised
    (_DISK.replace("1.5", "1.0e+308"), [],
     "shapes[0]: value must be at most 1.7555597020139802e+305 in magnitude, got 1e+308"),
    (_DISK.replace("1.5", "-1.0e+308"), [],
     "shapes[0]: value must be at most 1.7555597020139802e+305 in magnitude, got -1e+308"),
    (f"{_DISK}\nn_k: 1000000000000000000", [], "n_k: Unable to allocate"),
    (_DISK.replace("0.2", "-0.2"), [], "shapes[0]: radius must be positive, got -0.2"),
    ("- {type: rectangle, lo: [0.3, 0.2], hi: [0.1, 0.4], value: 1.5}", [],
     "shapes[0]: rectangle corners must satisfy lo < hi componentwise, "
     "got lo (0.3, 0.2), hi (0.1, 0.4)"),
    # h^2 on the 56-cell solve grid overflows, which float ** raises on
    ("- {type: rectangle, lo: [-1.0e+155, 1.0e+155], hi: [1.0e+155, 3.0e+155], value: 1.5}\n"
     "half_width: 8.0e+155", [],
     "half_width 8e+155 is too large for k_max 2.0: k^2 h^2 overflows on the 56-cell solve grid"),
], ids=["k_min-above-k_max", "negative-half_width", "disk-on-boundary", "band-disk",
        "negative-value", "negative-seed", "nan-center", "nan-radius", "inf-value",
        "huge-radius", "overflowing-value", "overflowing-negative-value", "huge-n_k",
        "negative-radius", "inverted-rectangle", "huge-domain"])
def test_simulate_rejects_a_bad_scene_value_before_any_output(tmp_path, capsys, shapes, argv,
                                                               message):
    # a value fails the field or grid checks as the scene loads or where it
    # is used, or --seed fails the seed check; either way simulate stops
    # before it creates --out, and a scene file's error names the file.  A
    # nan shape would rasterize to an all-zero truth and an inf value would
    # reach the solver; the n_k scene asks numpy for 8 EiB at once, which
    # fails without touching memory and is reported under its key
    scene = "example1"
    if shapes is not None:
        scene = tmp_path / "bad.yaml"
        scene.write_text(f"shapes:\n{shapes}\n")
        message = f"{scene}: {message}"
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(scene), "--out", str(out), *argv])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command, key", [
    ("simulate", "half_width"), ("simulate", "k_max"), ("simulate", "noise_level"),
    ("simulate", "n_k"), ("invert", "lam"), ("invert", "epsilon"),
])
def test_an_integer_beyond_the_double_range_is_a_named_error(sim_dir, tmp_path, capsys,
                                                              command, key):
    # math.isfinite and float division raise OverflowError on such a YAML
    # integer; each command reports it as one error line that names the
    # file and the key, exits 2 and writes nothing
    path = tmp_path / "in.yaml"
    if command == "simulate":
        path.write_text(f"shapes:\n{_DISK}\n{key}: {10**400}\n")
        argv = ["simulate", "--scenario", str(path)]
    else:
        path.write_text(f"{key}: {10**400}\n")
        argv = ["invert", "--data", str(sim_dir / "cauchy_noisy.txt"), "--config", str(path)]
    out = tmp_path / "out"
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{key} must be" in err[0] and str(path) in err[0]
    assert not out.exists()


def test_invert_refuses_more_modes_than_quadrature_nodes_at_once(sim_dir, tmp_path, capsys):
    # a count beyond sys.maxsize is refused as the config loads, before
    # build_basis samples any psi_n; build_basis's own refusal of more modes
    # than quadrature nodes is covered in test_basis
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(f"n_modes: {10**30}\n")
    out = tmp_path / "out"
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: n_modes must be an integer >= 1 and <= {sys.maxsize}, got {10**30} "
        f"(in --config {cfg_path})"]
    assert not out.exists()


def test_invert_rejects_data_the_loop_cannot_use_before_any_output(tmp_path, capsys):
    # the data file parses, but its 3-node grid is too coarse for the
    # recovery stencils; invert must not leave an empty --out behind
    scene = tmp_path / "coarse.yaml"
    scene.write_text("shapes: []\nnoise_level: 0.0\nn_cells: 2\nn_k: 4\n")
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scene), "--out", str(sim)]) == 0
    out = tmp_path / "out"
    data = sim / "cauchy_noisy.txt"
    rc = main(["invert", "--data", str(data), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {data}: recovery stencils need at least 4 nodes per side"]
    assert not out.exists()


def test_invert_takes_the_grid_from_the_data(sim_dir, tmp_path):
    # no config at all: the defaults hold only method parameters
    rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"), "--out", str(tmp_path)])
    assert rc in (0, 3)
    coeff = read_coefficient(tmp_path / "coefficient.txt")
    assert coeff.grid == read_cauchy(sim_dir / "cauchy_noisy.txt").grid


def test_invert_rejects_malformed_data(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a data file\n")
    rc = main(["invert", "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invert_rejects_data_at_the_log_floor_before_any_output(sim_dir, tmp_path, capsys):
    # one g0 sample of the measured trace is zero, so the data transform
    # cannot take its log: that is bad input, named by its file, for either
    # run, and no failed re-solve
    lines = (sim_dir / "cauchy_noisy.txt").read_text().splitlines()
    i = next(n for n, line in enumerate(lines) if not line.startswith("#"))
    row = lines[i].split()
    lines[i] = " ".join([*row[:2], "0.0", "0.0", *row[4:]])
    data = tmp_path / "zero.txt"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    for argv in ([], ["--no-carleman"]):
        rc = main(["invert", "--data", str(data), "--out", str(out), *argv])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data}: cauchy_to_v_data: |u/u_in| <= 1e-08 at 1 samples (min 0.000e+00)"]
        assert not out.exists()


def test_invert_rejects_unknown_config_keys(sim_dir, tmp_path, capsys):
    # the grid and the cutoff width are no config keys: they come from the data
    cfg_path = tmp_path / "cfg.yaml"
    for key, value in (("stepsize", 1e-3), ("n_cells", 16), ("xi", 0.08)):
        cfg_path.write_text(yaml.safe_dump({key: value}))
        rc = main(["invert", "--data", str(sim_dir / "cauchy_noisy.txt"),
                   "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err


def test_export_tables(inv_dir, tmp_path):
    rc = main(["export", "--result", str(inv_dir / "coefficient.txt"),
               "--row", "0.4", "--out", str(tmp_path)])
    assert rc == 0

    coeff = read_coefficient(inv_dir / "coefficient.txt")
    g = coeff.grid
    i_row = int(np.argmin(np.abs(g.nodes - 0.4)))

    rows = [ln.split() for ln in (tmp_path / "cross_section.txt").read_text().splitlines()
            if not ln.startswith("#")]
    assert len(rows) == g.n_nodes
    x1 = np.array([float(r[0]) for r in rows])
    a = np.array([float(r[1]) for r in rows])
    assert np.array_equal(x1, g.nodes)
    assert np.array_equal(a, coeff.values[i_row])

    heat = [ln for ln in (tmp_path / "heatmap.txt").read_text().splitlines()
            if not ln.startswith("#")]
    assert len(heat) == g.n_points


def test_export_snaps_to_nearest_row_with_warning(inv_dir, tmp_path, capsys):
    rc = main(["export", "--result", str(inv_dir / "coefficient.txt"),
               "--row", "0.43", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: x2=0.43 is not a grid node; using nearest row x2=0.400000"
    ]
    header = (tmp_path / "cross_section.txt").read_text().splitlines()[0]
    assert "0.4" in header


@pytest.mark.parametrize("row", ["nan", "inf", "-inf"])
def test_export_rejects_a_non_finite_row(inv_dir, tmp_path, capsys, row):
    out = tmp_path / "out"
    rc = main(["export", "--result", str(inv_dir / "coefficient.txt"), f"--row={row}",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --row must be a finite x2")
    assert not out.exists()


def test_export_zero_coefficient_gives_zero_rows(tmp_path):
    from convexscat import Coefficient, Grid2D

    grid = Grid2D(0.8, 8)
    path = tmp_path / "zero.txt"
    write_coefficient(Coefficient(grid=grid, values=np.zeros((9, 9))), path)
    assert main(["export", "--result", str(path), "--row", "0.4", "--out", str(tmp_path)]) == 0
    rows = [ln.split() for ln in (tmp_path / "heatmap.txt").read_text().splitlines()
            if not ln.startswith("#")]
    assert all(float(r[2]) == 0.0 for r in rows)


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_a_programming_error_propagates(error, monkeypatch, tmp_path):
    # only bad input is reported as exit 2; a bug inside a command surfaces
    # as its own exception and the command writes nothing
    def broken(sc):
        raise error("bug")

    monkeypatch.setattr(cli, "simulate_scenario", broken)
    out = tmp_path / "out"
    with pytest.raises(error, match="bug"):
        main(["simulate", "--scenario", "example1", "--out", str(out)])
    assert not out.exists()


def test_validate_command_reports_all_green(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 5
    assert "5/5 checks passed" in out
    assert "FAIL" not in out
