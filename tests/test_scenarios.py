"""Scene registry, YAML persistence, and the synthetic data pipeline.

Persistence must be lossless: PyYAML writes floats with repr, so a saved
scenario loads back equal, field for field.  Pipeline tests run on small
grids; the physics itself is covered by the forward-solver tests.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from convexscat import (
    CauchyData,
    Disk,
    Grid2D,
    IncidentWave,
    InversionConfig,
    KGrid,
    Rectangle,
    Scenario,
    config_from_dict,
    disk_total_field,
    get_scenario,
    load_scenario,
    rasterize,
    simulate_scenario,
    solve_forward_multi,
    trace_cauchy,
)
from convexscat.scenarios import BUILTIN_SCENARIOS, REFINE, scenario_document

SMALL = InversionConfig(n_modes=2)


def _save(sc, path):
    path.write_text(yaml.safe_dump(scenario_document(sc), sort_keys=False))


def _small_disk(noise=0.05, seed=1):
    return Scenario(
        "small-disk",
        (Disk(center=(0.0, 0.4), radius=0.25, value=1.5),),
        noise_level=noise,
        seed=seed,
        n_cells=8,
        n_k=3,
    )


def test_builtin_registry():
    assert set(BUILTIN_SCENARIOS) == {
        "null", "example1", "example2a", "example2b", "example3a", "example3b",
    }
    null = get_scenario("null")
    assert null.shapes == () and null.noise_level == 0.0

    one = get_scenario("example1")
    assert one.shapes == (Disk(center=(0.0, 0.45), radius=0.2, value=3.0),)
    assert one.noise_level == 0.05 and one.config == InversionConfig()

    two = get_scenario("example2b")
    values = sorted(s.value for s in two.shapes)
    assert values == [1.5, 2.0]


def test_get_scenario_unknown_name():
    with pytest.raises(KeyError, match="builtins"):
        get_scenario("example9")


def test_scenario_validation():
    with pytest.raises(ValueError):
        _small_disk(noise=-0.01)
    # every field is checked where it enters, and the error names it
    for key, value in (("n_cells", 28.5), ("n_k", 50.0),
                       ("noise_level", "abc"), ("noise_level", float("nan")),
                       ("half_width", float("inf")), ("k_min", None), ("k_max", True),
                       ("seed", -1), ("seed", 1.0), ("seed", False), ("name", [1, 2])):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            dataclasses.replace(_small_disk(), **{key: value})
    assert _small_disk(seed=None).seed is None
    # an empty scene is legitimate, it describes a null scatterer
    Scenario("empty", ())


_VALID = (Grid2D(0.8, 8), Disk(center=(0.0, 0.4), radius=0.2, value=1.5),
          Rectangle(lo=(0.1, 0.2), hi=(0.3, 0.4), value=1.5),
          Scenario("s", (), n_cells=8, n_k=4), InversionConfig())
_NUMBER_FIELDS = [(obj, f.name, f.type) for obj in _VALID for f in dataclasses.fields(obj)
                  if f.type in ("float", "int", "int | None", "tuple[float, float]")]


@pytest.mark.parametrize("obj, name, annotation", _NUMBER_FIELDS,
                         ids=[f"{type(o).__name__}.{n}" for o, n, _ in _NUMBER_FIELDS])
def test_every_number_field_refuses_a_value_that_is_not_a_finite_number(obj, name, annotation):
    # read off the dataclass fields, so a field added later is covered too
    bad = [True, float("nan"), float("inf"), 10**400, "x"]
    if annotation.startswith("tuple"):
        bad.append((float("nan"), 0.4))
    for value in bad:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            dataclasses.replace(obj, **{name: value})


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_yaml_roundtrip_is_exact(name, tmp_path):
    sc = get_scenario(name)
    path = tmp_path / f"{name}.yaml"
    _save(sc, path)
    assert load_scenario(path) == sc


def test_yaml_roundtrip_custom_fields(tmp_path):
    sc = Scenario(
        "mixed",
        (
            Disk(center=(-0.3, 0.45), radius=0.2, value=2.0),
            Rectangle(lo=(0.1, 0.3), hi=(0.4, 0.6), value=1.5),
        ),
        noise_level=0.03,
        seed=None,
        half_width=0.9,
        n_cells=12,
        k_min=0.4,
        k_max=1.8,
        n_k=7,
    )
    path = tmp_path / "mixed.yaml"
    _save(sc, path)
    loaded = load_scenario(path)
    assert loaded == sc
    assert loaded.seed is None
    # the measurement setup sits at the top level; method parameters are no part of a scene
    doc = yaml.safe_load(path.read_text())
    assert (doc["half_width"], doc["n_cells"], doc["k_min"], doc["k_max"], doc["n_k"]) == (
        0.9, 12, 0.4, 1.8, 7)
    assert "config" not in doc


def test_load_rejects_bad_documents(tmp_path):
    p = tmp_path / "bad.yaml"

    p.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="mapping"):
        load_scenario(p)

    doc = {"name": "x", "shapes": [{"type": "triangle", "value": 1.0}]}
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match="shape type"):
        load_scenario(p)

    # a misspelt grid key must not fall back to the default grid
    p.write_text(yaml.safe_dump({"name": "x", "shapes": [], "n_cell": 8}))
    with pytest.raises(ValueError, match="unknown scenario keys: n_cell"):
        load_scenario(p)


def test_scenario_stores_python_numbers():
    # so the scene document dumps to JSON, and an integer beyond int64
    # reaches the grids as a double
    sc = Scenario("x", (), half_width=1, n_cells=np.int64(8), k_max=10**30, seed=None)
    assert (type(sc.half_width), type(sc.n_cells), type(sc.k_max)) == (float, int, float)
    assert json.loads(json.dumps(scenario_document(sc)))["k_max"] == 1e30
    assert KGrid(sc.k_min, sc.k_max, sc.n_k).midpoints.dtype == float


def test_readme_yaml_example_shows_the_defaults(tmp_path):
    # README.md says every value of its scenario example is the default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```yaml\n")[1:]
    assert len(blocks) == 1
    path = tmp_path / "readme.yaml"
    path.write_text(blocks[0].split("```")[0])
    sc = load_scenario(path)
    assert len(sc.shapes) == 2
    assert dataclasses.replace(sc, shapes=()) == Scenario("scenario", ())


def test_config_from_dict():
    assert config_from_dict({}) == InversionConfig()
    cfg = config_from_dict(dataclasses.asdict(SMALL))
    assert cfg == SMALL
    with pytest.raises(ValueError, match="n_cell, rho2"):
        config_from_dict({"rho2": 1.0, "n_cell": 8})


def test_scenario_document_rejects_unknown_shape_objects():
    sc = Scenario("odd", (("not", "a", "shape"),))
    with pytest.raises(TypeError):
        scenario_document(sc)


def test_simulate_null_scene_is_zero_and_noise_free():
    truth, clean, noisy = simulate_scenario(
        Scenario("empty", (), noise_level=0.0, n_cells=8, n_k=3)
    )
    assert np.all(truth.values == 0.0)
    assert noisy is clean  # zero noise level returns the same object
    assert clean.g0.shape == (truth.grid.n_nodes, 3)


def test_simulate_is_deterministic_and_seed_overridable():
    sc = _small_disk()
    _, _, noisy_a = simulate_scenario(sc)
    _, clean, noisy_b = simulate_scenario(sc)
    assert np.array_equal(noisy_a.g0, noisy_b.g0)
    assert np.array_equal(noisy_a.g1, noisy_b.g1)

    _, _, other = simulate_scenario(dataclasses.replace(sc, seed=9))
    assert other.seed == 9
    assert not np.array_equal(other.g0, noisy_a.g0)


def test_simulate_traces_the_refined_solve():
    """The emitted data must come from the finer grid, subsampled to the
    reconstruction nodes, not from a solve on the coarse grid itself.  They
    are traced from the fields on the fine support box, and agree with the
    top row of the whole-grid fields up to rounding."""
    sc = _small_disk(noise=0.0)
    truth, clean, _ = simulate_scenario(sc)

    fine_grid = Grid2D(sc.half_width, sc.n_cells * REFINE)
    kgrid = KGrid(sc.k_min, sc.k_max, sc.n_k)
    fine = rasterize(sc.shapes, fine_grid)
    cd_fine = trace_cauchy(solve_forward_multi(fine, kgrid, on_box=True), fine, kgrid)

    assert np.array_equal(clean.g0, cd_fine.g0[::REFINE])
    assert np.array_equal(clean.g1, cd_fine.g1[::REFINE])
    assert truth.grid.n_cells == sc.n_cells

    whole = solve_forward_multi(fine, kgrid)
    top = whole[:, -1, ::REFINE].T
    assert np.max(np.abs(clean.g0 - top)) <= 1e-13 * np.max(np.abs(top))
    cd_whole = trace_cauchy(whole[(Ellipsis,) + fine.box], fine, kgrid)
    assert np.max(np.abs(clean.g1 - cd_whole.g1[::REFINE])) <= 1e-13 * np.max(np.abs(clean.g1))

    coarse = rasterize(sc.shapes, truth.grid)
    cd_coarse = trace_cauchy(solve_forward_multi(coarse, kgrid, on_box=True), coarse, kgrid)
    assert not np.allclose(clean.g0, cd_coarse.g0)


def test_simulate_truth_is_the_rasterized_node_values():
    # the truth is rasterize's node values on the reconstruction grid,
    # without the cell means only the solver reads
    shapes = (Disk(center=(0.0, 0.1), radius=0.3, value=2.0),
              Rectangle(lo=(-0.05, -0.1), hi=(0.4, 0.3), value=1.5))
    sc = Scenario("truth", shapes, noise_level=0.0, n_cells=12, n_k=3)
    truth, _, _ = simulate_scenario(sc)
    coeff = rasterize(shapes, Grid2D(sc.half_width, sc.n_cells))
    assert np.array_equal(truth.values, coeff.values)
    assert truth.cell_mean is None


def test_a_scene_in_the_band_between_the_edge_cells_is_refused():
    # the disk reaches x2 = 0.78: into the top edge cells of the 28-cell
    # reconstruction grid (from 0.8 - h/2 = 0.771) but not those of the
    # 56-cell fine grid (from 0.786), and no node; only the cell means of
    # the reconstruction grid's boundary ring see it
    sc = Scenario("band", (Disk(center=(0.0, 0.6), radius=0.18, value=1.0),), n_k=3)
    rasterize(sc.shapes, Grid2D(sc.half_width, sc.n_cells * REFINE))
    with pytest.raises(ValueError) as exc:
        simulate_scenario(sc)
    assert str(exc.value) == ("support touches the domain boundary at 3 nodes, first at "
                              "(i=29, j=14), (i=29, j=15), (i=29, j=16)")


def test_a_scene_over_both_boundaries_is_reported_on_the_reconstruction_grid():
    sc = Scenario("both", (Disk(center=(0.0, 0.65), radius=0.2, value=1.0),), n_k=3)
    with pytest.raises(ValueError, match=r"at 11 nodes, first at \(i=57, j=24\)"):
        rasterize(sc.shapes, Grid2D(sc.half_width, sc.n_cells * REFINE))
    with pytest.raises(ValueError) as exc:
        simulate_scenario(sc)
    assert str(exc.value) == ("support touches the domain boundary at 7 nodes, first at "
                              "(i=29, j=12), (i=29, j=13), (i=29, j=14), (i=29, j=15), "
                              "(i=29, j=16)")


def test_refined_grid_trace_is_closer_to_the_disk_series():
    # example1's clean g0 against the analytic disk series: on the 56-cell
    # grid (solved on 112 cells) it is inside criterion 2's 1% and closer
    # than on the builtin 28 cells
    def trace_err(n_cells):
        sc = dataclasses.replace(get_scenario("example1"), n_cells=n_cells, noise_level=0.0)
        _, clean, _ = simulate_scenario(sc)
        disk = sc.shapes[0]
        pts = np.stack([clean.grid.nodes, np.full(clean.grid.n_nodes, sc.half_width)], axis=-1)
        exact = np.stack([disk_total_field(pts, disk.center, disk.radius, disk.value,
                                           IncidentWave.direction, k)
                          for k in clean.kgrid.midpoints], axis=1)
        return np.linalg.norm(clean.g0 - exact) / np.linalg.norm(exact)

    coarse, fine = trace_err(28), trace_err(56)
    assert fine < 0.01
    assert fine < coarse


def test_simulate_result_types():
    truth, clean, noisy = simulate_scenario(_small_disk())
    assert isinstance(clean, CauchyData) and isinstance(noisy, CauchyData)
    assert truth.values.max() == pytest.approx(1.5)
    assert clean.noise_level == 0.0 and noisy.noise_level == 0.05
