"""Builtin scenes and the synthetic measurement pipeline.

A scenario describes the measurement only: the true inclusions, the grid,
the wavenumber range and the noise.  The method parameters are no part of
it; they enter the inversion only through its InversionConfig.  Truth data
is produced on a REFINE-times finer grid than the reconstruction grid and
subsampled back, so the inversion never sees fields computed with its own
discretization.

The YAML keys are the dataclass fields of Scenario and of each shape class
(plus the shape's "type"); unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import yaml

from .basis import KGrid, _check_fields
from .forward import (
    CauchyData,
    Coefficient,
    Disk,
    Grid2D,
    Rectangle,
    add_noise,
    rasterize,
    solve_forward_multi,
    trace_cauchy,
)
from .inversion import InversionConfig
from .io import _located

__all__ = [
    "Scenario",
    "BUILTIN_SCENARIOS",
    "get_scenario",
    "simulate_scenario",
    "load_scenario",
    "scenario_document",
]

# the inversion must never see fields computed with its own discretization
REFINE = 2


@dataclass(frozen=True)
class Scenario:
    """A measurement in nine keys: name, shapes, noise_level, seed, the
    reconstruction grid's half_width and n_cells, and k_min, k_max, n_k."""

    name: str
    shapes: tuple
    noise_level: float = 0.05
    seed: int | None = 0
    half_width: float = 0.8
    n_cells: int = 28
    k_min: float = 0.5
    k_max: float = 2.0
    n_k: int = 50
    # the method parameters every builtin scene is inverted with; no field,
    # so no scene file can set it
    config: ClassVar[InversionConfig] = InversionConfig()

    def __post_init__(self):
        _check_fields(self, n_cells=2, seed=0)
        # an empty shape tuple is allowed: it describes a null scatterer
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if self.noise_level < 0:
            raise ValueError(f"noise_level must be nonnegative, got {self.noise_level!r}")
        # the grids check the domain and the wavenumber range; an n_k too
        # large to allocate is reported under its key
        Grid2D(self.half_width, self.n_cells)
        try:
            KGrid(self.k_min, self.k_max, self.n_k).midpoints
        except MemoryError as exc:
            raise ValueError(f"n_k: {exc}") from None


def _builtins() -> dict:
    disk_l = Disk(center=(-0.3, 0.45), radius=0.2, value=2.0)
    disk_r = Disk(center=(0.3, 0.45), radius=0.2, value=2.0)
    box = Rectangle(lo=(0.18, 0.33), hi=(0.48, 0.57), value=1.5)
    scenes = (
        Scenario("null", (), noise_level=0.0),
        Scenario("example1", (Disk(center=(0.0, 0.45), radius=0.2, value=3.0),)),
        Scenario("example2a", (disk_l, disk_r)),
        Scenario("example2b", (disk_l, replace(disk_r, value=1.5))),
        Scenario("example3a", (disk_l, box)),
        Scenario(
            "example3b",
            (
                Disk(center=(-0.45, 0.45), radius=0.15, value=2.0),
                Disk(center=(0.45, 0.45), radius=0.15, value=2.0),
                Rectangle(lo=(-0.12, 0.35), hi=(0.12, 0.55), value=1.5),
            ),
        ),
    )
    return {s.name: s for s in scenes}


BUILTIN_SCENARIOS = _builtins()


def get_scenario(name: str) -> Scenario:
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; builtins: {known}") from None


def simulate_scenario(sc: Scenario):
    """Render truth, solve the scattering problem, trace and perturb the data.

    Returns (truth coefficient on the reconstruction grid, clean data, noisy
    data); the latter two coincide when the scenario is noise free.  The
    fields are solved on the fine grid's support box only, from which
    trace_cauchy reads the data by the representation formula.  The
    noise is drawn with sc.seed; replace(sc, seed=...) draws another.

    Both grids are rasterized, the reconstruction grid first, so a scene
    that touches the domain boundary on both is reported with the
    reconstruction grid's nodes.  The truth keeps the node values only,
    the fine grid also the cell means its solves need.  A scene whose
    k^2 h^2 overflows on the fine grid at the largest wavenumber is refused
    before either, as no solve could run on it.
    """
    grid = Grid2D(sc.half_width, sc.n_cells)
    kgrid = KGrid(sc.k_min, sc.k_max, sc.n_k)
    fine_grid = Grid2D(sc.half_width, sc.n_cells * REFINE)
    k, h = float(kgrid.midpoints[-1]), fine_grid.h
    if not math.isfinite(h * h * k * k):
        raise ValueError(f"half_width {sc.half_width!r} is too large for k_max {sc.k_max!r}: "
                         f"k^2 h^2 overflows on the {fine_grid.n_cells}-cell solve grid")
    truth = Coefficient(grid=grid, values=rasterize(sc.shapes, grid).values)
    fine = rasterize(sc.shapes, fine_grid)
    cd_fine = trace_cauchy(solve_forward_multi(fine, kgrid, on_box=True), fine, kgrid)
    clean = CauchyData(
        grid=grid,
        kgrid=kgrid,
        g0=cd_fine.g0[::REFINE].copy(),
        g1=cd_fine.g1[::REFINE].copy(),
    )
    noisy = add_noise(clean, sc.noise_level, seed=sc.seed)
    return truth, clean, noisy


# the YAML "type" of each shape class; its other keys are the class's fields
_SHAPES = {"disk": Disk, "rectangle": Rectangle}


def _reject_unknown(d: dict, known, what: str) -> None:
    extra = sorted(str(key) for key in d if key not in known)
    if extra:
        raise ValueError(f"unknown {what} keys: {', '.join(extra)}")


def _shape_to_dict(shape) -> dict:
    kind = next((k for k, cls in _SHAPES.items() if type(shape) is cls), None)
    if kind is None:
        raise TypeError(f"unsupported shape {type(shape).__name__}")
    doc = {"type": kind}
    for f in fields(shape):
        value = getattr(shape, f.name)
        doc[f.name] = list(value) if isinstance(value, tuple) else value
    return doc


def _shape_from_dict(d):
    """One shape from its YAML mapping; a malformed entry raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a mapping with a 'type' key, got {type(d).__name__}")
    kind = d.get("type")
    if not isinstance(kind, str) or kind not in _SHAPES:
        raise ValueError(f"unknown shape type {kind!r}")
    keys = [f.name for f in fields(_SHAPES[kind])]
    _reject_unknown(d, ["type", *keys], kind)
    missing = [key for key in keys if key not in d]
    if missing:
        raise ValueError(f"{kind} needs {', '.join(missing)}")
    return _SHAPES[kind](**{key: d[key] for key in keys})


def _shapes_from_list(shapes) -> tuple:
    if not isinstance(shapes, list):
        raise ValueError(f"'shapes' must be a list, got {type(shapes).__name__}")
    out = []
    for i, d in enumerate(shapes):
        try:
            out.append(_shape_from_dict(d))
        except ValueError as exc:
            raise ValueError(f"shapes[{i}]: {exc}") from None
    return tuple(out)


def config_from_dict(d) -> InversionConfig:
    """The InversionConfig a mapping of overrides gives; None means no overrides."""
    if d is None:
        d = {}
    if not isinstance(d, dict):
        raise ValueError(f"config must be a mapping of method parameters, got {d!r}")
    _reject_unknown(d, InversionConfig.__dataclass_fields__, "config")
    return InversionConfig(**d)


def scenario_document(sc: Scenario) -> dict:
    """The scene as the plain mapping load_scenario reads: every Scenario
    field in declaration order, the shapes as their YAML mappings.  Dumped
    with yaml.safe_dump(..., sort_keys=False) it is a scene file, and
    simulate records it as its manifest's config."""
    return {**{f.name: getattr(sc, f.name) for f in fields(Scenario)},
            "shapes": [_shape_to_dict(s) for s in sc.shapes]}


def read_yaml(path):
    """The document in a YAML file; malformed YAML raises a one-line
    ValueError that names the file and, where the parser knows it, the line."""
    with open(path) as f:
        try:
            return yaml.safe_load(f)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = "" if mark is None else f" line {mark.line + 1}:"
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ValueError(f"{path}:{where} malformed YAML: {problem}") from None


def load_scenario(path) -> Scenario:
    """The scene in a YAML file: every Scenario field is a top-level key, and
    a key left out takes the field's default, except that a missing name is
    "scenario" and a missing seed means unseeded noise."""
    doc = read_yaml(path)
    if not isinstance(doc, dict) or "shapes" not in doc:
        raise ValueError(f"{path}: expected a mapping with a 'shapes' list")
    with _located(path):
        _reject_unknown(doc, [f.name for f in fields(Scenario)], "scenario")
        return Scenario(**{"name": "scenario", "seed": None, **doc,
                           "shapes": _shapes_from_list(doc["shapes"])})
