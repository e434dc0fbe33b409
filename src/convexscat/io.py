"""Plain-text file formats and the run manifest.

All floats are written with repr, which round-trips doubles exactly, so a
write-then-read cycle is bit-for-bit.  Grid and row/column indices are
1-based in files; in memory everything stays 0-based.  A seed of -1 in a
data header means "no seed recorded".  The readers reject a data row whose
index is out of range or repeats an earlier row, or whose value is not a
finite number, and name its line; a bad header value is named the same way.
The history reader checks each row's field count, integer n and finite
values the same way, and refuses a file with no rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np

from .basis import make_kgrid
from .forward import CauchyData, Coefficient, Grid2D
from .inversion import IterationRecord

__all__ = [
    "write_cauchy",
    "read_cauchy",
    "write_coefficient",
    "read_coefficient",
    "write_history",
    "read_history",
    "write_manifest",
]


def _r(x) -> str:
    return repr(float(x))


def write_cauchy(cd: CauchyData, path) -> None:
    g = cd.grid
    kg = cd.kgrid
    seed = -1 if cd.seed is None else int(cd.seed)
    lines = [
        f"# R Nx kmin kmax Nk delta seed",
        f"# {_r(g.half_width)} {g.n_cells} {_r(kg.k_min)} {_r(kg.k_max)} {kg.n_sub} {_r(cd.noise_level)} {seed}",
    ]
    for j in range(g.n_nodes):
        for m in range(kg.n_sub):
            g0, g1 = cd.g0[j, m], cd.g1[j, m]
            lines.append(
                f"{j + 1} {m + 1} {_r(g0.real)} {_r(g0.imag)} {_r(g1.real)} {_r(g1.imag)}"
            )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _read_lines(path):
    """(1-based line number, fields) of the comment lines, '#' dropped, and of the data rows."""
    with open(path) as f:
        lines = f.read().splitlines()
    comments, rows = [], []
    for lineno, ln in enumerate(lines, start=1):
        ln = ln.strip()
        if ln.startswith("#"):
            comments.append((lineno, ln[1:].split()))
        elif ln:
            rows.append((lineno, ln.split()))
    return comments, rows


def _read_table(path, header_spec: str, labels):
    """Header location and fields, and (1-based line number, fields) data rows.

    Comment lines whose first word is in labels name the columns; the other
    comment line is the header, laid out as header_spec.
    """
    comments, rows = _read_lines(path)
    where = header = None
    for lineno, fields in comments:
        if fields and fields[0] not in labels:
            where, header = f"{path}: line {lineno}", fields
    if header is None or len(header) != len(header_spec.split()):
        raise ValueError(f"{path}: missing '# {header_spec}' header")
    return where, header, rows


@contextmanager
def _located(where):
    """Prefix any ValueError raised in the block with where."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_row(where, row, layout: str, n_int: int):
    """The first n_int fields as ints and the rest as finite floats of a row laid out as layout."""
    if len(row) != len(layout.split()):
        raise ValueError(f"{where}: each row needs '{layout}', got {len(row)} fields")
    with _located(where):
        ints = tuple(int(x) for x in row[:n_int])
        vals = [float(x) for x in row[n_int:]]
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{where}: non-finite value")
    return ints, vals


def _fill(path, rows, shape, layout: str):
    """Yield (0-based index, finite values) per row, each index exactly once."""
    seen = np.zeros(shape, dtype=bool)
    for lineno, row in rows:
        where = f"{path}: line {lineno}"
        idx, vals = _parse_row(where, row, layout, len(shape))
        idx = tuple(i - 1 for i in idx)
        if not all(0 <= i < n for i, n in zip(idx, shape)):
            raise ValueError(f"{where}: index {' '.join(row[:len(shape)])} outside "
                             f"1..{' x 1..'.join(map(str, shape))}")
        if seen[idx]:
            raise ValueError(f"{where}: duplicate row for index {' '.join(row[:len(shape)])}")
        seen[idx] = True
        yield idx, vals


def read_cauchy(path) -> CauchyData:
    where, header, rows = _read_table(path, "R Nx kmin kmax Nk delta seed", ("R",))
    with _located(where):
        R, n_cells, k_min, k_max, n_k, delta, seed = (
            float(header[0]), int(header[1]), float(header[2]), float(header[3]),
            int(header[4]), float(header[5]), int(header[6]),
        )
        grid = Grid2D(R, n_cells)
        if not 0 <= delta < math.inf:
            raise ValueError(f"noise level must be finite and nonnegative, got {delta}")
    if len(rows) != grid.n_nodes * n_k:
        raise ValueError(f"{path}: expected {grid.n_nodes * n_k} data rows, found {len(rows)}")
    with _located(where):
        kg = make_kgrid(k_min, k_max, n_k)
    g0 = np.zeros((grid.n_nodes, n_k), dtype=complex)
    g1 = np.zeros_like(g0)
    for jm, (re0, im0, re1, im1) in _fill(path, rows, g0.shape,
                                          "j k_index Re(g0) Im(g0) Re(g1) Im(g1)"):
        g0[jm] = re0 + 1j * im0
        g1[jm] = re1 + 1j * im1
    return CauchyData(grid=grid, kgrid=kg, g0=g0, g1=g1, noise_level=delta,
                      seed=None if seed < 0 else seed)


def write_coefficient(coeff: Coefficient, path) -> None:
    g = coeff.grid
    lines = [f"# R Nx", f"# {_r(g.half_width)} {g.n_cells}", "# i j a"]
    for i in range(g.n_nodes):
        for j in range(g.n_nodes):
            lines.append(f"{i + 1} {j + 1} {_r(coeff.values[i, j])}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_coefficient(path) -> Coefficient:
    where, header, rows = _read_table(path, "R Nx", ("R", "i"))
    with _located(where):
        grid = Grid2D(float(header[0]), int(header[1]))
    if len(rows) != grid.n_points:
        raise ValueError(f"{path}: expected {grid.n_points} rows, found {len(rows)}")
    values = np.zeros((grid.n_nodes, grid.n_nodes))
    for ij, (a,) in _fill(path, rows, values.shape, "i j a"):
        values[ij] = a
    return Coefficient(grid=grid, values=values)


def write_history(records, path) -> None:
    lines = ["# n J grad_norm a_max"]
    for r in records:
        lines.append(f"{r.n} {_r(r.J_value)} {_r(r.gradient_norm)} {_r(r.a_max)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_history(path):
    """The iteration records of a history file; at least one row, each checked like a data row."""
    _, rows = _read_lines(path)
    if not rows:
        raise ValueError(f"{path}: no iteration rows")
    records = []
    for lineno, row in rows:
        (n,), vals = _parse_row(f"{path}: line {lineno}", row, "n J grad_norm a_max", 1)
        records.append(IterationRecord(n, *vals))
    return records


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(command: str, inputs, config: dict, seed, outputs, out_path, started: float,
                   **outcome) -> None:
    """Record enough to rerun and verify: hashed inputs and outputs, config, seed.

    Each outcome keyword is one more top-level key (invert: stop, error).
    Rerunning with the same inputs must reproduce the output hashes exactly.
    The timestamps make manifests themselves non-identical across reruns by
    design; byte determinism is promised for the data files they describe.
    """
    manifest = {
        "command": command,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "config": config,
        "seed": seed,
        "outputs": {str(p): _sha256(p) for p in outputs},
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        **outcome,
    }
    with open(out_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
