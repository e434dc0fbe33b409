"""Plain-text file formats and the run manifest.

One row writer writes every table, ints with %d and floats with repr,
which round-trips doubles exactly, so a write-then-read cycle is
bit-for-bit.  Grid and row/column indices are 1-based in files; in memory
everything stays 0-based.  A seed of -1 in a data header means "no seed
recorded", and a lower one is refused.  The readers reject a data row
whose index is out of range or repeats an earlier row, or whose value is
not a finite number, and name the first such line in the file; a bad
header value is named the same way.
The history reader checks each row's field count, integer n and float
values the same way, and refuses a file with no rows; its floats may be
nan or +-inf, since a history is the loop's faithful record and a run that
overflowed writes them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np

from .basis import KGrid
from .forward import CauchyData, Coefficient, Grid2D
from .inversion import IterationRecord

__all__ = [
    "write_cauchy",
    "read_cauchy",
    "write_coefficient",
    "read_coefficient",
    "write_history",
    "read_history",
    "write_cross_section",
    "write_heatmap",
    "write_manifest",
]


def _write_table(path, comments, ints, floats) -> None:
    """Write the comment lines, then one row per entry of the columns.

    A row holds the ints columns with %d, then the floats columns with %r
    of the double; each column is an array raveled in row-major order and
    read through .tolist(), so np.indices(shape) + 1 gives index columns.
    """
    columns = ([np.ravel(c).tolist() for c in ints]
               + [np.ravel(np.asarray(c, dtype=float)).tolist() for c in floats])
    row = " ".join(["%d"] * len(ints) + ["%r"] * len(floats)) + "\n"
    with open(path, "w") as f:
        f.writelines(f"# {line}\n" for line in comments)
        f.writelines(row % values for values in zip(*columns))


def write_cauchy(cd: CauchyData, path) -> None:
    g = cd.grid
    kg = cd.kgrid
    seed = -1 if cd.seed is None else int(cd.seed)
    header = (f"{float(g.half_width)!r} {g.n_cells} {float(kg.k_min)!r} {float(kg.k_max)!r} "
              f"{kg.n_sub} {float(cd.noise_level)!r} {seed}")
    _write_table(path, ["R Nx kmin kmax Nk delta seed", header], np.indices(cd.g0.shape) + 1,
                 [cd.g0.real, cd.g0.imag, cd.g1.real, cd.g1.imag])


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
    """Prefix any ValueError raised in the block with where; a MemoryError
    (an array sized by an input value) becomes such a ValueError too."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_rows(path, rows, layout: str, n_int: int, shape=None, finite=True):
    """The first n_int fields of each row as ints, the rest as floats, finite if finite is set.

    With shape, the ints are 1-based indices into it, each in range and used
    by one row only.  The first bad row in file order is named by its line.
    Returns the ints as a list of tuples and the floats as a (rows, fields)
    array.
    """
    n_fields = len(layout.split())
    seen = set()
    ints, vals = [], []
    for lineno, row in rows:
        try:
            if len(row) != n_fields:
                raise ValueError(f"each row needs '{layout}', got {len(row)} fields")
            idx = tuple([int(x) for x in row[:n_int]])
            v = [float(x) for x in row[n_int:]]
            if finite and not all(map(math.isfinite, v)):
                raise ValueError("non-finite value")
            if shape is not None:
                if not all([0 < i <= n for i, n in zip(idx, shape)]):
                    raise ValueError(f"index {' '.join(row[:n_int])} outside "
                                     f"1..{' x 1..'.join(map(str, shape))}")
                if idx in seen:
                    raise ValueError(f"duplicate row for index {' '.join(row[:n_int])}")
                seen.add(idx)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        ints.append(idx)
        vals.append(v)
    return ints, np.array(vals)


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
        if seed < -1:
            raise ValueError(f"seed must be nonnegative, or -1 for no seed, got {seed}")
    if len(rows) != grid.n_nodes * n_k:
        raise ValueError(f"{path}: expected {grid.n_nodes * n_k} data rows, found {len(rows)}")
    with _located(where):
        kg = KGrid(k_min, k_max, n_k)
    shape = (grid.n_nodes, n_k)
    index, vals = _parse_rows(path, rows, "j k_index Re(g0) Im(g0) Re(g1) Im(g1)", 2, shape)
    g0 = np.zeros(shape, dtype=complex)
    g1 = np.zeros_like(g0)
    # a row's four floats are the two complex values g0, g1 as (re, im) pairs
    jm = tuple(np.array(index).T - 1)
    g0[jm], g1[jm] = vals.view(complex).T
    return CauchyData(grid=grid, kgrid=kg, g0=g0, g1=g1, noise_level=delta,
                      seed=None if seed == -1 else seed)


def write_coefficient(coeff: Coefficient, path) -> None:
    g = coeff.grid
    _write_table(path, ["R Nx", f"{float(g.half_width)!r} {g.n_cells}", "i j a"],
                 np.indices(coeff.values.shape) + 1, [coeff.values])


def read_coefficient(path) -> Coefficient:
    where, header, rows = _read_table(path, "R Nx", ("R", "i"))
    with _located(where):
        grid = Grid2D(float(header[0]), int(header[1]))
    if len(rows) != grid.n_points:
        raise ValueError(f"{path}: expected {grid.n_points} rows, found {len(rows)}")
    values = np.zeros((grid.n_nodes, grid.n_nodes))
    index, vals = _parse_rows(path, rows, "i j a", 2, values.shape)
    values[tuple(np.array(index).T - 1)] = vals[:, 0]
    return Coefficient(grid=grid, values=values)


def write_history(records, path) -> None:
    columns = [[getattr(r, key) for r in records] for key in ("J_value", "gradient_norm", "a_max")]
    _write_table(path, ["n J grad_norm a_max"], [[r.n for r in records]], columns)


def write_cross_section(coeff: Coefficient, path, row: int) -> None:
    """x1 and a along the grid row of 0-based index row."""
    nodes = coeff.grid.nodes
    _write_table(path, [f"x1 a  (row x2={float(nodes[row])!r})"], [],
                 [nodes, coeff.values[row]])


def write_heatmap(coeff: Coefficient, path) -> None:
    """x1, x2 and a on every grid node, x2 outermost."""
    nodes = coeff.grid.nodes
    x2, x1 = np.meshgrid(nodes, nodes, indexing="ij")
    _write_table(path, ["x1 x2 a"], [], [x1, x2, coeff.values])


def read_history(path):
    """The iteration records of a history file; at least one row, each checked
    like a data row except that its floats may be nan or +-inf."""
    _, rows = _read_lines(path)
    if not rows:
        raise ValueError(f"{path}: no iteration rows")
    ns, vals = _parse_rows(path, rows, "n J grad_norm a_max", 1, finite=False)
    return [IterationRecord(n, *v) for (n,), v in zip(ns, vals.tolist())]


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
