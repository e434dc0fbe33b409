"""File formats: write-read cycles must be bit-exact.

Floats go to disk through repr, which round-trips IEEE doubles, so the tests
compare with array_equal rather than tolerances.  Rewriting what was read
must reproduce the original file byte for byte; the manifest hashes are
checked against an independent sha256 of the same bytes.
"""

import hashlib
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from convexscat import (
    CauchyData,
    Coefficient,
    Grid2D,
    InversionConfig,
    IterationRecord,
    KGrid,
    read_cauchy,
    read_coefficient,
    read_history,
    write_cauchy,
    write_coefficient,
    write_history,
    write_manifest,
)


def _random_cauchy(seed=3, n_cells=6, n_k=4, noise=0.05, noise_seed=11):
    rng = np.random.default_rng(seed)
    grid = Grid2D(0.8, n_cells)
    kg = KGrid(0.5, 2.0, n_k)
    shape = (grid.n_nodes, n_k)
    # spread exponents so the repr round-trip is exercised on awkward values
    scale = 10.0 ** rng.integers(-8, 8, size=shape)
    g0 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    g1 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    return CauchyData(grid=grid, kgrid=kg, g0=g0, g1=g1,
                      noise_level=noise, seed=noise_seed)


def test_cauchy_roundtrip_bitexact(tmp_path):
    cd = _random_cauchy()
    path = tmp_path / "cauchy.txt"
    write_cauchy(cd, path)
    back = read_cauchy(path)

    assert np.array_equal(back.g0, cd.g0)
    assert np.array_equal(back.g1, cd.g1)
    assert back.grid == cd.grid
    assert back.kgrid.k_min == cd.kgrid.k_min
    assert back.kgrid.k_max == cd.kgrid.k_max
    assert back.kgrid.n_sub == cd.kgrid.n_sub
    assert back.noise_level == cd.noise_level
    assert back.seed == cd.seed


def test_cauchy_rewrite_is_identical(tmp_path):
    cd = _random_cauchy(seed=5)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_cauchy(cd, a)
    write_cauchy(read_cauchy(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_cauchy_seed_none_uses_sentinel(tmp_path):
    cd = _random_cauchy(noise=0.0, noise_seed=None)
    path = tmp_path / "clean.txt"
    write_cauchy(cd, path)
    header = path.read_text().splitlines()[1]
    assert header.split()[-1] == "-1"
    assert read_cauchy(path).seed is None


def test_cauchy_reader_rejects_malformed_files(tmp_path):
    cd = _random_cauchy(n_cells=4, n_k=2)
    good = tmp_path / "good.txt"
    write_cauchy(cd, good)
    lines = good.read_text().splitlines()

    p = tmp_path / "headerless.txt"
    p.write_text("\n".join(ln for ln in lines if not ln.startswith("#")) + "\n")
    with pytest.raises(ValueError, match="header"):
        read_cauchy(p)

    p = tmp_path / "truncated.txt"
    p.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="data rows"):
        read_cauchy(p)

    p = tmp_path / "narrow.txt"
    p.write_text("\n".join(lines[:2] + [" ".join(ln.split()[:5]) for ln in lines[2:]]) + "\n")
    with pytest.raises(ValueError, match="fields"):
        read_cauchy(p)

    _assert_bad_row_rejected(read_cauchy, tmp_path, lines, n_comments=2)
    # header: R Nx kmin kmax Nk delta seed
    _assert_bad_header_rejected(read_cauchy, tmp_path, lines, header_line=2, bad_fields={
        "Nx not an integer": (1, "x"),
        "R nan": (0, "nan"),
        "R inf": (0, "inf"),
        "kmax inf": (3, "inf"),
        "delta nan": (5, "nan"),
        "delta negative": (5, "-0.1"),
        "seed not an integer": (6, "1.5"),
        "seed below -1": (6, "-7"),
    })


def _assert_bad_header_rejected(reader, tmp_path, lines, header_line, bad_fields):
    """Replace one header field in turn; the error must name the header's line."""
    header = lines[header_line - 1].split()
    for case, (i, token) in bad_fields.items():
        fields = header[:i + 1] + [token] + header[i + 2:]  # header[0] is '#'
        p = tmp_path / "bad_header.txt"
        p.write_text("\n".join(lines[:header_line - 1] + [" ".join(fields)]
                               + lines[header_line:]) + "\n")
        with pytest.raises(ValueError, match=f"line {header_line}:") as info:
            reader(p)
        assert str(p) in str(info.value), case


def _assert_bad_row_rejected(reader, tmp_path, lines, n_comments):
    """Corrupt the second data row in turn; the error must name its line."""
    first = lines[n_comments].split()
    second = lines[n_comments + 1].split()
    bad_rows = {
        "index 0": ["0"] + second[1:],  # would wrap onto the last row
        "index past the grid": ["99"] + second[1:],
        "duplicate": first,
        "nan": second[:-1] + ["nan"],
        "inf": second[:-1] + ["-inf"],
        "not a number": second[:-1] + ["x"],
    }
    for case, row in bad_rows.items():
        p = tmp_path / "corrupt.txt"
        p.write_text("\n".join(lines[:n_comments + 1] + [" ".join(row)]
                               + lines[n_comments + 2:]) + "\n")
        with pytest.raises(ValueError, match=f"line {n_comments + 2}:") as info:
            reader(p)
        assert str(p) in str(info.value), case
    # two faults: the error names the earlier line and its fault, either way round
    third = lines[n_comments + 2].split()
    for case, (row2, row3, fault) in {
        "duplicate, then nan": (first, third[:-1] + ["nan"], "duplicate row"),
        "nan, then duplicate": (bad_rows["nan"], first, "non-finite value"),
    }.items():
        p = tmp_path / "corrupt.txt"
        p.write_text("\n".join(lines[:n_comments + 1] + [" ".join(row2), " ".join(row3)]
                               + lines[n_comments + 3:]) + "\n")
        with pytest.raises(ValueError, match=f"line {n_comments + 2}: {fault}") as info:
            reader(p)
        assert str(p) in str(info.value), case


def test_coefficient_roundtrip_bitexact(tmp_path):
    grid = Grid2D(0.8, 7)
    rng = np.random.default_rng(0)
    values = np.abs(rng.standard_normal((grid.n_nodes, grid.n_nodes)))
    values[0, 0] = 0.0
    values[3, 4] = 3.0000000000000004
    coeff = Coefficient(grid=grid, values=values)

    path = tmp_path / "coeff.txt"
    write_coefficient(coeff, path)
    back = read_coefficient(path)
    assert np.array_equal(back.values, values)
    assert back.grid == grid

    again = tmp_path / "again.txt"
    write_coefficient(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_coefficient_reader_rejects_malformed_files(tmp_path):
    grid = Grid2D(0.8, 3)
    coeff = Coefficient(grid=grid, values=np.ones((4, 4)))
    good = tmp_path / "good.txt"
    write_coefficient(coeff, good)
    lines = good.read_text().splitlines()

    p = tmp_path / "headerless.txt"
    p.write_text("\n".join(ln for ln in lines if not ln.startswith("#")) + "\n")
    with pytest.raises(ValueError, match="header"):
        read_coefficient(p)

    p = tmp_path / "short.txt"
    p.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError, match="rows"):
        read_coefficient(p)

    # the row count is checked before the header's grid is allocated
    p = tmp_path / "huge_header.txt"
    p.write_text("\n".join(lines[:1] + ["# 0.8 300000"] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="rows"):
        read_coefficient(p)

    p = tmp_path / "narrow.txt"
    p.write_text("\n".join(lines[:3] + [" ".join(ln.split()[:2]) for ln in lines[3:]]) + "\n")
    with pytest.raises(ValueError, match="fields"):
        read_coefficient(p)

    _assert_bad_row_rejected(read_coefficient, tmp_path, lines, n_comments=3)
    # header: R Nx; a non-finite R used to yield a grid of nan nodes
    _assert_bad_header_rejected(read_coefficient, tmp_path, lines, header_line=2, bad_fields={
        "Nx not an integer": (1, "x"),
        "R nan": (0, "nan"),
        "R inf": (0, "inf"),
        "R negative": (0, "-0.8"),
    })


# --- fuzzing: one random mutation of a small valid file -----------------------

def _small_files():
    grid = Grid2D(0.8, 2)
    kg = KGrid(0.5, 2.0, 2)
    rng = np.random.default_rng(1)
    g = rng.standard_normal((2, grid.n_nodes, 2)) + 1j * rng.standard_normal((2, grid.n_nodes, 2))
    return {
        "cauchy": CauchyData(grid=grid, kgrid=kg, g0=g[0], g1=g[1], noise_level=0.05, seed=3),
        "coefficient": Coefficient(grid=grid, values=rng.uniform(0, 2, (3, 3))),
    }


_WRITE = {"cauchy": write_cauchy, "coefficient": write_coefficient}
_READ = {"cauchy": read_cauchy, "coefficient": read_coefficient}
_TOKENS = st.one_of(
    st.sampled_from(["", "x", "nan", "inf", "-1", "0", str(10**30)]),
    st.floats().map(repr),
)


def _mutate(lines, op, line, token, new):
    i = line % len(lines)
    if op == "drop":
        return lines[:i] + lines[i + 1:]
    if op == "duplicate":
        return lines[:i + 1] + lines[i:]
    words = lines[i].split()
    words[token % len(words)] = new
    return lines[:i] + [" ".join(words)] + lines[i + 1:]


def _all_finite(*arrays):
    return all(np.isfinite(np.asarray(a)).all() for a in arrays)


@pytest.mark.parametrize("kind", ["cauchy", "coefficient"])
@given(op=st.sampled_from(["drop", "duplicate", "replace"]), line=st.integers(0, 40),
       token=st.integers(0, 6), new=_TOKENS)
@example(op="replace", line=1, token=1, new="nan")  # header R of both formats
@example(op="replace", line=1, token=1, new="inf")
@example(op="replace", line=1, token=4, new="inf")  # cauchy kmax
@example(op="replace", line=1, token=6, new="-1")  # cauchy delta
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_readers_survive_one_mutation(kind, tmp_path, op, line, token, new):
    """A mutated file either reads back entirely finite or is rejected with a
    ValueError that names it; any other exception is a reader bug."""
    good = tmp_path / "good.txt"
    _WRITE[kind](_small_files()[kind], good)
    p = tmp_path / "mutated.txt"
    p.write_text("\n".join(_mutate(good.read_text().splitlines(), op, line, token, new)) + "\n")
    try:
        obj = _READ[kind](p)
    except ValueError as exc:
        assert str(p) in str(exc)
        return
    g = obj.grid
    assert _all_finite(g.half_width, g.h, g.nodes)
    if kind == "cauchy":
        assert _all_finite(obj.kgrid.midpoints, obj.noise_level, obj.g0, obj.g1)
    else:
        assert _all_finite(obj.values)


def test_history_roundtrip(tmp_path):
    records = [
        IterationRecord(0, 12.345678901234567, 1.2e-3, 0.0),
        IterationRecord(1, 7.0, 9.876543210987654e-05, 2.9999999999999996),
    ]
    path = tmp_path / "history.txt"
    write_history(records, path)
    assert read_history(path) == records


def test_history_roundtrip_keeps_non_finite_values(tmp_path):
    # an overflowed run writes nan and inf into its history; reading it back
    # gives the same records, nan where nan was written
    records = [
        IterationRecord(0, 1.1527152321997627, 240.48942880738474, 3.0),
        IterationRecord(1, math.inf, 1e300, math.nan),
        IterationRecord(2, -math.inf, math.nan, 0.0),
    ]
    path = tmp_path / "history.txt"
    write_history(records, path)
    back = read_history(path)
    assert [r.n for r in back] == [0, 1, 2]
    values = [[r.J_value, r.gradient_norm, r.a_max] for r in back]
    expected = [[r.J_value, r.gradient_norm, r.a_max] for r in records]
    assert np.array_equal(values, expected, equal_nan=True)


def test_history_reader_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "history.txt"
    path.write_text("# n J grad_norm a_max\n\n0 1.5 0.25 0.0\n\n# trailing note\n")
    back = read_history(path)
    assert len(back) == 1 and back[0].J_value == 1.5


@pytest.mark.parametrize("rows, message", [
    ("0 1.5 0.25\n", r"line 2: each row needs 'n J grad_norm a_max', got 3 fields"),
    ("0.5 1.5 0.25 0.0\n", r"line 2: invalid literal for int\(\)"),
    ("0 1.5x 0.25 0.0\n", r"line 2: could not convert string to float: '1.5x'"),
    ("0 1.5 0.25 0.0\n1 1.0 0.5 -\n", r"line 3: could not convert string to float: '-'"),
    ("", r"no iteration rows"),
], ids=["three-fields", "fractional-n", "unparsable-J", "unparsable-a-max", "header-only"])
def test_history_reader_rejects_malformed_files(tmp_path, rows, message):
    path = tmp_path / "history.txt"
    path.write_text("# n J grad_norm a_max\n" + rows)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        read_history(path)


def test_manifest_records_hashes_and_config(tmp_path):
    inp = tmp_path / "input.txt"
    inp.write_text("measured data\n")
    out_a = tmp_path / "out_a.txt"
    out_a.write_text("result a\n")
    out_b = tmp_path / "out_b.txt"
    out_b.write_text("result b\n")

    manifest_path = tmp_path / "manifest.json"
    cfg = InversionConfig(n_modes=2)
    write_manifest("invert", [inp], asdict(cfg), 11, [out_a, out_b], manifest_path, started=0.0)

    doc = json.loads(manifest_path.read_text())
    assert doc["command"] == "invert"
    assert doc["seed"] == 11
    assert doc["config"]["n_modes"] == 2 and doc["config"]["lam"] == 5.0
    assert doc["started"] == "1970-01-01T00:00:00"

    for path, digest in {**doc["inputs"], **doc["outputs"]}.items():
        assert digest == hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert set(doc["outputs"]) == {str(out_a), str(out_b)}


def test_manifest_output_hashes_track_content(tmp_path):
    out = tmp_path / "out.txt"
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"

    out.write_text("first\n")
    write_manifest("simulate", [], {}, None, [out], m1, started=0.0)
    out.write_text("second\n")
    write_manifest("simulate", [], {}, None, [out], m2, started=0.0)

    h1 = json.loads(m1.read_text())["outputs"][str(out)]
    h2 = json.loads(m2.read_text())["outputs"][str(out)]
    assert h1 != h2
