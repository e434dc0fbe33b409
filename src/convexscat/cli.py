"""Command-line front end: simulate, invert, validate, export.

Every data-producing command writes a JSON manifest next to its outputs with
input/output hashes, the effective config and the seed, so a run can be
checked and reproduced: simulate's config is the scene document, a scene
file in itself that holds the measurement only, and invert's is the
InversionConfig it ran with (method parameters come only from --config),
plus its stop reason and error.  Exit codes: 0 on success (invert: stop
"tolerance", or any --no-carleman run), 2 on usage or format errors (data
traces too close to zero for the log transform among them), 3 for stop
"iteration_cap", 4 for "resolve_failed": a forward solve failed
(IllConditionedSystem) or its field came too close to zero for the log
transform (NearZeroTotalField); invert then prints
"error: re-solve failed at n=<n>: <ExceptionType>: <message>", still writes
history.txt and manifest.json for the iterations that ran, and removes any
coefficient.txt an earlier run left in --out.  Both commands create --out
only after the run returns, so bad input exits 2 with nothing written.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .fieldtransform import NearZeroTotalField
from .forward import IllConditionedSystem
from .inversion import ablation_no_weight, run_inversion
from .io import (
    _located,
    read_cauchy,
    read_coefficient,
    write_cauchy,
    write_coefficient,
    write_cross_section,
    write_heatmap,
    write_history,
    write_manifest,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    config_from_dict,
    get_scenario,
    load_scenario,
    read_yaml,
    scenario_document,
    simulate_scenario,
)
from .validate import format_report, run_all_checks

__all__ = ["main"]


def _load_scenario_arg(arg: str):
    if os.path.exists(arg):
        return load_scenario(arg), [arg]
    if arg in BUILTIN_SCENARIOS:
        return get_scenario(arg), []
    known = ", ".join(sorted(BUILTIN_SCENARIOS))
    raise ValueError(f"{arg!r} is neither a scenario file nor a builtin ({known})")


def cmd_simulate(args) -> int:
    started = time.time()
    sc, inputs = _load_scenario_arg(args.scenario)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    with _located(args.scenario):
        truth, clean, noisy = simulate_scenario(sc)
    os.makedirs(args.out, exist_ok=True)

    paths = {
        "truth": os.path.join(args.out, "truth.txt"),
        "clean": os.path.join(args.out, "cauchy_clean.txt"),
        "noisy": os.path.join(args.out, "cauchy_noisy.txt"),
    }
    write_coefficient(truth, paths["truth"])
    write_cauchy(clean, paths["clean"])
    write_cauchy(noisy, paths["noisy"])

    write_manifest("simulate", inputs, scenario_document(sc), sc.seed, list(paths.values()),
                   os.path.join(args.out, "manifest.json"), started)
    print(f"wrote {', '.join(paths.values())}")
    return 0


def cmd_invert(args) -> int:
    started = time.time()
    inputs = [args.data]
    overrides = None
    if args.config:
        overrides = read_yaml(args.config)
        inputs.append(args.config)
    try:
        cfg = config_from_dict(overrides)
    except ValueError as exc:
        raise ValueError(f"{exc} (in --config {args.config})") from None
    cd = read_cauchy(args.data)
    runner = ablation_no_weight if args.no_carleman else run_inversion
    try:
        result = runner(cd, cfg)
    except (NearZeroTotalField, ValueError) as exc:
        # the loop catches a re-solve's NearZeroTotalField, so both come from
        # the data: its traces, or a grid the loop cannot use (one on which
        # the config's penalty weights overflow among them)
        raise ValueError(f"{args.data}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)

    coeff_path = os.path.join(args.out, "coefficient.txt")
    hist_path = os.path.join(args.out, "history.txt")
    # the comparison run keeps its best iterate through a failed re-solve
    failed = result.stop == "resolve_failed" and not args.no_carleman
    outputs = [hist_path] if failed else [coeff_path, hist_path]
    if failed:
        with contextlib.suppress(FileNotFoundError):
            os.remove(coeff_path)
    else:
        write_coefficient(result.coefficient, coeff_path)
    write_history(result.records, hist_path)
    error = None if result.error is None else f"{type(result.error).__name__}: {result.error}"
    write_manifest("invert" + (" --no-carleman" if args.no_carleman else ""),
                   inputs, asdict(result.config), cd.seed, outputs,
                   os.path.join(args.out, "manifest.json"), started,
                   stop=result.stop, error=error)
    if result.stop == "resolve_failed":
        line = f"re-solve failed at n={result.records[-1].n}: {error}"
        if failed:
            print(f"error: {line}", file=sys.stderr)
            return 4
        print(f"warning: {line}", file=sys.stderr)

    last = result.records[-1]
    peak = float(result.coefficient.values.max())
    i, j = np.unravel_index(int(np.argmax(result.coefficient.values)),
                            result.coefficient.values.shape)
    g = result.coefficient.grid
    print(f"iterations: {last.n}, J = {last.J_value:.6e}, "
          f"max a = {peak:.4f} at (x1={g.nodes[j]:+.4f}, x2={g.nodes[i]:+.4f})")
    print(f"wrote {coeff_path}, {hist_path}")
    return 0 if args.no_carleman or result.stop == "tolerance" else 3


def cmd_validate(args) -> int:
    results = run_all_checks()
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_export(args) -> int:
    if not math.isfinite(args.row):
        raise ValueError(f"--row must be a finite x2, got {args.row}")
    coeff = read_coefficient(args.result)
    g = coeff.grid
    out_dir = args.out or os.path.dirname(os.path.abspath(args.result))
    os.makedirs(out_dir, exist_ok=True)

    i_row = int(np.argmin(np.abs(g.nodes - args.row)))
    actual = float(g.nodes[i_row])
    if abs(actual - args.row) > 1e-12:
        print(f"warning: x2={args.row} is not a grid node; using nearest row x2={actual:.6f}",
              file=sys.stderr)

    section_path = os.path.join(out_dir, "cross_section.txt")
    heatmap_path = os.path.join(out_dir, "heatmap.txt")
    write_cross_section(coeff, section_path, i_row)
    write_heatmap(coeff, heatmap_path)

    print(f"wrote {section_path}, {heatmap_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="convexscat",
                                description="multifrequency backscatter simulation and "
                                            "coefficient reconstruction")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate Cauchy data for a scenario")
    ps.add_argument("--scenario", required=True, help="builtin name or scenario YAML file")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--seed", type=int, default=None, help="override the scenario noise seed")
    ps.set_defaults(func=cmd_simulate)

    pi = sub.add_parser("invert", help="reconstruct the coefficient from a data file")
    pi.add_argument("--data", required=True, help="Cauchy data file")
    pi.add_argument("--config", default=None, help="YAML mapping of config overrides")
    pi.add_argument("--out", required=True, help="output directory")
    pi.add_argument("--no-carleman", action="store_true",
                    help="comparison run: weight off, at most 20 iterations with no tolerance "
                         "stop (a failed re-solve ends it early), best iterate kept")
    pi.set_defaults(func=cmd_invert)

    pv = sub.add_parser("validate", help="run the built-in check suite")
    pv.set_defaults(func=cmd_validate)

    pe = sub.add_parser("export", help="dump cross-section and heatmap tables")
    pe.add_argument("--result", required=True, help="coefficient file")
    pe.add_argument("--row", type=float, default=0.45, help="x2 of the cross-section row")
    pe.add_argument("--out", default=None, help="output directory (default: beside the result)")
    pe.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IllConditionedSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
