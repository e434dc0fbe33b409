"""convexscat benchmark: one workload per process, closed loop, checked passes.

    python3 perfbench/run.py --workload {simulate,invert,ablate,all}
        [--seed N] [--seconds S] [--trace 0|1] [--noise-seed M]

Run from the root of a checkout; convexscat is imported from its src/.
Set-up runs SETUP_REPS times, each in a fresh process (interpreter start,
imports, warm-up, input files), and `setup_s` is their median.  The process
then warms up once more untimed and runs passes back to back, one client
waiting for each, until another pass would end after --seconds; at least
one pass always runs.  Each pass is
checked (see workloads.py) and a failed check counts as a failed pass.

`norm_wall_s` is the median pass time at a fixed host speed: while the
passes of an untraced run go on, calibrate.py times a fixed reference kernel
every second on the same CPU, and each pass time, less the time those
readings took inside it, is scaled by NOMINAL_READING_S over the median
reading taken during the pass.  The raw median pass time is printed as
`wall_s` and kept in result.json.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes (at least one of each), prints the per-layer metrics of the
traced ones, and reports the difference of their median wall times as
trace.overhead_s.  The last line of standard output is one JSON object;
everything else also goes to .perfbench_out/<workload>/ in the checkout.
`--workload all` runs the three workloads one after another, each in its own
process, and prints their metrics side by side.

--seed is the noise seed of the data files the simulate workload writes.
invert and ablate invert each scene's reference data (its own noise seed, 0)
whatever --seed is, because the accuracy gates they check are defined there;
--noise-seed M inverts data drawn with seed M instead (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "invert", "ablate")
SETUP_REPS = 3
# BLAS threads, the same on every commit: one keeps the per-pass spread near
# 3% where two threads gave 8-15%, and never exceeds nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def _setup(args, work: Path) -> tuple[list[float], Path]:
    """SETUP_REPS timed set-ups in fresh processes; returns times and the inputs of the last."""
    times = []
    for rep in range(SETUP_REPS):
        out = work / f"setup{rep}"
        cmd = [sys.executable, str(HERE / "setup_inputs.py"), "--workload", args.workload,
               "--out", str(out)]
        if args.noise_seed is not None:
            cmd += ["--noise-seed", str(args.noise_seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up exited {proc.returncode}:\n{proc.stderr.strip()}")
    return times, out


def _tail(walls: list[float]) -> str:
    """The slowest pass with at least ten slower ones, when there are enough passes."""
    if len(walls) < 20:
        return f"no tail: {len(walls)} passes, a tail with 10 beyond it needs 20"
    n_beyond = 10
    value = sorted(walls)[len(walls) - n_beyond - 1]
    return f"p{100 * (len(walls) - n_beyond) / len(walls):.0f} = {value:.4f} s ({n_beyond} of {len(walls)} beyond)"


def run_workload(args) -> dict:
    if not (ROOT / "src" / "convexscat" / "__init__.py").is_file():
        _fail(f"no src/convexscat under {ROOT}; run from the root of a convexscat checkout")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    work = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times, inputs = _setup(args, work)

    sys.path.insert(0, str(ROOT / "src"))
    import calibrate
    import tracer
    import workloads

    workloads.warm_up()
    setup_fails = []
    setup_hashes = [workloads.output_hashes(work / f"setup{r}") for r in range(SETUP_REPS)]
    if any(h != setup_hashes[0] for h in setup_hashes):
        setup_fails.append("set-up repetitions wrote different input files")
    weighted_peak = (workloads.weighted_reference(inputs, work / "reference")
                     if args.workload == "ablate" else None)

    recorder = tracer.Recorder()
    # host-speed readings only in untraced runs: in a traced one they would
    # land inside the spans
    sampler = None if args.trace else calibrate.Sampler()
    out = work / "pass"
    passes = []
    ref_hashes = None
    loop_start = time.perf_counter()
    with sampler.running() if sampler else contextlib.nullcontext():
        while True:
            i = len(passes)
            traced = bool(args.trace) and i % 2 == 1
            scope = recorder.installed(i) if traced else contextlib.nullcontext()
            t0 = time.perf_counter()
            with scope:
                results = workloads.run_pass(args.workload, args.seed, inputs, out)
            t1 = time.perf_counter()

            fails, acc = workloads.check_pass(args.workload, results, out, inputs,
                                              ref_hashes, weighted_peak)
            if ref_hashes is None:
                ref_hashes = workloads.output_hashes(out)
            if traced and not fails:
                missing = recorder.missing(args.workload, i)
                if missing:
                    _fail(f"spans never fired in a traced {args.workload} pass: "
                          f"{', '.join(missing)}; a traced function moved, "
                          "update perfbench/tracer.py TARGETS")
            passes.append({"wall_s": t1 - t0, "t0": t0, "t1": t1, "traced": traced,
                           "failures": fails, "accuracy": acc})
            for f in fails:
                print(f"pass {i} failed: {f}", file=sys.stderr)

            elapsed = time.perf_counter() - loop_start
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and elapsed + statistics.median(p["wall_s"] for p in passes) > args.seconds:
                break
    if sampler:
        for p in passes:
            # the reading time the handler spent inside the pass is not the program's
            net = p["wall_s"] - sampler.busy(p["t0"], p["t1"])
            p["reading_s"] = sampler.speed(p["t0"], p["t1"])
            p["norm_wall_s"] = net * calibrate.NOMINAL_READING_S / p["reading_s"]

    walls = [p["wall_s"] for p in passes if not p["traced"]]
    failed = sum(1 for p in passes if p["failures"])
    checked = [p["accuracy"] for p in passes if p["accuracy"]]
    accuracy = {k: statistics.median(a[k] for a in checked) for k in (checked[0] if checked else ())}
    norms = [p["norm_wall_s"] for p in passes] if sampler else []
    end_to_end = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}}
    if norms:
        end_to_end["norm_wall_s"] = {"value": statistics.median(norms), "unit": "s"}
    end_to_end["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                 "unit": "MB"}
    end_to_end["rel_err"] = {"value": accuracy.get("trace_err", accuracy.get("peak_err")),
                             "unit": "ratio"}
    layers = None
    if args.trace:
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        layers = tracer.layer_metrics(recorder.spans, walls, traced_walls)
        with open(work / "spans.jsonl", "w") as f:
            for idx, s in enumerate(recorder.spans):
                f.write(json.dumps(s.as_dict(idx)) + "\n")

    record = {
        "workload": args.workload, "seed": args.seed, "noise_seed": args.noise_seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine(),
        "setup_times_s": setup_times, "setup_failures": setup_fails, "passes": passes,
        "readings": sampler.readings if sampler else None,
        "wall_s": statistics.median(walls), "end_to_end": end_to_end, "accuracy": accuracy,
        "fail_frac": failed / len(passes), "per_layer": layers,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"== {args.workload}: seed {args.seed}, {len(passes)} passes "
          f"({len(walls)} untraced), BLAS threads {BLAS_THREADS}")
    print(f"  setup_s      {end_to_end['setup_s']['value']:.4f} s   (median of {SETUP_REPS}: "
          + ", ".join(f"{t:.3f}" for t in setup_times) + ")")
    if norms:
        print(f"  norm_wall_s  {end_to_end['norm_wall_s']['value']:.4f} s   (median of {len(norms)} at "
              f"a reading of {calibrate.NOMINAL_READING_S * 1e3:g} ms; {_tail(norms)})")
    print(f"  wall_s       {record['wall_s']:.4f} s   (median of {len(walls)}, as measured; {_tail(walls)})")
    print(f"  peak_rss_mb  {end_to_end['peak_rss_mb']['value']:.1f} MB")
    print(f"  fail_frac    {record['fail_frac']:.3f}      ({failed} of {len(passes)} passes failed)")
    for k, v in accuracy.items():
        print(f"  {k:<12} {v:.4g}")
    for f in setup_fails:
        print(f"  set-up failed: {f}")
    if layers:
        for k, v in layers.items():
            print(f"  {k:<28} {v['value']:.6g} {v['unit']}")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    return {
        "correct": failed == 0 and not setup_fails,
        "attempted": len(passes),
        "failed": failed,
        "metrics": layers if args.trace else end_to_end,
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.noise_seed is not None:
            cmd += ["--noise-seed", str(args.noise_seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            _fail(f"workload {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--noise-seed", type=int, default=None,
                   help="invert/ablate: invert data drawn with this noise seed")
    args = p.parse_args()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
