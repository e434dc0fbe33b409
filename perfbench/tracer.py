"""Outside-in span recorder for the convexscat layers.

Every layer is timed through its public functions, by replacing each one
with a timing wrapper in the namespace its caller looks it up in.  That is
not always the defining module: `from .forward import solve_forward_multi`
gives `convexscat.inversion` and `convexscat.scenarios` names of their own,
so both are wrapped, while `solve_forward` is looked up as a global of
`convexscat.forward` by `solve_forward_multi`.  A wrapper in the wrong
namespace sees no calls, so each workload lists the spans it expects and the
run fails when one never fired.

Spans stay in memory while a pass runs; the runner writes them out at the end.
The wrappers compute nothing the program uses and pass arguments and results
through untouched, so traced passes must write byte-identical files.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time

import numpy as np

# (module the caller looks the name up in, attribute, span name)
TARGETS = (
    ("convexscat.cli", "simulate_scenario", "scenarios.simulate"),
    ("convexscat.scenarios", "rasterize", "forward.rasterize"),
    ("convexscat.scenarios", "solve_forward_multi", "forward.solve_multi"),
    ("convexscat.scenarios", "trace_cauchy", "forward.trace"),
    ("convexscat.inversion", "solve_forward_multi", "forward.solve_multi"),
    ("convexscat.forward", "solve_forward", "forward.solve"),
    ("convexscat.cli", "run_inversion", "inversion.run"),
    ("convexscat.cli", "ablation_no_weight", "inversion.run"),
    ("convexscat.inversion", "build_basis", "basis.build"),
    ("convexscat.inversion", "cauchy_to_v_data", "fieldtransform.data"),
    ("convexscat.inversion", "smooth_traces", "fieldtransform.data"),
    ("convexscat.inversion", "build_cutoff", "carrier.build"),
    ("convexscat.inversion", "build_carrier", "carrier.build"),
    ("convexscat.inversion", "evaluate_and_gradient", "objective.eval"),
    ("convexscat.inversion", "recover_coefficient", "fieldtransform.recover"),
    ("convexscat.inversion", "total_to_log", "fieldtransform.log"),
    ("convexscat.inversion", "log_to_coeffs", "fieldtransform.log"),
    ("convexscat.cli", "read_cauchy", "io.read"),
    ("convexscat.cli", "write_cauchy", "io.write"),
    ("convexscat.cli", "write_coefficient", "io.write"),
    ("convexscat.cli", "write_history", "io.write"),
    ("convexscat.cli", "write_manifest", "io.manifest"),
)

_SIMULATE_SPANS = ("scenarios.simulate", "forward.rasterize", "forward.solve_multi",
                   "forward.solve", "forward.trace", "io.write", "io.manifest")
_INVERT_SPANS = ("io.read", "inversion.run", "basis.build", "fieldtransform.data",
                 "carrier.build", "objective.eval", "fieldtransform.recover",
                 "forward.solve_multi", "forward.solve", "fieldtransform.log",
                 "io.write", "io.manifest")
EXPECTED_SPANS = {"simulate": _SIMULATE_SPANS, "invert": _INVERT_SPANS, "ablate": _INVERT_SPANS}


def _size(path) -> dict:
    return {"bytes": os.path.getsize(path)}


# Attributes read off a call after its span has ended, so their cost is not
# charged to the layer.  Call sites in convexscat.cli pass paths positionally.
_PROBES = {
    "forward.solve": lambda args, result: {
        "support": int(np.count_nonzero(args[0].quadrature_mean())),
        "nodes": args[0].grid.n_points,
    },
    "inversion.run": lambda args, result: {"iterations": result.records[-1].n},
    "io.read": lambda args, result: _size(args[0]),
    "io.write": lambda args, result: _size(args[1]),
    "io.manifest": lambda args, result: _size(args[5]),
}


class Span:
    __slots__ = ("name", "pass_id", "parent", "start", "end", "error", "info")

    def __init__(self, name, pass_id, parent):
        self.name = name
        self.pass_id = pass_id
        self.parent = parent
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "pass": self.pass_id, "parent": self.parent,
                "start": self.start, "end": self.end, "error": self.error, "info": self.info}


class Recorder:
    """Collects spans from the wrapped functions while `installed` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pass_id = None

    def _wrap(self, fn, name):
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._pass_id, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.info = probe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, pass_id):
        """Wrap every target for the duration of one pass, then restore them."""
        originals = []
        self._pass_id = pass_id
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
            self._pass_id = None

    def missing(self, workload: str, pass_id) -> list[str]:
        seen = {s.name for s in self.spans if s.pass_id == pass_id}
        return [name for name in EXPECTED_SPANS[workload] if name not in seen]


def layer_metrics(spans: list[Span], untraced_walls, traced_walls) -> dict:
    """Per-layer metrics per traced pass, named <module>.<quantity>."""
    n_passes = len(traced_walls)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(*names):
        return sum(s.duration for n in names for s in by_name.get(n, ())) / n_passes

    def count(name):
        return len(by_name.get(name, ())) / n_passes

    def info_sum(name, key):
        return sum(s.info[key] for s in by_name.get(name, ()) if s.info)

    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    runs = [(i, s) for i, s in enumerate(spans) if s.name == "inversion.run"]
    inv_wall = sum(s.duration for _, s in runs) / n_passes
    inv_self = sum(s.duration - child_time[i] for i, s in runs) / n_passes

    solves = by_name.get("forward.solve", ())
    solve_s = busy("forward.solve_multi")
    near_zero = sum(1 for s in by_name.get("fieldtransform.log", ())
                    if s.error == "NearZeroTotalField") / n_passes
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)

    values = {
        "forward.solve_s": (solve_s, "s"),
        "forward.solves": (count("forward.solve"), "count"),
        "forward.solve_ms": (1e3 * solve_s / count("forward.solve") if solves else 0.0, "ms"),
        "forward.support_nodes": (info_sum("forward.solve", "support") / len(solves) if solves else 0.0, "count"),
        "forward.grid_nodes": (info_sum("forward.solve", "nodes") / len(solves) if solves else 0.0, "count"),
        "forward.trace_s": (busy("forward.trace"), "s"),
        "forward.rasterize_s": (busy("forward.rasterize"), "s"),
        "scenarios.simulate_s": (busy("scenarios.simulate"), "s"),
        "fieldtransform.log_s": (busy("fieldtransform.log"), "s"),
        "fieldtransform.recover_s": (busy("fieldtransform.recover"), "s"),
        "fieldtransform.data_s": (busy("fieldtransform.data"), "s"),
        "fieldtransform.near_zero": (near_zero, "count"),
        "objective.eval_s": (busy("objective.eval"), "s"),
        "objective.evals": (count("objective.eval"), "count"),
        "basis.build_s": (busy("basis.build"), "s"),
        "carrier.build_s": (busy("carrier.build"), "s"),
        "inversion.iterations": (info_sum("inversion.run", "iterations") / n_passes, "count"),
        "inversion.wall_s": (inv_wall, "s"),
        "inversion.self_s": (inv_self, "s"),
        "inversion.resolve_share": (solve_s / inv_wall if inv_wall > 0 else 0.0, "ratio"),
        "io.read_s": (busy("io.read"), "s"),
        "io.write_s": (busy("io.write"), "s"),
        "io.manifest_s": (busy("io.manifest"), "s"),
        "io.bytes": ((info_sum("io.read", "bytes") + info_sum("io.write", "bytes")
                      + info_sum("io.manifest", "bytes")) / n_passes, "bytes"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
