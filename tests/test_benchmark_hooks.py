"""The benchmark in perfbench/ reaches into the library by name.

perfbench/tracer.py replaces each (module, attribute) in its TARGETS table
with a timing wrapper, and perfbench/workloads.py imports the readers and
scenario helpers it checks passes with.  A rename or deletion in the library
would otherwise break only a benchmark run, so both are loaded here.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    targets = _load("tracer").TARGETS
    assert targets
    missing = [f"{mod}.{attr}" for mod, attr, _ in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
    # importing the workloads module resolves every library name it uses
    assert _load("workloads").WORKLOADS == ("simulate", "invert", "ablate")
