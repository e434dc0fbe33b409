"""One set-up of a workload, run as its own process so that set-up time
includes the interpreter start and the imports.

    python3 perfbench/setup_inputs.py --workload invert --out DIR [--noise-seed N]

Imports convexscat from the checkout's src/ and writes the workload's
input files under DIR; a workload without input files warms up instead.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--noise-seed", type=int, default=None)
    args = p.parse_args()
    # writing the input files is itself the first simulation of the process,
    # so only a workload without inputs needs a separate warm-up
    if workloads.INPUT_SCENES[args.workload]:
        workloads.make_inputs(args.workload, args.out, args.noise_seed)
    else:
        workloads.warm_up()


if __name__ == "__main__":
    main()
