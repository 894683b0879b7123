#!/usr/bin/env python3
"""In-process timer of the smoothed maximal sup, ``maximal.peetre_maximals``.

Three cases, each on the companion of the annular kernel over the default
scale grid (1/16 .. 16 at 8 steps per octave) with the harness's b for
``Lebesgue(2)``, on the first trials of the trial family:

- ``1d-64``: 1-D N=64, L=2, 10 inputs (the trial block of ``verify-1d``);
- ``1d-512``: 1-D N=512, L=8, 2 inputs (a trial block of the default
  ``lpx verify``);
- ``2d-64``: 2-D N=64, L=2, 1 input.

Each case builds its plan and makes one untimed call, which builds the cached
tables, then ``--repeats`` timed calls.  Prints one JSON object per case: the
median, quartiles and range of the call's wall time (``time.perf_counter``)
and the median of its minor page faults (``resource.getrusage``), the
steady-state faults per call.

Usage (from the repository root):

    python scripts/peetre_bench.py [--case C ...] [--repeats R] [--seed S]
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lpx.grid import GridSpec, ScaleGrid
from lpx.harness import trial_function
from lpx.kernels import build_kernel, calderon_companion
from lpx.maximal import default_peetre_exponent, peetre_maximals
from lpx.spaces import Lebesgue
from lpx.transforms import build_plan

SCALES = ScaleGrid(t_min=1 / 16, t_max=16.0, steps_per_octave=8)
# case: (dim, N, L, inputs)
CASES = {"1d-64": (1, 64, 2.0, 10), "1d-512": (1, 512, 8.0, 2), "2d-64": (2, 64, 2.0, 1)}


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def bench(case: str, repeats: int, seed: int) -> dict:
    dim, n, half_width, inputs = CASES[case]
    grid = GridSpec(dim=dim, half_width=half_width, points_per_axis=n)
    plan = build_plan(calderon_companion(build_kernel("annular", grid), SCALES).psi, SCALES)
    fs = [trial_function(seed, i, grid) for i in range(inputs)]
    b = default_peetre_exponent(dim, Lebesgue(2.0).floor())
    peetre_maximals(fs, b, plan=plan)
    times, faults = [], []
    for _ in range(repeats):
        f0, t0 = minor_faults(), time.perf_counter()
        peetre_maximals(fs, b, plan=plan)
        times.append(time.perf_counter() - t0)
        faults.append(minor_faults() - f0)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive") if repeats > 1 else times * 3
    return {"case": case, "inputs": inputs, "b": b, "repeats": repeats, "median_s": median, "q1_s": q1,
            "q3_s": q3, "min_s": min(times), "max_s": max(times), "faults_per_call": statistics.median(faults)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--case", action="append", choices=sorted(CASES), help="default: every case")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for case in args.case or CASES:
        print(json.dumps(bench(case, args.repeats, args.seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
