#!/usr/bin/env python3
"""In-process timer of the space norms, ``spaces.space_norms``, of criterion 5's five spaces.

Each space norms its own five-space block: the 40 rows that
``harness.equivalence_experiment`` hands ``space_norms`` in one call on 1-D
N=64, L=2 with the default scale grid (1/16 .. 16 at 8 steps per octave),
the Peetre sup, S, g and g*_lambda of trials 0-9, with that space's lambda
and b.  Each space makes one untimed call, which builds the cached tables,
then ``--repeats`` timed calls.  Prints one JSON object per space: the
median, quartiles and range of the call's wall time (``time.perf_counter``)
and, for the Luxemburg spaces (``variable`` and ``orlicz_slice``), the
modular evaluations per window: the elements that one call hands the
modular density, over its windows' elements (an Orlicz-slice window is the
slice ball about a cell, a variable-exponent window a whole row).

Usage (from the repository root):

    python scripts/norm_bench.py [--space S ...] [--repeats R] [--seed S]
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from lpx import spaces
from lpx.grid import GridSpec, ScaleGrid
from lpx.harness import default_lambda, five_spaces, trial_function
from lpx.kernels import build_kernel, calderon_companion
from lpx.maximal import default_peetre_exponent, peetre_maximals
from lpx.squarefuncs import cone_spectra, g_functions, gstar_spectra, scale_sums
from lpx.transforms import build_fields, build_plan

GRID = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
SCALES = ScaleGrid(t_min=1 / 16, t_max=16.0, steps_per_octave=8)
TRIALS = 10
LUXEMBURG = ("variable", "orlicz_slice")


def block(space, seed: int) -> np.ndarray:
    """The rows ``equivalence_experiment`` norms for trials 0-9 in ``space``."""
    kernel = build_kernel("annular", GRID)
    fs = [trial_function(seed, i, GRID) for i in range(TRIALS)]
    fields = build_fields(fs, build_plan(kernel, SCALES))
    tables = [cone_spectra(GRID, SCALES, 1.0), gstar_spectra(GRID, SCALES, default_lambda(space))]
    s_fn, gs_fn = scale_sums(fields, tables)
    psi_plan = build_plan(calderon_companion(kernel, SCALES).psi, SCALES)
    hardy = peetre_maximals(fs, default_peetre_exponent(GRID.dim, space.floor()), plan=psi_plan)
    return np.concatenate([hardy, s_fn, g_functions(fields), gs_fn])


def evaluations_per_window(rows: np.ndarray, space) -> float:
    """Elements one ``space_norms`` call hands the modular density, over the
    elements of the windows it solves, counted by wrapping ``_luxemburg_rows``."""
    solve, handed, solved = spaces._luxemburg_rows, [], []

    def counted(mag, cellvol, density, types):
        solved.append(mag.size)
        return solve(mag, cellvol, lambda ratio: handed.append(ratio.size) or density(ratio), types)

    spaces._luxemburg_rows = counted
    try:
        spaces.space_norms(GRID, rows, space)
    finally:
        spaces._luxemburg_rows = solve
    return sum(handed) / sum(solved)


def bench(name: str, repeats: int, seed: int) -> dict:
    space = five_spaces(GRID)[name]
    rows = block(space, seed)
    spaces.space_norms(GRID, rows, space)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        spaces.space_norms(GRID, rows, space)
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive") if repeats > 1 else times * 3
    out = {"space": name, "rows": len(rows), "repeats": repeats, "median_s": median, "q1_s": q1, "q3_s": q3,
           "min_s": min(times), "max_s": max(times)}
    if name in LUXEMBURG:
        out["evaluations_per_window"] = evaluations_per_window(rows, space)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    names = sorted(five_spaces(GRID))
    parser.add_argument("--space", action="append", choices=names, help="default: every space")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for name in args.space or names:
        print(json.dumps(bench(name, args.repeats, args.seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
