#!/usr/bin/env python3
"""In-process timer of single library calls, one per case of ``CASES``.

A case runs on the first trials of the harness's trial family at ``--seed``,
with the annular kernel, in ``Lebesgue(2)`` and over the default scale grid
``SCALES`` (1/16 .. 16 at 8 steps per octave) unless its row names another
space or scale grid.  It builds its inputs once untimed, makes one untimed
call, which builds the cached tables, then ``--repeats`` timed calls, and
prints one JSON object: ``case``, ``call`` (the function timed), ``rows``
(the rows it takes), ``repeats``, the median, quartiles and range of the
call's wall time (``median_s``, ``q1_s``, ``q3_s``, ``min_s``, ``max_s``;
``time.perf_counter``) and the median minor page faults per call
(``faults_per_call``; ``resource.getrusage``), the steady-state faults per
call.

A Peetre case times ``peetre_maximals`` on the companion of the annular
kernel with the harness's b for ``Lebesgue(2)``: the call builds its inputs'
psi-field stack (``build_fields``) and takes the sup on it, the Peetre work
of a trial block with one distinct b.  It adds its ``b`` and the sup's
deterministic counts on that stack: the mean and the largest number of
candidate scales per cell (``candidates_mean``, ``candidates_max``;
``maximal._candidate_scales``) and the steps of distances (``steps``).

A norm case, named after a space of ``harness.FIVE_SPACES``, times the rows
that one ``harness.equivalence_experiments`` pass over the five spaces hands
``space_norms`` in that space, recorded once per process (``harness_rows``).

A decomposition case times one ``tent_decompose`` per field, and adds
``atoms``, the atoms of its decompositions, counted on one more untimed call.

Usage (from the repository root):

    python scripts/layer_bench.py [--case C ...] [--repeats R] [--seed S]
"""

import argparse
import functools
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lpx import harness, maximal, spaces
from lpx.atoms import tent_decompose
from lpx.grid import GridSpec, ScaleGrid
from lpx.harness import FIVE_SPACES, default_lambda, five_spaces, trial_function
from lpx.kernels import build_annular_kernel, build_kernel, calderon_companion
from lpx.maximal import BallFamily, default_peetre_exponent, hl_maximal, peetre_maximals
from lpx.squarefuncs import cone_spectra, gstar_spectra, scale_sums
from lpx.transforms import build_field, build_fields, build_plan

SCALES = ScaleGrid(t_min=1 / 16, t_max=16.0, steps_per_octave=8)
NORM_GRID = GridSpec(dim=1, half_width=2.0, points_per_axis=64)  # the five-space pass and the norm cases
NORM_TRIALS = 10


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peetre_counts(F, b: float) -> dict:
    """The candidate scales per cell (mean and largest) and the steps of
    distances of ``peetre_maximals(F, b)``, from the sup's candidate rule and
    step size."""
    _, bounds, weights, ordered = maximal._peetre_tables(F.grid, F.scales, b)
    cells = F.values.size // len(weights)
    if ordered:
        work = np.empty(maximal._candidate_chunk(len(weights), cells)[1])
        cell = maximal._candidate_scales(F.values, weights[:, -1], work)[0]
    else:
        cell = np.arange(F.values.size) // len(weights)
    counts = np.bincount(cell, minlength=cells)
    distances = len(bounds) - 1
    step = maximal._distances_per_step(distances, len(cell) + 2**F.grid.dim * cells)
    return {"candidates_mean": float(counts.mean()), "candidates_max": int(counts.max()),
            "steps": -(-distances // step)}


def peetre_case(seed: int, grid: GridSpec, inputs: int):
    """The timed call of a Peetre case, its input count, its ``b`` and its counts."""
    plan = build_plan(calderon_companion(build_kernel("annular", grid), SCALES).psi, SCALES)
    fs = [trial_function(seed, i, grid) for i in range(inputs)]
    b = default_peetre_exponent(grid.dim, spaces.Lebesgue(2.0).floor())
    counts = peetre_counts(build_fields(fs, plan), b)
    return "peetre_maximals", inputs, lambda: peetre_maximals(build_fields(fs, plan), b), {"b": b, **counts}


def pass_case(seed: int):
    """The timed call of the five-space pass and its trial count."""
    named = list(five_spaces(NORM_GRID).values())
    return "equivalence_experiments", NORM_TRIALS, lambda: harness.equivalence_experiments(
        named, "annular", NORM_TRIALS, NORM_GRID, SCALES, seed), {}


@functools.lru_cache(maxsize=None)
def harness_rows(seed: int) -> dict:
    """Per ``FIVE_SPACES`` name, its space and the rows that one
    ``equivalence_experiments`` pass over the five spaces norms in it: the
    10 trials at 1-D N=64 are one trial block, so one ``space_norms`` call
    per space, in the spaces' order."""
    named = five_spaces(NORM_GRID)
    calls = []

    def record(grid, rows, norm_space):
        calls.append((norm_space, rows))
        return spaces.space_norms(grid, rows, norm_space)

    harness.space_norms = record
    try:
        harness.equivalence_experiments(list(named.values()), "annular", NORM_TRIALS, NORM_GRID, SCALES, seed)
    finally:
        harness.space_norms = spaces.space_norms
    if len(calls) != len(named) or any(called is not space for (called, _), space in zip(calls, named.values())):
        raise RuntimeError("expected one space_norms call per space, in order")
    return dict(zip(named, calls))


def norm_case(name: str, seed: int):
    """The timed call of a norm case and its row count."""
    space, rows = harness_rows(seed)[name]
    return "space_norms", len(rows), lambda: spaces.space_norms(NORM_GRID, rows, space), {}


def decompose_case(seed: int, grid: GridSpec, scales: ScaleGrid, radii_per_octave: int, trials: int):
    """The timed call of a decomposition case, its field count and its atoms."""
    plan = build_plan(build_annular_kernel(grid), scales)
    fields = [build_field(trial_function(seed, i, grid), plan) for i in range(trials)]
    balls, space = BallFamily.build(grid, radii_per_octave), spaces.Lebesgue(2.0)

    def run():
        return [tent_decompose(F, space, balls) for F in fields]

    return "tent_decompose", len(fields), run, {"atoms": sum(len(dec.atoms) for dec in run())}


def scale_sums_case(seed: int, grid: GridSpec, count: int):
    """The timed call of a scale-sum case and its field count."""
    F = build_fields([trial_function(seed, i, grid) for i in range(count)],
                     build_plan(build_kernel("annular", grid), SCALES))
    tables = [cone_spectra(grid, SCALES, 1.0), gstar_spectra(grid, SCALES, default_lambda(spaces.Lebesgue(2.0)))]
    return "scale_sums", count, lambda: scale_sums(F, tables), {}


def hl_maximal_case(seed: int, grid: GridSpec):
    """The timed call of an ``hl_maximal`` case and its one input."""
    f = trial_function(seed, 0, grid)
    return "hl_maximal", 1, lambda: hl_maximal(f), {}


def orlicz_slice_case(seed: int, grid: GridSpec, count: int):
    """The timed call of an Orlicz-slice case and its row count."""
    rows = np.stack([trial_function(seed, i, grid).values.real for i in range(count)])
    space = spaces.descriptor_from_json(FIVE_SPACES["orlicz_slice"], grid)
    return "space_norms", count, lambda: spaces.space_norms(grid, rows, space), {}


class Case(NamedTuple):
    description: str
    make: Callable[[int], tuple]  # seed -> (call name, rows, timed call, extra keys)


CASES = {
    "1d-64": Case("peetre_maximals, 1-D N=64, L=2, 10 inputs: the trial block of verify-1d",
                  lambda seed: peetre_case(seed, GridSpec(1, 2.0, 64), 10)),
    "1d-512": Case("peetre_maximals, 1-D N=512, L=8, 2 inputs: a trial block of the default lpx verify",
                   lambda seed: peetre_case(seed, GridSpec(1, 8.0, 512), 2)),
    "2d-64": Case("peetre_maximals, 2-D N=64, L=2, 1 input",
                  lambda seed: peetre_case(seed, GridSpec(2, 2.0, 64), 1)),
    "2d-128": Case("peetre_maximals, 2-D N=128, L=2, 1 input: a trial block of the 2-D N=128 lpx verify",
                   lambda seed: peetre_case(seed, GridSpec(2, 2.0, 128), 1)),
    "five-space-pass": Case("equivalence_experiments over five_spaces, 1-D N=64, L=2, 10 trials: criterion "
                            "5's pass, one trial block", pass_case),
    **{name: Case(f"space_norms in {name}, the 40 rows of the five-space pass: the Peetre sup, S, g and "
                  "g*_lambda of its 10 trials", functools.partial(norm_case, name)) for name in FIVE_SPACES},
    "decompose": Case("tent_decompose, 1-D N=256, L=8, scales 1/16 .. 2 at 4 steps per octave, 4 ball "
                      "radii per octave, 4 trials: the fields of decompose-1d",
                      lambda seed: decompose_case(seed, GridSpec(1, 8.0, 256), ScaleGrid(1 / 16, 2.0, 4), 4, 4)),
    "decompose-2d": Case("tent_decompose, 2-D N=64, L=2, scales 1/16 .. 1 at 4 steps per octave, 2 ball radii "
                         "per octave, trial 0: at --seed 0 the memory guard's decompose field",
                         lambda seed: decompose_case(seed, GridSpec(2, 2.0, 64), ScaleGrid(1 / 16, 1.0, 4), 2, 1)),
    "scale-sums-1d-64": Case("scale_sums of the cone and g*_lambda tables, 1-D N=64, L=2, 10 trials: the trial "
                             "block of verify-1d", lambda seed: scale_sums_case(seed, GridSpec(1, 2.0, 64), 10)),
    "scale-sums-1d-512": Case("scale_sums, 1-D N=512, L=8, 2 trials: a trial block of the default lpx verify",
                              lambda seed: scale_sums_case(seed, GridSpec(1, 8.0, 512), 2)),
    "scale-sums-2d-64": Case("scale_sums, 2-D N=64, L=2, trial 0",
                             lambda seed: scale_sums_case(seed, GridSpec(2, 2.0, 64), 1)),
    "hl-maximal-1d-512": Case("hl_maximal, 1-D N=512, L=8, trial 0: the call of a default lpx verify",
                              lambda seed: hl_maximal_case(seed, GridSpec(1, 8.0, 512))),
    "orlicz-slice-2d-64": Case("space_norms in criterion 5's OrliczSlice, 2-D N=64, L=2, trials 0-3: the rows of "
                               "one 2-D equivalence block, at --seed 0 the memory guard's orlicz-slice rows",
                               lambda seed: orlicz_slice_case(seed, GridSpec(2, 2.0, 64), 4)),
}


def bench(case: str, repeats: int, seed: int) -> dict:
    call, rows, run, extra = CASES[case].make(seed)
    run()
    times, faults = [], []
    for _ in range(repeats):
        f0, t0 = minor_faults(), time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
        faults.append(minor_faults() - f0)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive") if repeats > 1 else times * 3
    return {"case": case, "call": call, "rows": rows, "repeats": repeats, "median_s": median, "q1_s": q1,
            "q3_s": q3, "min_s": min(times), "max_s": max(times), "faults_per_call": statistics.median(faults),
            **extra}


def main(argv: list[str] | None = None) -> int:
    cases = "\n".join(f"  {name:<19} {description}" for name, (description, _) in CASES.items())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
                                     epilog=f"cases:\n{cases}")
    parser.add_argument("--case", action="append", choices=CASES, metavar="C", help="default: every case")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for case in args.case or CASES:
        print(json.dumps(bench(case, args.repeats, args.seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
