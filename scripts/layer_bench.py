#!/usr/bin/env python3
"""In-process timer of the smoothed maximal sup, ``maximal.peetre_maximals``,
of the space norms, ``spaces.space_norms``, of criterion 5's five spaces
(and of its ``OrliczSlice`` at 2-D),
of the tent decomposition, ``atoms.tent_decompose``, of the scale sums,
``squarefuncs.scale_sums``, of the ball-average maximal function,
``maximal.hl_maximal``, and of criterion 5's five-space pass,
``harness.equivalence_experiments``.

Four Peetre cases, each on the companion of the annular kernel over the
default scale grid (1/16 .. 16 at 8 steps per octave) with the harness's b
for ``Lebesgue(2)``, on the first trials of the trial family:

- ``1d-64``: 1-D N=64, L=2, 10 inputs (the trial block of ``verify-1d``);
- ``1d-512``: 1-D N=512, L=8, 2 inputs (a trial block of the default
  ``lpx verify``);
- ``2d-64``: 2-D N=64, L=2, 1 input;
- ``2d-128``: 2-D N=128, L=2, 1 input (a trial block of the 2-D N=128
  ``lpx verify``).

A Peetre call builds its inputs' psi-field stack (``build_fields``) and
takes the sup on it: the Peetre work of a trial block with one distinct b.
A Peetre case adds the sup's deterministic counts on that stack: the mean
and the largest number of candidate scales per cell
(``candidates_mean``, ``candidates_max``; ``maximal._candidate_scales``)
and the steps of distances (``steps``).

One pass case, ``five-space-pass``: one ``harness.equivalence_experiments``
call over ``harness.five_spaces`` on 1-D N=64, L=2 with the default scale
grid and 10 trials (criterion 5's pass, one trial block).

One norm case per space of ``harness.FIVE_SPACES``, named after it: the 40
rows (the Peetre sup, S, g and g*_lambda of trials 0-9) that an equivalence
run hands ``space_norms`` in one call per space on 1-D N=64, L=2 with the
default scale grid.  Every norm case's rows are recorded by wrapping
``harness.space_norms`` during one untimed ``harness.equivalence_experiments``
pass over the five spaces, made once per process.

Two decomposition cases, each in ``Lebesgue(2)`` with the annular kernel,
their fields built once untimed:

- ``decompose``: the fields of ``decompose-1d``'s four trials (1-D N=256,
  L=8, scales 1/16 .. 2 at 4 steps per octave, the 4-radii-per-octave ball
  family);
- ``decompose-2d``: trial 0 on the memory guard's grid (2-D N=64, L=2,
  scales 1/16 .. 1 at 4 steps per octave, 16 scales, the default ball
  family); at ``--seed 0`` it is the memory guard's field.

A call is one ``tent_decompose`` per field, and the case adds ``atoms``,
the atoms of its decompositions, counted on one more untimed call.

Two scale-sum cases, each one ``scale_sums`` call with the cone table and
the g*_lambda table of ``Lebesgue(2)``'s lambda over the default scale grid,
on the annular kernel's fields of the first trials, built once untimed:

- ``scale-sums-1d-64``: 1-D N=64, L=2, 10 fields (the trial block of
  ``verify-1d``);
- ``scale-sums-2d-64``: 2-D N=64, L=2, 1 field.

One ``hl_maximal`` case, ``hl-maximal-1d-512``: trial 0 on 1-D N=512, L=8,
with the default ball family (the call of a default ``lpx verify``).

One 2-D norm case, ``orlicz-slice-2d-64``: one ``space_norms`` call over
trials 0-3 on 2-D N=64, L=2 in criterion 5's ``OrliczSlice``, the rows of
one 2-D equivalence block; at ``--seed 0`` they are the memory guard's
``orlicz-slice`` rows.

Each case makes one untimed call, which builds the cached tables, then
``--repeats`` timed calls, and prints one JSON object: ``case``, ``call``
(the function timed), ``rows`` (the rows it takes), ``repeats``, the median,
quartiles and range of the call's wall time (``median_s``, ``q1_s``,
``q3_s``, ``min_s``, ``max_s``; ``time.perf_counter``) and the median minor
page faults per call (``faults_per_call``; ``resource.getrusage``), the
steady-state faults per call.  A Peetre case adds its ``b`` and its counts.

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
# Peetre case: (dim, N, L, inputs)
PEETRE = {"1d-64": (1, 64, 2.0, 10), "1d-512": (1, 512, 8.0, 2), "2d-64": (2, 64, 2.0, 1), "2d-128": (2, 128, 2.0, 1)}
NORM_GRID = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
NORM_TRIALS = 10
PASSES = ["five-space-pass"]  # on NORM_GRID with NORM_TRIALS trials
# decomposition case: (dim, N, L, scales, ball radii per octave, trials)
DECOMPOSE = {"decompose": (1, 256, 8.0, ScaleGrid(1 / 16, 2.0, 4), 4, 4),
             "decompose-2d": (2, 64, 2.0, ScaleGrid(1 / 16, 1.0, 4), 2, 1)}
# scale-sum case: (dim, N, L, fields); ball-average maximal case: (dim, N, L)
SCALE_SUMS = {"scale-sums-1d-64": (1, 64, 2.0, 10), "scale-sums-2d-64": (2, 64, 2.0, 1)}
HL_MAXIMAL = {"hl-maximal-1d-512": (1, 512, 8.0)}
# 2-D Orlicz-slice case: (dim, N, L, rows)
ORLICZ_SLICE_2D = {"orlicz-slice-2d-64": (2, 64, 2.0, 4)}
CASES = [*PEETRE, *PASSES, *FIVE_SPACES, *DECOMPOSE, *SCALE_SUMS, *HL_MAXIMAL, *ORLICZ_SLICE_2D]


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


def peetre_case(case: str, seed: int):
    """The timed call of a Peetre case, its input count, its ``b`` and its counts."""
    dim, n, half_width, inputs = PEETRE[case]
    grid = GridSpec(dim=dim, half_width=half_width, points_per_axis=n)
    plan = build_plan(calderon_companion(build_kernel("annular", grid), SCALES).psi, SCALES)
    fs = [trial_function(seed, i, grid) for i in range(inputs)]
    b = default_peetre_exponent(dim, spaces.Lebesgue(2.0).floor())
    counts = peetre_counts(build_fields(fs, plan), b)
    return "peetre_maximals", inputs, lambda: peetre_maximals(build_fields(fs, plan), b), {"b": b, **counts}


def pass_case(case: str, seed: int):
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


def decompose_case(case: str, seed: int):
    """The timed call of a decomposition case, its field count and its atoms."""
    dim, n, half_width, scales, per_octave, trials = DECOMPOSE[case]
    grid = GridSpec(dim=dim, half_width=half_width, points_per_axis=n)
    plan = build_plan(build_annular_kernel(grid), scales)
    fields = [build_field(trial_function(seed, i, grid), plan) for i in range(trials)]
    balls, space = BallFamily.build(grid, per_octave), spaces.Lebesgue(2.0)

    def run():
        return [tent_decompose(F, space, balls) for F in fields]

    return "tent_decompose", len(fields), run, {"atoms": sum(len(dec.atoms) for dec in run())}


def scale_sums_case(case: str, seed: int):
    """The timed call of a scale-sum case and its field count."""
    dim, n, half_width, count = SCALE_SUMS[case]
    grid = GridSpec(dim=dim, half_width=half_width, points_per_axis=n)
    F = build_fields([trial_function(seed, i, grid) for i in range(count)],
                     build_plan(build_kernel("annular", grid), SCALES))
    tables = [cone_spectra(grid, SCALES, 1.0), gstar_spectra(grid, SCALES, default_lambda(spaces.Lebesgue(2.0)))]
    return "scale_sums", count, lambda: scale_sums(F, tables), {}


def hl_maximal_case(case: str, seed: int):
    """The timed call of the ``hl_maximal`` case and its one input."""
    dim, n, half_width = HL_MAXIMAL[case]
    f = trial_function(seed, 0, GridSpec(dim=dim, half_width=half_width, points_per_axis=n))
    return "hl_maximal", 1, lambda: hl_maximal(f), {}


def orlicz_slice_2d_case(case: str, seed: int):
    """The timed call of the 2-D Orlicz-slice case and its row count."""
    dim, n, half_width, count = ORLICZ_SLICE_2D[case]
    grid = GridSpec(dim=dim, half_width=half_width, points_per_axis=n)
    rows = np.stack([trial_function(seed, i, grid).values.real for i in range(count)])
    space = spaces.descriptor_from_json(FIVE_SPACES["orlicz_slice"], grid)
    return "space_norms", count, lambda: spaces.space_norms(grid, rows, space), {}


KINDS = [(PEETRE, peetre_case), (PASSES, pass_case), (DECOMPOSE, decompose_case), (SCALE_SUMS, scale_sums_case),
         (HL_MAXIMAL, hl_maximal_case), (FIVE_SPACES, norm_case), (ORLICZ_SLICE_2D, orlicz_slice_2d_case)]


def bench(case: str, repeats: int, seed: int) -> dict:
    kind = next(make for cases, make in KINDS if case in cases)
    call, rows, run, extra = kind(case, seed)
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
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--case", action="append", choices=CASES, help="default: every case")
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
