#!/usr/bin/env python3
"""Peak-memory guards for the 2-D runs.

Each case of ``CASES`` runs in its own child process, which imports this
script and calls the case's function.  A case passes when its child exits 0
with a peak resident set at or below the case's limit; the peak is the
child's own, read by ``os.wait4``.  A case that runs ``lpx`` writes its
config and input in a temporary directory of its own.  Exits 1 unless every
case passes.  The README's Cost table holds each case's reading.

Usage (from the repository root):

    python scripts/memory_guard.py [case ...]    # default: every case
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SCRIPTS = str(Path(__file__).resolve().parent)
SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from lpx import cli
from lpx.grid import GridSpec, ScaleGrid, write_function_csv
from lpx.harness import FIVE_SPACES, equivalence_experiment, trial_function
from lpx.maximal import hl_maximal
from lpx.spaces import Lebesgue, descriptor_from_json, space_norms


def decompose(n: int) -> int:
    """``lpx decompose`` of trial 0 on a 2-D N=``n`` grid, L=2, in ``Lebesgue(2)``
    over 1/16 .. 1 at 4 steps per octave: 16 scales, as decompose keeps
    t_max <= L/2."""
    config = {"version": 1, "grid": {"dim": 2, "N": n, "L": 2.0},
              "scales": {"t_min": 0.0625, "t_max": 1.0, "steps_per_octave": 4},
              "kernel": "annular", "space": {"tag": "lebesgue", "p": 2.0}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(config))
        write_function_csv(trial_function(0, 0, GridSpec(dim=2, half_width=2.0, points_per_axis=n)),
                           tmp / "input.csv")
        return cli.main(["--config", str(tmp / "config.json"), "--out", str(tmp / "out"), "decompose",
                         str(tmp / "input.csv")])


def equivalence() -> int:
    grid = GridSpec(dim=2, half_width=2.0, points_per_axis=64)
    report = equivalence_experiment(Lebesgue(2.0), "annular", 10, grid, ScaleGrid(1 / 16, 16.0, 8), seed=0)
    print(f"worst spread {report.summary['worst_spread']:.4g}, passed {report.passed}")
    return 0


def orlicz_slice() -> int:
    grid = GridSpec(dim=2, half_width=2.0, points_per_axis=64)
    rows = np.stack([trial_function(0, i, grid).values.real for i in range(4)])
    print("norms", space_norms(grid, rows, descriptor_from_json(FIVE_SPACES["orlicz_slice"], grid)))
    return 0


def hl_maximal_2d_128() -> int:
    grid = GridSpec(dim=2, half_width=2.0, points_per_axis=128)
    print("max", hl_maximal(trial_function(0, 0, grid)).values.max())
    return 0


def verify_2d_128() -> int:
    """``lpx --seed 42 verify``, which exits 0 only when every experiment
    passes and its reports are written."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"grid": {"dim": 2, "N": 128, "L": 2.0}}))
        return cli.main(["--seed", "42", "--config", str(config), "--out", str(Path(tmp) / "out"), "verify"])


class Case(NamedTuple):
    description: str
    limit_mib: int
    run: Callable[[], int]


CASES = {
    "decompose": Case("lpx decompose of trial 0, 2-D N=64, L=2, 16 scales, Lebesgue(2)", 88,
                      lambda: decompose(64)),
    "decompose-2d-128": Case("the same on 2-D N=128", 272, lambda: decompose(128)),
    "equivalence": Case("equivalence_experiment, 2-D N=64, L=2, 64 scales, 10 trials, seed 0, Lebesgue(2)",
                        160, equivalence),
    "orlicz-slice": Case("one space_norms call over trials 0-3, 2-D N=64, L=2, in criterion 5's OrliczSlice "
                         "(the rows of one 2-D equivalence block)", 56, orlicz_slice),
    "hl-maximal": Case("one hl_maximal call on trial 0, 2-D N=128, L=2, the default ball family", 256,
                       hl_maximal_2d_128),
    "verify-2d-128": Case("lpx --seed 42 verify, 2-D N=128, L=2, the default scales and experiments", 160,
                          verify_2d_128),
}
# the child's program: import this script and run one case
CHILD = "import sys, memory_guard; sys.exit(memory_guard.CASES[sys.argv[1]].run())"


def run_guard(name: str) -> bool:
    """Run case ``name`` in a child process; true if it exits 0 within its limit."""
    limit_mib = CASES[name].limit_mib
    path = os.pathsep.join(filter(None, [SRC, SCRIPTS, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", CHILD, name], env=dict(os.environ, PYTHONPATH=path))
    # wait4 reports this child's own peak, where RUSAGE_CHILDREN would keep
    # the largest of every case run so far
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = code = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - start
    peak_mib = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
    print(f"{name}: exit {code}, {elapsed:.1f} s, peak RSS {peak_mib:.0f} MiB (limit {limit_mib} MiB)", flush=True)
    return code == 0 and peak_mib <= limit_mib


def case_name(name: str) -> str:
    if name not in CASES:
        raise argparse.ArgumentTypeError(f"unknown case {name!r}")
    return name


def main(argv: list[str] | None = None) -> int:
    cases = "\n".join(f"  {name:<17} {limit_mib:>3} MiB  {description}"
                      for name, (description, limit_mib, _) in CASES.items())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
                                     epilog=f"cases, each with its peak-RSS limit:\n{cases}")
    parser.add_argument("cases", nargs="*", type=case_name, metavar="case", help="default: every case")
    args = parser.parse_args(argv)
    ok = True
    for name in args.cases or CASES:
        ok &= run_guard(name)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
