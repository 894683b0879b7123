#!/usr/bin/env python3
"""Peak-memory guards for the 2-D runs.

Each case runs in its own child process and fails unless the child exits 0
with a peak resident set at or below the case's limit:

- ``decompose``: ``lpx decompose`` on a 2-D N=64 grid (L=2, 16 scales,
  trial 0 of the harness's trial family, ``Lebesgue(2)``), limit 256 MiB:
  below the 263 MiB it took when the pieces' dense cone functionals went
  whole into one norm call.  The config and input are written to a
  temporary directory.
- ``equivalence``: ``equivalence_experiment`` on a 2-D N=64 grid (L=2, the
  default 64 scales, 10 trials of the harness's trial family, seed 0,
  ``Lebesgue(2)``), limit 160 MiB.
- ``orlicz-slice``: one ``space_norms`` call over trials 0-3 of the trial
  family on a 2-D N=64 grid (L=2) in criterion 5's ``OrliczSlice``, the rows
  of one 2-D equivalence block, limit 128 MiB: below the 282 MiB one such row
  took alone when a norm call held all of its slice windows at once.
- ``hl-maximal``: one ``hl_maximal`` call on trial 0 of the trial family on a
  2-D N=128 grid (L=2, the default ball family), limit 256 MiB: below the
  1.7 GB that filtering over each disc's footprint took.

Usage:

    python scripts/memory_guard.py [case ...]    # default: every case
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from lpx.grid import GridSpec, write_function_csv
from lpx.harness import trial_function

DECOMPOSE_CONFIG = {
    "version": 1,
    "grid": {"dim": 2, "N": 64, "L": 2.0},
    # decompose keeps t_max <= L/2: 1/16 .. 1 at 4 steps per octave is 16 scales
    "scales": {"t_min": 0.0625, "t_max": 1.0, "steps_per_octave": 4},
    "kernel": "annular",
    "space": {"tag": "lebesgue", "p": 2.0},
}
EQUIVALENCE_CHILD = """
from lpx.grid import GridSpec, ScaleGrid
from lpx.harness import equivalence_experiment
from lpx.spaces import Lebesgue

grid = GridSpec(dim=2, half_width=2.0, points_per_axis=64)
report = equivalence_experiment(Lebesgue(2.0), "annular", 10, grid, ScaleGrid(1 / 16, 16.0, 8), seed=0)
print(f"worst spread {report.summary['worst_spread']:.4g}, passed {report.passed}")
"""
ORLICZ_SLICE_CHILD = """
import numpy as np
from lpx.grid import GridSpec
from lpx.harness import FIVE_SPACES, trial_function
from lpx.spaces import descriptor_from_json, space_norms

grid = GridSpec(dim=2, half_width=2.0, points_per_axis=64)
rows = np.stack([trial_function(0, i, grid).values.real for i in range(4)])
print("norms", space_norms(grid, rows, descriptor_from_json(FIVE_SPACES["orlicz_slice"], grid)))
"""
HL_MAXIMAL_CHILD = """
from lpx.grid import GridSpec
from lpx.harness import trial_function
from lpx.maximal import hl_maximal

grid = GridSpec(dim=2, half_width=2.0, points_per_axis=128)
print("max", hl_maximal(trial_function(0, 0, grid)).values.max())
"""


def decompose_command(tmp: Path) -> list[str]:
    cfg = DECOMPOSE_CONFIG["grid"]
    grid = GridSpec(dim=cfg["dim"], half_width=cfg["L"], points_per_axis=cfg["N"])
    (tmp / "config.json").write_text(json.dumps(DECOMPOSE_CONFIG))
    write_function_csv(trial_function(0, 0, grid), tmp / "input.csv")
    return [sys.executable, "-m", "lpx.cli", "--config", str(tmp / "config.json"),
            "--out", str(tmp / "out"), "decompose", str(tmp / "input.csv")]


def equivalence_command(tmp: Path) -> list[str]:
    return [sys.executable, "-c", EQUIVALENCE_CHILD]


def orlicz_slice_command(tmp: Path) -> list[str]:
    return [sys.executable, "-c", ORLICZ_SLICE_CHILD]


def hl_maximal_command(tmp: Path) -> list[str]:
    return [sys.executable, "-c", HL_MAXIMAL_CHILD]


# name: (description, limit in MiB, child command in a temporary directory)
CASES = {
    "decompose": ("lpx decompose (2-D N=64, 16 scales)", 256, decompose_command),
    "equivalence": ("equivalence_experiment (2-D N=64, 64 scales, 10 trials)", 160, equivalence_command),
    "orlicz-slice": ("space_norms over four rows in OrliczSlice (2-D N=64)", 128, orlicz_slice_command),
    "hl-maximal": ("hl_maximal (2-D N=128)", 256, hl_maximal_command),
}


def run_guard(description: str, cmd: list[str], limit_mib: float) -> bool:
    """Run ``cmd`` in a child process; true if it exits 0 within ``limit_mib`` peak RSS."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    child = subprocess.Popen(cmd, env=env)
    # wait4 reports this child's own peak, where RUSAGE_CHILDREN would keep
    # the largest of every case run so far
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = code = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - start
    peak_mib = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
    print(f"{description}: exit {code}, {elapsed:.1f} s, peak RSS {peak_mib:.0f} MiB (limit {limit_mib} MiB)")
    return code == 0 and peak_mib <= limit_mib


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        print(f"unknown cases {unknown}; known: {sorted(CASES)}", file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or CASES:
            description, limit_mib, command = CASES[name]
            ok &= run_guard(description, command(Path(tmp)), limit_mib)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
