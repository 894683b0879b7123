#!/usr/bin/env python3
"""Peak-memory guards for the 2-D runs.

Each case runs in its own child process and fails unless the child exits 0
with a peak resident set at or below the case's limit:

- ``decompose``: ``lpx decompose`` on a 2-D N=64 grid (L=2, 16 scales,
  trial 0 of the harness's trial family, ``Lebesgue(2)``), limit 88 MiB,
  about 1.5 times the 58-59 MiB it takes, so a regression of half that
  fails.  The config and input are written to a temporary directory.
- ``decompose-2d-128``: the same on a 2-D N=128 grid, limit 272 MiB, about
  1.5 times the 181-182 MiB it takes.
- ``equivalence``: ``equivalence_experiment`` on a 2-D N=64 grid (L=2, the
  default 64 scales, 10 trials of the harness's trial family, seed 0,
  ``Lebesgue(2)``), limit 160 MiB.
- ``orlicz-slice``: one ``space_norms`` call over trials 0-3 of the trial
  family on a 2-D N=64 grid (L=2) in criterion 5's ``OrliczSlice``, the rows
  of one 2-D equivalence block, limit 56 MiB, about 1.5 times the 37 MiB it
  takes.
- ``hl-maximal``: one ``hl_maximal`` call on trial 0 of the trial family on a
  2-D N=128 grid (L=2, the default ball family), limit 256 MiB.
- ``verify-2d-128``: ``lpx --seed 42 verify`` on a 2-D N=128 grid (L=2, the
  default scales and experiments), which exits 0 only when every experiment
  passes and its reports are written, limit 160 MiB; its reading moves
  between 127 and 135 MiB across runs of the same code.

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
    "grid": {"dim": 2, "L": 2.0},
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


def decompose_command(tmp: Path, n: int = 64) -> list[str]:
    config = {**DECOMPOSE_CONFIG, "grid": {**DECOMPOSE_CONFIG["grid"], "N": n}}
    grid = GridSpec(dim=config["grid"]["dim"], half_width=config["grid"]["L"], points_per_axis=n)
    (tmp / f"decompose-{n}.json").write_text(json.dumps(config))
    write_function_csv(trial_function(0, 0, grid), tmp / f"input-{n}.csv")
    return [sys.executable, "-m", "lpx.cli", "--config", str(tmp / f"decompose-{n}.json"),
            "--out", str(tmp / f"decompose-{n}"), "decompose", str(tmp / f"input-{n}.csv")]


def verify_2d_128_command(tmp: Path) -> list[str]:
    (tmp / "verify-2d-128.json").write_text(json.dumps({"grid": {"dim": 2, "N": 128, "L": 2.0}}))
    return [sys.executable, "-m", "lpx.cli", "--seed", "42", "--config", str(tmp / "verify-2d-128.json"),
            "--out", str(tmp / "verify-2d-128"), "verify"]


def equivalence_command(tmp: Path) -> list[str]:
    return [sys.executable, "-c", EQUIVALENCE_CHILD]


def orlicz_slice_command(tmp: Path) -> list[str]:
    return [sys.executable, "-c", ORLICZ_SLICE_CHILD]


def hl_maximal_command(tmp: Path) -> list[str]:
    return [sys.executable, "-c", HL_MAXIMAL_CHILD]


# name: (description, limit in MiB, child command in a temporary directory)
CASES = {
    "decompose": ("lpx decompose (2-D N=64, 16 scales)", 88, decompose_command),
    "decompose-2d-128": ("lpx decompose (2-D N=128, 16 scales)", 272, lambda tmp: decompose_command(tmp, 128)),
    "equivalence": ("equivalence_experiment (2-D N=64, 64 scales, 10 trials)", 160, equivalence_command),
    "orlicz-slice": ("space_norms over four rows in OrliczSlice (2-D N=64)", 56, orlicz_slice_command),
    "hl-maximal": ("hl_maximal (2-D N=128)", 256, hl_maximal_command),
    "verify-2d-128": ("lpx --seed 42 verify (2-D N=128)", 160, verify_2d_128_command),
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
