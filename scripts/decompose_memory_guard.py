#!/usr/bin/env python3
"""Memory guard for the tent decomposition.

Runs ``lpx decompose`` on a 2-D N=64 grid (L=2, 16 scales, trial 0 of the
harness's trial family) in a child process and fails unless the command
exits 0 with a peak resident set of at most 1 GiB.  The config and input
are written to a temporary directory.  Usage:

    python scripts/decompose_memory_guard.py
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from lpx.grid import GridSpec, write_function_csv
from lpx.harness import trial_function

LIMIT_MIB = 1024
CONFIG = {
    "version": 1,
    "grid": {"dim": 2, "N": 64, "L": 2.0},
    # decompose keeps t_max <= L/2: 1/16 .. 1 at 4 steps per octave is 16 scales
    "scales": {"t_min": 0.0625, "t_max": 1.0, "steps_per_octave": 4},
    "kernel": "annular",
    "space": {"tag": "lebesgue", "p": 2.0},
}


def main() -> int:
    grid = GridSpec(dim=2, half_width=CONFIG["grid"]["L"], points_per_axis=CONFIG["grid"]["N"])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(CONFIG))
        write_function_csv(trial_function(0, 0, grid), tmp / "input.csv")
        cmd = [sys.executable, "-m", "lpx.cli", "--config", str(tmp / "config.json"),
               "--out", str(tmp / "out"), "decompose", str(tmp / "input.csv")]
        start = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        code = subprocess.call(cmd, env=env)
        elapsed = time.perf_counter() - start
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # ru_maxrss is in KiB
    print(f"lpx decompose (2-D N=64, 16 scales): exit {code}, {elapsed:.1f} s, "
          f"peak RSS {peak_mib:.0f} MiB (limit {LIMIT_MIB} MiB)")
    return 0 if code == 0 and peak_mib <= LIMIT_MIB else 1


if __name__ == "__main__":
    sys.exit(main())
