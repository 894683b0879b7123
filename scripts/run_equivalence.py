#!/usr/bin/env python3
"""Run the norm-equivalence experiment across the five concrete spaces.

Writes one JSON + CSV report per space into the output directory and prints
a one-line summary each.  Usage:

    python scripts/run_equivalence.py [--trials 20] [--seed 0] [--out reports]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lpx.grid import GridSpec, ScaleGrid
from lpx.harness import equivalence_experiment, five_spaces


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--out", default="reports")
    args = ap.parse_args()

    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=args.n)
    scales = ScaleGrid(1 / 16, 16.0, 8)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ok = True
    for name, space in five_spaces(grid).items():
        rep = equivalence_experiment(space, "annular", args.trials, grid, scales, seed=args.seed)
        (out / f"equivalence_{name}.json").write_text(rep.to_json())
        (out / f"equivalence_{name}.csv").write_text(rep.to_csv())
        ok &= rep.passed
        print(
            f"{name:13s} spread {rep.summary['worst_spread']:6.2f} "
            f"(lambda {rep.summary['lambda']:.2f})  {'PASS' if rep.passed else 'FAIL'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
