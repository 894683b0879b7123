#!/usr/bin/env python3
"""Paired benchmark runs of a base commit and the working tree.

Runs ``perfbench/run.py`` in a temporary ``git worktree`` of BASE_REF and in
the working tree, one run each per pair, swapping which side runs first from
one pair to the next, so drift on a noisy host falls on both sides alike.
Each side runs its own ``perfbench/run.py`` on its own sources with the same
arguments.  Prints one JSON object: per metric of the benchmark's last output
line, each side's median, quartiles and values, the pairs the working tree
won (lower is better; a tie counts for neither side) and the ratio of the
medians, working tree over base.  The worktree is removed at the end, also
when a run fails.  Exits 1 when a run failed its output checks.

Usage (from the repository root):

    python scripts/bench_pairs.py BASE_REF --workload verify-1d --pairs 10 --seconds 8 --seed 5
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_benchmark(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """The last output line of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed nothing (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and the values themselves."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(base: list[dict], change: list[dict]) -> dict:
    """Per metric, both sides' spreads, the change's wins and the median ratio."""
    out = {}
    for name, metric in base[0]["metrics"].items():
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        sides = {"base": spread(b), "change": spread(c)}
        out[name] = {
            "unit": metric["unit"],
            **sides,
            "wins": sum(y < x for x, y in zip(b, c)),
            "ties": sum(y == x for x, y in zip(b, c)),
            "ratio": sides["change"]["median"] / sides["base"]["median"] if sides["base"]["median"] else None,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_ref", metavar="BASE_REF", help="commit to compare the working tree against")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0, help="run length of each benchmark run")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sha = subprocess.run(["git", "rev-parse", "--verify", f"{args.base_ref}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_tree), sha], cwd=ROOT,
                       capture_output=True, check=True)
        try:
            trees = {"base": base_tree, "change": ROOT}
            for pair in range(args.pairs):
                for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                    runs[side].append(run_benchmark(trees[side], args.workload, args.seconds, args.seed))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)], cwd=ROOT, check=False)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)

    incorrect = {side: sum(not r["correct"] for r in rs) for side, rs in runs.items()}
    print(json.dumps({
        "base": {"ref": args.base_ref, "commit": sha},
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
        "incorrect_runs": incorrect,
        "metrics": summarize(runs["base"], runs["change"]),
    }, indent=2))
    return 1 if any(incorrect.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
