#!/usr/bin/env python3
"""Paired benchmark runs of a base commit and the working tree.

Runs ``perfbench/run.py`` in two copies in one temporary directory,
``base`` (``git archive`` of BASE_REF) and ``work`` (the working tree's
tracked and untracked, not ignored, files), one run each per pair, swapping
which side runs first from one pair to the next, so drift on a noisy host
falls on both sides alike.  The two paths have the same length, since the
checkout path shifts the interpreter's import-time heap layout and with it
the timings.  Each side runs its own ``perfbench/run.py`` on its own sources
with the same arguments.  Prints one JSON object: per metric of the
benchmark's last output line, each side's median, quartiles and values, the
pairs the working tree won (lower is better; a tie counts for neither side),
the ratio of the medians, working tree over base, and the benchmark's two
rules for a change (``summarize``): ``claim_met``, whether a claimed gain
holds, and ``within_bound``, whether the change stays within the metric's
``bound`` in ``BENCHMARK.json`` (null for a metric without one).  The copies
are removed at the end, also when a run fails.  Exits 1 when a run failed
its output checks.

Usage (from the repository root):

    python scripts/bench_pairs.py BASE_REF --workload verify-1d --pairs 10 --seconds 8 --seed 5
"""

import argparse
import json
import shutil
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


def copy_base(sha: str, tree: Path) -> None:
    """The files of commit ``sha``, as ``git archive`` writes them, in ``tree``."""
    tree.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {sha} exited {archive.returncode}")


def copy_work(tree: Path) -> None:
    """The working tree's tracked and untracked, not ignored, files in ``tree``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT,
                            capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is left out
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)


def spread(values: list[float]) -> dict:
    """Median, quartiles and the values themselves."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def end_to_end_bounds() -> dict[str, float]:
    """Each end-to-end metric's ``bound`` in the repository's ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}


def summarize(base: list[dict], change: list[dict], bounds: dict[str, float]) -> dict:
    """Per metric, both sides' spreads, the change's wins and the median ratio,
    and the benchmark's two rules, lower being better:

    - ``claim_met``: the change wins at least 9 of every 10 pairs (a tie
      counts for neither side), and its median lies below the base's by more
      than the base's interquartile range;
    - ``within_bound``: the change's median is at most the base's times 1 +
      the metric's bound in ``bounds`` (a ``--workload all`` name carries
      its workload as a prefix, ``decompose-1d.wall_s``), null without one."""
    out = {}
    for name, metric in base[0]["metrics"].items():
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        sides = {"base": spread(b), "change": spread(c)}
        wins = sum(y < x for x, y in zip(b, c))
        base_median, change_median = sides["base"]["median"], sides["change"]["median"]
        bound = bounds.get(name, bounds.get(name.partition(".")[2]))
        out[name] = {
            "unit": metric["unit"],
            **sides,
            "wins": wins,
            "ties": sum(y == x for x, y in zip(b, c)),
            "ratio": change_median / base_median if base_median else None,
            "claim_met": 10 * wins >= 9 * len(b)
                         and base_median - change_median > sides["base"]["q3"] - sides["base"]["q1"],
            "within_bound": None if bound is None else change_median <= base_median * (1.0 + bound),
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
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "work"}
        copy_base(sha, trees["base"])
        copy_work(trees["change"])
        for pair in range(args.pairs):
            for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                runs[side].append(run_benchmark(trees[side], args.workload, args.seconds, args.seed))

    incorrect = {side: sum(not r["correct"] for r in rs) for side, rs in runs.items()}
    print(json.dumps({
        "base": {"ref": args.base_ref, "commit": sha},
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
        "incorrect_runs": incorrect,
        "metrics": summarize(runs["base"], runs["change"], end_to_end_bounds()),
    }, indent=2))
    return 1 if any(incorrect.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
