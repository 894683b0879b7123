#!/usr/bin/env python3
"""Record the reference outputs that perfbench/run.py compares against.

References belong to the commit that defined the benchmark; re-recording
them at a later commit would hide any change in the outputs.  Run from the
repository root:

    python3 perfbench/make_reference.py --seeds 0-19 [--workload decompose-1d]
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, OUT, ROOT, Ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    path = HERE / "reference.json"
    refs = json.loads(path.read_text())
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        workdir = OUT / f"{name}-reference"
        workdir.mkdir(parents=True, exist_ok=True)
        for seed in range(lo, hi + 1):
            state = workload.setup(seed, workdir)
            ops = Ops()
            outputs = workload.run_pass(state, ops)
            bad = [f"{k} raised:\n{ops.errors[k]}" for k, v in outputs.items() if v is None]
            bad += [p for k, v in outputs.items() if v is not None for p in workload.problems(k, v, None)]
            bad += workload.invariants(seed)
            if bad:
                print(f"{name} seed {seed}: not recorded:\n" + "\n".join(bad), file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = {k: workload.reference(k, v) for k, v in outputs.items()}
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: recorded ({sum(ops.wall.values()):.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
