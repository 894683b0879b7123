#!/usr/bin/env python3
"""lpx benchmark: seeded workloads, end-to-end timings and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload verify-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one process

(With ``all``, peak_rss_mb is the process's peak up to the end of each
workload; run workloads one by one for their own peaks.)

``--trace 0`` reports the end-to-end metrics wall_s, cpu_s, setup_s and
peak_rss_mb.  The three times are host-normalised medians over the run's
passes: each operation's time (and each set-up's) is divided by the time of a
fixed calibration kernel run next to it and multiplied by the kernel's
reference time (see calibration.py), which takes out the host's calm/slow
state; a pass's time is the sum over its operations.  Raw times are in the
result file.
``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, the tracing overhead and the wall time no layer
span covers.  The number of passes is fixed by the workload and ``--seconds``
(see ``pass_count``), so a faster or slower commit makes the same number.
Every operation's output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``, and the exit code is 1 when a check failed.  A result file
with run metadata, every sample, medians and tail percentiles, and in traced
runs the spans, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibration import REFERENCE_CPU_S, REFERENCE_WALL_S, calibrate
from layers import Tracer, metric_units

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
# standard percentiles, highest first; one is reported when >= 10 samples lie beyond it
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


class Ops:
    """Runs a pass's top-level operations one after another and times each.

    The calibration kernel runs before the first operation and after every
    one; each operation is paired with the mean of the two calibrations
    around it.
    """

    def __init__(self):
        self.errors: dict[str, str] = {}
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.cal_wall: dict[str, float] = {}
        self.cal_cpu: dict[str, float] = {}
        self.last_cal = calibrate()

    def call(self, key: str, fn, *args, **kwargs):
        w, c = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, not fatal
            self.errors[key] = traceback.format_exc(limit=-3)
            return None
        finally:
            self.wall[key] = time.perf_counter() - w
            self.cpu[key] = time.process_time() - c
            before, self.last_cal = self.last_cal, calibrate()
            self.cal_wall[key] = (before[0] + self.last_cal[0]) / 2
            self.cal_cpu[key] = (before[1] + self.last_cal[1]) / 2


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest standard percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in PERCENTILES:
        rank = int(pct / 100.0 * n)  # ordered[rank:] lie at or beyond the percentile
        if n - rank - 1 >= 10:
            return {"percentile": pct, "value": ordered[rank], "beyond": n - rank - 1}
    return None


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "LPX_THREADS": os.environ.get("LPX_THREADS", "unset"),
        "seed": seed,
    }


def normalised(passes: list[dict], field: str, cal_field: str, reference: float) -> float:
    """Median host-normalised time of a whole pass.

    A pass's normalised time is the sum over its operations of each one's
    time divided by the calibration's time next to it, multiplied by the
    calibration's reference time (see calibration.py)."""
    return statistics.median(pass_normalised(p, field, cal_field, reference) for p in passes)


def pass_normalised(p: dict, field: str, cal_field: str, reference: float) -> float:
    return reference * sum(t / p[cal_field][k] for k, t in p[field].items())


def pass_count(workload, seconds: float, trace: bool) -> int:
    """Passes in a run: fixed by the workload and --seconds, never by the code's speed.

    ``pass_s`` is about the workload's pass time at the commit that defined
    the benchmark, so a run at that commit lasts about ``seconds``; a faster or
    slower commit makes the same number of passes.  A traced run makes
    untraced/traced pairs, budgeting three untraced passes' time per pair.
    """
    per_pass = workload.pass_s * (3.0 if trace else 1.0)
    return max(workload.min_passes, round(seconds / per_pass))


def run_workload(workload, seed: int, seconds: float, trace: bool, reference: dict | None) -> dict:
    workdir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    passes: list[dict] = []
    for _ in range(pass_count(workload, seconds, trace)):
        for traced in ((False, True) if trace else (False,)):
            gc.collect()
            record = {"traced": traced}
            if traced:
                tracer.install()
                before_setup = tracer.mark()
            try:
                before_cal = calibrate()
                t0 = time.perf_counter()
                state = workload.setup(seed, workdir)
                record["setup"] = time.perf_counter() - t0
                ops = Ops()  # its first calibration follows the set-up
                record["setup_cal"] = (before_cal[0] + ops.last_cal[0]) / 2
                before_pass = tracer.mark()
                record["outputs"] = workload.run_pass(state, ops)
            finally:
                if traced:
                    tracer.uninstall()
            record.update(wall=sum(ops.wall.values()), cpu=sum(ops.cpu.values()), errors=ops.errors,
                          op_wall=ops.wall, op_cpu=ops.cpu, cal_wall=ops.cal_wall, cal_cpu=ops.cal_cpu)
            if traced:
                record["layers"], _ = tracer.summarize(before_setup)
                _, record["covered"] = tracer.summarize(before_pass)
            passes.append(record)

    # output checks: invariants, agreement with the first pass, and the reference
    attempted = failed = 0
    problems: list[str] = []
    first: dict = {}
    for p in passes:
        for key, out in p["outputs"].items():
            attempted += 1
            if out is None:
                bad = [f"{key} raised:\n{p['errors'].get(key, '')}"]
            else:
                bad = workload.problems(key, out, None if reference is None else reference[key])
                if key in first and out != first[key]:
                    bad.append(f"{key}: output differs from the first pass")
                first.setdefault(key, out)
            if bad:
                failed += 1
                problems += bad
    invariant_problems = workload.invariants(seed)
    problems += invariant_problems

    plain = [p for p in passes if not p["traced"]]
    samples = {  # raw times, and host-normalised ones (times the reference over the calibration)
        "pass_wall_s": [p["wall"] for p in plain],
        "pass_cpu_s": [p["cpu"] for p in plain],
        "setup_s": [p["setup"] for p in plain],
        "normalised_pass_wall_s": [pass_normalised(p, "op_wall", "cal_wall", REFERENCE_WALL_S) for p in plain],
        "normalised_setup_s": [REFERENCE_WALL_S * p["setup"] / p["setup_cal"] for p in plain],
        "calibration_s": [c for p in plain for c in p["cal_wall"].values()],
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {}
        for name, unit in metric_units().items():
            if name.startswith("trace.") or name == "error_rate":
                continue
            value = statistics.median(p["layers"].get(name, 0) for p in traced)
            metrics[name] = {"value": value if unit == "s" else round(value), "unit": unit}
        samples["traced_pass_wall_s"] = [p["wall"] for p in traced]
        metrics["trace.overhead_s"] = {
            "value": normalised(traced, "op_wall", "cal_wall", REFERENCE_WALL_S)
            - normalised(plain, "op_wall", "cal_wall", REFERENCE_WALL_S), "unit": "s"}
        metrics["trace.uncovered_s"] = {
            "value": statistics.median(p["wall"] - p["covered"] for p in traced), "unit": "s"}
        metrics["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": normalised(plain, "op_wall", "cal_wall", REFERENCE_WALL_S), "unit": "s"},
            "cpu_s": {"value": normalised(plain, "op_cpu", "cal_cpu", REFERENCE_CPU_S), "unit": "s"},
            "setup_s": {"value": statistics.median(samples["normalised_setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
        }
    result = {
        "correct": failed == 0 and not invariant_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload.name,
        "trace": trace,
        "seconds": seconds,
        "metadata": metadata(seed),
        "reference_checked": reference is not None,
        "error_rate": failed / attempted,
        "medians": {k: statistics.median(v) for k, v in samples.items()},
        "tail": {k: tail_percentile(v) for k, v in samples.items()},
        "sample_counts": {k: len(v) for k, v in samples.items()},
        "samples": samples,
        "operation_wall_s": {k: [p["op_wall"][k] for p in plain] for k in plain[0]["op_wall"]},
        "problems": problems,
        "result": result,
    }
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=2) + "\n")
    if trace:
        spans = [s[:5] for s in tracer.spans]
        (OUT / f"spans-{tag}.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end"], "spans": spans}) + "\n")
    return details


def report(details: dict) -> None:
    """Human-readable lines; the machine-readable JSON follows them."""
    name = details["workload"]
    for key, m in details["result"]["metrics"].items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name} sample counts {details['sample_counts']}, medians {details['medians']}, "
          f"tail percentiles {details['tail']}")
    print(f"{name} error_rate = {details['error_rate']:.6g} ratio "
          f"({details['result']['failed']} of {details['result']['attempted']} operations failed)")
    for problem in details["problems"]:
        print(f"{name} CHECK FAILED: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lpx" / "__init__.py").is_file():
        print(f"error: the lpx sources are missing: no {src / 'lpx'}", file=sys.stderr)
        return 2
    if os.environ.get("LPX_THREADS", "1") != "1":
        print("error: the benchmark load is single-threaded; unset LPX_THREADS", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    references = json.loads((HERE / "reference.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        reference = references.get(name, {}).get(str(args.seed))
        details = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), reference)
        report(details)
        results.append(details["result"])
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
