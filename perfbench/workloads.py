"""The three benchmark workloads, written against the public API of lpx.

Each workload has a ``setup`` (the state its operations consume, built before
the first timed operation), a ``run_pass`` that makes its top-level operations
through ``ops.call`` and returns one output per operation (None if it raised),
``problems`` that checks one output against the seed-independent invariants
and, when the seed has one, its reference output, ``reference`` that turns an
output into its reference entry, and ``invariants`` that checks the maximal
operator's pointwise bounds on the seed's trial inputs, outside any timing.
``pass_s`` fixes the number of passes a run makes, ``round(seconds / pass_s)``;
it is about the time of one pass at the commit that defined the benchmark.
Functions are looked up on their modules at call time, never bound at import,
so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from lpx import atoms, cli, grid as lgrid, harness, kernels, maximal, spaces, transforms

RTOL = 1e-9  # relative tolerance of every float compared with a reference output
RECONSTRUCTION_TOL = 1e-12  # absolute, as in acceptance criterion 9
VERIFY_REPORTS = ("change_of_angle.json", "embedding.json", "equivalence.json", "vanish.json")


def compare(actual, expected, where: str = "") -> list[str]:
    """Differences between two JSON-like values; floats within RTOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        return [d for k in sorted(expected) for d in compare(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        return [d for i, (a, e) in enumerate(zip(actual, expected)) for d in compare(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=RTOL, abs_tol=0.0) or actual == expected:
            return []
        return [f"{where}: {actual!r} != {expected!r} (rtol {RTOL:g})"]
    return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]


def _trials(seed: int, grid, count: int) -> list:
    return [harness.trial_function(seed, i, grid) for i in range(count)]


def _maximal_bounds(grid, radii_per_octave: int, seed: int, count: int) -> list[str]:
    """Pointwise c |f| <= hl_maximal(f) <= max |f| on every input.

    Radii are snapped so that a ball never covers more cells than its measure,
    which keeps every average below max |f|; the smallest ball centred at x
    holds x's own cell, so c = cell volume / |B(r_min)|.  (The continuum
    bound M f >= |f| does not hold on the grid: M of a constant is 1 - 1/N
    in 1-D.)
    """
    balls = maximal.BallFamily.build(grid, radii_per_octave)
    bad = []
    for i, f in enumerate(_trials(seed, grid, count)):
        mag = np.abs(f.values)
        c = grid.cell_volume / maximal.ball_volume(float(balls.radii[0]), grid.dim)
        m = maximal.hl_maximal(f, balls).values.real
        slack = 1e-12 * mag.max()
        if not np.all(m >= c * mag - slack):
            bad.append(f"trial {i}: hl_maximal(f) < {c:.4g} |f| somewhere")
        if not np.all(m <= mag.max() + slack):
            bad.append(f"trial {i}: hl_maximal(f) > max |f| somewhere")
    return bad


class Verify1D:
    """``lpx verify`` on criterion 11's 1-D configuration on [-2, 2) at N=64, seed varied.

    The cell size and scale grid are criterion 11's; the grid is a quarter as
    wide and each experiment runs the harness minimum of 10 trials, so one
    call is short enough to fall inside a calm stretch of the host.
    """

    name = "verify-1d"
    min_passes = 2  # two passes are compared byte for byte
    pass_s = 0.6
    trials = 10  # the harness minimum, for each of the three graded experiments
    config = {  # the seed comes from the benchmark
        "version": 1,
        "grid": {"dim": 1, "N": 64, "L": 2.0},
        "scales": {"t_min": 0.0625, "t_max": 16.0, "steps_per_octave": 8},
        "kernel": "annular",
        "space": {"tag": "lebesgue", "p": 2.0},
        "experiments": {"equivalence": {"trials": 10}, "change_of_angle": {"trials": 10},
                        "embedding": {"trials": 10}},
    }

    def setup(self, seed: int, workdir: Path) -> dict:
        """Loads and validates the config; verify builds everything else itself.

        The config file is the benchmark's input, so it is written only when
        missing or different: the first pass of a run writes it.
        """
        cfg_path = workdir / "verify-config.json"
        text = json.dumps({**self.config, "seed": seed})
        if not cfg_path.is_file() or cfg_path.read_text() != text:
            cfg_path.write_text(text)
        cli.load_config(str(cfg_path))
        return {
            "argv": ["--config", str(cfg_path), "--out", str(workdir / "verify-out"), "verify"],
            "out": workdir / "verify-out",
        }

    def run_pass(self, state: dict, ops) -> dict:
        shutil.rmtree(state["out"], ignore_errors=True)  # read back only what this pass wrote
        with contextlib.redirect_stdout(io.StringIO()):
            code = ops.call("verify", cli.main, state["argv"])
        if code is None:
            return {"verify": None}
        files = {p.name: p.read_bytes() for p in sorted(state["out"].iterdir())}
        return {"verify": {"code": code, "files": files}}

    @staticmethod
    def reference(key: str, out: dict) -> dict:
        """The graded part of the four reports."""
        reports = {}
        for name in VERIFY_REPORTS:
            data = json.loads(out["files"][name])
            fields = ("passed", "peak_index", "sup_norms") if name == "vanish.json" else ("passed", "summary")
            reports[name] = {k: data[k] for k in fields}
        return reports

    def problems(self, key: str, out: dict, ref) -> list[str]:
        bad = [] if out["code"] == 0 else [f"verify exited {out['code']}"]
        jsons = sorted(n for n in out["files"] if n.endswith(".json"))
        if jsons != sorted(VERIFY_REPORTS):
            return bad + [f"verify wrote JSON reports {jsons}"]
        reports = self.reference(key, out)
        bad += [f"{n} did not pass" for n, rep in reports.items() if rep["passed"] is not True]
        return bad + (compare(reports, ref, key) if ref is not None else [])

    def invariants(self, seed: int) -> list[str]:
        g = self.config["grid"]
        grid = lgrid.GridSpec(dim=g["dim"], half_width=g["L"], points_per_axis=g["N"])
        return _maximal_bounds(grid, maximal.DEFAULT_RADII_PER_OCTAVE[1], seed, self.trials)


class Equivalence5Space1D:
    """equivalence_experiment over the five spaces of criterion 5, on [-2, 2) at N=64."""

    name = "equivalence-5space-1d"
    min_passes = 1
    pass_s = 2.6
    trials = 10  # the harness minimum

    @staticmethod
    def grid():
        return lgrid.GridSpec(dim=1, half_width=2.0, points_per_axis=64)

    def setup(self, seed: int, workdir: Path) -> dict:
        """Space descriptors; the experiment builds its kernels and trials itself."""
        grid = self.grid()
        r2 = sum(c**2 for c in grid.coordinate_mesh())
        exponent = spaces.ExponentFunction.build(grid, 1.8 - 0.3 * np.exp(-r2))
        phi = spaces.OrliczFunction(lambda t: np.asarray(t, float) ** 1.2 + np.asarray(t, float) ** 1.6,
                                    lower_type=1.2, upper_type=1.6)
        return {
            "seed": seed,
            "grid": grid,
            "scales": lgrid.ScaleGrid(1 / 16, 16.0, 8),
            "spaces": {
                "morrey": spaces.Morrey(2.0, 1.0),
                "mixed": spaces.MixedNorm((1.5,)),
                "variable": spaces.VariableLebesgue(exponent),
                "weighted": spaces.WeightedLebesgue(1.5, spaces.power_weight(grid, 0.5), q_omega=1.5),
                "orlicz_slice": spaces.OrliczSlice(phi, r=1.5, slice_t=1.0),
            },
        }

    def run_pass(self, state: dict, ops) -> dict:
        out = {}
        for name, space in state["spaces"].items():
            rep = ops.call(name, harness.equivalence_experiment, space, "annular", self.trials,
                           state["grid"], state["scales"], seed=state["seed"])
            out[name] = None if rep is None else rep.to_json()
        return out

    @staticmethod
    def reference(key: str, out: str) -> dict:
        data = json.loads(out)
        series = {k: data["series"][k] for k in ("hardy", "area", "g", "gstar")}
        return {"passed": data["passed"], "summary": data["summary"], "series": series}

    def problems(self, key: str, out: str, ref) -> list[str]:
        rep = self.reference(key, out)
        bad = [] if rep["passed"] is True else [f"{key} equivalence did not pass"]
        return bad + (compare(rep, ref, key) if ref is not None else [])

    def invariants(self, seed: int) -> list[str]:
        return _maximal_bounds(self.grid(), maximal.DEFAULT_RADII_PER_OCTAVE[1], seed, self.trials)


class Decompose1D:
    """build_field -> tent_decompose -> reconstruct -> coefficient_functional (criterion 9).

    A pass decomposes trials 0-3, one full cycle of the trial family (two
    band-limited noises, an atom, a bump), so a pass is short and a run holds
    many.
    """

    name = "decompose-1d"
    min_passes = 1
    pass_s = 1.0
    trials = 4
    radii_per_octave = 4

    @staticmethod
    def grid():
        return lgrid.GridSpec(dim=1, half_width=8.0, points_per_axis=256)

    def setup(self, seed: int, workdir: Path) -> dict:
        grid = self.grid()
        scales = lgrid.ScaleGrid(1 / 16, 2.0, 4)
        return {
            "plan": transforms.build_plan(kernels.build_annular_kernel(grid), scales),
            "space": spaces.Lebesgue(2.0),
            "balls": maximal.BallFamily.build(grid, self.radii_per_octave),
            "inputs": _trials(seed, grid, self.trials),
        }

    @staticmethod
    def _decompose(f, plan, space, balls):
        field = transforms.build_field(f, plan)
        dec = atoms.tent_decompose(field, space, balls)
        return field, dec, dec.reconstruct(), atoms.coefficient_functional(dec, space)

    def run_pass(self, state: dict, ops) -> dict:
        out = {}
        for i, f in enumerate(state["inputs"]):
            key = f"tent_decompose[{i}]"
            res = ops.call(key, self._decompose, f, state["plan"], state["space"], state["balls"])
            if res is None:
                out[key] = None
                continue
            field, dec, rebuilt, coefficient = res
            out[key] = {
                "atoms": len(dec.atoms),
                "coefficient": coefficient,
                "reconstruction_error": float(np.max(np.abs(rebuilt.values - field.values))),
            }
        return out

    @staticmethod
    def reference(key: str, out: dict) -> dict:
        return {"atoms": out["atoms"], "coefficient": out["coefficient"]}

    def problems(self, key: str, out: dict, ref) -> list[str]:
        err = out["reconstruction_error"]
        bad = [] if err <= RECONSTRUCTION_TOL else [f"{key} reconstruction error {err:.3e}"]
        return bad + (compare(self.reference(key, out), ref, key) if ref is not None else [])

    def invariants(self, seed: int) -> list[str]:
        return _maximal_bounds(self.grid(), self.radii_per_octave, seed, self.trials)


WORKLOADS = {w.name: w for w in (Verify1D(), Equivalence5Space1D(), Decompose1D())}
