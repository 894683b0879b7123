"""Command-line entry point.

Subcommands: ``kernel`` (build and export a kernel), ``compute`` (apply one
operator to a function file), ``decompose`` (tent decomposition report), and
``verify`` (run the experiment suite).  Every config value is checked once,
on load, against one table of keys and value rules, which also holds the
experiment defaults; the space recipe is checked when the space is built,
before any command does its work.  Every output embeds the hash of the
configuration that produced it, and downstream commands refuse inputs whose
recorded hash disagrees with the active configuration.

Exit codes: 0 success / all experiments passed, 1 experiment failure,
2 configuration error, 3 numeric failure (NaN or overflow in a result).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .atoms import tent_decompose
from .errors import LpxError, NumericFailure
from .grid import (
    GridSpec,
    SampledFunction,
    ScaleGrid,
    gaussian_bump,
    read_function_binary,
    read_function_csv,
    write_function_binary,
)
from .harness import (
    change_of_angle_experiment,
    default_lambda,
    embedding_experiment,
    equivalence_experiment,
    vanish_at_infinity_check,
)
from .kernels import KernelKind, build_kernel, calderon_companion, write_kernel_csv
from .maximal import ball_volume, default_peetre_exponent, hardy_norm, hl_maximal, peetre_maximal
from .spaces import descriptor_from_json, space_norm
from .squarefuncs import g_function, g_lambda_star, lusin_area, tent_functional
from .transforms import build_field, build_plan

DEFAULT_CONFIG = {
    "version": 1,
    "grid": {"dim": 1, "N": 512, "L": 8.0},
    "scales": {"t_min": 1.0 / 16.0, "t_max": 16.0, "steps_per_octave": 8},
    "kernel": "annular",
    "space": {"tag": "lebesgue", "p": 2.0},
    "seed": 0,
    "params": {},
    "experiments": {},
}


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Rule(NamedTuple):
    ok: Callable[[object], bool]
    what: str
    default: object = None


def _is_number(v) -> bool:
    return type(v) in (int, float)  # not bool


def _number(floor: float, default=None) -> _Rule:
    return _Rule(lambda v: _is_number(v) and v > floor, f"a number above {floor:g}", default)


def _whole(floor: int, default=None) -> _Rule:
    # whole-number floats such as 64.0 are accepted and hashed as written
    return _Rule(lambda v: _is_number(v) and float(v).is_integer() and v >= floor,
                 f"a whole number at least {floor}", default)


def _increasing(shortest: int, default=None) -> _Rule:
    def ok(v) -> bool:
        return (isinstance(v, list) and len(v) >= shortest and all(_is_number(x) and x > 0 for x in v)
                and all(a < b for a, b in zip(v, v[1:])))
    return _Rule(ok, f"an increasing list of at least {shortest} positive numbers", default)


_KERNELS = [k.value for k in KernelKind]

# every config key: a nested dict is a section (an object with keys among its
# own), a _Rule a value; the space recipe is checked by descriptor_from_json
_TABLE = {
    "version": _Rule(lambda v: v == 1, "1"),
    "grid": {"dim": _whole(1), "N": _whole(1), "L": _number(0)},
    "scales": {"t_min": _number(0), "t_max": _number(0), "steps_per_octave": _whole(1)},
    "kernel": _Rule(lambda v: v in _KERNELS, f"one of {_KERNELS}"),
    "space": _Rule(lambda v: isinstance(v, dict), "an object"),
    "seed": _whole(0),
    "params": {"lambda": _number(1), "b": _number(0),
               "aperture": _Rule(lambda v: _is_number(v) and v >= 0, "a number at least 0")},
    "experiments": {
        "equivalence": {"trials": _whole(1, 20)},
        "change_of_angle": {"trials": _whole(1, 20), "alphas": _increasing(2, (1.0, 2.0, 4.0, 8.0))},
        "embedding": {"trials": _whole(1, 10), "s": _number(0), "epsilon": _number(0, default=0.9)},
        "vanish": {"t_probe": _increasing(1)},
    },
}


def _check_keys(section, table: dict, name: str = "") -> None:
    """Check ``section`` against ``table``; ``name`` is its dotted path."""
    if not isinstance(section, dict):
        raise _Exit(2, f"{name or 'config'} must be an object, got {section!r}")
    unknown = set(section) - set(table)
    if unknown:
        raise _Exit(2, f"unknown {name or 'config'} keys: {sorted(unknown)}")
    for key, val in section.items():
        path = f"{name}.{key}" if name else key
        rule = table[key]
        if isinstance(rule, dict):
            _check_keys(val, rule, path)
        elif not rule.ok(val):
            raise _Exit(2, f"{path} must be {rule.what}, got {val!r}")


def load_config(path: str | None, seed_override: int | None = None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _Exit(2, f"cannot read config: {exc}")
        _check_keys(user, _TABLE)
        for key, val in user.items():
            cfg[key] = {**cfg[key], **val} if key in ("grid", "scales") else val
    if seed_override is not None:
        _check_keys({"seed": seed_override}, _TABLE)
        cfg["seed"] = int(seed_override)
    _grids(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _grids(cfg: dict) -> tuple[GridSpec, ScaleGrid]:
    g, s = cfg["grid"], cfg["scales"]
    try:
        return (GridSpec(dim=int(g["dim"]), half_width=float(g["L"]), points_per_axis=int(g["N"])),
                ScaleGrid(float(s["t_min"]), float(s["t_max"]), int(s["steps_per_octave"])))
    except ValueError as exc:
        raise _Exit(2, f"bad grid or scales: {exc}") from None


def _build(cfg: dict):
    grid, scales = _grids(cfg)
    try:
        return grid, scales, build_kernel(cfg["kernel"], grid), descriptor_from_json(cfg["space"], grid)
    except (LpxError, ValueError, OSError) as exc:  # OSError: a weight or exponent CSV
        raise _Exit(2, str(exc))


def _read_input(path: Path, cfg: dict, grid: GridSpec) -> SampledFunction:
    """The function in a ``.csv`` file, or a ``.bin`` file and its sidecar,
    which must lie on ``grid`` and carry no other configuration's hash."""
    try:
        f, meta = (read_function_csv(path), {}) if path.suffix == ".csv" else read_function_binary(path)
    except (OSError, KeyError) as exc:
        raise _Exit(2, f"cannot read input {path}: {exc}")
    if meta.get("config_hash") not in (None, config_hash(cfg)):
        raise _Exit(2, "input file was produced under a different configuration")
    if f.grid != grid:
        raise _Exit(2, "input grid does not match the configuration")
    return f


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _capped_scales(scales: ScaleGrid, grid: GridSpec, reach: float) -> ScaleGrid:
    """``scales`` with t_max at most L / reach and t_min at most a quarter of that."""
    t_max = min(scales.t_max, grid.half_width / reach)
    return ScaleGrid(min(scales.t_min, t_max / 4.0), t_max, scales.steps_per_octave)


def cmd_kernel(cfg: dict, out_dir: Path) -> int:
    grid, scales, kernel, _ = _build(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_kernel_csv(kernel, out_dir / "kernel.csv")
    pair = calderon_companion(kernel, scales)
    write_kernel_csv(pair.psi, out_dir / "companion.csv")
    summary = {
        "config_hash": config_hash(cfg),
        "kind": cfg["kernel"],
        "normalization_check": pair.normalization_check,
        "support": list(pair.support),
        # true when the coarsest dilated kernel reaches past the lowest dual band and wraps around the box
        "wraparound_warning": build_plan(kernel, scales).wraparound_warning,
    }
    _write_json(out_dir / "kernel.json", summary)
    print(f"kernel written to {out_dir} (normalization {pair.normalization_check:.6f})")
    return 0


def _field(f, scales, kernel):
    return build_field(f, build_plan(kernel, scales))


def _psi_plan(scales, kernel):
    return build_plan(calderon_companion(kernel, scales).psi, scales)


# operator: (its id in the provenance, its result from (f, scales, kernel, space, params)),
# a SampledFunction or a scalar
OPERATORS = {
    "S": ("cone_square_function", lambda f, sc, k, sp, p: lusin_area(_field(f, sc, k))),
    "g": ("vertical_square_function", lambda f, sc, k, sp, p: g_function(_field(f, sc, k))),
    "gstar": ("weighted_square_function",
              lambda f, sc, k, sp, p: g_lambda_star(_field(f, sc, k), p.get("lambda") or default_lambda(sp))),
    "tent": ("cone_functional", lambda f, sc, k, sp, p: tent_functional(_field(f, sc, k), p.get("aperture", 1.0))),
    "maximal": ("ball_maximal", lambda f, sc, k, sp, p: hl_maximal(f)),
    "peetre": ("smoothed_maximal",
               lambda f, sc, k, sp, p: peetre_maximal(
                   f, p.get("b") or default_peetre_exponent(f.grid.dim, sp.floor()), plan=_psi_plan(sc, k))),
    "norm": ("space_norm", lambda f, sc, k, sp, p: space_norm(f, sp)),
    "hardy_norm": ("maximal_space_norm", lambda f, sc, k, sp, p: hardy_norm(f, sp, _psi_plan(sc, k), p.get("b"))),
}


def cmd_compute(cfg: dict, input_path: Path, operator: str, out_dir: Path) -> int:
    if operator not in OPERATORS:
        raise _Exit(2, f"unknown operator {operator!r}; valid: {sorted(OPERATORS)}")
    grid, scales, kernel, space = _build(cfg)
    f = _read_input(input_path, cfg, grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    operator_id, apply = OPERATORS[operator]
    result = apply(f, scales, kernel, space, cfg["params"])
    provenance = {
        "config_hash": config_hash(cfg),
        "operator": operator,
        "operator_id": operator_id,
        "input": str(input_path),
    }
    if isinstance(result, SampledFunction):
        if not np.all(np.isfinite(result.values)):
            raise _Exit(3, "numeric failure: result contains NaN/Inf")
        out = out_dir / f"{operator}.bin"
        write_function_binary(result, out, extra_meta={"config_hash": config_hash(cfg)})
        provenance["output"] = str(out)
        _write_json(out_dir / f"{operator}.provenance.json", provenance)
        print(f"{operator} written to {out}")
    else:
        if not math.isfinite(result):
            raise _Exit(3, f"numeric failure: result is {result}")
        provenance["value"] = result
        _write_json(out_dir / f"{operator}.json", provenance)
        print(f"{operator} = {result:.12g}")
    return 0


def cmd_decompose(cfg: dict, input_path: Path, out_dir: Path) -> int:
    grid, scales, kernel, space = _build(cfg)
    f = _read_input(input_path, cfg, grid)
    # tents can only hold cells below the box height: cap the field's scales
    F = _field(f, _capped_scales(scales, grid, 2.0), kernel)
    dec = tent_decompose(F, space)
    rebuilt = dec.reconstruct()
    err = float(np.max(np.abs(rebuilt.values - F.values)))
    # the entries read the flat arrays: no atom is built
    axis = grid.axis_coordinates().tolist()
    centers = zip(*(c.tolist() for c in np.unravel_index(dec.centers, grid.shape)))
    entries = []
    for center, radius, lam, size2, norm_1b in zip(centers, dec.radii.tolist(), dec.coefficients[dec.starts].tolist(),
                                                   dec.sizes[2.0], dec.ball_norms):
        rhs = ball_volume(radius, grid.dim) ** 0.5 / norm_1b
        entries.append(
            {
                "center": [axis[i] for i in center],
                "radius": radius,
                "coefficient": lam,
                "size_slack": size2 / rhs if rhs > 0 else math.inf,
            }
        )
    report = {
        "config_hash": config_hash(cfg),
        "atoms": entries,
        "count": len(entries),
        "reconstruction_error": err,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "decomposition.json", report)
    print(f"{len(entries)} atoms, reconstruction error {err:.3e}")
    return 0


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    grid, scales, kernel, space = _build(cfg)
    seed = int(cfg["seed"])
    params = cfg["params"]
    # each experiment's options over its defaults
    opts = {
        name: {**{key: rule.default for key, rule in table.items() if rule.default is not None},
               **cfg["experiments"].get(name, {})}
        for name, table in _TABLE["experiments"].items()
    }
    eq, angle, emb = opts["equivalence"], opts["change_of_angle"], opts["embedding"]
    alphas = tuple(angle["alphas"])
    reports = {  # run in this order
        "equivalence": equivalence_experiment(space, cfg["kernel"], int(eq["trials"]), grid, scales, seed=seed,
                                              lam=params.get("lambda"), b=params.get("b")),
        "change_of_angle": change_of_angle_experiment(space, alphas, int(angle["trials"]), grid,
                                                      _capped_scales(scales, grid, max(alphas)),
                                                      seed=seed, kernel_kind=cfg["kernel"]),
        "embedding": embedding_experiment(space, float(emb.get("s", max(1.0, min(2.0, space.floor())))),
                                          int(emb["trials"]), grid, seed=seed, epsilon=float(emb["epsilon"])),
    }

    probe = opts["vanish"].get("t_probe")
    if probe is None:
        # reach the scale where the annular band clears the lowest frequency
        t_top = max(scales.t_max, 16.0 * grid.half_width)
        probe = [scales.t_min * 2.0**k for k in range(int(math.ceil(math.log2(t_top / scales.t_min))) + 1)]
    bump = gaussian_bump(grid, [0.0] * grid.dim, grid.half_width / 16.0)
    vanish = vanish_at_infinity_check(bump, kernel, tuple(probe))

    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    for name, rep in reports.items():
        (out_dir / f"{name}.json").write_text(rep.to_json(config_hash=chash))
        (out_dir / f"{name}.csv").write_text(rep.to_csv())
    _write_json(out_dir / "vanish.json", {**vanish, "config_hash": chash})
    # gnuplot-friendly data for the log-log aperture figure
    lines = [f"# config {chash}", "# alpha  mean_norm"]
    for a in reports["change_of_angle"].notes["alphas"]:
        mean = float(np.mean(reports["change_of_angle"].series[f"norm_alpha_{a:g}"]))
        lines.append(f"{a:g} {mean:.17g}")
    (out_dir / "change_of_angle.dat").write_text("\n".join(lines) + "\n")

    passed = {**{name: rep.passed for name, rep in reports.items()}, "vanish": vanish["passed"]}
    for name, ok in passed.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(passed.values()) else 1


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="lpx", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="lpx_out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernel", help="build the configured kernel and its companion")

    p_compute = sub.add_parser("compute", help="apply an operator to a function file")
    p_compute.add_argument("input", help="function file (.csv or .bin with .json sidecar)")
    p_compute.add_argument("operator", help=f"one of {sorted(OPERATORS)}")

    p_dec = sub.add_parser("decompose", help="tent decomposition of the input's field")
    p_dec.add_argument("input")

    sub.add_parser("verify", help="run the experiment suite and grade it")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
        out_dir = Path(args.out)
        if args.command == "kernel":
            return cmd_kernel(cfg, out_dir)
        if args.command == "compute":
            return cmd_compute(cfg, Path(args.input), args.operator, out_dir)
        if args.command == "decompose":
            return cmd_decompose(cfg, Path(args.input), out_dir)
        return cmd_verify(cfg, out_dir)
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NumericFailure as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (LpxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
