"""Command-line entry point.

Subcommands: ``kernel`` (build and export a kernel), ``compute`` (apply one
operator to a function file), ``decompose`` (tent decomposition report), and
``verify`` (run the experiment suite).  Every output embeds the hash of the
configuration that produced it, and downstream commands refuse inputs whose
recorded hash disagrees with the active configuration.

Exit codes: 0 success / all experiments passed, 1 experiment failure,
2 configuration error, 3 numeric failure (NaN or overflow in a result).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import LpxError, NumericFailure
from .grid import (
    GridSpec,
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
from .maximal import default_peetre_exponent, hardy_norm, hl_maximal, peetre_maximal
from .spaces import descriptor_from_json, space_norm
from .squarefuncs import g_function, g_lambda_star, lusin_area, tent_functional
from .transforms import build_field, build_plan

OPERATORS = {
    "S": "cone_square_function",
    "g": "vertical_square_function",
    "gstar": "weighted_square_function",
    "tent": "cone_functional",
    "maximal": "ball_maximal",
    "peetre": "smoothed_maximal",
    "norm": "space_norm",
    "hardy_norm": "maximal_space_norm",
}

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

_ALLOWED_TOP = set(DEFAULT_CONFIG)
_ALLOWED_PARAMS = {"lambda", "b", "aperture"}
# the option keys cmd_verify reads for each experiment
_EXPERIMENT_OPTIONS = {
    "equivalence": {"trials"},
    "change_of_angle": {"trials", "alphas"},
    "embedding": {"trials", "s", "epsilon"},
    "vanish": {"t_probe"},
}


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def load_config(path: str | None, seed_override: int | None = None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _Exit(2, f"cannot read config: {exc}")
        unknown = set(user) - _ALLOWED_TOP
        if unknown:
            raise _Exit(2, f"unknown config keys: {sorted(unknown)}")
        for key, val in user.items():
            if isinstance(val, dict) and key in ("grid", "scales"):
                cfg[key].update(val)
            else:
                cfg[key] = val
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    if cfg.get("version") != 1:
        raise _Exit(2, "config version must be 1")
    g = cfg["grid"]
    unknown = set(g) - {"dim", "N", "L"}
    if unknown:
        raise _Exit(2, f"unknown grid keys: {sorted(unknown)}")
    try:
        GridSpec(dim=int(g["dim"]), half_width=float(g["L"]), points_per_axis=int(g["N"]))
    except (ValueError, KeyError) as exc:
        raise _Exit(2, f"bad grid: {exc}")
    s = cfg["scales"]
    unknown = set(s) - {"t_min", "t_max", "steps_per_octave"}
    if unknown:
        raise _Exit(2, f"unknown scale keys: {sorted(unknown)}")
    try:
        ScaleGrid(t_min=float(s["t_min"]), t_max=float(s["t_max"]),
                  steps_per_octave=int(s["steps_per_octave"]))
    except (ValueError, KeyError) as exc:
        raise _Exit(2, f"bad scales: {exc}")
    if cfg["kernel"] not in [k.value for k in KernelKind]:
        raise _Exit(2, f"unknown kernel kind {cfg['kernel']!r}")
    params = cfg.get("params", {})
    unknown = set(params) - _ALLOWED_PARAMS
    if unknown:
        raise _Exit(2, f"unknown params: {sorted(unknown)}")
    for key, floor in (("lambda", 1.0), ("b", 0.0)):
        val = params.get(key)
        if val is not None and not (type(val) in (int, float) and val > floor):
            raise _Exit(2, f"{key} must be a number above {floor:g}, got {val!r}")
    experiments = cfg.get("experiments", {})
    unknown = set(experiments) - set(_EXPERIMENT_OPTIONS)
    if unknown:
        raise _Exit(2, f"unknown experiments: {sorted(unknown)}")
    for name, opts in experiments.items():
        allowed = _EXPERIMENT_OPTIONS[name]
        if not isinstance(opts, dict) or set(opts) - allowed:
            raise _Exit(2, f"experiments.{name} must be an object with keys among {sorted(allowed)}, "
                           f"got {opts!r}")


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _build(cfg: dict):
    g = cfg["grid"]
    grid = GridSpec(dim=int(g["dim"]), half_width=float(g["L"]), points_per_axis=int(g["N"]))
    s = cfg["scales"]
    scales = ScaleGrid(float(s["t_min"]), float(s["t_max"]), int(s["steps_per_octave"]))
    try:
        kernel = build_kernel(cfg["kernel"], grid)
        space = descriptor_from_json(cfg["space"], grid)
    except (LpxError, ValueError, OSError) as exc:  # OSError: a weight or exponent CSV
        raise _Exit(2, str(exc))
    return grid, scales, kernel, space


def _read_function(path: Path):
    if path.suffix == ".csv":
        return read_function_csv(path), {}
    f, meta = read_function_binary(path)
    return f, meta


def _check_input_hash(meta: dict, cfg: dict) -> None:
    recorded = meta.get("config_hash")
    if recorded is not None and recorded != config_hash(cfg):
        raise _Exit(2, "input file was produced under a different configuration")


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
    (out_dir / "kernel.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"kernel written to {out_dir} (normalization {pair.normalization_check:.6f})")
    return 0


def cmd_compute(cfg: dict, input_path: Path, operator: str, out_dir: Path) -> int:
    if operator not in OPERATORS:
        raise _Exit(2, f"unknown operator {operator!r}; valid: {sorted(OPERATORS)}")
    grid, scales, kernel, space = _build(cfg)
    f, meta = _read_function(input_path)
    _check_input_hash(meta, cfg)
    if f.grid != grid:
        raise _Exit(2, "input grid does not match the configuration")
    params = cfg.get("params", {})
    out_dir.mkdir(parents=True, exist_ok=True)
    if operator in ("S", "g", "gstar", "tent"):
        F = build_field(f, build_plan(kernel, scales))
    elif operator in ("peetre", "hardy_norm"):
        psi_plan = build_plan(calderon_companion(kernel, scales).psi, scales)

    scalar = None
    result = None
    if operator == "S":
        result = lusin_area(F)
    elif operator == "g":
        result = g_function(F)
    elif operator == "gstar":
        lam = params.get("lambda")
        if lam is None:
            lam = default_lambda(space)
        result = g_lambda_star(F, lam)
    elif operator == "tent":
        aperture = params.get("aperture", 1.0)
        result = tent_functional(F, aperture)
    elif operator == "maximal":
        result = hl_maximal(f)
    elif operator == "peetre":
        b = params.get("b")
        if b is None:
            b = default_peetre_exponent(grid.dim, space.floor())
        result = peetre_maximal(f, b, plan=psi_plan)
    elif operator == "norm":
        scalar = space_norm(f, space)
    elif operator == "hardy_norm":
        scalar = hardy_norm(f, space, psi_plan, params.get("b"))

    provenance = {
        "config_hash": config_hash(cfg),
        "operator": operator,
        "operator_id": OPERATORS[operator],
        "input": str(input_path),
    }
    if scalar is not None:
        if not math.isfinite(scalar):
            raise _Exit(3, f"numeric failure: result is {scalar}")
        provenance["value"] = scalar
        out = out_dir / f"{operator}.json"
        out.write_text(json.dumps(provenance, sort_keys=True, indent=2) + "\n")
        print(f"{operator} = {scalar:.12g}")
    else:
        if not np.all(np.isfinite(result.values)):
            raise _Exit(3, "numeric failure: result contains NaN/Inf")
        out = out_dir / f"{operator}.bin"
        write_function_binary(result, out, extra_meta={"config_hash": config_hash(cfg)})
        provenance["output"] = str(out)
        (out_dir / f"{operator}.provenance.json").write_text(
            json.dumps(provenance, sort_keys=True, indent=2) + "\n"
        )
        print(f"{operator} written to {out}")
    return 0


def cmd_decompose(cfg: dict, input_path: Path, out_dir: Path) -> int:
    from .atoms import tent_decompose
    from .maximal import ball_volume

    grid, scales, kernel, space = _build(cfg)
    f, meta = _read_function(input_path)
    _check_input_hash(meta, cfg)
    if f.grid != grid:
        raise _Exit(2, "input grid does not match the configuration")
    # tents can only hold cells below the box height: clamp the field's scales
    t_max_dec = min(scales.t_max, grid.half_width / 2.0)
    t_min_dec = min(scales.t_min, t_max_dec / 4.0)
    dec_scales = ScaleGrid(t_min_dec, t_max_dec, scales.steps_per_octave)
    plan = build_plan(kernel, dec_scales)
    F = build_field(f, plan)
    dec = tent_decompose(F, space)
    rebuilt = dec.reconstruct()
    err = float(np.max(np.abs(rebuilt.values - F.values)))
    entries = []
    for atom, size2, norm_1b in zip(dec.atoms, dec.sizes[2.0], dec.ball_norms):
        rhs = ball_volume(atom.ball.radius, grid.dim) ** 0.5 / norm_1b
        entries.append(
            {
                "center": [float(grid.axis_coordinates()[i]) for i in atom.ball.center],
                "radius": atom.ball.radius,
                "coefficient": atom.coefficient,
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
    (out_dir / "decomposition.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"{len(entries)} atoms, reconstruction error {err:.3e}")
    return 0


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    grid, scales, kernel, space = _build(cfg)
    seed = int(cfg["seed"])
    params = cfg.get("params", {})
    ex_cfg = cfg.get("experiments", {})
    out_dir.mkdir(parents=True, exist_ok=True)

    eq_opts = dict(ex_cfg.get("equivalence", {}))
    angle_opts = dict(ex_cfg.get("change_of_angle", {}))
    emb_opts = dict(ex_cfg.get("embedding", {}))
    vanish_opts = dict(ex_cfg.get("vanish", {}))

    reports = []
    reports.append(
        (
            "equivalence",
            equivalence_experiment(
                space,
                cfg["kernel"],
                int(eq_opts.get("trials", 20)),
                grid,
                scales,
                seed=seed,
                lam=params.get("lambda"),
                b=params.get("b"),
            ),
        )
    )

    alphas = tuple(angle_opts.get("alphas", (1.0, 2.0, 4.0, 8.0)))
    t_max_angle = min(scales.t_max, grid.half_width / max(alphas))
    t_min_angle = min(scales.t_min, t_max_angle / 4.0)
    angle_scales = ScaleGrid(t_min_angle, t_max_angle, scales.steps_per_octave)
    reports.append(
        (
            "change_of_angle",
            change_of_angle_experiment(
                space, alphas, int(angle_opts.get("trials", 20)), grid, angle_scales,
                seed=seed, kernel_kind=cfg["kernel"],
            ),
        )
    )

    s_emb = float(emb_opts.get("s", max(1.0, min(2.0, space.floor()))))
    reports.append(
        (
            "embedding",
            embedding_experiment(
                space, s_emb, int(emb_opts.get("trials", 10)), grid, seed=seed,
                epsilon=float(emb_opts.get("epsilon", 0.9)),
            ),
        )
    )

    probe = vanish_opts.get("t_probe")
    if probe is None:
        # reach the scale where the annular band clears the lowest frequency
        t_top = max(scales.t_max, 16.0 * grid.half_width)
        probe = [scales.t_min * 2.0**k for k in range(int(math.ceil(math.log2(t_top / scales.t_min))) + 1)]
    bump = gaussian_bump(grid, [0.0] * grid.dim, grid.half_width / 16.0)
    vanish = vanish_at_infinity_check(bump, kernel, tuple(probe))

    all_passed = all(rep.passed for _, rep in reports) and vanish["passed"]
    chash = config_hash(cfg)
    for name, rep in reports:
        payload = json.loads(rep.to_json())
        payload["config_hash"] = chash
        (out_dir / f"{name}.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        (out_dir / f"{name}.csv").write_text(rep.to_csv())
    vanish["config_hash"] = chash
    (out_dir / "vanish.json").write_text(json.dumps(vanish, sort_keys=True, indent=2) + "\n")
    # gnuplot-friendly data for the log-log aperture figure
    angle = reports[1][1]
    lines = [f"# config {chash}", "# alpha  mean_norm"]
    for a in angle.notes["alphas"]:
        mean = float(np.mean(angle.series[f"norm_alpha_{a:g}"]))
        lines.append(f"{a:g} {mean:.17g}")
    (out_dir / "change_of_angle.dat").write_text("\n".join(lines) + "\n")

    for name, rep in reports:
        print(f"{name}: {'PASS' if rep.passed else 'FAIL'}")
    print(f"vanish: {'PASS' if vanish['passed'] else 'FAIL'}")
    return 0 if all_passed else 1


def main(argv: list[str] | None = None) -> int:
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

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
        out_dir = Path(args.out)
        if args.command == "kernel":
            return cmd_kernel(cfg, out_dir)
        if args.command == "compute":
            return cmd_compute(cfg, Path(args.input), args.operator, out_dir)
        if args.command == "decompose":
            return cmd_decompose(cfg, Path(args.input), out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        raise _Exit(2, f"unknown command {args.command!r}")
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
