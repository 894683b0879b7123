import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import clear_fixed_input_caches, count_built_atoms, count_fixed_input_builds
from lpx import atoms, cli, harness, maximal
from lpx.cli import config_hash, load_config, main
from lpx.grid import (
    GridSpec,
    SampledFunction,
    ScaleGrid,
    gaussian_bump,
    pure_frequency,
    read_function_binary,
    write_function_csv,
)

GRID = GridSpec(dim=1, half_width=8.0, points_per_axis=512)


def write_config(tmp_path, **overrides) -> Path:
    cfg = {
        "version": 1,
        "grid": {"dim": 1, "N": 512, "L": 8.0},
        "scales": {"t_min": 0.0625, "t_max": 16.0, "steps_per_octave": 8},
        "kernel": "annular",
        "space": {"tag": "lebesgue", "p": 2.0},
        "seed": 11,
    }
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def write_input(tmp_path) -> Path:
    f = pure_frequency(GRID, [48])
    p = tmp_path / "input.csv"
    write_function_csv(f, p)
    return p


def test_unknown_operator_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    inp = write_input(tmp_path)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "compute", str(inp), "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "hardy_norm" in err  # the message lists the valid operators


# (config overrides, or the raw config text, and the key the error names)
MALFORMED = {
    "aperture-string": ({"params": {"aperture": "x"}}, "params.aperture"),
    "aperture-negative": ({"params": {"aperture": -1.0}}, "params.aperture"),
    "params-null": ({"params": None}, "params must be an object"),
    "grid-null": ({"grid": None}, "grid must be an object"),
    "top-level-list": ("[1, 2]", "config must be an object"),
    "space-p-list": ({"space": {"tag": "lebesgue", "p": [1]}}, "'p': [1]"),
    "space-p-null": ({"space": {"tag": "lebesgue", "p": None}}, "'p': None"),
    "mixed-p-scalar": ({"space": {"tag": "mixed", "p": 1.5}}, "'p': 1.5"),
    "weight-string": ({"space": {"tag": "weighted", "p": 1.5, "weight": "power"}}, "weight must be"),
    "q-omega-string": ({"space": {"tag": "weighted", "p": 1.5, "q_omega": "x"}}, "q_omega must be"),
    "alphas-string": ({"experiments": {"change_of_angle": {"alphas": "12"}}}, "experiments.change_of_angle.alphas"),
    "alphas-empty": ({"experiments": {"change_of_angle": {"alphas": []}}}, "experiments.change_of_angle.alphas"),
    # a slope through one aperture is no fit
    "alphas-one": ({"experiments": {"change_of_angle": {"alphas": [2.0]}}}, "experiments.change_of_angle.alphas"),
    "t-probe-string-entry": ({"experiments": {"vanish": {"t_probe": [1, "a"]}}}, "experiments.vanish.t_probe"),
    "t-probe-decreasing": ({"experiments": {"vanish": {"t_probe": [4.0, 1.0]}}}, "experiments.vanish.t_probe"),
    "trials-fraction": ({"experiments": {"equivalence": {"trials": 10.5}}}, "experiments.equivalence.trials"),
    "s-zero": ({"experiments": {"embedding": {"s": 0}}}, "experiments.embedding.s"),
    "epsilon-string": ({"experiments": {"embedding": {"epsilon": "0.9"}}}, "experiments.embedding.epsilon"),
    "grid-N-fraction": ({"grid": {"dim": 1, "N": 64.5, "L": 2.0}}, "grid.N"),
    "grid-dim-fraction": ({"grid": {"dim": 1.5, "N": 64, "L": 2.0}}, "grid.dim"),
    "steps-fraction": ({"scales": {"t_min": 0.0625, "t_max": 16.0, "steps_per_octave": 8.5}},
                       "scales.steps_per_octave"),
    "seed-fraction": ({"seed": 1.5}, "seed"),
    # p = 0 and q_omega = 0 divided by zero (exit 1), the negative ones failed
    # only inside the equivalence experiment
    "weighted-p-zero": ({"grid": {"dim": 1, "N": 64, "L": 2.0}, "space": {"tag": "weighted", "p": 0}},
                        "p must be positive"),
    "weighted-p-negative": ({"grid": {"dim": 1, "N": 64, "L": 2.0}, "space": {"tag": "weighted", "p": -1}},
                            "p must be positive"),
    "weighted-q-omega-zero": ({"grid": {"dim": 1, "N": 64, "L": 2.0},
                               "space": {"tag": "weighted", "p": 1.5, "q_omega": 0}}, "q_omega"),
    "weighted-q-omega-negative": ({"grid": {"dim": 1, "N": 64, "L": 2.0},
                                   "space": {"tag": "weighted", "p": 1.5, "q_omega": -2}}, "q_omega"),
}


@pytest.mark.parametrize("config,key", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_value_exits_2_before_any_experiment(tmp_path, capsys, monkeypatch, config, key):
    # each of these crashed with a traceback (exit 1), some of them only after
    # the equivalence experiment had run, or ran with a truncated value
    def no_experiment(*args, **kwargs):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(cli, "equivalence_experiment", no_experiment)
    if isinstance(config, str):
        cfg = tmp_path / "config.json"
        cfg.write_text(config)
    else:
        cfg = write_config(tmp_path, **config)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err and key in err, err
    assert not out.exists()  # no report written


def test_whole_number_floats_load_as_written(tmp_path):
    # 64.0 is a whole number; the config keeps it as written, so its hash is unchanged
    cfg_path = write_config(tmp_path, grid={"dim": 1.0, "N": 64.0, "L": 2}, seed=3.0,
                            experiments={"equivalence": {"trials": 10.0}})
    cfg = load_config(str(cfg_path))
    assert cfg["grid"] == {"dim": 1.0, "N": 64.0, "L": 2} and cfg["seed"] == 3.0
    assert cfg["experiments"]["equivalence"]["trials"] == 10.0


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o"), "compute",
                 str(tmp_path / "missing.csv"), "g"])
    assert code == 2
    assert "cannot read input" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["compute", "maximal"], ["compute", "norm"], ["verify"]],
                         ids=["compute-maximal", "compute-norm", "verify"])
def test_mixed_exponent_count_exits_2_on_load(tmp_path, capsys, command):
    # a 1-D mixed norm with two exponents: compute maximal, which takes no
    # norm, used to exit 0, and the others failed only once a norm was taken
    cfg = write_config(tmp_path, space={"tag": "mixed", "p": [1.5, 2]})
    out = tmp_path / "o"
    if command[0] == "compute":
        command = ["compute", str(write_input(tmp_path)), command[1]]
    assert main(["--config", str(cfg), "--out", str(out)] + command) == 2
    assert "need one exponent per axis" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"version": 1, "bogus": True}))
    code = main(["--config", str(p), "--out", str(tmp_path / "o"), "verify"])
    assert code == 2


def test_lambda_below_one_exits_2(tmp_path):
    cfg = write_config(tmp_path, params={"lambda": 0.9})
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"])
    assert code == 2


def test_unread_theta_param_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, params={"theta": 0.5})
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"])
    assert code == 2
    assert "unknown params" in capsys.readouterr().err


def test_compute_g_constant_output(tmp_path):
    cfg = write_config(tmp_path)
    inp = write_input(tmp_path)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "compute", str(inp), "g"])
    assert code == 0
    result, meta = read_function_binary(out / "g.bin")
    vals = result.values.real
    assert vals.std() <= 1e-9 * vals.mean()  # constant for a pure frequency
    prov = json.loads((out / "g.provenance.json").read_text())
    assert prov["config_hash"] == meta["config_hash"]


def test_compute_norm_scalar(tmp_path):
    cfg = write_config(tmp_path)
    f = GRID  # indicator of [0, 1]
    from helpers import indicator_box

    inp = tmp_path / "ind.csv"
    write_function_csv(indicator_box(GRID, [0.0], [1.0]), inp)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "compute", str(inp), "norm"])
    assert code == 0
    payload = json.loads((out / "norm.json").read_text())
    assert payload["value"] == pytest.approx(1.0, abs=1e-2)


@pytest.mark.parametrize("operator", ["norm", "hardy_norm"])
def test_compute_huge_bump_scalar_is_finite(tmp_path, operator):
    # a 1e200-high bump has a finite norm; the unnormalised L^2 sum overflowed to inf
    cfg = write_config(tmp_path)
    values = {}
    for amplitude in (1.0, 1e200):
        inp = tmp_path / f"bump{amplitude:g}.csv"
        write_function_csv(SampledFunction(GRID, amplitude * gaussian_bump(GRID, [0.2], 0.5).values), inp)
        out = tmp_path / f"out{amplitude:g}"
        assert main(["--config", str(cfg), "--out", str(out), "compute", str(inp), operator]) == 0
        values[amplitude] = json.loads((out / f"{operator}.json").read_text())["value"]
    assert values[1e200] == pytest.approx(1e200 * values[1.0], rel=1e-12)


@pytest.mark.parametrize("amplitude", [1e-200, 1e200, 1e-300, 1e300])
def test_compute_variable_norm_of_an_extreme_bump_exits_0(tmp_path, amplitude):
    # the unscaled Luxemburg bracket's lo * hi underflowed to 0 at 1e-200 (a
    # ZeroDivisionError traceback) and overflowed to inf at 1e200 (exit 3);
    # the weighted and mixed norms and Morrey(2, 2) took plain powers of |f|,
    # which gave 0 at 1e-300 and inf (exit 3) at 1e300
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    spaces = [{"tag": "variable"}, {"tag": "weighted", "p": 1.5, "q_omega": 1.5}, {"tag": "mixed", "p": [1.5]},
              {"tag": "morrey", "p": 2.0, "r": 2.0}]
    for space in spaces:
        cfg = write_config(tmp_path, grid={"dim": 1, "N": 256, "L": 8.0}, space=space)
        values = {}
        for a in (1.0, amplitude):
            inp = tmp_path / f"bump{a:g}.csv"
            write_function_csv(SampledFunction(grid, a * gaussian_bump(grid, [0.2], 0.5).values), inp)
            out = tmp_path / f"out{a:g}"
            assert main(["--config", str(cfg), "--out", str(out), "compute", str(inp), "norm"]) == 0, space
            values[a] = json.loads((out / "norm.json").read_text())["value"]
        assert values[amplitude] == pytest.approx(amplitude * values[1.0], rel=1e-12, abs=0.0), space


def test_compute_maximal_of_a_huge_constant_exits_0(tmp_path):
    # |f| = 1e308 on the whole box: the ball sums of |f| overflowed to inf
    # (exit 2, "values must be finite"); M f of a constant is at most the
    # constant and at least 1 - 2/N of it
    inp = tmp_path / "big.csv"
    write_function_csv(SampledFunction(GRID, np.full(GRID.shape, 1e308)), inp)
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path)), "--out", str(out), "compute", str(inp), "maximal"]) == 0
    values = read_function_binary(out / "maximal.bin")[0].values
    assert np.all(values <= 1e308) and np.all(values >= 1e308 * (1 - 2.0 / GRID.points_per_axis))


@pytest.mark.parametrize("amplitude", [1e-200, 1e200])
@pytest.mark.parametrize("operator", ["S", "g", "gstar"])
def test_compute_square_function_of_an_extreme_bump_exits_0(tmp_path, operator, amplitude):
    # |F|^2 underflowed at 1e-200 (an all-zero output) and overflowed at 1e200
    # (exit 2, "values must be finite")
    cfg = write_config(tmp_path)
    maxima = {}
    for a in (1.0, amplitude):
        inp = tmp_path / f"bump{a:g}.csv"
        write_function_csv(SampledFunction(GRID, a * gaussian_bump(GRID, [0.2], 0.5).values), inp)
        out = tmp_path / f"out{a:g}"
        assert main(["--config", str(cfg), "--out", str(out), "compute", str(inp), operator]) == 0
        maxima[a] = np.max(read_function_binary(out / f"{operator}.bin")[0].values)
    assert maxima[amplitude] > 0
    assert maxima[amplitude] == pytest.approx(amplitude * maxima[1.0], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("operator", ["norm", "hardy_norm"])
def test_compute_infinite_scalar_exits_3(tmp_path, capsys, operator):
    # |f| = 1e308 on the whole box [-8, 8): the L^2 norm 4e308 exceeds the float
    # range, and hardy_norm's field transform overflows before its norm could
    cfg = write_config(tmp_path)
    inp = tmp_path / "big.csv"
    write_function_csv(SampledFunction(GRID, np.full(GRID.shape, 1e308)), inp)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "compute", str(inp), operator])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not (out / f"{operator}.json").exists()


@pytest.mark.parametrize("shape", ["constant", "delta"])
def test_compute_hardy_norm_field_overflow_exits_3(tmp_path, capsys, shape):
    # a finite 1e306 input whose multiscale field overflows is a numeric
    # failure (exit 3), not a configuration error (exit 2)
    values = np.full(GRID.shape, 1e306) if shape == "constant" else 1e306 * (np.arange(512) == 256)
    inp = tmp_path / "big.csv"
    write_function_csv(SampledFunction(GRID, values), inp)
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path)), "--out", str(out), "compute", str(inp), "hardy_norm"]) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not (out / "hardy_norm.json").exists()
    # the same input under a bad configuration still exits 2
    bad = write_config(tmp_path, params={"b": 0})
    assert main(["--config", str(bad), "--out", str(out), "compute", str(inp), "hardy_norm"]) == 2
    assert "numeric failure" not in capsys.readouterr().err


def test_hash_mismatch_rejected(tmp_path):
    cfg1 = write_config(tmp_path, seed=1)
    inp = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg1), "--out", str(out), "compute", str(inp), "g"]) == 0
    # feed the produced file back under a different configuration
    cfg2 = write_config(tmp_path, seed=2)
    code = main(["--config", str(cfg2), "--out", str(out), "compute", str(out / "g.bin"), "g"])
    assert code == 2


def test_roundtrip_same_config_accepts_previous_output(tmp_path):
    cfg = write_config(tmp_path)
    inp = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "compute", str(inp), "g"]) == 0
    code = main(["--config", str(cfg), "--out", str(out), "compute", str(out / "g.bin"), "maximal"])
    assert code == 0


def test_kernel_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "kout"
    assert main(["--config", str(cfg), "--out", str(out), "kernel"]) == 0
    assert (out / "kernel.csv").exists()
    meta = json.loads((out / "kernel.json").read_text())
    assert abs(meta["normalization_check"] - 1.0) <= 1e-3


@pytest.mark.parametrize("kind,wraps", [("annular", True), ("weak", False)])
def test_kernel_command_reports_the_wraparound_warning(tmp_path, kind, wraps):
    # at t_max = 16 = 2L the annular band still reaches past the lowest dual
    # band; the weak profile has decayed below 1e-8 there
    cfg = write_config(tmp_path, kernel=kind)
    out = tmp_path / "kout"
    assert main(["--config", str(cfg), "--out", str(out), "kernel"]) == 0
    assert json.loads((out / "kernel.json").read_text())["wraparound_warning"] is wraps


def test_decompose_command(tmp_path):
    cfg = write_config(tmp_path, scales={"t_min": 0.0625, "t_max": 2.0, "steps_per_octave": 4})
    inp = tmp_path / "bump.csv"
    write_function_csv(gaussian_bump(GRID, [0.3], 0.4), inp)
    out = tmp_path / "dout"
    assert main(["--config", str(cfg), "--out", str(out), "decompose", str(inp)]) == 0
    report = json.loads((out / "decomposition.json").read_text())
    assert report["count"] >= 1
    assert report["reconstruction_error"] <= 1e-12
    assert all("coefficient" in a and "size_slack" in a for a in report["atoms"])


def test_decompose_report_reads_the_flat_arrays_and_builds_no_atom(tmp_path, monkeypatch):
    # the entries are the atoms' balls and coefficients with the per-atom
    # size slack, read from the decomposition's flat arrays: no TentAtom is built
    built, decs = count_built_atoms(monkeypatch), []
    monkeypatch.setattr(cli, "tent_decompose", lambda *args: decs.append(atoms.tent_decompose(*args)) or decs[-1])
    cfg = write_config(tmp_path, scales={"t_min": 0.0625, "t_max": 2.0, "steps_per_octave": 4})
    inp = tmp_path / "bump.csv"
    write_function_csv(gaussian_bump(GRID, [0.3], 0.4), inp)
    out = tmp_path / "dout"
    assert main(["--config", str(cfg), "--out", str(out), "decompose", str(inp)]) == 0
    assert built == []
    (dec,) = decs
    axis = GRID.axis_coordinates()
    expected = []
    for atom, size2, norm_1b in zip(dec.atoms, dec.sizes[2.0], dec.ball_norms):
        rhs = maximal.ball_volume(atom.ball.radius, GRID.dim) ** 0.5 / norm_1b
        expected.append({"center": [float(axis[i]) for i in atom.ball.center], "radius": atom.ball.radius,
                         "coefficient": atom.coefficient, "size_slack": size2 / rhs})
    report = json.loads((out / "decomposition.json").read_text())
    assert len(expected) > 1 and report["atoms"] == expected and report["count"] == len(expected)


class _Scales(Exception):
    """Raised by a stub with the scale grid a command handed it."""


@pytest.mark.parametrize("command, scales, capped", [
    ("verify", {"t_min": 0.5, "t_max": 16.0, "steps_per_octave": 8}, ScaleGrid(0.25, 1.0, 8)),
    ("verify", None, ScaleGrid(1 / 16, 1.0, 8)),
    ("decompose", {"t_min": 2.0, "t_max": 16.0, "steps_per_octave": 8}, ScaleGrid(1.0, 4.0, 8)),
    ("decompose", None, ScaleGrid(1 / 16, 4.0, 8)),
])
def test_a_capped_t_max_lowers_a_t_min_past_its_quarter(tmp_path, monkeypatch, command, scales, capped):
    # at L = 8 the change-of-angle experiment caps t_max at L over its widest
    # default aperture, 8, and decompose at L / 2; a t_min above a quarter of
    # the capped t_max comes down to that quarter, and the default config
    # (no --config) keeps its t_min
    def capture(*args, **kwargs):
        raise _Scales(next(arg for arg in args if isinstance(arg, ScaleGrid)))

    monkeypatch.setattr(cli, "equivalence_experiment", lambda *args, **kwargs: None)
    monkeypatch.setattr(cli, "change_of_angle_experiment", capture)
    monkeypatch.setattr(cli, "_field", capture)
    config = ["--config", str(write_config(tmp_path, scales=scales))] if scales else []
    inputs = [str(write_input(tmp_path))] if command == "decompose" else []
    with pytest.raises(_Scales) as handed:
        main([*config, "--out", str(tmp_path / "o"), command, *inputs])
    assert handed.value.args[0] == capped


def test_decompose_zero_input_writes_an_empty_report(tmp_path):
    cfg = write_config(tmp_path, scales={"t_min": 0.0625, "t_max": 2.0, "steps_per_octave": 4})
    inp = tmp_path / "zero.csv"
    write_function_csv(SampledFunction(GRID, np.zeros(GRID.shape)), inp)
    out = tmp_path / "dout"
    assert main(["--config", str(cfg), "--out", str(out), "decompose", str(inp)]) == 0
    report = json.loads((out / "decomposition.json").read_text())
    assert report["count"] == 0 and report["atoms"] == []


def test_verify_default_suite_and_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        experiments={
            "equivalence": {"trials": 10},
            "change_of_angle": {"trials": 6},
            "embedding": {"trials": 5},
        },
    )
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    code1 = main(["--config", str(cfg), "--out", str(out1), "verify"])
    assert code1 == 0
    report_files = sorted(p.name for p in out1.glob("*.json"))
    assert report_files == ["change_of_angle.json", "embedding.json", "equivalence.json", "vanish.json"]
    code2 = main(["--config", str(cfg), "--out", str(out2), "verify"])
    assert code2 == 0
    for name in report_files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_hash_stable():
    cfg1 = load_config(None)
    cfg2 = load_config(None)
    assert config_hash(cfg1) == config_hash(cfg2)


@pytest.mark.parametrize("b", [0, -1.0, "4"])
def test_bad_peetre_exponent_exits_2(tmp_path, capsys, b):
    # b = 0 used to fall back to the default exponent and exit 0
    cfg = write_config(tmp_path, params={"b": b})
    inp = write_input(tmp_path)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "compute", str(inp), "peetre"])
    assert code == 2
    assert "b must be" in capsys.readouterr().err


def test_compute_peetre_uses_configured_b(tmp_path):
    from lpx.kernels import build_annular_kernel, calderon_companion
    from lpx.maximal import peetre_maximal
    from lpx.transforms import build_plan

    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(0.0625, 16.0, 8)
    cfg = write_config(tmp_path, grid={"dim": 1, "N": 64, "L": 2.0}, params={"b": 3.0})
    inp = tmp_path / "bump.csv"
    f = gaussian_bump(grid, [0.2], 0.3)
    write_function_csv(f, inp)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "compute", str(inp), "peetre"]) == 0
    result, _ = read_function_binary(out / "peetre.bin")
    psi_plan = build_plan(calderon_companion(build_annular_kernel(grid), scales).psi, scales)
    expected = peetre_maximal(f, 3.0, plan=psi_plan)
    assert np.array_equal(result.values, expected.values)


def test_compute_gstar_uses_configured_lambda(tmp_path):
    from lpx.kernels import build_annular_kernel
    from lpx.squarefuncs import g_lambda_star
    from lpx.transforms import build_field, build_plan

    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(0.0625, 16.0, 8)
    cfg = write_config(tmp_path, grid={"dim": 1, "N": 64, "L": 2.0}, params={"lambda": 2.5})
    inp = tmp_path / "bump.csv"
    f = gaussian_bump(grid, [0.2], 0.3)
    write_function_csv(f, inp)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "compute", str(inp), "gstar"]) == 0
    result, _ = read_function_binary(out / "gstar.bin")
    expected = g_lambda_star(build_field(f, build_plan(build_annular_kernel(grid), scales)), 2.5)
    assert np.array_equal(result.values, expected.values)


def test_unknown_experiment_option_exits_2(tmp_path, capsys):
    # a misspelt option used to be ignored, running the default 20 trials
    cfg = write_config(tmp_path, experiments={"equivalence": {"trails": 10}})
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"])
    assert code == 2
    assert "experiments.equivalence" in capsys.readouterr().err


def test_space_csv_on_other_grid_exits_2(tmp_path, capsys):
    weight = tmp_path / "weight.csv"
    write_function_csv(SampledFunction(GridSpec(1, 2.0, 512), np.ones(512)), weight)
    cfg = write_config(tmp_path, space={"tag": "weighted", "p": 2.0, "q_omega": 1.0,
                                        "weight": {"kind": "csv", "path": str(weight)}})
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "kernel"])
    assert code == 2
    assert "half_width=2.0" in capsys.readouterr().err


def test_csv_weight_without_q_omega_exits_2_naming_q_omega(tmp_path, capsys):
    # the critical index refines the weight, which a CSV weight cannot be;
    # the norm alone needs no index
    weight = tmp_path / "weight.csv"
    write_function_csv(gaussian_bump(GRID, [0.0], 2.0), weight)
    cfg = write_config(tmp_path, space={"tag": "weighted", "p": 1.5, "weight": {"kind": "csv", "path": str(weight)}})
    inp = write_input(tmp_path)
    for command in (["compute", str(inp), "peetre"], ["verify"]):
        out = tmp_path / command[-1]
        assert main(["--config", str(cfg), "--out", str(out), *command]) == 2, command
        assert "q_omega" in capsys.readouterr().err, command
        assert not out.exists() or not any(out.iterdir()), command
    assert main(["--config", str(cfg), "--out", str(tmp_path / "norm"), "compute", str(inp), "norm"]) == 0


def test_verify_finds_a_power_weights_critical_index_once(tmp_path, monkeypatch):
    from lpx import spaces

    calls = []
    critical_index = spaces.critical_index
    monkeypatch.setattr(spaces, "critical_index", lambda w: calls.append(w) or critical_index(w))
    cfg = write_config(tmp_path, grid={"dim": 1, "N": 64, "L": 2.0},
                       space={"tag": "weighted", "p": 1.5, "weight": {"kind": "power", "a": 0.5}})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"]) == 0
    assert len(calls) == 1


def test_the_parser_is_built_once_and_a_bad_argument_still_exits_2(tmp_path):
    from lpx import cli

    assert cli._parser() is cli._parser()
    for argv in (["--seed", "x", "verify"], ["compute"], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    cfg = write_config(tmp_path, grid={"dim": 1, "N": 64, "L": 2.0})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "kernel"]) == 0


def _verify_1d_config(tmp_path) -> Path:
    """Criterion 11's cell size and scales on [-2, 2) at N=64, 10 trials per experiment, seed 42."""
    return write_config(tmp_path, grid={"dim": 1, "N": 64, "L": 2.0}, seed=42,
                        experiments={name: {"trials": 10} for name in ("equivalence", "change_of_angle", "embedding")})


def test_a_cold_verify_builds_each_trial_and_the_kernel_once(tmp_path, monkeypatch):
    cfg = _verify_1d_config(tmp_path)
    clear_fixed_input_caches()
    builds = count_fixed_input_builds(monkeypatch)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"]) == 0
    # 30 trials and 3 kernels when each experiment built its own
    assert (builds["trials"], builds["kernels"]) == (10, 1)


def test_verify_exits_1_and_writes_every_report_when_one_experiment_fails(tmp_path, capsys):
    # two vanish probes below the bump's peak scale: the sups rise, so the
    # vanish check fails while the three other experiments pass
    cfg = write_config(tmp_path, grid={"dim": 1, "N": 64, "L": 2.0}, seed=42,
                       experiments={**{name: {"trials": 10} for name in ("equivalence", "change_of_angle", "embedding")},
                                    "vanish": {"t_probe": [0.5, 1.0]}})
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["equivalence: PASS", "change_of_angle: PASS", "embedding: PASS", "vanish: FAIL"]
    assert sorted(p.name for p in out.glob("*.json")) == [
        "change_of_angle.json", "embedding.json", "equivalence.json", "vanish.json"]
    vanish = json.loads((out / "vanish.json").read_text())
    assert vanish["passed"] is False and vanish["sup_norms"][0] < vanish["sup_norms"][1]


def test_cold_and_warm_verify_runs_write_the_same_bytes(tmp_path):
    cfg = _verify_1d_config(tmp_path)
    clear_fixed_input_caches()
    outs = [tmp_path / "cold", tmp_path / "warm"]
    assert [main(["--config", str(cfg), "--out", str(out), "verify"]) for out in outs] == [0, 0]
    cold, warm = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs)
    assert len(cold) == 8 and warm == cold


# runs in a fresh interpreter: any import of scipy raises ImportError
NO_SCIPY_VERIFY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import lpx, lpx.cli

code = lpx.cli.main(["--config", sys.argv[1], "--out", sys.argv[2], "verify"])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert code == 0 and not loaded, (code, loaded)
"""


def test_verify_runs_without_scipy(tmp_path):
    # a weighted space, so the A_p characteristic's ball maxima run next to
    # hl_maximal's; the same bytes as an in-process run
    cfg = write_config(tmp_path, grid={"dim": 1, "N": 64, "L": 2.0}, seed=42,
                       space={"tag": "weighted", "p": 1.5, "weight": {"kind": "power", "a": 0.5}},
                       experiments={name: {"trials": 10} for name in ("equivalence", "change_of_angle", "embedding")})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", NO_SCIPY_VERIFY, str(cfg), str(tmp_path / "blocked")], env=env, check=True)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "plain"), "verify"]) == 0
    blocked, plain = ({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()} for out in ("blocked", "plain"))
    assert len(plain) == 8 and blocked == plain


def test_verify_reports_are_the_report_json_with_the_config_hash(tmp_path, monkeypatch):
    # each report file is one serialization of the report with its config
    # hash: byte for byte the report's own JSON, decoded, given the hash and
    # encoded again
    cfg = _verify_1d_config(tmp_path)
    reports = []
    to_json = harness.ExperimentReport.to_json

    def recorded(rep, **extra):
        reports.append(rep)
        return to_json(rep, **extra)

    monkeypatch.setattr(harness.ExperimentReport, "to_json", recorded)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"]) == 0
    chash = config_hash(load_config(str(cfg)))
    assert [rep.name for rep in reports] == ["norm_equivalence", "change_of_angle", "weighted_embedding"]
    for name, rep in zip(("equivalence", "change_of_angle", "embedding"), reports):
        old = json.dumps({**json.loads(to_json(rep)), "config_hash": chash}, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "o" / f"{name}.json").read_text() == old


def test_missing_space_csv_exits_2(tmp_path):
    cfg = write_config(tmp_path, space={"tag": "variable", "csv": str(tmp_path / "missing.csv")})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "kernel"]) == 2


@pytest.mark.parametrize("grid", [{"dim": 1, "N": 32, "L": 2.0}, {"dim": 2, "N": 32, "L": 1.0}],
                         ids=["1d-32", "2d-32"])
def test_verify_grid_too_small_for_trials_exits_2(tmp_path, capsys, grid):
    # the atom radius range [4h, L/8] of the trial family is empty below N = 64
    cfg = write_config(tmp_path, grid=grid, kernel="weak")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"])
    assert code == 2
    assert "64" in capsys.readouterr().err
