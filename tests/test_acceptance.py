"""Acceptance suite: one test per graded criterion, at the declared tolerances.

Each test prints a single PASS/FAIL line (visible under pytest -s or in the
captured output) so the suite doubles as a grading report.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from lpx.atoms import (
    Ball,
    coefficient_functional,
    synthesize_molecule,
    tent_decompose,
)
from helpers import atom_from_field, ball_indicator, band_limited_trial, indicator_box, one_field, tent_atom_size
from lpx.grid import GridSpec, SampledFunction, ScaleGrid, pure_frequency
from lpx.harness import change_of_angle_experiment, equivalence_experiments, five_spaces, trial_function
from lpx.kernels import build_annular_kernel, calderon_companion, reproduce
from lpx.maximal import BallFamily, ball_volume, hl_maximal
from lpx.spaces import (
    ExponentFunction,
    Lebesgue,
    MixedNorm,
    Morrey,
    OrliczSlice,
    VariableLebesgue,
    Weight,
    WeightedLebesgue,
    ap_characteristic,
    critical_index,
    orlicz_norm,
    power_orlicz,
    power_weight,
    space_norm,
)
from lpx.squarefuncs import g_function, g_lambda_star, lusin_area, tent_functional
from lpx.transforms import build_field, build_plan


def report(number, passed, detail):
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'} :: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_pointwise_domination():
    t0 = time.time()
    worst = 0.0
    for dim, n_pts, width in ((1, 512, 8.0), (2, 128, 4.0)):
        grid = GridSpec(dim=dim, half_width=width, points_per_axis=n_pts)
        scales = ScaleGrid(1 / 16, min(2.0, width / 4), 4)
        plan = build_plan(build_annular_kernel(grid), scales)
        for trial in range(20):
            F = build_field(trial_function(101, trial, grid), plan)
            s = lusin_area(F).values.real
            for lam in (1.5, 2.0, 3.0):
                gs = g_lambda_star(F, lam).values.real
                bound = 2.0 ** (lam * dim / 2.0) * gs
                ok = s <= bound * (1 + 1e-12)
                if not np.all(ok):
                    worst = max(worst, float(np.max(s - bound)))
    elapsed = time.time() - t0
    report(1, worst == 0.0, f"S <= 2^(lam*n/2) g_lam* at every cell, 20 trials, n in {{1,2}}, "
                            f"lam in {{1.5,2,3}} (worst overshoot {worst:g}, {elapsed:.1f}s)")


def test_criterion_2_pure_frequency_closed_forms():
    t0 = time.time()
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=1024)
    scales = ScaleGrid(1 / 16, 16.0, 8)
    plan = build_plan(build_annular_kernel(grid), scales)
    F = build_field(pure_frequency(grid, [48]), plan)  # |xi| = 3
    ts = scales.scales
    prof = plan.kernel.profile(3.0 * ts)

    g = g_function(F).values.real
    g_oracle = math.sqrt(float(np.sum(prof**2)) * scales.log_weight)
    g_ok = float(np.max(np.abs(g - g_oracle))) <= 1e-6 * g_oracle

    s = lusin_area(F).values.real
    s_ok = float(np.max(np.abs(s - math.sqrt(2.0) * g) / (math.sqrt(2.0) * g))) <= 0.05

    lam = 2.0
    gs = g_lambda_star(F, lam).values.real
    total = 0.0
    for t, a in zip(ts, prof):
        if a == 0.0:
            continue
        w, _ = scipy_integrate.quad(lambda u: (t / (t + abs(u))) ** lam, -8.0, 8.0)
        total += a**2 * w / t * scales.log_weight
    gs_oracle = math.sqrt(total)
    gs_ok = float(np.max(np.abs(gs - gs_oracle) / gs_oracle)) <= 0.05
    elapsed = time.time() - t0
    report(2, g_ok and s_ok and gs_ok,
           f"g within 1e-6 of quadrature oracle ({g_ok}), S within 5% of sqrt(2) g ({s_ok}), "
           f"g* within 5% of truncated-weight oracle ({gs_ok}) ({elapsed:.1f}s)")


def test_criterion_3_reproducing_truncation():
    t0 = time.time()
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    scales = ScaleGrid(1 / 32, 32.0, 8)
    pair = calderon_companion(build_annular_kernel(grid), scales)
    worst = 0.0
    for seed in range(10):
        f = band_limited_trial(seed, grid)
        err = space_norm(reproduce(f, pair) - f, Lebesgue(2.0)) / space_norm(f, Lebesgue(2.0))
        worst = max(worst, err)
    elapsed = time.time() - t0
    report(3, worst <= 1e-2, f"truncated reproducing identity, rel L2 error {worst:.2e} <= 1e-2 "
                             f"on 10 covered band-limited inputs ({elapsed:.1f}s)")


def test_criterion_4_change_of_angles():
    t0 = time.time()
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    scales = ScaleGrid(1 / 16, 1.0, 8)
    spaces = {
        "L2": Lebesgue(2.0),
        "L1": Lebesgue(1.0),
        "Morrey(2,1)": Morrey(2.0, 1.0),
        "Weighted(1,|x|^1/2)": WeightedLebesgue(1.0, power_weight(grid, 0.5), q_omega=1.5),
    }
    lines = []
    all_ok = True
    for name, X in spaces.items():
        rep = change_of_angle_experiment(X, (1.0, 2.0, 4.0, 8.0), 20, grid, scales, seed=202)
        ok = rep.passed
        all_ok &= ok
        lines.append(f"{name}: slope {rep.summary['fitted_exponent']:.3f} <= "
                     f"{rep.thresholds['slope_max']:.3f}")
    elapsed = time.time() - t0
    report(4, all_ok, "; ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_5_norm_equivalence_spreads():
    t0 = time.time()
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    scales = ScaleGrid(1 / 16, 16.0, 8)
    lines = []
    all_ok = True
    spaces = five_spaces(grid)
    for name, rep in zip(spaces, equivalence_experiments(list(spaces.values()), "annular", 20, grid, scales,
                                                         seed=505)):
        all_ok &= rep.passed
        lines.append(f"{name}: spread {rep.summary['worst_spread']:.2f}")
    elapsed = time.time() - t0
    report(5, all_ok, "; ".join(lines) + f" <= 10 ({elapsed:.1f}s)")


def test_criterion_6_space_norm_reductions():
    t0 = time.time()
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    rng = np.random.default_rng(606)
    vals = rng.normal(size=512)
    spectrum = np.fft.fft(vals)
    spectrum[grid.frequency_radii() > 4.0] = 0.0
    f = SampledFunction(grid, np.fft.ifft(spectrum).real)

    checks = {}
    exp_fn = ExponentFunction.build(grid, np.full(grid.shape, 1.7))
    checks["variable->Lebesgue 1e-6"] = abs(
        space_norm(f, VariableLebesgue(exp_fn)) / space_norm(f, Lebesgue(1.7)) - 1.0
    ) <= 1e-6
    checks["mixed->Lebesgue 1e-8"] = abs(
        space_norm(f, MixedNorm((1.7,))) / space_norm(f, Lebesgue(1.7)) - 1.0
    ) <= 1e-8
    ones = Weight(SampledFunction(grid, np.ones(512)), lambda x: np.ones_like(x))
    checks["weighted->Lebesgue exact"] = abs(
        space_norm(f, WeightedLebesgue(1.7, ones, q_omega=1.0)) / space_norm(f, Lebesgue(1.7)) - 1.0
    ) <= 1e-12
    checks["Orlicz(t^p)->L^p 1e-6"] = abs(
        orlicz_norm(f, power_orlicz(1.7)) / space_norm(f, Lebesgue(1.7)) - 1.0
    ) <= 1e-6
    checks["OrliczSlice(t^p,r=p)->L^p 3%"] = abs(
        space_norm(f, OrliczSlice(power_orlicz(1.7), r=1.7, slice_t=1.0))
        / space_norm(f, Lebesgue(1.7)) - 1.0
    ) <= 0.03
    elapsed = time.time() - t0
    report(6, all(checks.values()),
           "; ".join(f"{k}: {v}" for k, v in checks.items()) + f" ({elapsed:.1f}s)")


def test_criterion_7_maximal_operator():
    t0 = time.time()
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=1024)
    f = indicator_box(grid, [-1.0], [1.0])
    m = hl_maximal(f).values.real
    x = grid.axis_coordinates()
    closed = np.minimum(1.0, 2.0 / (1.0 + np.abs(x)))
    closed_err = float(np.max(np.abs(m - closed) / closed))

    small = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    balls = BallFamily.build(small, 8)
    rng = np.random.default_rng(707)
    fr = SampledFunction(small, rng.normal(size=256))
    fast = hl_maximal(fr, balls).values.real
    mag = np.abs(fr.values)
    brute = np.zeros(small.shape)
    for r in balls.radii:
        mask = small.offset_distances() < r
        sums = np.array([mag[np.roll(mask, i)].sum() for i in range(256)])
        avg = sums * small.cell_volume / ball_volume(r, 1)
        for i in range(256):
            member = np.roll(mask, i)
            brute[i] = max(brute[i], avg[member].max())
    brute_err = float(np.max(np.abs(fast - brute)))

    power_ok = True
    for p in (1.0, 1.5, 2.0):
        mp = hl_maximal(SampledFunction(small, mag**p), balls).values.real
        power_ok &= bool(np.all(fast**p <= mp * (1 + 1e-9) + 1e-300))
    elapsed = time.time() - t0
    report(7, closed_err <= 0.05 and brute_err <= 1e-10 and power_ok,
           f"closed form err {closed_err:.3f} <= 5%, brute-force gap {brute_err:.1e} <= 1e-10, "
           f"power inequality p in {{1,1.5,2}}: {power_ok} ({elapsed:.1f}s)")


def test_criterion_8_muckenhoupt_layer():
    t0 = time.time()
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    ones = Weight(SampledFunction(grid, np.ones(512)), lambda x: np.ones_like(x))
    unit_ok = all(ap_characteristic(ones, p) == pytest.approx(1.0, rel=1e-12)
                  for p in (1.0, 1.5, 2.0, 4.0))
    q = critical_index(power_weight(grid, 0.5))
    q_ok = abs(q - 1.5) <= 0.1
    elapsed = time.time() - t0
    report(8, unit_ok and q_ok,
           f"unit-weight characteristic == 1 ({unit_ok}), critical index of |x|^(1/2) = {q:.3f} "
           f"in 1.5 +/- 0.1 ({q_ok}) ({elapsed:.1f}s)")


def test_criterion_9_tent_decomposition():
    t0 = time.time()
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    scales = ScaleGrid(1 / 16, 2.0, 4)
    plan = build_plan(build_annular_kernel(grid), scales)
    balls = BallFamily.build(grid, 4)
    space = Lebesgue(2.0)
    worst_rec = 0.0
    worst_add = 0.0
    sizes_ok = True
    ratios = []
    for trial in range(20):
        f = trial_function(909, trial, grid)
        F = build_field(f, plan)
        dec = tent_decompose(F, space, balls)
        rebuilt = dec.reconstruct()
        worst_rec = max(worst_rec, float(np.max(np.abs(rebuilt.values - F.values))))
        acc = np.zeros_like(F.values, dtype=float)
        for atom in dec.atoms:
            acc += atom.coefficient * np.abs(atom.field.values)
            for p in (2.0, 4.0):
                lhs = tent_atom_size(atom.field, p)
                rhs = ball_volume(atom.ball.radius, 1) ** (1 / p) / space_norm(
                    ball_indicator(grid, atom.ball), space)
                sizes_ok &= lhs <= rhs * (1 + 1e-9)
        worst_add = max(worst_add, float(np.max(np.abs(acc - np.abs(F.values)))))
        lam = coefficient_functional(dec, space)
        area = space_norm(tent_functional(F, 1.0), space)
        ratios.append(lam / area)
    spread = max(ratios) / min(ratios)
    elapsed = time.time() - t0
    report(9, worst_rec <= 1e-12 and worst_add <= 1e-12 and sizes_ok and spread <= 10.0,
           f"reconstruction {worst_rec:.1e} <= 1e-12, additivity {worst_add:.1e}, "
           f"atom sizes ok ({sizes_ok}), coefficient spread {spread:.2f} <= 10 ({elapsed:.1f}s)")


def test_criterion_10_molecule_synthesis():
    t0 = time.time()
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    scales = ScaleGrid(1 / 16, 2.0, 4)
    plan = build_plan(build_annular_kernel(grid), scales)
    pair = calderon_companion(build_annular_kernel(grid), ScaleGrid(1 / 16, 16.0, 8))
    space = Lebesgue(2.0)
    balls = BallFamily.build(grid, 4)
    mean_ok = True
    for trial in range(5):
        f = trial_function(1010, trial, grid)
        dec = tent_decompose(build_field(f, plan), space, balls)
        for atom in dec.atoms:
            mol = synthesize_molecule(atom, pair.psi)
            l1 = float(np.sum(np.abs(mol.func.values)) * grid.cell_volume)
            if l1 == 0.0:
                continue
            mean = abs(complex(np.sum(mol.func.values) * grid.cell_volume))
            mean_ok &= mean <= 1e-8 * l1

    # single-cell oracle
    from lpx.transforms import spatial_kernel

    vals = np.zeros((256, len(scales)), dtype=complex)
    k_cell = len(scales) - 1  # top scale keeps the dilated band inside Nyquist
    vals[77, k_cell] = 1.5
    atom = atom_from_field(one_field(grid, scales, vals), Ball(center=(77,), radius=4.0), 1.0)
    mol = synthesize_molecule(atom, pair.psi)
    t_cell = scales.scales[k_cell]
    expected = 1.5 * np.roll(spatial_kernel(pair.psi, t_cell), 77) * grid.cell_volume * scales.log_weight
    cell_err = float(np.max(np.abs(mol.func.values - expected)) / np.max(np.abs(expected)))
    elapsed = time.time() - t0
    report(10, mean_ok and cell_err <= 1e-10,
           f"zero mean <= 1e-8 rel for all synthesized molecules ({mean_ok}), "
           f"single-cell oracle gap {cell_err:.1e} <= 1e-10 ({elapsed:.1f}s)")


def test_criterion_11_verify_suite_deterministic(tmp_path):
    t0 = time.time()
    from lpx.cli import main

    cfg = {
        "version": 1,
        "grid": {"dim": 1, "N": 512, "L": 8.0},
        "scales": {"t_min": 0.0625, "t_max": 16.0, "steps_per_octave": 8},
        "kernel": "annular",
        "space": {"tag": "lebesgue", "p": 2.0},
        "seed": 42,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = main(["--config", str(cfg_path), "--out", str(out1), "verify"])
    code2 = main(["--config", str(cfg_path), "--out", str(out2), "verify"])
    identical = all(
        (out1 / p.name).read_bytes() == (out2 / p.name).read_bytes()
        for p in sorted(out1.iterdir())
    )
    n_reports = len(list(out1.glob("*.json")))
    elapsed = time.time() - t0
    report(11, code1 == 0 and code2 == 0 and identical and n_reports == 4,
           f"verify exit 0 ({code1}, {code2}), {n_reports} JSON reports, "
           f"byte-identical reruns ({identical}) ({elapsed:.1f}s)")
