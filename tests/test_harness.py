import numpy as np
import pytest

from lpx.errors import ConeOverflow
from lpx.grid import GridSpec, SampledFunction, ScaleGrid, concentration_defect, gaussian_bump, pure_frequency
from lpx.harness import (
    change_of_angle_experiment,
    default_lambda,
    embedding_experiment,
    equivalence_experiment,
    trial_function,
    vanish_at_infinity_check,
)
from lpx.kernels import build_annular_kernel
from lpx.grid import HalfSpaceField
from lpx.spaces import Lebesgue, Morrey
from lpx.squarefuncs import tent_functional
from lpx.transforms import build_field, build_plan

GRID = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
SCALES = ScaleGrid(1 / 16, 16.0, 8)
ANGLE_SCALES = ScaleGrid(1 / 16, 1.0, 8)


def test_trial_family_concentrated_and_deterministic():
    for i in range(8):
        f = trial_function(3, i, GRID)
        assert concentration_defect(f) <= 1e-6
        again = trial_function(3, i, GRID)
        assert np.array_equal(f.values, again.values)
    different = trial_function(4, 0, GRID)
    assert not np.array_equal(different.values, trial_function(3, 0, GRID).values)


def test_default_lambda():
    assert default_lambda(Lebesgue(2.0)) == pytest.approx(1.5)
    assert default_lambda(Morrey(2.0, 1.0)) == pytest.approx(2.5)


def test_equivalence_requires_enough_trials():
    with pytest.raises(ValueError):
        equivalence_experiment(Lebesgue(2.0), "annular", 5, GRID, SCALES)


def test_equivalence_experiment_l2():
    rep = equivalence_experiment(Lebesgue(2.0), "annular", 12, GRID, SCALES, seed=1)
    assert rep.passed
    assert rep.summary["worst_spread"] <= 10.0
    assert rep.summary["domination_ok"] == 1.0
    # thresholds are recorded next to the measurements
    assert rep.thresholds["spread_max"] == 10.0


def test_equivalence_pure_frequency_family_tight_gstar_ratio():
    # for one-frequency inputs the ratio of the weighted to the vertical
    # square function is a fixed weight integral: spread stays near 1
    plan = build_plan(build_annular_kernel(GRID), SCALES)
    from lpx.squarefuncs import g_function, g_lambda_star
    ratios = []
    for k in (20, 24, 28, 32):
        F = build_field(pure_frequency(GRID, [k]), plan)
        g = g_function(F).values.real.mean()
        gs = g_lambda_star(F, 2.0).values.real.mean()
        ratios.append(gs / g)
    assert max(ratios) / min(ratios) <= 1.1


def test_equivalence_report_roundtrip_json():
    rep = equivalence_experiment(Lebesgue(2.0), "annular", 10, GRID, SCALES, seed=2)
    blob = rep.to_json()
    assert '"passed"' in blob
    csv = rep.to_csv()
    assert csv.splitlines()[0].startswith("trial,")
    assert len(csv.splitlines()) == 11


def test_change_of_angle_l2_slope():
    rep = change_of_angle_experiment(Lebesgue(2.0), (1.0, 2.0, 4.0, 8.0), 10, GRID, ANGLE_SCALES, seed=3)
    assert rep.passed
    assert rep.summary["fitted_exponent"] <= 0.5 + 0.15
    assert rep.summary["monotone_ok"] == 1.0


def test_change_of_angle_single_cell_field_saturates():
    # one deep cell is inside every cone once alpha t exceeds its distance:
    # the norms stop growing, so the slope stays near zero
    vals = np.zeros((256, len(ANGLE_SCALES)))
    vals[128, -1] = 1.0
    F = HalfSpaceField(GRID, ANGLE_SCALES, vals)
    norms = [tent_functional(F, a).values.real for a in (1.0, 2.0, 4.0, 8.0)]
    t_top = ANGLE_SCALES.scales[-1]
    x = GRID.axis_coordinates()
    center = x[128]
    for a, n in zip((1.0, 2.0, 4.0, 8.0), norms):
        inside = np.abs(x - center) < a * t_top
        assert np.allclose(n[inside] > 0, True)
    # at points well inside the narrowest cone the value is aperture-free
    core = np.abs(x - center) < 1.0 * ANGLE_SCALES.scales[-1]
    assert np.allclose(norms[0][core], norms[3][core], rtol=1e-12)


def test_change_of_angle_cone_overflow():
    with pytest.raises(ConeOverflow):
        change_of_angle_experiment(Lebesgue(2.0), (1.0, 8.0), 10, GRID, SCALES)


def test_embedding_experiment_lebesgue_ratios_below_one():
    rep = embedding_experiment(Lebesgue(2.0), 2.0, 8, GRID, seed=4)
    assert rep.passed
    # the embedding weight is at most 1, so these ratios never exceed 1
    assert rep.summary["max_ratio"] <= 1.0 + 1e-10


def test_embedding_scaling_and_determinism():
    from lpx.harness import embedding_weight
    from lpx.spaces import WeightedLebesgue, space_norm
    from lpx.grid import indicator_ball

    # scaling f leaves the ratio unchanged (both norms are homogeneous)
    weight = embedding_weight(GRID)
    target = WeightedLebesgue(2.0, weight, q_omega=1.0)
    f = gaussian_bump(GRID, [0.3], 0.4)
    r1 = space_norm(f, target) / space_norm(f, Lebesgue(2.0))
    r2 = space_norm(2.0 * f, target) / space_norm(2.0 * f, Lebesgue(2.0))
    assert r2 == pytest.approx(r1, rel=1e-12)
    # the unit-ball indicator gives explicit norms on both sides
    ind = indicator_ball(GRID, [0.0], 1.0)
    ratio = space_norm(ind, target) / space_norm(ind, Lebesgue(2.0))
    assert 0.0 < ratio <= 1.0 + 1e-10
    # reruns with the same seed reproduce the series bit for bit
    rep1 = embedding_experiment(Lebesgue(2.0), 2.0, 6, GRID, seed=5)
    rep2 = embedding_experiment(Lebesgue(2.0), 2.0, 6, GRID, seed=5)
    assert rep1.series == rep2.series


def test_vanish_check_bump_and_constant():
    kernel = build_annular_kernel(GRID)
    bump = gaussian_bump(GRID, [0.0], 0.5)
    # probes must clear the lowest grid frequency: t >= 8 * 2L = 256
    probe = tuple(1 / 16 * 2.0**k for k in range(13))
    out = vanish_at_infinity_check(bump, kernel, probe)
    assert out["passed"]
    assert out["sup_norms"][-1] == 0.0
    constant = SampledFunction(GRID, np.ones(256))
    out_c = vanish_at_infinity_check(constant, kernel, probe)
    assert all(v == 0.0 for v in out_c["sup_norms"])
    assert out_c["passed"]


def test_vanish_check_pure_frequency_cutoff():
    kernel = build_annular_kernel(GRID)
    f = pure_frequency(GRID, [48])  # |xi| = 3
    probe = tuple(1 / 16 * 2.0**k for k in range(9))
    out = vanish_at_infinity_check(f, kernel, probe)
    for t, v in zip(out["t_probe"], out["sup_norms"]):
        expected = float(kernel.profile(np.array([3.0 * t]))[0])
        assert v == pytest.approx(expected, abs=1e-10)
    # band left behind once t|xi| > 8 (up to FFT noise in neighboring bins)
    assert out["sup_norms"][-1] <= out["floor"]


def test_lambda_below_range_warns():
    import warnings as _w

    with _w.catch_warnings(record=True) as caught:
        _w.simplefilter("always")
        equivalence_experiment(Lebesgue(0.5), "annular", 10, GRID, SCALES, seed=9, lam=1.2)
    assert any("below the equivalence range" in str(c.message) for c in caught)
