import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from lpx.errors import LambdaTooSmall
from lpx.grid import (
    GridSpec,
    HalfSpaceField,
    SampledFunction,
    ScaleGrid,
    gaussian_bump,
    halfspace_integrate,
    pure_frequency,
)
from lpx.kernels import build_annular_kernel
from lpx.squarefuncs import g_function, g_lambda_star, lusin_area, tent_functional
from lpx.transforms import build_field, build_plan

GRID = GridSpec(dim=1, half_width=8.0, points_per_axis=1024)
SCALES = ScaleGrid(t_min=1 / 16, t_max=16.0, steps_per_octave=8)


@pytest.fixture(scope="module")
def plan():
    return build_plan(build_annular_kernel(GRID), SCALES)


def test_tent_functional_zero_field():
    F = HalfSpaceField(GRID, SCALES, np.zeros((1024, len(SCALES))))
    assert np.all(tent_functional(F, 1.0).values == 0.0)


def test_tent_functional_matches_halfspace_integrate_pointwise():
    rng = np.random.default_rng(0)
    grid = GridSpec(dim=1, half_width=4.0, points_per_axis=64)
    scales = ScaleGrid(0.25, 4.0, 4)
    F = HalfSpaceField(grid, scales, rng.normal(size=(64, len(scales))))
    out = tent_functional(F, 1.0)
    # direct masked quadrature at a few sample points
    for i in (0, 10, 33):
        x0 = grid.axis_coordinates()[i]

        def cone(mesh, t):
            d = np.abs(mesh[0] - x0)
            d = np.minimum(d, 2 * grid.half_width - d)  # torus distance
            return d < t

        direct = halfspace_integrate(F, cone)
        assert out.values.real[i] ** 2 == pytest.approx(direct, rel=1e-10)


def test_tent_functional_indicator_refined_oracle():
    # indicator of {|y| < 1} x {1 <= t < 2}: at x = 0, the cone integral of
    # int int_{|y| < min(1, t), 1 <= t < 2} dy dt / t^2, against a 4x-refined rule
    def value(n, j):
        grid = GridSpec(dim=1, half_width=4.0, points_per_axis=n)
        scales = ScaleGrid(0.25, 4.0, j)
        y = grid.axis_coordinates()
        vals = np.zeros((n, len(scales)))
        for k, t in enumerate(scales.scales):
            if 1.0 <= t < 2.0:
                vals[:, k] = (np.abs(y) < 1.0).astype(float)
        F = HalfSpaceField(grid, scales, vals)
        out = tent_functional(F, 1.0)
        return out.values.real[np.argmin(np.abs(y))] ** 2

    assert value(256, 8) == pytest.approx(value(1024, 32), rel=0.02)


def test_tent_functional_monotone_in_aperture():
    rng = np.random.default_rng(1)
    grid = GridSpec(dim=1, half_width=4.0, points_per_axis=128)
    scales = ScaleGrid(0.125, 2.0, 4)
    F = HalfSpaceField(grid, scales, rng.normal(size=(128, len(scales))))
    a1 = tent_functional(F, 1.0).values.real
    a2 = tent_functional(F, 2.0).values.real
    assert np.all(a2 >= a1 - 1e-12)


def test_lusin_area_is_tent_of_field(plan):
    f = gaussian_bump(GRID, [0.4], 0.5)
    F = build_field(f, plan)
    direct = tent_functional(F, 1.0)
    via = lusin_area(F)
    assert np.array_equal(via.values, direct.values)


def test_g_function_pure_frequency_oracle(plan):
    f = pure_frequency(GRID, [48])  # |xi| = 3
    g = g_function(build_field(f, plan)).values.real
    ts = SCALES.scales
    oracle = np.sqrt(np.sum(plan.kernel.profile(3.0 * ts) ** 2) * SCALES.log_weight)
    assert np.max(np.abs(g - oracle)) <= 1e-6 * oracle


def test_g_function_zero(plan):
    z = SampledFunction(GRID, np.zeros(1024))
    assert np.all(g_function(build_field(z, plan)).values == 0.0)


def test_lusin_area_pure_frequency_is_sqrt2_g(plan):
    F = build_field(pure_frequency(GRID, [48]), plan)
    s = lusin_area(F).values.real
    g = g_function(F).values.real
    # the 1-D unit ball has measure 2, so S ~ sqrt(2) g for flat spectra
    ref = np.sqrt(2.0) * g
    assert np.max(np.abs(s - ref) / ref) < 0.05
    ts = SCALES.scales
    prof2 = plan.kernel.profile(3.0 * ts) ** 2
    oracle = np.sqrt(2.0 * np.sum(prof2) * SCALES.log_weight)
    assert s[0] == pytest.approx(oracle, rel=0.05)


def test_lusin_homogeneity(plan):
    f = gaussian_bump(GRID, [0.0], 0.4)
    s1 = lusin_area(build_field(f, plan)).values.real
    s2 = lusin_area(build_field(-2.0 * f, plan)).values.real
    assert np.allclose(s2, 2.0 * s1, rtol=1e-12, atol=1e-300)


def test_g_lambda_star_requires_lambda_above_one(plan):
    f = gaussian_bump(GRID, [0.0], 0.4)
    with pytest.raises(LambdaTooSmall):
        g_lambda_star(build_field(f, plan), 1.0)


def test_g_lambda_star_pure_frequency_truncated_weight_oracle(plan):
    lam = 2.0
    f = pure_frequency(GRID, [48])
    gs = g_lambda_star(build_field(f, plan), lam).values.real
    ts = SCALES.scales
    L = GRID.half_width
    total = 0.0
    for t in ts:
        amp2 = float(plan.kernel.profile(np.array([3.0 * t]))[0]) ** 2
        if amp2 == 0.0:
            continue
        # weight integral over the box with the torus distance profile
        w, _ = scipy_integrate.quad(lambda u: (t / (t + abs(u))) ** lam, -L, L)
        total += amp2 * w / t * SCALES.log_weight
    oracle = np.sqrt(total)
    assert np.max(np.abs(gs - oracle) / oracle) < 0.05


def test_g_lambda_star_zero(plan):
    z = SampledFunction(GRID, np.zeros(1024))
    assert np.all(g_lambda_star(build_field(z, plan), 2.0).values == 0.0)


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
def test_pointwise_domination_s_by_glambda(plan, lam):
    rng = np.random.default_rng(int(10 * lam))
    spectrum = np.zeros(1024, dtype=complex)
    band = (GRID.frequency_radii() > 1.0) & (GRID.frequency_radii() < 6.0)
    spectrum[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
    F = build_field(SampledFunction(GRID, np.fft.ifft(spectrum)), plan)
    s = lusin_area(F).values.real
    gs = g_lambda_star(F, lam).values.real
    bound = 2.0 ** (lam * GRID.dim / 2.0) * gs
    assert np.all(s <= bound * (1 + 1e-12) + 1e-300)


def test_pointwise_domination_2d():
    grid = GridSpec(dim=2, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(0.125, 2.0, 4)
    plan = build_plan(build_annular_kernel(grid), scales)
    rng = np.random.default_rng(7)
    F = build_field(SampledFunction(grid, rng.normal(size=(64, 64))), plan)
    s = lusin_area(F).values.real
    for lam in (1.5, 2.0, 3.0):
        gs = g_lambda_star(F, lam).values.real
        bound = 2.0 ** (lam * grid.dim / 2.0) * gs
        assert np.all(s <= bound * (1 + 1e-12) + 1e-300)


def test_g_below_weighted_column_bound(plan):
    # the y=x column of the weighted sum dominates cell_volume * t^-n times
    # the summand of g^2 at each scale
    f = gaussian_bump(GRID, [0.1], 0.3)
    F = build_field(f, plan)
    gs = g_lambda_star(F, 2.0).values.real
    col = np.abs(F.values) ** 2
    ts = SCALES.scales
    contrib = (col * (GRID.cell_volume / ts**GRID.dim) * SCALES.log_weight).sum(axis=-1)
    assert np.all(gs**2 >= contrib - 1e-14)


def test_subadditivity_of_square_functions(plan):
    rng = np.random.default_rng(9)
    f = SampledFunction(GRID, rng.normal(size=1024))
    g = SampledFunction(GRID, rng.normal(size=1024))
    for op in (lusin_area, g_function, lambda F: g_lambda_star(F, 2.0)):
        a = op(build_field(f, plan)).values.real
        b = op(build_field(g, plan)).values.real
        ab = op(build_field(f + g, plan)).values.real
        assert np.all(ab <= a + b + 1e-10)


def test_monotone_in_scale_window():
    f = gaussian_bump(GRID, [0.0], 0.4)
    narrow = build_plan(build_annular_kernel(GRID), ScaleGrid(1 / 8, 2.0, 8))
    wide = build_plan(build_annular_kernel(GRID), ScaleGrid(1 / 32, 8.0, 8))
    for op in (lusin_area, g_function):
        a = op(build_field(f, narrow)).values.real
        b = op(build_field(f, wide)).values.real
        assert np.all(b >= a - 1e-12)
