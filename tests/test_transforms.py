import numpy as np
import pytest

from lpx.errors import DualRangeTooSmall
from lpx.grid import GridSpec, SampledFunction, ScaleGrid, pure_frequency
from lpx.kernels import build_annular_kernel, build_kernel, build_weak_kernel, calderon_companion
from lpx.transforms import (apply_multiplier, build_field, build_fields, build_plan, convolve_at_scale, correlate,
                            spectrum, spatial_kernel)

GRID = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
SCALES = ScaleGrid(t_min=1 / 16, t_max=16.0, steps_per_octave=8)


@pytest.fixture(scope="module")
def plan():
    return build_plan(build_annular_kernel(GRID), SCALES)


GRID_2D = GridSpec(dim=2, half_width=2.0, points_per_axis=32)
SCALES_2D = ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4)


@pytest.fixture(scope="module")
def plan_2d():
    return build_plan(build_weak_kernel(GRID_2D), SCALES_2D)


def test_multiplier_table_matches_recomputation(plan, plan_2d):
    for p in (plan, plan_2d):
        radii = p.grid.frequency_radii()
        assert p.multipliers.shape == (len(p.scales),) + p.grid.shape
        for k, t in enumerate(p.scales.scales):
            assert np.array_equal(p.multipliers[k], p.kernel.profile(t * radii))


def _field_reference(f, plan):
    """The per-scale loop that the batched build_field replaced: one real
    inverse FFT per scale of the real FFT of the input, the imaginary part of
    a complex input done separately and added as ``re + 1j * im``."""
    grid = plan.grid
    half = plan.multipliers[..., : grid.points_per_axis // 2 + 1]

    def real_field(values):
        spectrum = np.fft.rfftn(values)
        out = np.empty(grid.shape + (len(plan.scales),))
        for k in range(len(plan.scales)):
            out[..., k] = np.fft.irfftn(spectrum * half[k], s=grid.shape, axes=tuple(range(grid.dim)))
        return out

    out = real_field(f.values.real)
    return out + 1j * real_field(f.values.imag) if np.iscomplexobj(f.values) else out


def _complex_field_reference(f, plan):
    """The complex per-scale loop: one complex inverse FFT per scale of the
    complex FFT of the input."""
    spectrum = np.fft.fftn(f.values)
    out = np.empty(plan.grid.shape + (len(plan.scales),), dtype=np.complex128)
    for k in range(len(plan.scales)):
        out[..., k] = np.fft.ifftn(spectrum * plan.multipliers[k])
    return out


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("which", ["plan", "plan_2d"], ids=["1d-512", "2d-32"])
def test_build_field_matches_per_scale_reference_bitwise(which, complex_input, request):
    plan = request.getfixturevalue(which)
    rng = np.random.default_rng(len(plan.scales))
    values = rng.normal(size=plan.grid.shape)
    if complex_input:
        values = values + 1j * rng.normal(size=plan.grid.shape)
    f = SampledFunction(plan.grid, values)
    F = build_field(f, plan)
    assert F.values.shape == (1,) + plan.grid.shape + (len(plan.scales),)  # a stack of one
    assert np.array_equal(F.values[0], _field_reference(f, plan))
    # the scale axis is innermost in memory, as in the per-scale filled array, so
    # reductions over it (g_function's sum) keep their summation order
    assert F.values.flags.c_contiguous


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("which", ["plan", "plan_2d"], ids=["1d-512-annular", "2d-32-weak"])
def test_build_field_matches_the_complex_per_scale_loop(which, complex_input, request):
    # an independent oracle: one complex transform pair per scale
    plan = request.getfixturevalue(which)
    rng = np.random.default_rng(len(plan.scales) + 1)
    values = rng.normal(size=plan.grid.shape)
    if complex_input:
        values = values + 1j * rng.normal(size=plan.grid.shape)
    f = SampledFunction(plan.grid, values)
    oracle = _complex_field_reference(f, plan)
    assert np.max(np.abs(build_field(f, plan).values - oracle)) <= 2e-15 * np.max(np.abs(oracle))


@pytest.mark.parametrize("which", ["plan", "plan_2d"], ids=["1d-512", "2d-32"])
def test_build_fields_rows_are_the_one_input_fields_bitwise(which, request):
    plan = request.getfixturevalue(which)
    rng = np.random.default_rng(7)
    fs = [SampledFunction(plan.grid, rng.normal(size=plan.grid.shape)),
          SampledFunction(plan.grid, rng.normal(size=plan.grid.shape) + 1j * rng.normal(size=plan.grid.shape)),
          SampledFunction(plan.grid, np.zeros(plan.grid.shape))]
    F = build_fields(fs, plan)
    assert F.values.shape == (3,) + plan.grid.shape + (len(plan.scales),)
    assert F.values.flags.c_contiguous
    for f, row in zip(fs, F.values):
        assert np.array_equal(row, build_field(f, plan).values[0])
        assert np.array_equal(row, _field_reference(f, plan))


def test_pure_frequency_diagonalization(plan):
    f = pure_frequency(GRID, [48])  # |xi| = 3
    t = SCALES.scales[20]
    out = convolve_at_scale(f, plan.kernel, t)
    expected = plan.kernel.profile(np.array([3.0 * t]))[0]
    assert np.allclose(out.values, expected * f.values, atol=1e-12)


def test_scale_below_band_kills_everything(plan):
    # t such that t * Nyquist < 1 zeroes the annular multiplier entirely
    t = 0.9 / GRID.nyquist
    rng = np.random.default_rng(0)
    f = SampledFunction(GRID, rng.normal(size=512))
    out = convolve_at_scale(f, plan.kernel, t)
    assert np.allclose(out.values, 0.0, atol=1e-14)


def test_delta_convolution_matches_spatial_kernel(plan):
    # a one-cell delta of unit mass reproduces the sampled kernel
    vals = np.zeros(512)
    vals[100] = 1.0 / GRID.cell_volume
    f = SampledFunction(GRID, vals)
    t = SCALES.scales[24]
    out = convolve_at_scale(f, plan.kernel, t)
    k = spatial_kernel(plan.kernel, t)
    expected = np.roll(k, 100)
    assert np.max(np.abs(out.values - expected)) <= 1e-10 * np.max(np.abs(k))


def test_build_field_shape_and_zero(plan):
    zero = SampledFunction(GRID, np.zeros(512))
    F = build_field(zero, plan)
    assert F.values.shape == (1, 512, len(SCALES))
    assert np.all(F.values == 0)


def test_field_modulus_constant_for_pure_frequency(plan):
    f = pure_frequency(GRID, [40])
    F = build_field(f, plan)
    mods = np.abs(F.values[0])
    assert np.allclose(mods, mods[:1, :], atol=1e-12)


def test_plancherel_per_scale(plan):
    rng = np.random.default_rng(5)
    f = SampledFunction(GRID, rng.normal(size=512) + 1j * rng.normal(size=512))
    F = build_field(f, plan)
    spectrum = np.fft.fft(f.values)
    n = GRID.points_per_axis
    for k in (0, 17, 40):
        lhs = np.sum(np.abs(F.values[0, :, k]) ** 2) * GRID.cell_volume
        rhs = np.sum(np.abs(spectrum * plan.multipliers[k]) ** 2) * GRID.cell_volume / n**2 * n
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_linearity_and_shift_equivariance(plan):
    rng = np.random.default_rng(6)
    f = SampledFunction(GRID, rng.normal(size=512))
    g = SampledFunction(GRID, rng.normal(size=512))
    t = SCALES.scales[30]
    lhs = convolve_at_scale(f + g, plan.kernel, t)
    rhs = convolve_at_scale(f, plan.kernel, t) + convolve_at_scale(g, plan.kernel, t)
    assert np.allclose(lhs.values, rhs.values, atol=1e-13)
    shifted = SampledFunction(GRID, np.roll(f.values, 37))
    out_shifted = convolve_at_scale(shifted, plan.kernel, t)
    out_rolled = np.roll(convolve_at_scale(f, plan.kernel, t).values, 37)
    assert np.allclose(out_shifted.values, out_rolled, atol=1e-12)


def test_disjoint_band_orthogonality(plan):
    rng = np.random.default_rng(8)
    f = SampledFunction(GRID, rng.normal(size=512))
    # supports of phi_hat(t .) and phi_hat(t' .) are disjoint once t/t' >= 8
    t1, t2 = 0.125, 2.0
    a = convolve_at_scale(f, plan.kernel, t1).values
    b = convolve_at_scale(f, plan.kernel, t2).values
    inner = np.vdot(a, b) * GRID.cell_volume
    assert abs(inner) <= 1e-12 * max(np.linalg.norm(a), np.linalg.norm(b)) ** 2


def test_wraparound_warning_flag():
    kernel = build_annular_kernel(GRID)
    tight = build_plan(kernel, ScaleGrid(t_min=1 / 16, t_max=1.0, steps_per_octave=4))
    # t_max=1: multiplier alive across the band -> warning set
    assert tight.wraparound_warning
    kernel2 = build_weak_kernel(GridSpec(dim=1, half_width=1.0, points_per_axis=64))
    wide = build_plan(kernel2, ScaleGrid(t_min=1.0, t_max=4096.0, steps_per_octave=4))
    # at t = 4096 the weak profile is flat below 1e-8 beyond the lowest band
    assert not wide.wraparound_warning


def test_2d_pure_frequency_diagonalization():
    grid = GridSpec(dim=2, half_width=4.0, points_per_axis=128)
    scales = ScaleGrid(t_min=0.125, t_max=4.0, steps_per_octave=4)
    plan = build_plan(build_annular_kernel(grid), scales)
    f = pure_frequency(grid, [16, 8])  # xi = (2, 1), |xi| = sqrt(5)
    t = scales.scales[5]
    out = convolve_at_scale(f, plan.kernel, t)
    expected = plan.kernel.profile(np.array([np.sqrt(5.0) * t]))[0]
    assert np.allclose(out.values, expected * f.values, atol=1e-12)


def _torus_sum(values, kernel):
    """Direct O(N^(2d)) sum_y values[y] * kernel[x - y] on the torus."""
    shape = values.shape
    out = np.zeros(shape, dtype=np.result_type(values, kernel))
    for x in np.ndindex(shape):
        for y in np.ndindex(shape):
            out[x] += values[y] * kernel[tuple((a - b) % n for a, b, n in zip(x, y, shape))]
    return out


@pytest.mark.parametrize("shape", [(16,), (8, 8)], ids=["1d-16", "2d-8x8"])
def test_correlate_matches_direct_torus_sum(shape):
    rng = np.random.default_rng(len(shape))
    values, kernel = rng.normal(size=shape), rng.normal(size=shape)
    slow = _torus_sum(values, kernel)
    dim = len(shape)
    fast = correlate(values, spectrum(kernel, dim), dim)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))
    # a leading batch axis on either side runs each row exactly as the unbatched call
    stack = np.stack([values, kernel, values * kernel])
    batched = correlate(stack, spectrum(stack, dim), dim)
    assert all(np.array_equal(batched[i], correlate(v, spectrum(v, dim), dim)) for i, v in enumerate(stack))
    broadcast = correlate(values, spectrum(stack, dim), dim)
    assert all(np.array_equal(broadcast[i], correlate(values, spectrum(k, dim), dim)) for i, k in enumerate(stack))


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)], ids=["1d-16", "2d-8x8"])
def test_apply_multiplier_matches_spatial_kernel_sum(dim, n):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    kernel = build_weak_kernel(grid)
    t = 0.5
    rng = np.random.default_rng(dim)
    f = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    slow = grid.cell_volume * _torus_sum(f, spatial_kernel(kernel, t))
    fast = apply_multiplier(f, kernel.multiplier(t))
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def test_a_plan_is_built_once_per_kernel_and_scales():
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(1 / 16, 16.0, 8)
    for cache in (build_kernel, calderon_companion, build_plan):
        cache.cache_clear()
    plan = build_plan(build_kernel("annular", grid), scales)
    with pytest.raises(ValueError):
        plan.multipliers[0, 0] = 0.0
    # a kernel built again is equal to the cached one, so its plan is a hit
    again = build_annular_kernel(grid)
    assert again is not plan.kernel and again == plan.kernel
    assert build_plan(again, scales) is plan
    assert build_kernel("annular", grid) is plan.kernel
    # one companion per (kernel, scales), so one psi and one psi plan
    pair = calderon_companion(again, scales)
    assert calderon_companion(plan.kernel, scales) is pair
    assert build_plan(calderon_companion(again, scales).psi, scales) is build_plan(pair.psi, scales)
    assert build_plan(again, ScaleGrid(1 / 16, 2.0, 8)) is not plan
    assert [c.cache_info().misses for c in (build_kernel, calderon_companion, build_plan)] == [1, 1, 3]
    # a kernel that cannot be built leaves nothing in the cache
    with pytest.raises(DualRangeTooSmall):
        build_kernel("annular", GridSpec(dim=1, half_width=8.0, points_per_axis=64))
    assert build_kernel.cache_info().currsize == 1
