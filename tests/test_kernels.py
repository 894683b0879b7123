import numpy as np
import pytest

from helpers import assert_admissible, band_coverage_loop, band_limited_trial
from lpx.errors import BandCoverageError, DegenerateKernel, DualRangeTooSmall
from lpx.grid import GridSpec, SampledFunction, ScaleGrid, pure_frequency
from lpx.kernels import (
    KernelKind,
    ReproducingPair,
    annular_profile,
    band_coverage,
    build_annular_kernel,
    build_kernel,
    build_weak_kernel,
    calderon_companion,
    reproduce,
    smooth_step,
    weak_profile,
    write_kernel_csv,
)
from lpx.spaces import Lebesgue, space_norm
from lpx.transforms import spatial_kernel

GRID = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
SCALES = ScaleGrid(t_min=1 / 32, t_max=32.0, steps_per_octave=8)


def test_smooth_step_endpoints_and_monotone():
    assert smooth_step(np.array([0.0]))[0] == 0.0
    assert smooth_step(np.array([1.0]))[0] == 1.0
    # float64 saturates within ~0.05 of the endpoints, so probe inside that
    u = np.linspace(0.05, 0.95, 181)
    s = smooth_step(u)
    assert np.all(np.diff(s) > 0)
    assert np.all((s > 0) & (s < 1))


def test_annular_profile_values():
    assert annular_profile(np.array([3.0]))[0] == 1.0
    assert annular_profile(np.array([0.0]))[0] == 0.0
    assert annular_profile(np.array([0.5, 1.0, 8.0, 9.0])).tolist() == [0, 0, 0, 0]
    v = annular_profile(np.array([1.5]))[0]
    assert 0.0 < v < 1.0
    # strictly monotone across the rising edge
    edge = annular_profile(np.linspace(1.05, 1.95, 50))
    assert np.all(np.diff(edge) > 0)


def test_annular_kernel_invariants():
    k = build_annular_kernel(GRID)
    assert_admissible(k)
    assert k.kind is KernelKind.ANNULAR


def test_annular_kernel_requires_dual_range():
    small = GridSpec(dim=1, half_width=8.0, points_per_axis=64)  # Nyquist = 2
    with pytest.raises(DualRangeTooSmall):
        build_annular_kernel(small)


def test_weak_kernel_peak():
    # argmax of the profile is at r = 1/(2*pi) with value exactly 1
    r_star = 1.0 / (2.0 * np.pi)
    assert weak_profile(np.array([r_star]))[0] == pytest.approx(1.0, rel=1e-12)
    r = np.linspace(1e-4, 2.0, 20001)
    vals = weak_profile(r)
    assert abs(r[np.argmax(vals)] - r_star) < 2e-4
    assert weak_profile(np.array([0.0]))[0] == 0.0


def test_weak_kernel_witnesses():
    k = build_weak_kernel(GRID)
    assert k.kind is KernelKind.WEAK
    assert_admissible(k)


ORACLE_GRIDS = [GridSpec(1, 2.0, 64), GRID, GridSpec(2, 0.5, 16), GridSpec(2, 2.0, 64)]
ORACLE_IDS = ["1d-64-L2", "1d-512-L8", "2d-16-L0.5", "2d-64-L2"]


@pytest.mark.parametrize("kind", [k.value for k in KernelKind])
@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_every_kernel_is_admissible_by_construction(grid, kind):
    # the profiles are fixed, so the contract holds on every grid with no check at build time
    assert_admissible(build_kernel(kind, grid))


def test_spatial_kernel_has_vanishing_mean():
    for build in (build_annular_kernel, build_weak_kernel):
        k = build(GRID)
        spatial = spatial_kernel(k, 1.0)
        mean = np.sum(spatial) * GRID.cell_volume
        l1 = np.sum(np.abs(spatial)) * GRID.cell_volume
        assert abs(mean) <= 1e-10 * l1


def test_companion_normalization_against_fine_quadrature():
    phi = build_annular_kernel(GRID)
    pair = calderon_companion(phi, SCALES)
    assert 0.999 <= pair.normalization_check <= 1.001
    # independent oracle: very fine log-spaced midpoint rule over the band
    r = 0.5 * 2.0 ** ((np.arange(0, 6 * 4096) + 0.5) / 4096)
    w = np.log(2.0) / 4096
    oracle = float(np.sum(phi.profile(r) * pair.psi.profile(r)) * w)
    assert oracle == pytest.approx(1.0, abs=1e-3)


def test_companion_product_nonnegative_and_supported_away_from_zero():
    phi = build_annular_kernel(GRID)
    pair = calderon_companion(phi, SCALES)
    prod = phi.fourier_values * pair.psi.fourier_values
    assert np.all(prod >= 0.0)
    radii = GRID.frequency_radii()
    lo, hi = pair.support
    assert np.all(pair.psi.fourier_values[(radii <= lo) | (radii >= hi)] == 0.0)


def test_companion_scaling_invariance():
    phi = build_annular_kernel(GRID)
    pair1 = calderon_companion(phi, SCALES)
    phi2 = type(phi)(grid=phi.grid, kind=phi.kind, profile=lambda r: 2.0 * annular_profile(r))
    pair2 = calderon_companion(phi2, SCALES)
    # psi halves, the normalization check is unchanged
    assert np.allclose(pair2.psi.fourier_values, 0.5 * pair1.psi.fourier_values)
    assert pair2.normalization_check == pytest.approx(pair1.normalization_check, rel=1e-12)


def test_companion_weak_kernel():
    phi = build_weak_kernel(GRID)
    pair = calderon_companion(phi, SCALES)
    assert 0.999 <= pair.normalization_check <= 1.001


def test_companion_degenerate_when_band_missed():
    phi = build_annular_kernel(GRID)
    off_band = ScaleGrid(t_min=1024.0, t_max=8192.0, steps_per_octave=4)
    with pytest.raises(DegenerateKernel):
        calderon_companion(phi, off_band)


# the coverage check squares the spectrum's magnitudes scaled to unit max:
# unscaled, they overflowed at 1e300 and all underflowed at 1e-300, which let
# any input through
AMPLITUDES = (1.0, 1e-300, 1e300)


def test_reproduce_pure_frequency():
    phi = build_annular_kernel(GRID)
    pair = calderon_companion(phi, SCALES)
    # Fourier-side scalar oracle at |xi| = 3
    ts = SCALES.scales
    factor = float(np.sum(phi.profile(3 * ts) * pair.psi.profile(3 * ts)) * SCALES.log_weight)
    for amplitude in AMPLITUDES:
        f = amplitude * pure_frequency(GRID, [48])  # |xi| = 48/16 = 3
        g = reproduce(f, pair)
        err = space_norm(g - f, Lebesgue(2.0)) / space_norm(f, Lebesgue(2.0))
        assert err <= 1e-2
        assert err == pytest.approx(abs(factor - 1.0), abs=1e-12)


def test_reproduce_zero_and_linearity():
    phi = build_annular_kernel(GRID)
    pair = calderon_companion(phi, SCALES)
    zero = SampledFunction(GRID, np.zeros(512))
    assert space_norm(reproduce(zero, pair), Lebesgue(2.0)) == 0.0
    f1 = pure_frequency(GRID, [40])
    f2 = pure_frequency(GRID, [56])
    lhs = reproduce(f1 + f2, pair)
    rhs = reproduce(f1, pair) + reproduce(f2, pair)
    assert np.allclose(lhs.values, rhs.values, atol=1e-13)


def test_reproduce_rejects_uncovered_band():
    phi = build_annular_kernel(GRID)
    narrow = ScaleGrid(t_min=0.25, t_max=1.0, steps_per_octave=8)
    pair = calderon_companion(phi, SCALES)
    pair = ReproducingPair(pair.phi, pair.psi, narrow, pair.normalization_check, pair.support)
    for amplitude in AMPLITUDES:
        f = amplitude * pure_frequency(GRID, [1])  # |xi| = 1/16, needs t up to 16 to be seen
        with pytest.raises(BandCoverageError):
            reproduce(f, pair)


@pytest.mark.parametrize("grid", [GRID, GridSpec(dim=2, half_width=2.0, points_per_axis=64)], ids=["1d", "2d"])
def test_reproduce_of_a_real_input_is_real(grid):
    # the coverage multiplier is real and even, so a real input stays real; the
    # result is the complex-FFT product's to within its round-off
    pair = calderon_companion(build_annular_kernel(grid), SCALES)
    f = SampledFunction(grid, band_limited_trial(0, grid).values.real)
    g = reproduce(f, pair).values
    assert g.dtype == np.float64
    reference = np.fft.ifftn(np.fft.fftn(f.values) * band_coverage(pair))
    assert np.max(np.abs(g - reference)) <= 1e-15 * np.max(np.abs(reference))


def test_band_coverage_flat_inside_band():
    phi = build_annular_kernel(GRID)
    pair = calderon_companion(phi, SCALES)
    cov = band_coverage(pair)
    radii = GRID.frequency_radii()
    inside = (radii >= 0.5) & (radii <= 8.0)
    assert np.all(np.abs(cov[inside] - 1.0) < 1e-3)


COVERAGE_SCALES = [SCALES, ScaleGrid(t_min=1 / 64, t_max=16.0, steps_per_octave=8),
                   ScaleGrid(t_min=1 / 16, t_max=64.0, steps_per_octave=12)]


@pytest.mark.parametrize("scales", COVERAGE_SCALES, ids=["32x8", "64-16x8", "16-64x12"])
@pytest.mark.parametrize("kind", [k.value for k in KernelKind])
@pytest.mark.parametrize("grid", [GRID, GridSpec(2, 2.0, 64)], ids=["1d", "2d"])
def test_band_coverage_is_the_per_scale_sum_bitwise(grid, kind, scales):
    # the plans' tables are the profiles at t_k |xi|, summed over the scales in the loop's order
    pair = calderon_companion(build_kernel(kind, grid), scales)
    assert np.array_equal(band_coverage(pair), band_coverage_loop(pair))


def test_kernel_csv_export(tmp_path):
    k = build_annular_kernel(GRID)
    p = tmp_path / "kernel.csv"
    write_kernel_csv(k, p)
    rows = np.loadtxt(p, delimiter=",")
    assert rows.shape == (512, 2)
    meta = (tmp_path / "kernel.csv.json").read_text()
    assert "annular" in meta


def test_kernel_multiplier_method():
    k = build_annular_kernel(GRID)
    t = 0.37
    assert np.array_equal(k.multiplier(t), k.profile(t * GRID.frequency_radii()))


def test_build_kernel_by_kind_name():
    for kind in KernelKind:
        k = build_kernel(kind.value, GRID)
        assert k.kind is kind
    assert np.array_equal(build_kernel("weak", GRID).fourier_values, build_weak_kernel(GRID).fourier_values)
    with pytest.raises(ValueError, match="unknown kernel kind"):
        build_kernel("gauss", GRID)
