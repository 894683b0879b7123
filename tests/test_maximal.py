import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from helpers import fs_vector_check, indicator_box, powered_maximal
from lpx.grid import GridSpec, SampledFunction, ScaleGrid, gaussian_bump, pure_frequency
from lpx.kernels import Kernel, KernelKind, build_annular_kernel, calderon_companion
from lpx.maximal import (
    BallFamily,
    ball_volume,
    default_peetre_exponent,
    hardy_norm,
    hl_maximal,
    peetre_maximal,
    peetre_maximals,
)
from lpx import maximal
from lpx.harness import trial_function
from lpx.spaces import Lebesgue
from lpx.squarefuncs import g_function, g_lambda_star, lusin_area
from lpx.transforms import build_field, build_plan, correlate, spectrum

GRID = GridSpec(dim=1, half_width=8.0, points_per_axis=1024)


def brute_force_maximal(f: SampledFunction, balls: BallFamily) -> np.ndarray:
    """Direct sup over (center, radius) with the same conventions."""
    mag = np.abs(f.values)
    grid = f.grid
    out = np.zeros(grid.shape)
    for r in balls.radii:
        mask = grid.offset_distances() < r
        sums = np.empty(grid.shape)
        for idx in np.ndindex(grid.shape):
            member = np.roll(mask, shift=idx, axis=tuple(range(grid.dim)))
            sums[idx] = mag[member].sum()
        avg = sums * grid.cell_volume / ball_volume(r, grid.dim)
        for idx in np.ndindex(grid.shape):
            member = np.roll(mask, shift=idx, axis=tuple(range(grid.dim)))
            out[idx] = max(out[idx], avg[member].max())
    return out


def test_maximal_of_constant():
    f = SampledFunction(GRID, np.full(1024, -2.5))
    m = hl_maximal(f)
    n = GRID.points_per_axis
    assert np.all(m.values.real <= 2.5 + 1e-12)
    assert np.all(m.values.real >= 2.5 * (1 - 2.0 / n))


def test_maximal_indicator_closed_form():
    f = indicator_box(GRID, [-1.0], [1.0])
    m = hl_maximal(f).values.real
    x = GRID.axis_coordinates()
    closed = np.minimum(1.0, 2.0 / (1.0 + np.abs(x)))
    assert np.max(np.abs(m - closed) / closed) < 0.05


def test_maximal_agrees_with_brute_force():
    small = GridSpec(dim=1, half_width=4.0, points_per_axis=64)
    balls = BallFamily.build(small, 4)
    rng = np.random.default_rng(11)
    f = SampledFunction(small, rng.normal(size=64))
    fast = hl_maximal(f, balls).values.real
    slow = brute_force_maximal(f, balls)
    assert np.max(np.abs(fast - slow)) <= 1e-10 * max(1.0, slow.max())


def test_maximal_agrees_with_brute_force_2d():
    small = GridSpec(dim=2, half_width=2.0, points_per_axis=16)
    balls = BallFamily.build(small, 2)
    rng = np.random.default_rng(12)
    f = SampledFunction(small, rng.normal(size=(16, 16)))
    fast = hl_maximal(f, balls).values.real
    slow = brute_force_maximal(f, balls)
    assert np.max(np.abs(fast - slow)) <= 1e-10 * max(1.0, slow.max())


def test_maximal_dominates_one_cell_average():
    rng = np.random.default_rng(13)
    f = SampledFunction(GRID, rng.normal(size=1024))
    balls = BallFamily.build(GRID, 8)
    m = hl_maximal(f, balls).values.real
    one_cell = np.abs(f.values) * GRID.cell_volume / ball_volume(balls.radii[0], 1)
    # sliding sums accumulate ~N*eps*sum|f| of rounding noise
    assert np.all(m >= one_cell - 1e-12 * (1.0 + one_cell))


def test_maximal_sublinear_and_monotone():
    rng = np.random.default_rng(14)
    f = SampledFunction(GRID, rng.normal(size=1024))
    g = SampledFunction(GRID, rng.normal(size=1024))
    balls = BallFamily.build(GRID, 8)
    mf = hl_maximal(f, balls).values.real
    mg = hl_maximal(g, balls).values.real
    mfg = hl_maximal(f + g, balls).values.real
    assert np.all(mfg <= mf + mg + 1e-12)
    bigger = SampledFunction(GRID, np.abs(f.values) + 0.5)
    assert np.all(hl_maximal(bigger, balls).values.real >= mf - 1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_power_inequality(p):
    rng = np.random.default_rng(15)
    f = SampledFunction(GRID, rng.normal(size=1024))
    balls = BallFamily.build(GRID, 8)
    m = hl_maximal(f, balls).values.real
    mp = hl_maximal(SampledFunction(GRID, np.abs(f.values) ** p), balls).values.real
    assert np.all(m**p <= mp * (1 + 1e-9) + 1e-300)


def test_powered_maximal_theta_one_and_constant():
    rng = np.random.default_rng(16)
    f = SampledFunction(GRID, rng.normal(size=1024))
    balls = BallFamily.build(GRID, 8)
    assert np.allclose(
        powered_maximal(f, 1.0, balls).values.real, hl_maximal(f, balls).values.real, atol=1e-12
    )
    c = SampledFunction(GRID, np.full(1024, 1.7))
    for theta in (0.5, 1.0, 2.0):
        vals = powered_maximal(c, theta, balls).values.real
        assert np.all(vals <= 1.7 + 1e-12)
        assert np.all(vals >= 1.7 * (1 - 2.0 / 1024) ** (1 / theta))


@given(c=st.floats(min_value=-100.0, max_value=100.0), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_maximal_absolutely_homogeneous(c, seed):
    grid = GridSpec(dim=1, half_width=4.0, points_per_axis=64)
    balls = BallFamily.build(grid, 2)
    rng = np.random.default_rng(seed)
    f = SampledFunction(grid, rng.normal(size=64))
    lhs = hl_maximal(c * f, balls).values.real
    rhs = abs(c) * hl_maximal(f, balls).values.real
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_powered_maximal_monotone_in_theta():
    rng = np.random.default_rng(17)
    f = SampledFunction(GRID, rng.normal(size=1024))
    balls = BallFamily.build(GRID, 4)
    m1 = powered_maximal(f, 0.8, balls).values.real
    m2 = powered_maximal(f, 1.6, balls).values.real
    assert np.all(m1 <= m2 * (1 + 1e-10))


SCALES = ScaleGrid(t_min=1 / 16, t_max=16.0, steps_per_octave=8)


@pytest.fixture(scope="module")
def pair():
    return calderon_companion(build_annular_kernel(GridSpec(1, 8.0, 512)), SCALES)


@pytest.fixture(scope="module")
def psi_plan(pair):
    return build_plan(pair.psi, SCALES)


def test_peetre_constant_with_unit_mass_kernel():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=128)

    def gauss_profile(r):
        return np.exp(-np.asarray(r, dtype=float) ** 2)

    raw = Kernel(grid, KernelKind.WEAK, gauss_profile, witness_range=(0.1, 10.0))
    plan = build_plan(raw, SCALES)
    ones = SampledFunction(grid, np.ones(128))
    m = peetre_maximal(ones, b=3.0, plan=plan)
    # psi_t * 1 = psi_hat(0) = 1; the offset weight peaks at y = 0
    assert np.allclose(m.values.real, 1.0, atol=1e-12)


def test_peetre_pure_frequency(pair, psi_plan):
    grid = pair.phi.grid
    f = pure_frequency(grid, [48])  # |xi| = 3
    m = peetre_maximal(f, b=4.0, plan=psi_plan)
    expected = max(abs(pair.psi.profile(np.array([3.0 * t]))[0]) for t in SCALES.scales)
    assert np.allclose(m.values.real, expected, rtol=1e-10)


def test_peetre_decreases_in_b(pair, psi_plan):
    grid = pair.phi.grid
    f = gaussian_bump(grid, [0.3], 0.4)
    m1 = peetre_maximal(f, b=2.0, plan=psi_plan).values.real
    m2 = peetre_maximal(f, b=4.0, plan=psi_plan).values.real
    assert np.all(m2 <= m1 + 1e-14)


def test_peetre_dominates_zero_offset(pair, psi_plan):
    grid = pair.phi.grid
    f = gaussian_bump(grid, [-0.5], 0.3)
    m = peetre_maximal(f, b=3.0, plan=psi_plan).values.real
    F = np.abs(build_field(f, psi_plan).values)
    assert np.all(m >= F.max(axis=-1) - 1e-13)


def _real_slice(values: np.ndarray, plan, k: int) -> np.ndarray:
    """psi_t * values at the k-th scale of a real input: the real inverse FFT of
    its real FFT times the multiplier's half spectrum."""
    half = plan.multipliers[k][..., : plan.grid.points_per_axis // 2 + 1]
    return np.fft.irfftn(np.fft.rfftn(values) * half, s=plan.grid.shape, axes=tuple(range(plan.grid.dim)))


def roll_peetre_maximal(f: SampledFunction, b: float, plan) -> np.ndarray:
    """Reference smoothed sup: one np.roll of each scale's |psi_t * f| per offset,
    with each scale's slice from its own real inverse FFT, the imaginary part
    of a complex input done separately (independent of build_field)."""
    grid = f.grid
    axes = tuple(range(grid.dim))
    dist_grid = grid.offset_distances()
    keep = np.argwhere(dist_grid <= grid.half_width)
    dist = dist_grid[tuple(keep.T)]
    out = np.zeros(grid.shape)
    for k, t in enumerate(plan.scales.scales):
        slice_k = _real_slice(f.values.real, plan, k)
        if np.iscomplexobj(f.values):
            slice_k = slice_k + 1j * _real_slice(f.values.imag, plan, k)
        mag = np.abs(slice_k)
        weights = (1.0 + dist / t) ** (-b)
        for off, w in zip(keep, weights):
            np.maximum(out, np.roll(mag, shift=tuple(off), axis=axes) * w, out=out)
    return out


@dataclasses.dataclass(frozen=True)
class FirstScales:
    """The first ``count`` nodes of a scale grid; a ScaleGrid itself has at least 8."""

    full: ScaleGrid
    count: int

    @property
    def scales(self) -> np.ndarray:
        return self.full.scales[: self.count]

    def __len__(self) -> int:
        return self.count


# with PEETRE_CHUNK = 2^15 elements and one input: 1-D N=64 steps 512 pairs,
# eight scales of 64 offsets (5 scales are one partial step); 2-D N=16 steps
# 128 pairs over 195 offsets per scale (steps cross scale boundaries
# mid-step); 1-D N=256 on one scale is two steps of 128 pairs
@pytest.mark.parametrize(
    "dim, n, width, complex_input, b, n_scales",
    [
        (1, 64, 2.0, True, 3.0, None),
        (2, 32, 1.0, True, 3.0, None),
        (1, 64, 2.0, True, 0.7, None),
        (1, 256, 8.0, False, 3.0, None),
        (1, 256, 8.0, False, 0.7, None),
        (2, 32, 1.0, True, 0.7, None),
        (2, 16, 0.5, False, 3.0, None),
        (2, 16, 0.5, False, 0.7, None),
        (1, 64, 2.0, False, 3.0, 5),
        (2, 16, 0.5, True, 3.0, 3),
        (1, 256, 8.0, True, 3.0, 1),
        (2, 16, 0.5, False, 0.7, 1),
    ],
    ids=["1d-64", "2d-32", "1d-64-b0.7", "1d-256-real", "1d-256-real-b0.7", "2d-32-b0.7", "2d-16-real",
         "2d-16-real-b0.7", "1d-64-5scales-partial", "2d-16-3scales-straddle", "1d-256-1scale",
         "2d-16-1scale-partial"],
)
def test_peetre_matches_roll_reference_bitwise(dim, n, width, complex_input, b, n_scales):
    grid = GridSpec(dim=dim, half_width=width, points_per_axis=n)
    # 1-D keeps every offset; 2-D drops the corner offsets with |y| > L
    assert (grid.offset_distances() > width).any() == (dim == 2)
    scales = ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4)
    plan = build_plan(build_annular_kernel(grid), scales)
    if n_scales is not None:
        plan = dataclasses.replace(plan, scales=FirstScales(scales, n_scales),
                                   multipliers=plan.multipliers[:n_scales])
    rng = np.random.default_rng(dim)
    values = rng.normal(size=grid.shape)
    if complex_input:
        values = values + 1j * rng.normal(size=grid.shape)
    f = SampledFunction(grid, values)
    fast = peetre_maximal(f, b=b, plan=plan).values.real
    assert np.array_equal(fast, roll_peetre_maximal(f, b, plan))


@pytest.mark.parametrize("dim, n, width, n_scales, chunk",
                         [(1, 64, 2.0, None, None), (1, 64, 2.0, 5, 3 * 64 * 7), (2, 16, 0.5, 3, None),
                          (2, 16, 0.5, None, 3 * 256 * 5)],
                         ids=["1d-64", "1d-64-5scales-7pairs", "2d-16-3scales", "2d-16-5pairs"])
def test_peetre_maximals_rows_match_one_input_calls_bitwise(dim, n, width, n_scales, chunk, monkeypatch):
    grid = GridSpec(dim=dim, half_width=width, points_per_axis=n)
    scales = ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4)
    plan = build_plan(build_annular_kernel(grid), scales)
    if n_scales is not None:
        plan = dataclasses.replace(plan, scales=FirstScales(scales, n_scales),
                                   multipliers=plan.multipliers[:n_scales])
    rng = np.random.default_rng(n)
    fs = [SampledFunction(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)),
          SampledFunction(grid, np.zeros(grid.shape)),
          SampledFunction(grid, 1e-200 * rng.normal(size=grid.shape))]
    if chunk is not None:  # steps of a few pairs over all three inputs, straddling scales
        monkeypatch.setattr(maximal, "PEETRE_CHUNK", chunk)
    rows = peetre_maximals(fs, 3.0, plan=plan)
    assert rows.shape == (3,) + grid.shape
    for f, row in zip(fs, rows):
        assert np.array_equal(row, peetre_maximal(f, 3.0, plan=plan).values.real)
        assert np.array_equal(row, roll_peetre_maximal(f, 3.0, plan))
    with pytest.raises(ValueError):
        peetre_maximals(fs, 0.0, plan=plan)


def test_hardy_norm_zero_and_homogeneous(pair, psi_plan):
    grid = pair.phi.grid
    zero = SampledFunction(grid, np.zeros(512))
    assert hardy_norm(zero, Lebesgue(2.0), psi_plan) == 0.0
    f = gaussian_bump(grid, [0.2], 0.5)
    h1 = hardy_norm(f, Lebesgue(2.0), psi_plan)
    h3 = hardy_norm(3.0 * f, Lebesgue(2.0), psi_plan)
    assert h3 == pytest.approx(3.0 * h1, rel=1e-12)


def test_hardy_norm_comparable_to_area_norm(pair, psi_plan):
    from lpx.spaces import space_norm
    from lpx.squarefuncs import lusin_area

    grid = pair.phi.grid
    plan = build_plan(pair.phi, SCALES)
    f = SampledFunction(grid, (pure_frequency(grid, [48]).values * gaussian_bump(grid, [0.0], 0.8).values))
    h = hardy_norm(f, Lebesgue(2.0), psi_plan)
    s = space_norm(lusin_area(build_field(f, plan)), Lebesgue(2.0))
    assert 0.25 <= h / s <= 4.0


# (grid, scales, shift in cells per axis); 2-D runs random inputs on N=32 to
# keep the test cheap
SHIFT_CASES = {
    "1d-64": (GridSpec(dim=1, half_width=2.0, points_per_axis=64), ScaleGrid(1 / 16, 16.0, 8), (17,)),
    "2d-32": (GridSpec(dim=2, half_width=1.0, points_per_axis=32), ScaleGrid(1 / 16, 16.0, 8), (3, -5)),
}


@pytest.mark.parametrize("case", sorted(SHIFT_CASES))
def test_operators_commute_with_grid_shifts(case):
    # translation equivariance on the torus: every operator of a rolled input
    # is the rolled operator, up to the rounding of its sums
    grid, scales, shift = SHIFT_CASES[case]
    kernel = build_annular_kernel(grid)
    plan = build_plan(kernel, scales)
    psi_plan = build_plan(calderon_companion(kernel, scales).psi, scales)
    operators = {
        "S": lambda f: lusin_area(build_field(f, plan)).values,
        "g": lambda f: g_function(build_field(f, plan)).values,
        "gstar": lambda f: g_lambda_star(build_field(f, plan), 2.0).values,
        "hl_maximal": lambda f: hl_maximal(f).values,
        "peetre": lambda f: peetre_maximal(f, 4.0, plan=psi_plan).values,
    }
    if grid.dim == 1:
        inputs = [trial_function(0, i, grid) for i in range(4)]
    else:
        rng = np.random.default_rng(32)
        inputs = [SampledFunction(grid, rng.normal(size=grid.shape)) for _ in range(2)]
    axes = tuple(range(grid.dim))
    for f in inputs:
        moved = SampledFunction(grid, np.roll(f.values, shift, axis=axes))
        for name, op in operators.items():
            want = np.roll(op(f), shift, axis=axes)
            assert np.max(np.abs(op(moved) - want)) <= 1e-13 * np.max(want), name


def test_default_peetre_exponent():
    assert default_peetre_exponent(1, 1.0) == 4.0
    assert default_peetre_exponent(2, 2.0) == 4.0


def test_fs_vector_check_constant():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    c = SampledFunction(grid, np.ones(512))
    ratio = fs_vector_check([c], theta=1.0, s=1.0, space=Lebesgue(2.0))
    assert ratio == pytest.approx(1.0, abs=1e-2)


def test_fs_vector_check_duplication_invariance():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    rng = np.random.default_rng(18)
    fam = [gaussian_bump(grid, [float(c)], 0.4) for c in rng.uniform(-2, 2, size=4)]
    balls = BallFamily.build(grid, 8)
    r1 = fs_vector_check(fam, theta=1.0, s=2.0, space=Lebesgue(2.0), balls=balls)
    r2 = fs_vector_check(fam + fam, theta=1.0, s=2.0, space=Lebesgue(2.0), balls=balls)
    assert r2 == pytest.approx(r1, abs=1e-10)


def test_fs_vector_check_bounded_for_bumps():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    rng = np.random.default_rng(19)
    fam = [gaussian_bump(grid, [float(c)], float(s)) for c, s in
           zip(rng.uniform(-2, 2, size=8), rng.uniform(0.2, 0.8, size=8))]
    ratio = fs_vector_check(fam, theta=1.0, s=2.0, space=Lebesgue(2.0))
    assert 0 < ratio <= 50.0


def test_fs_vector_check_zero_denominator():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    zero = SampledFunction(grid, np.zeros(256))
    with pytest.raises(ZeroDivisionError):
        fs_vector_check([zero], theta=1.0, s=1.0, space=Lebesgue(2.0))


def _ball_sums_reference(family, values, radius):
    """The per-radius ball sums that the batched ``BallFamily.ball_sums`` replaced:
    one correlation against the ball mask, in either dimension."""
    dim = family.grid.dim
    return correlate(values, spectrum((family.grid.offset_distances() < radius).astype(float), dim), dim)


def _ball_filter_reference(family, values, radius):
    """The ball max that the row-run ``BallFamily.ball_filter`` replaced: one
    running max in 1-D, a filter over the disc's footprint in 2-D."""
    grid = family.grid
    mask = grid.offset_distances() < radius
    if mask.all():
        return np.full(grid.shape, np.max(values))
    if grid.dim == 1:
        return ndimage.maximum_filter1d(values, size=int(np.count_nonzero(mask)), mode="wrap")
    n = grid.points_per_axis
    centered = np.fft.fftshift(mask)
    k = int(np.abs(np.argwhere(centered) - n // 2).max())
    foot = centered[n // 2 - k : n // 2 + k + 1, n // 2 - k : n // 2 + k + 1]
    return ndimage.maximum_filter(values, footprint=foot, mode="wrap")


@pytest.mark.parametrize("dim, n, per_octave", [(1, 64, 4), (1, 256, 32), (2, 32, 8), (2, 64, 4)])
def test_ball_sums_rows_match_per_radius_reference_bitwise(dim, n, per_octave):
    # and the ball max of every radius matches the footprint filter's
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    family = BallFamily.build(grid, per_octave)
    values = np.abs(np.random.default_rng(3).normal(size=grid.shape)) ** 1.5
    sums = family.ball_sums(values)
    assert sums.shape == (len(family),) + grid.shape
    assert (grid.offset_distances() < family.radii[-1]).all()  # the whole-box radius is covered
    for r, row in zip(family.radii, sums):
        assert np.array_equal(row, _ball_sums_reference(family, values, r)), r
        assert np.array_equal(family.ball_filter(values, r), _ball_filter_reference(family, values, r)), r


@pytest.mark.parametrize("dim, n, per_octave", [(1, 64, 4), (1, 256, 32), (2, 16, 4), (2, 64, 4)])
def test_ball_sums_with_leading_axes_match_per_row_calls_bitwise(dim, n, per_octave):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    family = BallFamily.build(grid, per_octave)
    assert (grid.offset_distances() < family.radii[-1]).all()  # the whole-box radius is covered
    values = np.abs(np.random.default_rng(4).normal(size=(3, 2) + grid.shape)) ** 1.5
    sums = family.ball_sums(values)
    assert sums.shape == (3, 2, len(family)) + grid.shape
    for i, j in np.ndindex(3, 2):
        assert np.array_equal(sums[i, j], family.ball_sums(values[i, j])), (i, j)
    # a strided stack, as the real part of a complex one
    strided = (values + 1j).real
    assert np.array_equal(family.ball_sums(strided), sums)
    assert family.ball_sums(values[:0]).shape == (0, 2, len(family)) + grid.shape


def test_ball_family_enumeration():
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=16)
    balls = BallFamily.build(grid, 1)
    assert balls.radii[0] == grid.spacing  # one cell
    assert balls.radii[-1] == 2.0 * grid.half_width  # full box
