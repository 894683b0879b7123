import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from helpers import (brute_peetre_maximals, dense_peetre_maximals, fs_vector_check, hl_maximal_per_radius, indicator_box,
                     one_field, powered_maximal)
from lpx.grid import FieldStack, GridSpec, SampledFunction, ScaleGrid, gaussian_bump, pure_frequency
from lpx.kernels import Kernel, KernelKind, build_annular_kernel, build_kernel, calderon_companion
from lpx.maximal import (
    BallFamily,
    ball_volume,
    default_peetre_exponent,
    hardy_norm,
    hl_maximal,
    peetre_maximal,
    peetre_maximals,
)
from lpx import grid as grid_mod, maximal
from lpx.harness import trial_function
from lpx.spaces import Lebesgue
from lpx.squarefuncs import ball_spectra, g_function, g_lambda_star, lusin_area
from lpx.transforms import build_field, build_fields, build_plan, correlate, spectrum

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
@settings(max_examples=20, deadline=None, derandomize=True)
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

    raw = Kernel(grid, KernelKind.WEAK, gauss_profile)
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
    F = np.abs(build_field(f, psi_plan).values[0])
    assert np.all(m >= F.max(axis=-1) - 1e-13)


def _real_slice(values: np.ndarray, plan, k: int) -> np.ndarray:
    """psi_t * values at the k-th scale of a real input: the real inverse FFT of
    its real FFT times the multiplier's half spectrum."""
    half = plan.multipliers[k][..., : plan.grid.points_per_axis // 2 + 1]
    return np.fft.irfftn(np.fft.rfftn(values) * half, s=plan.grid.shape, axes=tuple(range(plan.grid.dim)))


def roll_peetre_maximal(f: SampledFunction, b: float, plan) -> np.ndarray:
    """Reference smoothed sup: ``brute_peetre_maximals`` on the slices
    psi_t * f of every scale, each from its own real inverse FFT, the
    imaginary part of a complex input done separately (independent of
    build_field)."""
    slices = []
    for k in range(len(plan.scales)):
        slice_k = _real_slice(f.values.real, plan, k)
        if np.iscomplexobj(f.values):
            slice_k = slice_k + 1j * _real_slice(f.values.imag, plan, k)
        slices.append(slice_k)
    return brute_peetre_maximals(FieldStack(f.grid, plan.scales, np.stack(slices, axis=-1)[None]), b)[0]


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


# with the 1 MiB budget (grid.WORK_BYTES) and one input, a step takes as
# many distances as keep live scales x distances x cells within 2^17 8-byte
# elements: 1-D N=64
# takes its 33 distances (64 offsets) in one step; 2-D N=32 steps 5 of its 98
# distances (795 offsets, the last step partial), 1-D N=256 25 of 129 and
# 2-D N=16 23 of 30; the 5- and 3-scale cases have one live scale, and on one
# scale the annular field is zero, so the sup is zero without a step
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


# a step takes as many distances as keep its candidate products and its
# doubled envelopes, (candidates + 3 inputs x 2^dim cells) 8-byte elements per
# distance, within grid.WORK_BYTES: at the default budget 1-D N=64 takes its
# 33 distances and 2-D N=16 its 30 in one step; a budget of k distances' bytes
# gives steps of k distances, and a budget below one distance clamps to one
# distance per step
@pytest.mark.parametrize("dim, n, width, n_scales, per_step, steps",
                         [(1, 64, 2.0, None, None, [33]), (1, 64, 2.0, None, 7, [7] * 4 + [5]),
                          (1, 64, 2.0, 5, 7, [7] * 4 + [5]), (2, 16, 0.5, 3, None, [30]),
                          (2, 16, 0.5, None, 4, [4] * 7 + [2]), (2, 16, 0.5, 3, 0, [1] * 30)],
                         ids=["1d-64", "1d-64-7distances", "1d-64-5scales-7distances", "2d-16-3scales",
                              "2d-16-4distances", "2d-16-3scales-1distance"])
def test_peetre_maximals_rows_match_one_input_calls_bitwise(dim, n, width, n_scales, per_step, steps, monkeypatch):
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
    F = build_fields(fs, plan)
    if per_step is not None:
        weights = maximal._peetre_tables(grid, plan.scales, 3.0)[2]
        per_distance = len(_candidates(F.values, weights[:, -1])[0]) + 2**dim * F.values[..., 0].size
        monkeypatch.setattr(grid_mod, "WORK_BYTES", 8 * per_step * per_distance or 1)
    # each step takes its products, then its doubled envelopes, by one np.take
    # into its rows of the call's buffer
    recorded = []
    take = np.take
    with monkeypatch.context() as m:
        m.setattr(np, "take", lambda a, indices, **kw: recorded.append(kw["out"].shape[0]) or take(a, indices, **kw))
        rows = peetre_maximals(F, 3.0)
    assert recorded[::2] == recorded[1::2] == steps
    assert rows.shape == (3,) + grid.shape
    for f, row in zip(fs, rows):
        assert np.array_equal(row, peetre_maximal(f, 3.0, plan=plan).values.real)
        assert np.array_equal(row, roll_peetre_maximal(f, 3.0, plan))
    for b in (0.0, float("nan")):
        with pytest.raises(ValueError):
            peetre_maximals(F, b)


def _candidates(values: np.ndarray, far: np.ndarray):
    """``maximal._candidate_scales`` of the field values with a workspace of its own."""
    count = values.shape[-1]
    return maximal._candidate_scales(values, far, np.empty(maximal._candidate_chunk(count, values.size // count)[1]))


def _oracle_inputs(grid: GridSpec) -> list[SampledFunction]:
    """Trials 0-3 of seed 5 (two real noises below N=64), a delta, a constant,
    zeros, real noise times 1e-200 and complex noise."""
    rng = np.random.default_rng(grid.size)
    if grid.points_per_axis >= 64:
        fs = [trial_function(5, i, grid) for i in range(4)]
    else:
        fs = [SampledFunction(grid, rng.normal(size=grid.shape)) for _ in range(2)]
    delta = np.zeros(grid.shape)
    delta.flat[0] = 1.0
    return fs + [SampledFunction(grid, delta), SampledFunction(grid, np.ones(grid.shape)),
                 SampledFunction(grid, np.zeros(grid.shape)),
                 SampledFunction(grid, 1e-200 * rng.normal(size=grid.shape)),
                 SampledFunction(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))]


ORACLE_GRIDS = {"1d-64": (1, 64, 2.0), "1d-256": (1, 256, 8.0), "2d-16": (2, 16, 0.5), "2d-32": (2, 32, 1.0)}


@pytest.mark.parametrize("kind", ["annular", "weak"])
@pytest.mark.parametrize("b", [0.5, 0.7, 3.0, 9.0])
@pytest.mark.parametrize("case", list(ORACLE_GRIDS))
def test_peetre_maximals_match_the_dense_reference_and_the_roll_oracle_bitwise(case, b, kind):
    dim, n, width = ORACLE_GRIDS[case]
    grid = GridSpec(dim=dim, half_width=width, points_per_axis=n)
    plan = build_plan(build_kernel(kind, grid), ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4))
    fs = _oracle_inputs(grid)
    rows = peetre_maximals(build_fields(fs, plan), b)
    assert np.array_equal(rows, dense_peetre_maximals(fs, b, plan))
    # the brute-force oracle takes about 0.1 s per 2-D N=32 input, so there it
    # checks the real and the complex noise
    for i in range(len(fs)) if grid.size < 1024 else (0, len(fs) - 1):
        assert np.array_equal(rows[i], roll_peetre_maximal(fs[i], b, plan))


@pytest.mark.parametrize("case", ["1d-64", "2d-16"])
def test_peetre_maximals_take_one_field_as_a_stack_of_one_and_a_stack_of_fields(case):
    # the sup reads a prebuilt psi-field stack, one row per field: a stack of
    # one gives one row, each bitwise the one-input value
    dim, n, width = ORACLE_GRIDS[case]
    grid = GridSpec(dim=dim, half_width=width, points_per_axis=n)
    plan = build_plan(build_annular_kernel(grid), ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4))
    fs = _oracle_inputs(grid)
    rows = peetre_maximals(build_fields(fs, plan), 3.0)
    assert rows.shape == (len(fs),) + grid.shape
    assert np.array_equal(rows, dense_peetre_maximals(fs, 3.0, plan))
    for f, row in zip(fs, rows):
        one = peetre_maximals(build_field(f, plan), 3.0)
        assert one.shape == (1,) + grid.shape
        assert np.array_equal(one[0], row)
        assert np.array_equal(peetre_maximal(f, 3.0, plan=plan).values, row)


# grids small enough for the brute-force sup on every drawn stack
DRAWN_GRIDS = {
    "1d-8": (GridSpec(1, 1.0, 8), ScaleGrid(1 / 8, 1 / 2, 4)),
    "1d-16": (GridSpec(1, 2.0, 16), ScaleGrid(1 / 16, 1.0, 4)),
    "2d-8": (GridSpec(2, 1.0, 8), ScaleGrid(1 / 8, 1 / 2, 4)),
}
# magnitudes drawn from few values, so that scales tie exactly
DRAWN_LEVELS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
# a drawn field: "levels" (every (cell, scale) a level), "flat" (a level
# per cell, tied across its scales) or "zero"; its amplitude 2^exponent,
# from the smallest subnormal to the largest power of two; and whether its
# entries take the phases 1, -1, i and -i, a complex row of the same magnitudes
DRAWN_PEETRE_FIELD = st.tuples(st.sampled_from(["levels", "flat", "zero"]), st.integers(-1074, 1023), st.booleans())


def _drawn_stack(case: str, seed: int, fields: list) -> FieldStack:
    """The stack of the drawn fields (``DRAWN_PEETRE_FIELD``) on a drawn grid."""
    grid, scales = DRAWN_GRIDS[case]
    rng = np.random.default_rng(seed)
    shape = grid.shape + (len(scales),)
    values = []
    for kind, exponent, complex_ in fields:
        levels = {"levels": lambda: rng.choice(DRAWN_LEVELS, size=shape),
                  "flat": lambda: np.repeat(rng.choice(DRAWN_LEVELS, size=grid.shape)[..., None], len(scales), -1),
                  "zero": lambda: np.zeros(shape)}[kind]()
        phases = rng.choice(np.array([1, -1, 1j, -1j]), size=shape) if complex_ else 1.0
        values.append(np.ldexp(levels, exponent) * phases)
    return FieldStack(grid, scales, np.stack(values))


@given(F=st.builds(_drawn_stack, st.sampled_from(list(DRAWN_GRIDS)), st.integers(0, 2**16),
                   st.lists(DRAWN_PEETRE_FIELD, min_size=1, max_size=3)),
       b=st.sampled_from([0.5, 3.0, 9.0, 400.0]), budget=st.sampled_from([1 << 20, 1 << 10, 1 << 6]))
@example(F=_drawn_stack("1d-8", 0, [("levels", 0, False), ("flat", -1074, True), ("zero", 1023, False)]),
         b=400.0, budget=1 << 20)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_peetre_maximals_of_drawn_stacks_are_the_brute_force_sup_bytewise(F, b, budget):
    # ties across scales, amplitudes across the float range (b = 400 leaves
    # the far weights subnormal or zero), zero fields, complex rows, and
    # budgets that split the candidate tests and the steps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid_mod, "WORK_BYTES", budget)
        rows = peetre_maximals(F, b)
    assert rows.tobytes() == brute_peetre_maximals(F, b).tobytes()


@pytest.mark.parametrize("case", ["1d-64", "2d-16"])
def test_peetre_maximals_at_infinite_b_are_the_max_over_the_scales(case):
    # the d = 0 limit: every offset but y = 0 weighs 0
    dim, n, width = ORACLE_GRIDS[case]
    grid = GridSpec(dim=dim, half_width=width, points_per_axis=n)
    plan = build_plan(build_annular_kernel(grid), ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4))
    fs = _oracle_inputs(grid)
    F = build_fields(fs, plan)
    rows = peetre_maximals(F, float("inf"))
    assert np.array_equal(rows, np.abs(F.values).max(axis=-1))
    assert np.array_equal(rows, dense_peetre_maximals(fs, float("inf"), plan))


@pytest.mark.parametrize("dim, n, width, t_max", [(1, 64, 2.0, 16.0), (1, 512, 8.0, 16.0), (2, 16, 0.5, 4.0),
                                                  (2, 64, 2.0, 16.0)])
@pytest.mark.parametrize("b", [0.5, 3.0, 9.0, 40.0, float("inf")])
def test_peetre_weights_are_ordered_along_the_scales(dim, n, width, t_max, b):
    grid = GridSpec(dim=dim, half_width=width, points_per_axis=n)
    *_, weights, ordered = maximal._peetre_tables(grid, ScaleGrid(t_min=1 / 16, t_max=t_max, steps_per_octave=8), b)
    # a larger t never has a smaller weight, at every distance
    assert np.all(np.diff(weights, axis=0) >= 0)
    assert ordered


def test_an_unordered_weight_table_is_detected():
    # the first table's columns are ordered, but the second scale's weight
    # relative to its far weight exceeds the first's at the middle distance;
    # the second's middle column decreases; the third keeps both orders
    assert not maximal._ordered(np.array([[1.0, 0.6, 0.5], [1.0, 0.9, 0.6]]))
    assert not maximal._ordered(np.array([[1.0, 0.6, 0.5], [1.0, 0.5, 0.6]]))
    assert maximal._ordered(np.array([[1.0, 0.6, 0.5], [1.0, 0.7, 0.6]]))


def test_the_far_test_margin_covers_an_ordered_tables_rounding():
    # the second scale's weight relative to its far weight exceeds the
    # first's by 1e-14 at the middle distance, inside the order check's
    # tolerance; its far product is 1e-15 below the first's, yet its product
    # wins at the middle distance, so the margin must keep it
    weights = np.array([[1.0, 0.5, 0.25], [1.0, 0.6 * (1 + 1e-14), 0.3]])
    assert maximal._ordered(weights)
    mags = np.array([[1.0, 0.25 / 0.3 * (1 - 1e-15)]])
    products = weights.T * mags
    assert products[2, 1] < products[2, 0] and products[1, 1] > products[1, 0]
    assert len(_candidates(mags, weights[:, -1])[0]) == 2


def test_a_subnormal_far_product_is_raised_before_the_far_test(monkeypatch):
    # an ordered two-scale table on 1-D N=8 (five distances): the second
    # scale's weight relative to its far weight exceeds the first's by 4e-13
    # at distance 3, inside the order check's tolerance, and the far weight is
    # 2^-1000, so magnitudes near 2.5 * 2^-74 give far products near 2.5
    # units of the smallest subnormal.  The first scale's rounds up to 3
    # units, the second's down to 2, though they differ by 3e-15 relatively,
    # and the second scale's product wins at distance 3.  Raised to the
    # smallest normal number, the far products drop no scale; unraised, the
    # first would drop the second and the sup would lose its product
    grid = GridSpec(dim=1, half_width=1.0, points_per_axis=8)
    scales = FirstScales(ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4), 2)
    far = 2.0**-1000
    weights = np.array([[1.0, 1.0, 1.0, 0.5, far], [1.0, 1.0, 1.0, 0.5 * (1 + 4e-13), far]])
    assert maximal._ordered(weights)
    mags = np.ldexp(np.array([2.5 + 2.0**-48, 2.5 - 2.0**-48]), -74)
    assert list(mags * far / np.nextafter(0.0, 1.0)) == [3.0, 2.0]
    assert weights[1, 3] * mags[1] > weights[0, 3] * mags[0]
    values = np.zeros(grid.shape + (2,))
    values[0] = mags
    shifts, bounds, *_ = maximal._peetre_tables(grid, ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4), 3.0)
    monkeypatch.setattr(maximal, "_peetre_tables", lambda *args: (shifts, bounds, weights, True))
    cell, scale, _ = _candidates(values, weights[:, -1])
    assert list(scale[cell == 0]) == [0, 1]
    # the sup by brute force: offset y of distance min(y, 8 - y) moves the
    # envelope of that distance by y cells
    envelopes = (weights[:, :, None] * values.T[:, None, :]).max(axis=0)
    expected = np.max([np.roll(envelopes[min(y, 8 - y)], y) for y in range(8)], axis=0)
    assert expected[3] == weights[1, 3] * mags[1]
    field = one_field(grid, scales, values)
    assert np.array_equal(peetre_maximals(field, 3.0)[0], expected)


def _dominated(G: np.ndarray, far: np.ndarray) -> np.ndarray:
    """``dom[c, j, k]``: whether scale j dominates scale k at cell c by one
    of the candidate rule's two tests, brute force over every scale pair, for
    magnitudes ``G`` (cells, scales): j larger with at least k's magnitude,
    or j smaller with a far product above k's raised to the smallest normal
    number times 1 + the margin."""
    products = G * far
    raised = (1 + maximal.PEETRE_MARGIN) * np.maximum(products, np.finfo(float).tiny)
    j, k = np.arange(len(far))[:, None], np.arange(len(far))[None, :]
    return (((j > k) & (G[:, :, None] >= G[:, None, :]))
            | ((j < k) & (products[:, :, None] > raised[:, None, :])))


@pytest.mark.parametrize("b", [0.5, 3.0, 9.0, float("inf")])
@pytest.mark.parametrize("case", list(ORACLE_GRIDS))
def test_candidate_scales_are_the_scales_that_no_single_scale_dominates(case, b):
    dim, n, width = ORACLE_GRIDS[case]
    grid = GridSpec(dim=dim, half_width=width, points_per_axis=n)
    scales = ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4)
    F = build_fields(_oracle_inputs(grid), build_plan(build_annular_kernel(grid), scales))
    _, bounds, weights, ordered = maximal._peetre_tables(grid, scales, b)
    assert ordered
    G = np.abs(F.values).reshape(-1, len(scales))
    cell, scale, mags = _candidates(F.values, weights[:, -1])
    kept = np.zeros(G.shape, dtype=bool)
    kept[cell, scale] = True
    assert np.array_equal(mags, G[cell, scale])
    assert np.all(np.diff(cell) >= 0) and np.all(np.diff(scale)[np.diff(cell) == 0] > 0)
    # kept exactly when no single scale dominates it
    dom = _dominated(G, weights[:, -1])
    assert np.array_equal(kept, ~dom.any(axis=1))
    # following a dominator from a dropped scale ends at a kept scale, whose
    # product is at least the dropped one's at every distance
    at = np.arange(len(G))[:, None]
    top = np.broadcast_to(np.arange(len(scales)), G.shape).copy()
    for _ in range(len(scales)):
        top = np.where(kept[at, top], top, np.argmax(dom[at, :, top], axis=-1))
    assert kept[at, top].all()
    for d in range(len(bounds) - 1):
        products = G * weights[:, d]
        assert np.all(products[at, top] >= products)


def test_an_unordered_weight_table_keeps_every_scale(monkeypatch):
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4)
    plan = build_plan(build_annular_kernel(grid), scales)
    shifts, bounds, weights, _ = maximal._peetre_tables(grid, scales, 3.0)
    swapped = weights[[*range(11), 12, 11, *range(13, len(weights))]]  # two scales' rows swapped
    assert not maximal._ordered(swapped)
    monkeypatch.setattr(maximal, "_peetre_tables", lambda *args: (shifts, bounds, swapped, False))

    def refused(*args):
        raise AssertionError("candidate scales taken from an unordered table")

    monkeypatch.setattr(maximal, "_candidate_scales", refused)
    fs = _oracle_inputs(grid)
    rows = peetre_maximals(build_fields(fs, plan), 3.0)
    assert np.array_equal(rows, dense_peetre_maximals(fs, 3.0, plan))


def test_peetre_tables_are_cached_read_only_and_grouped_by_distance():
    grid = GridSpec(dim=2, half_width=0.5, points_per_axis=16)
    scales = ScaleGrid(t_min=1 / 16, t_max=4.0, steps_per_octave=4)
    tables = maximal._peetre_tables(grid, scales, 3.0)
    again = maximal._peetre_tables(GridSpec(dim=2, half_width=0.5, points_per_axis=16), ScaleGrid(1 / 16, 4.0, 4), 3.0)
    assert all(a is b for a, b in zip(tables, again))
    shifts, bounds, weights, ordered = tables
    assert not any(table.flags.writeable for table in (shifts, bounds, weights))
    assert ordered is True
    dist = grid.offset_distances()[tuple((-shifts % 16).T)]
    assert len(dist) == np.count_nonzero(grid.offset_distances() <= 0.5)
    # distinct distances in increasing order, each offset in its distance's run
    rows = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    assert np.all(np.diff(dist[bounds[:-1]]) > 0)
    assert np.array_equal(dist[bounds[rows]], dist)
    assert np.array_equal(weights[:, rows], (1.0 + dist / scales.scales[:, None]) ** (-3.0))


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
    """The ball max by ``scipy.ndimage``, as lpx took it before its numpy
    doubling table: one running max in 1-D, a filter over the disc's
    footprint in 2-D."""
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


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)], ids=["1d-64", "2d-32"])
def test_ball_filter_matches_reference_off_the_family_ladder(dim, n):
    # radii no family holds: non-dyadic, between two cell distances or on
    # one, half the box, beyond it (some rows or every cell), on signed values
    # as the ball minima of the tent decomposition take them
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    h = grid.spacing
    radii = np.array([0.5, 1.0, 2.5, 3.0, 13.0 / 3.0, 5.0, 7.3, n / 2.0, 0.6 * n, 0.75 * n, n]) * h
    family = BallFamily(grid, radii)
    values = np.random.default_rng(5).normal(size=grid.shape)
    dist = grid.offset_distances()
    assert not (dist < radii[-4]).all() and (dist < radii[-1]).all()
    for r in radii:
        assert np.array_equal(family.ball_filter(values, r), _ball_filter_reference(family, values, r)), r


def _ball_max_by_rolls(grid, values, radius):
    """Brute-force ball max: over every offset o of ``grid.ball_mask(radius)``,
    the max of the values moved by -o with ``np.roll``."""
    axes = tuple(range(grid.dim))
    out = None
    for o in np.argwhere(grid.ball_mask(radius)):
        moved = np.roll(values, tuple(-o), axis=axes)
        out = moved if out is None else np.maximum(out, moved)
    return out


def _with_signed_zeros(values, rng):
    """``values`` with about a fifth of the cells set to -0.0 and a fifth to +0.0."""
    u = rng.random(values.shape)
    return np.where(u < 0.2, -0.0, np.where(u < 0.4, 0.0, values))


def _assert_ball_filters_match_rolls(family, rng):
    grid = family.grid
    stack = _with_signed_zeros(rng.normal(size=(len(family),) + grid.shape), rng)
    shared = stack[-1].copy()
    stacked_out, shared_out = family.ball_filters(stack), family.ball_filters(shared)
    assert stacked_out.shape == shared_out.shape == (len(family),) + grid.shape
    for i, r in enumerate(family.radii.tolist()):
        assert np.array_equal(stacked_out[i], _ball_max_by_rolls(grid, stack[i], r)), r
        assert np.array_equal(shared_out[i], _ball_max_by_rolls(grid, shared, r)), r
    # the max of -0.0 alone is -0.0
    assert np.signbit(family.ball_filters(np.full(grid.shape, -0.0))).all()


@pytest.mark.parametrize("per_octave", [1, 4, 32])
@pytest.mark.parametrize("dim, n", [(1, 8), (1, 64), (1, 256), (2, 8), (2, 16), (2, 32)])
def test_ball_filters_match_the_roll_oracle_bitwise(dim, n, per_octave):
    # shared and stacked inputs holding signed zeros, every family radius
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    _assert_ball_filters_match_rolls(BallFamily.build(grid, per_octave), np.random.default_rng(n + per_octave))


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 64), (2, 8), (2, 32)])
def test_ball_filters_match_the_roll_oracle_off_the_ladder(dim, n):
    # radii no ladder holds: between two cell distances or on one, half the
    # box L, and beyond it, where some rows or every row of the ball is full
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    radii = np.array([0.5, 1.0, 2.5, 3.0, 13.0 / 3.0, n / 2.0, 0.6 * n, 0.75 * n, n]) * grid.spacing
    assert (radii[-4:] >= grid.half_width).all()
    dist = grid.offset_distances()
    assert not (dist < radii[-4]).all() and (dist < radii[-1]).all()
    _assert_ball_filters_match_rolls(BallFamily(grid, np.sort(radii)), np.random.default_rng(n))


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)], ids=["1d-64", "2d-32"])
def test_ball_filter_is_row_0_of_its_one_radius_family(dim, n):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    family = BallFamily.build(grid, 4)
    values = np.random.default_rng(7).normal(size=grid.shape)
    rows = family.ball_filters(values)
    for i, r in enumerate(family.radii.tolist()):
        one = BallFamily(grid, np.array([r])).ball_filters(values)[0]
        assert np.array_equal(family.ball_filter(values, r), one)
        assert np.array_equal(rows[i], one)


@pytest.mark.parametrize("dim, n, per_octave", [(1, 512, 32), (2, 64, 8)], ids=["1d-512", "2d-64"])
def test_ball_filters_in_blocks_of_rows_match_one_block(monkeypatch, dim, n, per_octave):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    family = BallFamily.build(grid, per_octave)
    stack = np.random.default_rng(8).normal(size=(len(family),) + grid.shape)
    monkeypatch.setattr(grid_mod, "WORK_BYTES", 1 << 40)
    whole = family.ball_filters(stack)
    for block_bytes in (1, 3 << 16):  # one row per block; a few rows per block
        monkeypatch.setattr(grid_mod, "WORK_BYTES", block_bytes)
        assert np.array_equal(family.ball_filters(stack), whole), block_bytes


@pytest.mark.parametrize("dim, n, per_octave", [(1, 256, 8), (2, 32, 4)], ids=["1d-256", "2d-32"])
def test_ball_filters_of_a_stack_with_batch_axes_match_the_one_row_calls(monkeypatch, dim, n, per_octave):
    # a (radii, rows) + grid.shape stack holding signed zeros gives, byte for
    # byte, the per-row stacks' maxima, in one block and in blocks of rows
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    family = BallFamily.build(grid, per_octave)
    rng = np.random.default_rng(n)
    stack = _with_signed_zeros(rng.normal(size=(len(family), 3) + grid.shape), rng)
    expected = np.stack([family.ball_filters(stack[:, j].copy()) for j in range(3)], axis=1)
    row_bytes = 2 * 8 * 3 * grid.size * (max(maximal._ball_runs(grid, tuple(family.radii.tolist()))[1]) + 1)
    for budget in (1 << 40, 1, 2 * row_bytes):  # one block; a row per block; two rows per block
        monkeypatch.setattr(grid_mod, "WORK_BYTES", budget)
        assert family.ball_filters(stack).tobytes() == expected.tobytes(), budget
    # the max of -0.0 alone is -0.0
    assert np.signbit(family.ball_filters(np.full(stack.shape, -0.0))).all()


def test_ball_filters_reject_a_stack_of_the_wrong_length():
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    family = BallFamily.build(grid, 4)
    with pytest.raises(ValueError, match="one row per radius"):
        family.ball_filters(np.zeros((len(family) - 1,) + grid.shape))
    # nor does a batched stack, or an array with grid axes of the wrong length
    for dim in (1, 2):
        grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=16)
        family, shape = BallFamily.build(grid, 4), grid.shape
        for wrong in ((len(family) + 1, 3) + shape, (3, len(family)) + shape, (len(family), 3) + shape[:-1] + (8,),
                      (len(family),) + shape[1:], (1,) + shape, shape[:-1]):
            with pytest.raises(ValueError, match="one row per radius"):
                family.ball_filters(np.zeros(wrong))


def test_ball_runs_are_built_once_per_grid_and_radii():
    grid = GridSpec(dim=2, half_width=2.0, points_per_axis=16)
    radii = np.array([1.0, 2.5, 4.0]) * grid.spacing
    maximal._ball_runs.cache_clear()
    for _ in range(3):  # a family built again, as each decomposition builds its own
        BallFamily(grid, radii.copy()).ball_filters(np.ones(grid.shape))
    assert maximal._ball_runs.cache_info().misses == 1


@pytest.mark.parametrize("dim, n", [(1, 64), (1, 512), (2, 32), (2, 64)])
def test_hl_maximal_matches_the_per_radius_loop_bitwise(dim, n):
    # byte for byte, signed zeros included: trials, an input with exact zeros
    # and -0.0 cells, and amplitudes near the ends of the float range
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    rng = np.random.default_rng(n)
    f = SampledFunction(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    x = grid.coordinate_mesh()[0]
    signed = np.where(np.abs(x) < 0.5, np.cos(3 * x), np.where(x > 0, 0.0, -0.0))
    inputs = [f, SampledFunction(grid, signed), 1e-300 * f, 1e300 * f]
    inputs += [trial_function(0, t, grid) for t in range(4)] if n >= 64 else []
    for g in inputs:
        assert hl_maximal(g).values.tobytes() == hl_maximal_per_radius(g).values.tobytes()


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)], ids=["1d-64", "2d-32"])
def test_ball_sums_spectra_match_per_radius_masks_bitwise(dim, n):
    # BallFamily.ball_sums reads the balls dist < r of its radii from the cached ball spectra
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    family = BallFamily.build(grid, 2)
    dist = grid.offset_distances()
    ball_spectra.cache_clear()
    family.ball_sums(np.ones(grid.shape))
    table = ball_spectra(grid, tuple(family.radii.tolist()))
    assert ball_spectra.cache_info().misses == 1  # the table ball_sums built
    assert not table.flags.writeable
    assert len(table) == len(family)
    for r, row in zip(family.radii, table):
        assert np.array_equal(row, spectrum((dist < r).astype(float), dim))
    # one table per (grid, radii): a family built again hits the cache
    BallFamily(grid, family.radii.copy()).ball_sums(np.ones(grid.shape))
    assert ball_spectra.cache_info().misses == 1


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


@pytest.mark.parametrize("dim", [1, 2])
def test_family_radii_keep_the_snap_invariant(dim):
    # every radius below the full box covers at most its continuous measure
    # in cells of its ball mask, so a ball average of a constant never
    # exceeds the constant
    for n in (16, 32, 64, 128):
        for half_width in (1.0, 2.0, 4.0):
            grid = GridSpec(dim=dim, half_width=half_width, points_per_axis=n)
            for density in (1, 2, 4, 8):
                radii = BallFamily.build(grid, density).radii
                assert radii[-1] == 2.0 * half_width
                for r in radii[radii < 2.0 * half_width].tolist():
                    covered = grid.cell_volume * np.count_nonzero(grid.ball_mask(r))
                    assert ball_volume(r, dim) >= covered, (n, half_width, density, r)
