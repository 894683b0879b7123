import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpx.errors import NoBracket
from lpx.grid import GridSpec, SampledFunction, gaussian_bump, indicator_box
from lpx.maximal import BallFamily, ball_volume
from lpx.spaces import (
    ExponentFunction,
    Lebesgue,
    MixedNorm,
    Morrey,
    OrliczFunction,
    OrliczSlice,
    VariableLebesgue,
    Weight,
    WeightedLebesgue,
    ap_characteristic,
    convexify_norm,
    critical_index,
    descriptor_from_json,
    orlicz_norm,
    power_orlicz,
    power_weight,
    space_norm,
)

GRID = GridSpec(dim=1, half_width=8.0, points_per_axis=1024)
UNIT = indicator_box(GRID, [0.0], [1.0])


def random_function(seed, grid=GRID, smooth=True):
    rng = np.random.default_rng(seed)
    if smooth:
        vals = rng.normal(size=grid.shape)
        spectrum = np.fft.fftn(vals)
        radii = grid.frequency_radii()
        spectrum[radii > 4.0] = 0.0
        vals = np.fft.ifftn(spectrum).real
    else:
        vals = rng.normal(size=grid.shape)
    return SampledFunction(grid, vals)


# ---------------------------------------------------------------------------
# Lebesgue and weighted


def test_lebesgue_unit_indicator():
    assert space_norm(UNIT, Lebesgue(2.0)) == pytest.approx(1.0, abs=1e-2)


def test_weighted_power_closed_form():
    # integral of x^(1/2) over (0,1) is 2/3
    w = power_weight(GRID, 0.5)
    val = space_norm(UNIT, WeightedLebesgue(1.0, w, q_omega=1.5))
    assert val == pytest.approx(2.0 / 3.0, rel=0.02)


def test_weighted_unit_weight_reduces_to_lebesgue():
    ones = Weight(
        values=SampledFunction(GRID, np.ones(GRID.shape)),
        family=BallFamily.build(GRID, 2),
        evaluator=lambda x: np.ones_like(x),
    )
    f = random_function(1)
    for p in (1.0, 1.7, 2.0):
        assert space_norm(f, WeightedLebesgue(p, ones, q_omega=1.0)) == pytest.approx(
            space_norm(f, Lebesgue(p)), rel=1e-12
        )


# ---------------------------------------------------------------------------
# Morrey


def brute_force_morrey(f, p, r, family):
    mag = np.abs(f.values)
    grid = f.grid
    best = 0.0
    for rad in family.radii:
        mask = family.mask(rad)
        for idx in np.ndindex(grid.shape):
            member = np.roll(mask, shift=idx, axis=tuple(range(grid.dim)))
            local = (mag[member] ** r).sum() * grid.cell_volume
            best = max(best, ball_volume(rad, grid.dim) ** (1 / p - 1 / r) * local ** (1 / r))
    return best


def test_morrey_unit_indicator():
    val = space_norm(UNIT, Morrey(2.0, 1.0))
    assert val == pytest.approx(1.0, rel=0.02)


def test_morrey_matches_brute_force():
    grid = GridSpec(dim=1, half_width=4.0, points_per_axis=64)
    family = BallFamily.build(grid, 2)
    f = random_function(2, grid)
    fast = space_norm(f, Morrey(2.0, 1.0, family=family))
    slow = brute_force_morrey(f, 2.0, 1.0, family)
    assert fast == pytest.approx(slow, rel=1e-10)


def test_morrey_equal_exponents_vs_lebesgue():
    f = random_function(3)
    morrey = space_norm(f, Morrey(2.0, 2.0))
    leb = space_norm(f, Lebesgue(2.0))
    assert morrey >= (1 - 0.02) * leb
    assert morrey <= leb * (1 + 1e-12)


# ---------------------------------------------------------------------------
# mixed norm


def test_mixed_norm_1d_equals_lebesgue():
    f = random_function(4)
    assert space_norm(f, MixedNorm((1.5,))) == pytest.approx(space_norm(f, Lebesgue(1.5)), rel=1e-12)


def test_mixed_norm_equal_exponents_2d():
    grid = GridSpec(dim=2, half_width=2.0, points_per_axis=32)
    f = random_function(5, grid, smooth=False)
    for p in (1.0, 2.0, 3.0):
        assert space_norm(f, MixedNorm((p, p))) == pytest.approx(space_norm(f, Lebesgue(p)), rel=1e-8)


def test_mixed_norm_infinity_axis():
    grid = GridSpec(dim=2, half_width=2.0, points_per_axis=16)
    f = random_function(6, grid, smooth=False)
    val = space_norm(f, MixedNorm((2.0, math.inf)))
    inner = np.sqrt(np.sum(np.abs(f.values) ** 2, axis=0) * grid.spacing)
    assert val == pytest.approx(float(inner.max()), rel=1e-12)


def test_mixed_norm_separable_product():
    grid = GridSpec(dim=2, half_width=2.0, points_per_axis=32)
    ax = grid.axis_coordinates()
    fx = np.exp(-(ax**2))
    gy = 1.0 / (1.0 + ax**2)
    f = SampledFunction(grid, np.outer(fx, gy))
    p1, p2 = 1.5, 3.0
    val = space_norm(f, MixedNorm((p1, p2)))
    n1 = (np.sum(fx**p1) * grid.spacing) ** (1 / p1)
    n2 = (np.sum(gy**p2) * grid.spacing) ** (1 / p2)
    assert val == pytest.approx(n1 * n2, rel=1e-12)


# ---------------------------------------------------------------------------
# variable exponent


def make_exponent(grid=GRID, base=1.8, dip=0.3):
    mesh = grid.coordinate_mesh()
    r2 = sum(c**2 for c in mesh)
    return ExponentFunction.build(grid, base - dip * np.exp(-r2))


def test_exponent_function_log_holder_constant():
    exp_fn = make_exponent()
    # cell centers avoid the origin, so the minimum sits a half-cell away
    assert exp_fn.p_minus == pytest.approx(1.5, abs=1e-3)
    assert exp_fn.p_plus <= 1.8


def test_variable_constant_exponent_reduces_to_lebesgue():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    exp_fn = ExponentFunction.build(grid, np.full(grid.shape, 1.7))
    f = random_function(7, grid)
    assert space_norm(f, VariableLebesgue(exp_fn)) == pytest.approx(
        space_norm(f, Lebesgue(1.7)), rel=1e-6
    )


def test_variable_norm_zero():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    exp_fn = ExponentFunction.build(grid, np.full(grid.shape, 1.7))
    assert space_norm(SampledFunction(grid, np.zeros(256)), VariableLebesgue(exp_fn)) == 0.0


# ---------------------------------------------------------------------------
# Orlicz


def test_orlicz_power_function_is_lebesgue():
    f = random_function(8)
    for p in (1.2, 2.0):
        assert orlicz_norm(f, power_orlicz(p)) == pytest.approx(space_norm(f, Lebesgue(p)), rel=1e-6)


def test_orlicz_indicator_closed_form():
    # Phi(c / lam) * |E| = 1 solves to lam = c / Phi^{-1}(1/|E|)
    phi = OrliczFunction(lambda t: np.asarray(t, float) ** 1.2 + np.asarray(t, float) ** 1.6,
                         lower_type=1.2, upper_type=1.6)
    c = 2.5
    f = SampledFunction(GRID, c * UNIT.values)
    measure = np.abs(space_norm(UNIT, Lebesgue(1.0)))
    expected = c / phi.inverse(1.0 / measure)
    assert orlicz_norm(f, phi) == pytest.approx(expected, rel=1e-6)


def test_orlicz_homogeneity():
    phi = OrliczFunction(lambda t: np.asarray(t, float) ** 1.2 + np.asarray(t, float) ** 1.6,
                         lower_type=1.2, upper_type=1.6)
    f = random_function(9)
    assert orlicz_norm(2.0 * f, phi) == pytest.approx(2.0 * orlicz_norm(f, phi), rel=1e-6)


def test_orlicz_no_bracket_for_degenerate():
    bounded = OrliczFunction(lambda t: np.minimum(np.asarray(t, float) ** 1.0, 1e-12),
                             lower_type=1.0, upper_type=1.0)
    f = random_function(10)
    with pytest.raises(NoBracket):
        orlicz_norm(f, bounded)


# ---------------------------------------------------------------------------
# Orlicz-slice


def test_orlicz_slice_power_reduces_to_lebesgue():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    f = random_function(11, grid)
    for p in (1.5, 2.0):
        space = OrliczSlice(power_orlicz(p), r=p, slice_t=1.0)
        assert space_norm(f, space) == pytest.approx(space_norm(f, Lebesgue(p)), rel=0.03)


def test_orlicz_slice_general_positive_and_zero():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    phi = OrliczFunction(lambda t: np.asarray(t, float) ** 1.2 + np.asarray(t, float) ** 1.6,
                         lower_type=1.2, upper_type=1.6)
    space = OrliczSlice(phi, r=1.5, slice_t=1.0)
    assert space_norm(SampledFunction(grid, np.zeros(256)), space) == 0.0
    assert space_norm(gaussian_bump(grid, [0.0], 0.5), space) > 0.0


def _unit_sized_function(grid, seed):
    """Complex values with |f| in [0.25, 1.25]: 2^k f stays normal for |k| <= 996."""
    rng = np.random.default_rng(seed)
    phase = np.exp(2j * np.pi * rng.random(grid.shape))
    return SampledFunction(grid, (0.25 + rng.random(grid.shape)) * phase)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
@given(k=st.integers(min_value=-996, max_value=996), seed=st.integers(0, 3))
@example(k=-996, seed=0)
@example(k=996, seed=0)
@example(k=664, seed=1)  # ~1e200, whose L^2 sum used to overflow to inf
@settings(max_examples=25, deadline=None)
def test_lebesgue_norm_exactly_homogeneous_over_the_float_range(p, k, seed):
    # 2^k with |k| <= 996 spans 1.5e-300 .. 6.7e299; scaling by a power of two
    # is exact, so the norm must scale exactly, without a warning
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=128)
    f = _unit_sized_function(grid, seed)
    c = 2.0**k
    with np.errstate(all="raise", under="ignore"):
        assert space_norm(c * f, Lebesgue(p)) == c * space_norm(f, Lebesgue(p))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
@given(exponent=st.integers(min_value=-300, max_value=300))
@example(exponent=200)
@example(exponent=-300)
@example(exponent=300)
@settings(max_examples=25, deadline=None)
def test_lebesgue_norm_of_a_bump_over_decimal_amplitudes(p, exponent):
    # a Gaussian bump, whose far tails go subnormal at small amplitudes
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    f = gaussian_bump(grid, [0.2], 0.5)
    c = 10.0**exponent
    value = space_norm(f, Lebesgue(p))
    with np.errstate(all="raise", under="ignore"):
        assert space_norm(c * f, Lebesgue(p)) == pytest.approx(c * value, rel=1e-14)


@given(exponent=st.floats(min_value=-290.0, max_value=300.0))
@example(exponent=-200.0)
@example(exponent=200.0)
@example(exponent=-290.0)
@example(exponent=300.0)
@settings(max_examples=25, deadline=None)
def test_orlicz_slice_over_subnormal_tails_and_extreme_amplitudes(exponent):
    # the far tails of this bump are subnormal; a bisection bracket scaled by a
    # window's max underflowed to 0 there and the bisection divided 0 by 0.
    # The outer sum of ratio powers underflowed to 0 near amplitude 1e-290 and
    # overflowed near 1e300.
    from lpx.harness import FIVE_SPACES, trial_function

    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    f = trial_function(3, 3, grid)
    space = descriptor_from_json(FIVE_SPACES["orlicz_slice"], grid)
    c = 10.0**exponent
    # underflow stays allowed: Phi(u) of a negligible u ~ 1e-320 rounds to 0
    with np.errstate(all="raise", under="ignore"):
        value = space_norm(f, space)
        assert space_norm(c * f, space) == pytest.approx(c * value, rel=1e-12)
    assert value > 0


def fixed_iteration_orlicz_slice_norm(f: SampledFunction, space: OrliczSlice) -> float:
    """OrliczSlice.norm with all 80 bisection steps run: the reference for its early stop."""
    grid = f.grid
    mask = grid.offset_distances() < space.slice_t
    cellvol = grid.cell_volume
    denom = 1.0 / space.phi.inverse(1.0 / (np.count_nonzero(mask) * cellvol))
    windows = np.ascontiguousarray(grid.torus_windows(np.abs(f.values), np.argwhere(mask)).T)
    sups = windows.max(axis=1)
    lams = np.where(sups > 0, sups, 1.0)
    scaled = windows / lams[:, None]
    lo = np.full(len(lams), 1e-30)
    hi = np.full(len(lams), 1e30)
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        high = space.phi.evaluator(scaled / mid[:, None]).sum(axis=1) * cellvol > 1.0
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    ratios = np.where(sups > 0, hi * lams, 0.0) / denom
    top = ratios.max()
    if top == 0.0:
        return 0.0
    return float((np.sum((ratios / top) ** space.r) * cellvol) ** (1.0 / space.r) * top)


def test_orlicz_slice_early_stop_matches_80_step_bisection_bitwise():
    from lpx.harness import FIVE_SPACES, trial_function

    small = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    space = descriptor_from_json(FIVE_SPACES["orlicz_slice"], small)
    modular_steps = []

    def counted(u, phi=space.phi.evaluator):
        if np.ndim(u) == 2:  # only the windowed bisection passes 2-D arguments
            modular_steps.append(1)
        return phi(u)

    counting = OrliczSlice(OrliczFunction(counted, space.phi.lower_type, space.phi.upper_type), space.r,
                           space.slice_t)
    for trial in range(8):
        f = trial_function(505, trial, small)
        modular_steps.clear()
        assert counting.norm(f) == fixed_iteration_orlicz_slice_norm(f, space)
        # the criterion-5 trials reach the fixed point well before the cap
        assert len(modular_steps) < 80
    # the subnormal tails and extreme amplitudes of the test above
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    space = descriptor_from_json(FIVE_SPACES["orlicz_slice"], grid)
    f = trial_function(3, 3, grid)
    for exponent in (0.0, -200.0, 200.0, -290.0, 300.0):
        g = 10.0**exponent * f
        assert space_norm(g, space) == fixed_iteration_orlicz_slice_norm(g, space)


# ---------------------------------------------------------------------------
# convexification


def test_convexify_l2_squared_is_l4():
    f = random_function(12)
    assert convexify_norm(f, Lebesgue(2.0), 2.0) == pytest.approx(space_norm(f, Lebesgue(4.0)), rel=1e-8)


def test_convexify_identity_at_p1():
    f = random_function(13)
    assert convexify_norm(f, Morrey(2.0, 1.0), 1.0) == pytest.approx(
        space_norm(SampledFunction(f.grid, np.abs(f.values)), Morrey(2.0, 1.0)), rel=1e-12
    )


def test_convexify_indicator():
    for p in (0.5, 2.0):
        val = convexify_norm(UNIT, Lebesgue(2.0), p)
        assert val == pytest.approx(space_norm(UNIT, Lebesgue(2.0)) ** (1.0 / p), rel=1e-8)


# ---------------------------------------------------------------------------
# lattice / Fatou / triangle properties across all spaces


def all_spaces(grid=GRID):
    w = power_weight(grid, 0.5)
    phi = OrliczFunction(lambda t: np.asarray(t, float) ** 1.2 + np.asarray(t, float) ** 1.6,
                         lower_type=1.2, upper_type=1.6)
    return [
        Lebesgue(2.0),
        Lebesgue(1.0),
        WeightedLebesgue(1.5, w, q_omega=1.5),
        Morrey(2.0, 1.0),
        MixedNorm((1.5,) * grid.dim),
        VariableLebesgue(make_exponent(grid)),
        OrliczSlice(phi, r=1.5, slice_t=1.0),
    ]


@pytest.mark.parametrize("idx", range(7))
def test_lattice_property(idx):
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    space = all_spaces(grid)[idx]
    rng = np.random.default_rng(20 + idx)
    f = SampledFunction(grid, rng.normal(size=256))
    shrink = SampledFunction(grid, f.values * rng.uniform(0, 1, size=256))
    assert space_norm(shrink, space) <= space_norm(f, space) + 1e-10


@pytest.mark.parametrize("idx", range(7))
def test_fatou_truncations(idx):
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    space = all_spaces(grid)[idx]
    rng = np.random.default_rng(40 + idx)
    f = np.abs(rng.normal(size=256))
    f = 3.0 * f / f.max()
    levels = [0.5, 1.0, 2.0, 3.0]
    norms = [space_norm(SampledFunction(grid, np.minimum(f, m)), space) for m in levels]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    full = space_norm(SampledFunction(grid, f), space)
    assert norms[-1] == pytest.approx(full, rel=1e-9)


@pytest.mark.parametrize("idx", range(7))
def test_indicator_finite(idx):
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    space = all_spaces(grid)[idx]
    ball = indicator_box(grid, [-1.0], [1.0])
    val = space_norm(ball, space)
    assert np.isfinite(val) and val > 0


@pytest.mark.parametrize("idx", [0, 2, 3, 4, 5, 6])
def test_triangle_inequality_when_floor_above_one(idx):
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    space = all_spaces(grid)[idx]
    if space.floor() < 1.0:
        pytest.skip("quasi-norm only")
    rng = np.random.default_rng(60 + idx)
    f = SampledFunction(grid, rng.normal(size=256))
    g = SampledFunction(grid, rng.normal(size=256))
    assert space_norm(f + g, space) <= space_norm(f, space) + space_norm(g, space) + 1e-9


def test_floor_exponents():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    spaces = all_spaces(grid)
    assert spaces[0].floor() == 2.0
    assert spaces[2].floor() == pytest.approx(1.0)  # p / q_omega = 1.5 / 1.5
    assert spaces[3].floor() == 1.0
    assert spaces[4].floor() == 1.5
    assert spaces[5].floor() == pytest.approx(1.5, abs=1e-3)
    assert spaces[6].floor() == pytest.approx(1.2)


# ---------------------------------------------------------------------------
# Muckenhoupt layer


def test_ap_characteristic_of_unit_weight():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    fam = BallFamily.build(grid, 4)
    ones = Weight(SampledFunction(grid, np.ones(256)), fam, lambda x: np.ones_like(x))
    for p in (1.0, 1.5, 2.0, 4.0):
        assert ap_characteristic(ones, p) == pytest.approx(1.0, rel=1e-12)


def test_ap_characteristic_monotone_in_p():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    w = power_weight(grid, 0.5)
    ps = [1.2, 1.5, 2.0, 3.0, 4.0]
    chars = [ap_characteristic(w, p) for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(chars, chars[1:]))


def test_ap_characteristic_refinement_growth():
    # at p=2 the characteristic of |x|^(1/2) is stable under refinement;
    # at p=1.2 it keeps growing at the rate 2^(a - n(p-1)) = 2^0.3 per doubling
    chars = {}
    for n in (512, 1024, 2048):
        w = power_weight(GridSpec(1, 8.0, n), 0.5)
        chars[n] = {p: ap_characteristic(w, p) for p in (1.2, 2.0)}
    stable_ratio = chars[2048][2.0] / chars[1024][2.0]
    assert stable_ratio < 1.10
    growth_ratio = chars[2048][1.2] / chars[1024][1.2]
    assert growth_ratio > 1.15
    assert math.log2(growth_ratio) == pytest.approx(0.3, abs=0.05)


def test_critical_index_values():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    assert critical_index(power_weight(grid, 0.5)) == pytest.approx(1.5, abs=0.1)
    fam = BallFamily.build(grid, 4)
    ones = Weight(SampledFunction(grid, np.ones(512)), fam, lambda x: np.ones_like(x))
    assert critical_index(ones) == 1.0
    decay = Weight(
        SampledFunction(grid, (1 + np.abs(grid.axis_coordinates())) ** -0.5),
        fam,
        lambda x: (1 + np.abs(x)) ** -0.5,
    )
    assert critical_index(decay) == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# JSON round trip


def test_descriptor_json_roundtrip():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    cfgs = [
        {"tag": "lebesgue", "p": 2.0},
        {"tag": "morrey", "p": 2.0, "r": 1.0},
        {"tag": "mixed", "p": [1.5]},
        {"tag": "weighted", "p": 1.5, "weight": {"kind": "power", "a": 0.5}, "q_omega": 1.5},
        {"tag": "variable", "base": 1.8, "dip": 0.3},
        {"tag": "orlicz_slice", "r": 1.5, "t": 1.0, "lower_type": 1.2, "upper_type": 1.6},
    ]
    for cfg in cfgs:
        desc = descriptor_from_json(cfg, grid)
        out = desc.to_json()
        assert out["tag"] == cfg["tag"]


@given(c=st.floats(min_value=1e-3, max_value=1e3), idx=st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_space_norm_positively_homogeneous(c, idx):
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    space = all_spaces(grid)[idx]
    rng = np.random.default_rng(123)
    f = SampledFunction(grid, rng.normal(size=256))
    scaled = space_norm(c * f, space)
    assert scaled == pytest.approx(c * space_norm(f, space), rel=1e-6)


def test_descriptor_rejects_unknown_keys():
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    with pytest.raises(ValueError):
        descriptor_from_json({"tag": "lebesgue", "p": 2.0, "bogus": 1}, grid)


def test_critical_index_rejects_nonintegrable_weight():
    from lpx.errors import NotInAInfty

    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    fam = BallFamily.build(grid, 4)

    def ev(x):
        return np.abs(x) ** -1.0

    w = Weight(SampledFunction(grid, ev(grid.axis_coordinates())), fam, ev)
    with pytest.raises(NotInAInfty):
        critical_index(w)


def test_descriptor_weight_and_exponent_from_csv(tmp_path):
    from lpx.grid import write_function_csv

    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    w_vals = SampledFunction(grid, 1.0 + np.abs(grid.axis_coordinates()))
    wpath = tmp_path / "weight.csv"
    write_function_csv(w_vals, wpath)
    desc = descriptor_from_json(
        {"tag": "weighted", "p": 2.0, "weight": {"kind": "csv", "path": str(wpath)}, "q_omega": 1.0},
        grid,
    )
    f = random_function(77, grid)
    direct = float((np.sum(np.abs(f.values) ** 2 * w_vals.values.real) * grid.cell_volume) ** 0.5)
    assert space_norm(f, desc) == pytest.approx(direct, rel=1e-12)

    e_vals = SampledFunction(grid, np.full(grid.shape, 1.6))
    epath = tmp_path / "exponent.csv"
    write_function_csv(e_vals, epath)
    vdesc = descriptor_from_json({"tag": "variable", "csv": str(epath)}, grid)
    assert space_norm(f, vdesc) == pytest.approx(space_norm(f, Lebesgue(1.6)), rel=1e-6)


@pytest.mark.parametrize("recipe", ["weight", "exponent"])
@pytest.mark.parametrize("csv_grid", [GridSpec(1, 2.0, 256), GridSpec(1, 8.0, 128)],
                         ids=["other-L", "other-N"])
def test_descriptor_csv_on_other_grid_rejected(tmp_path, recipe, csv_grid):
    from lpx.grid import write_function_csv

    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    path = tmp_path / f"{recipe}.csv"
    write_function_csv(SampledFunction(csv_grid, np.full(csv_grid.shape, 1.5)), path)
    if recipe == "weight":
        cfg = {"tag": "weighted", "p": 2.0, "q_omega": 1.0, "weight": {"kind": "csv", "path": str(path)}}
    else:
        cfg = {"tag": "variable", "csv": str(path)}
    with pytest.raises(ValueError) as exc:
        descriptor_from_json(cfg, grid)
    assert repr(csv_grid) in str(exc.value) and repr(grid) in str(exc.value)


@pytest.mark.parametrize("cfg", [{"tag": "morrey", "p": 2.0}, {"tag": "sobolev", "p": 2.0}, {"p": 2.0}, "lebesgue"])
def test_descriptor_rejects_malformed_config(cfg):
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    with pytest.raises(ValueError):
        descriptor_from_json(cfg, grid)
