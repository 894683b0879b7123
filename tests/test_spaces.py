import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import convexify_norm, fs_vector_check, indicator_box, powered_maximal
from lpx.errors import NumericFailure
import lpx.grid as grid_mod
import lpx.spaces as spaces_mod
from lpx.grid import GridSpec, SampledFunction, ScaleGrid, gaussian_bump
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
    critical_index,
    descriptor_from_json,
    lebesgue_row_norms,
    orlicz_norm,
    power_orlicz,
    power_weight,
    space_norm,
    space_norms,
)
from lpx.squarefuncs import ball_spectra
from lpx.transforms import correlate

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
    ones = Weight(values=SampledFunction(GRID, np.ones(GRID.shape)), evaluator=lambda x: np.ones_like(x))
    f = random_function(1)
    for p in (1.0, 1.7, 2.0):
        assert space_norm(f, WeightedLebesgue(p, ones, q_omega=1.0)) == pytest.approx(
            space_norm(f, Lebesgue(p)), rel=1e-12
        )


@pytest.mark.parametrize("p,q_omega", [(0.0, None), (-1.0, None), (1.5, 0.0), (1.5, -2.0), (1.5, 0.5)])
def test_weighted_refuses_nonpositive_p_and_q_omega_below_one(p, q_omega):
    # p = 0 or q_omega = 0 divided by zero in the floor exponent, and a
    # negative one failed only inside the Peetre sup: a critical Muckenhoupt
    # exponent is at least 1
    w = power_weight(GRID, 0.5)
    with pytest.raises(ValueError, match="q_omega" if q_omega is not None else "p must be positive"):
        WeightedLebesgue(p, w, q_omega=q_omega)
    assert WeightedLebesgue(1.5, w, q_omega=1.0).floor() == 1.5


# ---------------------------------------------------------------------------
# Morrey


def brute_force_morrey(f, p, r, family):
    mag = np.abs(f.values)
    grid = f.grid
    best = 0.0
    for rad in family.radii:
        mask = grid.offset_distances() < rad
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
    f = random_function(2, grid)
    fast = space_norm(f, Morrey(2.0, 1.0))
    slow = brute_force_morrey(f, 2.0, 1.0, BallFamily.build(grid, spaces_mod.BALL_RADII_PER_OCTAVE))
    assert fast == pytest.approx(slow, rel=1e-10)


def _unit_magnitude(f):
    """(|f| / 2^e, e), e the binary exponent of max |f|: the scaling every norm entry applies."""
    mag = np.abs(f.values)
    e = math.frexp(float(mag.max()))[1]
    return np.ldexp(mag, -e), e


def _ldexp_or_inf(value, e):
    """value * 2^e, inf past the float range: the scale-back of every norm entry."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.inf


def _morrey_per_radius(f, p, r, family):
    """The per-radius loop that the one-correlation Morrey norm replaced: one
    correlation per radius, against that one ball's spectrum."""
    grid = f.grid
    mag, e = _unit_magnitude(f)
    best = 0.0
    for rad in family.radii:
        local = correlate(mag**r, ball_spectra(grid, (float(rad),))[0], grid.dim) * grid.cell_volume
        np.maximum(local, 0.0, out=local)
        factor = ball_volume(float(rad), f.grid.dim) ** (1.0 / p - 1.0 / r)
        best = max(best, factor * float(local.max()) ** (1.0 / r))
    return _ldexp_or_inf(float(best), e)


@pytest.mark.parametrize("dim", [1, 2])
def test_morrey_matches_per_radius_loop_bitwise_and_builds_its_family_once(dim):
    from lpx.harness import trial_function

    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=64)
    inputs = [trial_function(0, i, grid) for i in range(4)] + [SampledFunction(grid, np.zeros(grid.shape))]
    BallFamily.build.cache_clear()
    reference_family = BallFamily.build(grid, spaces_mod.BALL_RADII_PER_OCTAVE)
    for p, r in ((2.0, 1.0), (3.0, 1.5)):
        for f in inputs:
            assert space_norm(f, Morrey(p, r)) == _morrey_per_radius(f, p, r, reference_family)
    # the family is built once per grid, not once per norm
    assert BallFamily.build.cache_info().misses == 1


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
    # Phi(c / lam) * |E| = 1 solves to lam = c / Phi^{-1}(1/|E|), c times the
    # oracle's norm of a ones row of E's cell count
    phi = OrliczFunction(lambda t: np.asarray(t, float) ** 1.2 + np.asarray(t, float) ** 1.6,
                         lower_type=1.2, upper_type=1.6)
    c = 2.5
    f = SampledFunction(GRID, c * UNIT.values)
    ones = np.ones((1, np.count_nonzero(UNIT.values)))
    expected = c * _luxemburg_oracle(ones, GRID.cell_volume, phi.evaluator, phi)[0]
    assert orlicz_norm(f, phi) == pytest.approx(expected, rel=1e-6)


def test_orlicz_homogeneity():
    phi = OrliczFunction(lambda t: np.asarray(t, float) ** 1.2 + np.asarray(t, float) ** 1.6,
                         lower_type=1.2, upper_type=1.6)
    f = random_function(9)
    assert orlicz_norm(2.0 * f, phi) == pytest.approx(2.0 * orlicz_norm(f, phi), rel=1e-6)


def test_orlicz_function_rejects_types_that_do_not_hold():
    def u_squared(t):
        return np.asarray(t, float) ** 2

    # Phi must be the sum of u^p over its types: u^2 is not u^1.2 + u^1.6,
    # u^1.4 not u^1.5 + u^1.6, and a bounded Phi, whose modular never
    # reaches 1, is no sum of powers
    rejected = [
        lambda: OrliczFunction(u_squared, lower_type=1.2, upper_type=1.6),
        lambda: OrliczFunction(lambda t: np.asarray(t, float) ** 1.4, lower_type=1.5, upper_type=1.6),
        lambda: OrliczFunction(u_squared, lower_type=5.0, upper_type=0.5),  # lower type above the upper
        lambda: OrliczFunction(u_squared, lower_type=0.0, upper_type=2.0),
        lambda: OrliczFunction(lambda t: np.minimum(np.asarray(t, float), 1e-12), lower_type=1.0, upper_type=1.0),
        lambda: descriptor_from_json({"tag": "orlicz_slice", "r": 1.5, "t": 1.0, "lower_type": 2.0,
                                      "upper_type": 1.0}, GRID),
    ]
    for build in rejected:
        with pytest.raises(ValueError, match="type"):
            build()
    # declarations that hold pass: u^p, u^1.2 + u^1.6, and the recipe's default
    assert power_orlicz(0.5).exponents == (0.5,) and power_orlicz(3.0, 3.0).exponents == (3.0,)
    assert power_orlicz(0.6, 8.0).exponents == (0.6, 8.0)
    OrliczFunction(lambda t: u_squared(t) ** 0.6 + u_squared(t) ** 0.8, lower_type=1.2, upper_type=1.6)
    assert descriptor_from_json({"tag": "orlicz_slice", "r": 1.5, "t": 1.0}, GRID).phi.exponents == (1.2, 1.6)


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


# every space descriptor, the convexified norm, the maximal operators and the
# Fefferman-Stein ratio: a float p is Lebesgue(p), a name one of criterion 5's
# spaces or a Morrey space; Morrey(2, 2) and Morrey(3, 1.5) are here because
# their unscaled |f|^r leaves the float range at amplitudes where criterion
# 5's Morrey(2, 1) stays inside it
HOMOGENEOUS = [1.0, 1.5, 2.0, 4.0, "weighted", "mixed", "variable", "orlicz_slice", "morrey",
               "morrey(2,2)", "morrey(3,1.5)", "hl_maximal", "convexify(lebesgue2,2)",
               "convexify(morrey,1.5)", "powered_maximal(2)", "powered_maximal(0.7)", "fs_vector_check"]
DEGREE = {"fs_vector_check": 0}  # of homogeneity; 1 for every other operator


@functools.lru_cache(maxsize=None)
def _homogeneous_operator(which, grid):
    """The operator ``which`` of ``HOMOGENEOUS`` on the grid, as a function of f."""
    from lpx.harness import five_spaces
    from lpx.maximal import hl_maximal

    operators = {
        "hl_maximal": lambda f: hl_maximal(f).values,
        "convexify(lebesgue2,2)": lambda f: convexify_norm(f, Lebesgue(2.0), 2.0),
        "convexify(morrey,1.5)": lambda f: convexify_norm(f, Morrey(2.0, 1.0), 1.5),
        "powered_maximal(2)": lambda f: powered_maximal(f, 2.0).values,
        "powered_maximal(0.7)": lambda f: powered_maximal(f, 0.7).values,
        "fs_vector_check": lambda f: fs_vector_check([f, SampledFunction(grid, np.roll(f.values, 5))],
                                                     0.7, 2.0, Lebesgue(2.0)),
    }
    if which in operators:
        return operators[which]
    space = Lebesgue(which) if isinstance(which, float) else {
        "morrey(2,2)": Morrey(2.0, 2.0), "morrey(3,1.5)": Morrey(3.0, 1.5)}.get(which) or five_spaces(grid)[which]
    return functools.partial(space_norm, space=space)


@pytest.mark.parametrize("which", HOMOGENEOUS)
@given(k=st.integers(min_value=-996, max_value=996), seed=st.integers(0, 3))
@example(k=-996, seed=0)
@example(k=996, seed=0)
@example(k=664, seed=1)  # ~1e200, whose L^2 sum used to overflow to inf
@settings(max_examples=25, deadline=None, derandomize=True)
def test_lebesgue_norm_exactly_homogeneous_over_the_float_range(which, k, seed):
    # 2^k with |k| <= 996 spans 1.5e-300 .. 6.7e299; scaling by a power of two
    # is exact, so the norm (or maximal function) must scale exactly, without
    # a warning
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=128)
    f = _unit_sized_function(grid, seed)
    c = 2.0**k
    operator = _homogeneous_operator(which, grid)
    with np.errstate(all="raise", under="ignore"):
        assert np.array_equal(operator(c * f), c ** DEGREE.get(which, 1) * operator(f))


@pytest.mark.parametrize("which", HOMOGENEOUS)
@given(exponent=st.integers(min_value=-300, max_value=300))
@example(exponent=200)
@example(exponent=-300)
@example(exponent=300)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_lebesgue_norm_of_a_bump_over_decimal_amplitudes(which, exponent):
    # a Gaussian bump, whose far tails go subnormal at small amplitudes
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    f = gaussian_bump(grid, [0.2], 0.5)
    c = 10.0**exponent
    operator = _homogeneous_operator(which, grid)
    value = operator(f)
    with np.errstate(all="raise", under="ignore"):
        assert operator(c * f) == pytest.approx(c ** DEGREE.get(which, 1) * value, rel=1e-14, abs=0.0)


def _lebesgue_norm_reference(f, p):
    """The L^p norm of one whole array, as before the row-batched reduction."""
    mag, e = _unit_magnitude(f)
    total = float(np.add.reduce(mag**p, axis=None)) * f.grid.cell_volume
    return _ldexp_or_inf(total ** (1.0 / p), e)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32)], ids=["1d-256", "2d-32"])
def test_lebesgue_row_norms_match_whole_array_reference_bitwise(dim, n):
    # one row-batched call on the rows scaled by their own 2^e, scaled back,
    # one space_norms call and one Lebesgue.norm per row all give, bit for
    # bit, the whole-array norm; rows span the float range, one is zero and
    # one overflows
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    rng = np.random.default_rng(n)
    rows = rng.random((7, grid.size)) * 10.0 ** rng.integers(-300, 300, size=(7, 1)).astype(float)
    rows[2] = 0.0
    rows[5] = 1e308
    ps = (1.0, 2.0, 4.0)
    exps = [math.frexp(float(row.max()))[1] for row in rows]
    unit = np.stack([np.ldexp(row, -e) for row, e in zip(rows, exps)])
    batched = [[_ldexp_or_inf(norm, e) for norm, e in zip(lebesgue_row_norms(unit, p, grid.cell_volume), exps)]
               for p in ps]
    for p, norms in zip(ps, batched):
        funcs = [SampledFunction(grid, row.reshape(grid.shape)) for row in rows]
        assert norms == [_lebesgue_norm_reference(f, p) for f in funcs]
        assert norms == [space_norm(f, Lebesgue(p)) for f in funcs]
        assert norms == space_norms(grid, rows.reshape((-1,) + grid.shape), Lebesgue(p))
    assert batched[1][2] == 0.0 and batched[1][5] == math.inf


@given(exponent=st.floats(min_value=-290.0, max_value=300.0))
@example(exponent=-200.0)
@example(exponent=200.0)
@example(exponent=-290.0)
@example(exponent=300.0)
@settings(max_examples=25, deadline=None, derandomize=True)
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
        assert space_norm(c * f, space) == pytest.approx(c * value, rel=1e-12, abs=0.0)
    assert value > 0


# (lower type, upper type, outer r) of OrliczSlice spaces whose small outer
# r weights the windows far below a row's max: window sums from FFT ball sums
# missed the oracle by 1.9e-4 relative on the first, one tail window 5e14-fold
# off, and sums of the row's powers without a band per window by 4.7e-3 on
# the third
SLICE_TRAPS = [(0.6, 3.0, 0.8), (1.2, 3.0, 0.1), (0.6, 8.0, 0.05), (2.0, 2.0, 0.05)]


@functools.lru_cache(maxsize=None)
def _slice_trap_inputs():
    """Trial 3 of seeds 1 and 3 at 1-D N=256, L=8, whose tails are subnormal
    or zero, and trials 0-2 of seed 5 at 1-D N=512, L=8."""
    from lpx.harness import trial_function

    coarse = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    fine = GridSpec(dim=1, half_width=8.0, points_per_axis=512)
    return [trial_function(seed, 3, coarse) for seed in (1, 3)] + [trial_function(5, i, fine) for i in range(3)]


@pytest.mark.parametrize("lower,upper,r", SLICE_TRAPS)
def test_orlicz_slice_matches_the_oracle_on_far_tails_and_wide_types(lower, upper, r):
    space = OrliczSlice(power_orlicz(lower, upper), r=r, slice_t=1.0)
    inputs = _slice_trap_inputs()
    assert 0.0 < min(np.abs(f.values)[np.abs(f.values) > 0].min() for f in inputs) < np.finfo(float).tiny
    for f in inputs:
        assert space_norm(f, space) == pytest.approx(_orlicz_slice_oracle(f, space), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("lower,upper,r", SLICE_TRAPS)
def test_orlicz_slice_rows_of_other_bands_in_one_call_are_each_row_alone(lower, upper, r):
    # windows whose maxima lie hundreds of binades apart take their sums from
    # passes of different bands; each row of one call is bitwise that row alone
    space = OrliczSlice(power_orlicz(lower, upper), r=r, slice_t=1.0)
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    bump = gaussian_bump(grid, [0.2], 0.2).values  # its tails fall to 0 across every band
    rows = np.stack([f.values.real for f in _slice_trap_inputs()[:2]] + [bump, np.roll(bump, 100), 1e-300 * bump,
                                                                        np.zeros(grid.shape)])
    assert space_norms(grid, rows, space) == [space_norm(SampledFunction(grid, row), space) for row in rows]


def _slice_logs_by_rolls(grid, mag, slice_t, exps, cellvol):
    """``spaces._slice_logs`` by rolls: over the offsets o of
    ``np.nonzero(grid.ball_mask(slice_t))``, in that order, each window's max
    and its sums of powers of the row scaled by its band's shift are taken on
    the rows moved by -o with ``np.roll``, the sums added left to right."""
    axes = tuple(range(1, grid.dim + 1))
    offsets = [tuple(-o for o in offset) for offset in zip(*np.nonzero(grid.ball_mask(slice_t)))]
    top = functools.reduce(np.maximum, (np.roll(mag, o, axis=axes) for o in offsets))
    band = max(1, min(2048, int(spaces_mod.SLICE_BAND_BITS // max(exps))))
    shifts = -(-np.frexp(top)[1] // band) * band
    sums = [np.zeros(mag.shape) for _ in exps]
    for shift in np.unique(shifts).tolist():
        at = shifts == shift
        for total, p in zip(sums, exps):
            with np.errstate(over="ignore"):  # cells of other bands' windows may overflow
                powers = np.ldexp(mag, -shift) ** p
                total[at] = functools.reduce(np.add, (np.roll(powers, o, axis=axes) for o in offsets))[at]
    return spaces_mod._power_sum_logs([total.reshape(-1) for total in sums], cellvol), shifts.reshape(-1)


@pytest.mark.parametrize("lower,upper", [(1.2, 1.6), *((lower, upper) for lower, upper, _ in SLICE_TRAPS)])
def test_slice_window_sums_add_the_mask_offsets_in_order_bitwise(lower, upper):
    # the window sums of the slice ball's row runs add its offsets in mask
    # order: on rows of one band (criterion 5's trials) and of several (far
    # tails, a narrow bump and its copy at 1e-300), at 1-D and 2-D
    from lpx.harness import trial_function

    exps = power_orlicz(lower, upper).exponents
    bench = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    line = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    bump = gaussian_bump(line, [0.2], 0.2).values
    plane = GridSpec(dim=2, half_width=2.0, points_per_axis=64)
    disc = gaussian_bump(plane, [0.2, -0.3], 0.05).values
    cases = [(bench, [trial_function(5, i, bench).values for i in range(4)]),
             (line, [f.values for f in _slice_trap_inputs()[:2]] + [bump, 1e-300 * bump]),
             (plane, [trial_function(5, i, plane).values for i in range(3)] + [disc, 1e-300 * disc])]
    for grid, rows in cases:
        mag = np.abs(np.stack(rows))
        logs, shifts = spaces_mod._slice_logs(grid, mag, 1.0, exps, grid.cell_volume)
        ref_logs, ref_shifts = _slice_logs_by_rolls(grid, mag, 1.0, exps, grid.cell_volume)
        assert np.array_equal(shifts, ref_shifts)
        assert logs.tobytes() == ref_logs.tobytes(), (grid, exps)
    assert len(np.unique(shifts)) > 1  # the 2-D rows hold windows of several bands


def _slice_outer_norm(ratios, r, cellvol, e):
    """The outer L^r norm of an OrliczSlice norm, over the ratios of the row
    scaled by 2^-e, scaled back."""
    return math.ldexp((float(np.add.reduce(ratios**r)) * cellvol) ** (1.0 / r), e)


# ---------------------------------------------------------------------------
# Luxemburg norms against their oracle: a log-bisection run to its fixed point


_ORACLES = {}  # the oracle is deterministic: reuse it on bit-identical rows


def _luxemburg_oracle(mag, cellvol, density, key):
    """inf{lam : cellvol * sum of density(row / lam) <= 1} of every row of the
    non-negative (rows, cells) array ``mag``: hi of a log-bisection of each row
    divided by its max over (1e-30, 1e30), run until (lo, hi) no longer moves,
    times the max.  ``key`` names the density in the cache."""
    mag = np.ascontiguousarray(mag, dtype=float)
    cache_key = (mag.tobytes(), mag.shape, cellvol, key)
    if cache_key not in _ORACLES:
        sups = mag.max(axis=1)
        live = sups > 0
        scaled = mag[live] / sups[live, None]
        lo = np.full(len(scaled), 1e-30)
        hi = np.full(len(scaled), 1e30)
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            high = np.add.reduce(density(scaled / mid[:, None]), axis=1) * cellvol > 1.0
            new_lo, new_hi = np.where(high, mid, lo), np.where(high, hi, mid)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        else:
            raise AssertionError("the oracle bisection did not reach its fixed point")
        out = np.zeros(len(mag))
        out[live] = hi * sups[live]
        _ORACLES[cache_key] = out
    return _ORACLES[cache_key]


def _variable_oracle(f, space):
    """The VariableLebesgue norm of f from the oracle."""
    mag, e = _unit_magnitude(f)
    pvals = space.exponent.values.reshape(-1)
    norm = _luxemburg_oracle(mag.reshape(1, -1), f.grid.cell_volume, lambda ratio: ratio**pvals, pvals.tobytes())
    return _ldexp_or_inf(float(norm[0]), e)


def _orlicz_oracle(f, phi):
    """orlicz_norm(f, phi) from the oracle."""
    mag, e = _unit_magnitude(f)
    return _ldexp_or_inf(float(_luxemburg_oracle(mag.reshape(1, -1), f.grid.cell_volume, phi.evaluator, phi)[0]), e)


def _orlicz_slice_oracle(f, space):
    """The OrliczSlice norm of f, every window's norm and the slice ball's own
    from the oracle."""
    grid = f.grid
    cellvol = grid.cell_volume
    offsets = np.argwhere(grid.offset_distances() < space.slice_t)
    denom = _luxemburg_oracle(np.ones((1, len(offsets))), cellvol, space.phi.evaluator, space.phi)[0]
    mag, e = _unit_magnitude(f)
    # windows[x][o] = mag[(x + o) mod n], the cells x in C order
    cells = np.indices(grid.shape).reshape(grid.dim, -1, 1)
    windows = mag[tuple((cells + offsets.T[:, None, :]) % grid.points_per_axis)]
    return _slice_outer_norm(_luxemburg_oracle(windows, cellvol, space.phi.evaluator, space.phi) / denom,
                             space.r, cellvol, e)


def _luxemburg_oracle_of(f, space):
    return _variable_oracle(f, space) if isinstance(space, VariableLebesgue) else _orlicz_slice_oracle(f, space)


@functools.lru_cache(maxsize=None)
def _criterion5_inputs(n, seed):
    """f, S, g and the Peetre maximal function of trials 0-9 at N=n, with the
    five-space descriptors: criterion 5's equivalence inputs on the
    benchmark's [-2, 2) at N=64, and on [-8, 8) at N=256."""
    from lpx.harness import five_spaces, trial_function
    from lpx.kernels import build_kernel, calderon_companion
    from lpx.maximal import default_peetre_exponent, peetre_maximal
    from lpx.squarefuncs import g_function, lusin_area
    from lpx.transforms import build_field, build_plan

    grid = GridSpec(dim=1, half_width={64: 2.0, 256: 8.0}[n], points_per_axis=n)
    scales = ScaleGrid(1 / 16, 16.0, 8)
    kernel = build_kernel("annular", grid)
    plan = build_plan(kernel, scales)
    psi_plan = build_plan(calderon_companion(kernel, scales).psi, scales)
    spaces = five_spaces(grid)
    b = default_peetre_exponent(1, spaces["orlicz_slice"].floor())
    inputs = []
    for i in range(10):
        f = trial_function(seed, i, grid)
        F = build_field(f, plan)
        inputs += [f, lusin_area(F), g_function(F), peetre_maximal(f, b, plan=psi_plan)]
    return spaces, inputs


@pytest.mark.parametrize("n,seed", [(64, 0), (64, 5), (64, 4243), (256, 5)])
def test_luxemburg_norms_match_the_oracle(n, seed):
    spaces, inputs = _criterion5_inputs(n, seed)
    slice_space, variable = spaces["orlicz_slice"], spaces["variable"]
    phi = slice_space.phi
    for f in inputs:
        for c in AMPLITUDES:
            g = SampledFunction(f.grid, c * f.values)
            assert space_norm(g, slice_space) == pytest.approx(_orlicz_slice_oracle(g, slice_space), rel=1e-14, abs=0.0)
            assert space_norm(g, variable) == pytest.approx(_variable_oracle(g, variable), rel=1e-14, abs=0.0)
            assert orlicz_norm(g, phi) == pytest.approx(_orlicz_oracle(g, phi), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n,half_width", [(64, 2.0), (256, 8.0)])
def test_luxemburg_norms_match_the_oracle_for_exponents_from_0_05_to_8(n, half_width, monkeypatch):
    # power Phi of types 0.05 to 8, and exponent fields spread over that range
    # within one row, where log modular is far from a line: Newton from the
    # largest term's root still settles within 8 steps
    from lpx.harness import trial_function

    monkeypatch.setattr(spaces_mod, "LUXEMBURG_MAX_STEPS", 8)
    grid = GridSpec(dim=1, half_width=half_width, points_per_axis=n)
    rng = np.random.default_rng(n)
    exponents = [np.linspace(0.05, 8.0, n), np.exp(rng.uniform(math.log(0.05), math.log(8.0), n)),
                 np.full(n, 0.05), np.full(n, 8.0)]
    for trial in range(4):
        f = trial_function(n, trial, grid)
        for p in (0.05, 0.3, 1.0, 2.5, 8.0):
            phi = power_orlicz(p)
            assert orlicz_norm(f, phi) == pytest.approx(_orlicz_oracle(f, phi), rel=1e-13, abs=0.0)
        for pvals in exponents:
            space = VariableLebesgue(ExponentFunction.build(grid, pvals))
            assert space_norm(f, space) == pytest.approx(_variable_oracle(f, space), rel=1e-13, abs=0.0)


def _weighted_reference(f, space):
    """WeightedLebesgue.norm as one whole-array sum, as before the row-batched norms."""
    mag, e = _unit_magnitude(f)
    weighted = mag**space.p * space.weight.array
    return math.ldexp(float((np.sum(weighted) * f.grid.cell_volume) ** (1.0 / space.p)), e)


def _mixed_reference(f, space):
    """MixedNorm.norm axis by axis on one array, as before the row-batched norms."""
    work, e = _unit_magnitude(f)
    for p in space.exponents:
        work = work.max(axis=0) if math.isinf(p) else (np.sum(work**p, axis=0) * f.grid.spacing) ** (1.0 / p)
    return math.ldexp(float(work), e)


def _one_input_reference(f, space):
    """The space norm of one input from the retained one-input implementation,
    or for the Luxemburg-type spaces from the oracle."""
    if isinstance(space, Lebesgue):
        return _lebesgue_norm_reference(f, space.p)
    if isinstance(space, WeightedLebesgue):
        return _weighted_reference(f, space)
    if isinstance(space, MixedNorm):
        return _mixed_reference(f, space)
    if isinstance(space, Morrey):
        return _morrey_per_radius(f, space.p, space.r, BallFamily.build(f.grid, spaces_mod.BALL_RADII_PER_OCTAVE))
    return _luxemburg_oracle_of(f, space)


def _row_bytes(grid, space):
    """The cost of one row in a step of Morrey (4 elements per radius and
    cell) or OrliczSlice (per cell the larger of 17 and 5 + 2 per doubling
    level of the slice ball's widest run)."""
    if isinstance(space, Morrey):
        return 4 * 8 * len(BallFamily.build(grid, spaces_mod.BALL_RADII_PER_OCTAVE)) * grid.size
    levels = int(grid.ball_row_widths((space.slice_t,)).max()).bit_length()
    return 8 * grid.size * max(17, 5 + 2 * levels)


AMPLITUDES = (1.0, 2.0**300, 2.0**-300, 1e100, 1e-100)


def _assert_row_batched(inputs, spaces, monkeypatch, reference=True):
    """``space_norms`` over the scaled inputs, with a zero row, equals every
    row's one-input norm (a step of one row) bitwise, and hands ``norms`` at
    most a budget's worth of rows, 5 elements per cell (at least one row), per
    call; Morrey and OrliczSlice also at steps of seven rows.  The one-input
    norms equal their retained references bitwise, and the Luxemburg-type
    ones their oracle within 1e-14
    (``reference=True``; on criterion 5's inputs this is
    ``test_luxemburg_norms_match_the_oracle``)."""
    grid = inputs[0].grid
    scaled = [SampledFunction(grid, c * f.values) for c in AMPLITUDES for f in inputs]
    scaled.append(SampledFunction(grid, np.zeros(grid.shape)))
    rows = np.stack([f.values.real for f in scaled])
    for space in spaces:
        expected = [space_norm(f, space) for f in scaled]
        luxemburg = isinstance(space, (VariableLebesgue, OrliczSlice))
        if luxemburg and reference:
            assert expected == pytest.approx([_luxemburg_oracle_of(f, space) for f in scaled], rel=1e-14, abs=0.0)
        elif not luxemburg:
            assert expected == [_one_input_reference(f, space) for f in scaled], space.tag
        norms, counts = type(space).norms, []

        def counted(self, grid, mag):
            counts.append(len(mag))
            return norms(self, grid, mag)

        with monkeypatch.context() as patch:
            patch.setattr(type(space), "norms", counted)
            assert space_norms(grid, rows, space) == expected, space.tag
        assert sum(counts) == len(rows) and max(counts) <= max(1, grid_mod.WORK_BYTES // (5 * 8 * grid.size)), space.tag
        if isinstance(space, (Morrey, OrliczSlice)):
            row = _row_bytes(grid, space)
            monkeypatch.setattr(grid_mod, "WORK_BYTES", 7 * row)
            assert space_norms(grid, rows, space) == expected, space.tag
            monkeypatch.undo()


@pytest.mark.parametrize("n,seed", [(64, 0), (64, 5), (64, 4243), (256, 5)])
def test_space_norms_match_one_input_norms_bitwise(n, seed, monkeypatch):
    spaces, inputs = _criterion5_inputs(n, seed)
    _assert_row_batched(inputs, [*spaces.values(), Lebesgue(2.0), Lebesgue(1.3)], monkeypatch, reference=False)


def test_space_norms_match_one_input_norms_bitwise_2d(monkeypatch):
    from lpx.harness import FIVE_SPACES, trial_function

    for n in (16, 64):
        grid = GridSpec(dim=2, half_width=2.0, points_per_axis=n)
        spaces = [Lebesgue(2.0), Morrey(2.0, 1.0), Morrey(3.0, 1.5), MixedNorm((1.5, 2.0)), MixedNorm((math.inf, 1.5)),
                  *(descriptor_from_json(FIVE_SPACES[name], grid) for name in ("weighted", "variable"))]
        if n == 16:
            inputs = [random_function(seed, grid, smooth=seed % 2 == 0) for seed in range(4)]
            # the oracle of a 2-D N=64 OrliczSlice norm takes minutes; the memory guard runs the norm
            spaces.append(descriptor_from_json(FIVE_SPACES["orlicz_slice"], grid))
        else:
            inputs = [trial_function(0, i, grid) for i in range(4)]
        _assert_row_batched(inputs, spaces, monkeypatch)


def test_space_norms_of_a_non_finite_row_is_a_numeric_failure():
    from lpx.harness import five_spaces

    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    rows = np.ones((3,) + grid.shape)
    for bad in (np.inf, -np.inf, np.nan):
        rows[1, 17] = bad
        for space in [*five_spaces(grid).values(), Lebesgue(2.0)]:
            with pytest.raises(NumericFailure):
                space_norms(grid, rows, space)
    with pytest.raises(ValueError):
        space_norms(grid, np.ones((3, 32)), Lebesgue(2.0))


def test_luxemburg_solves_are_bitwise_in_either_memory_order_and_keep_it(monkeypatch):
    # two-term logs as ``_power_sum_logs`` hands them over, term-major, of
    # sums 1e-30 .. 1e30 whose second term is within 1e40 of the first, so
    # the rows retire after one to four steps, and one zero row (its logs
    # -inf): the same bytes as their row-major copy, and every gather of the
    # live rows, past the zero row and at each retirement, keeps the order
    rng = np.random.default_rng(0)
    first = 10.0 ** rng.uniform(-30, 30, 256)
    sums = [first, first * 10.0 ** rng.uniform(-40, 40, 256)]
    for total in sums:
        total[5] = 0.0
    logs, exps = spaces_mod._power_sum_logs(sums, 0.0625), (1.2, 1.6)
    assert logs.shape == (256, 2) and logs.flags.f_contiguous and np.isneginf(logs[5]).all()
    newton_steps, seen = spaces_mod._newton_steps, []
    monkeypatch.setattr(spaces_mod, "_newton_steps", lambda logs, exps, x: seen.append(
        (len(logs), logs.flags.f_contiguous)) or newton_steps(logs, exps, x))
    term_major = spaces_mod._power_sum_norms(logs, exps)
    term_major_steps, seen[:] = seen[:], []
    row_major = spaces_mod._power_sum_norms(np.ascontiguousarray(logs), exps)
    assert term_major.tobytes() == row_major.tobytes() and term_major[5] == 0.0
    live = [count for count, _ in seen]
    assert live == [count for count, _ in term_major_steps] and live[0] == 255 and len(set(live)) >= 3
    assert all(order for _, order in term_major_steps) and not any(order for _, order in seen)


def _count_power_sum_solves(monkeypatch):
    """Patch ``_power_sum_norms`` to record the rows of each solve."""
    solve = spaces_mod._power_sum_norms
    solves = []
    monkeypatch.setattr(spaces_mod, "_power_sum_norms",
                        lambda logs, exps: solves.append(len(logs)) or solve(logs, exps))
    return solves


@pytest.mark.parametrize("n,seed", [(64, 0), (64, 5), (64, 4243), (256, 5)])
def test_luxemburg_solves_take_at_most_six_newton_steps_on_criterion5_inputs(n, seed, monkeypatch):
    # every row of a solve, slice windows included, settles within six steps
    spaces, inputs = _criterion5_inputs(n, seed)
    slice_space, variable = spaces["orlicz_slice"], spaces["variable"]
    monkeypatch.setattr(spaces_mod, "LUXEMBURG_MAX_STEPS", 6)
    rows = np.stack([f.values.real for f in inputs])
    for c in AMPLITUDES:
        space_norms(inputs[0].grid, c * rows, variable)
        space_norms(inputs[0].grid, c * rows, slice_space)
        for f in inputs:
            orlicz_norm(SampledFunction(f.grid, c * f.values), slice_space.phi)


def test_a_luxemburg_row_at_the_step_cap_is_a_numeric_failure(monkeypatch):
    from lpx.harness import five_spaces, trial_function

    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    f = trial_function(5, 0, grid)
    spaces = five_spaces(grid)
    monkeypatch.setattr(spaces_mod, "LUXEMBURG_MAX_STEPS", 1)
    with pytest.raises(NumericFailure):
        space_norm(f, spaces["variable"])
    with pytest.raises(NumericFailure):
        orlicz_norm(f, spaces["orlicz_slice"].phi)
    with pytest.raises(NumericFailure):
        space_norm(f, OrliczSlice(OrliczFunction(spaces["orlicz_slice"].phi.evaluator, 1.2, 1.6), 1.5, 1.0))
    assert space_norm(SampledFunction(grid, np.zeros(grid.shape)), spaces["variable"]) == 0.0


def test_orlicz_slice_denominator_is_solved_once_per_grid(monkeypatch):
    # the slice ball's norm depends only on Phi, the grid and the slice radius:
    # one one-row solve of a ones row per grid, next to the window solves
    from lpx.harness import FIVE_SPACES, trial_function

    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    space = descriptor_from_json(FIVE_SPACES["orlicz_slice"], grid)
    solves = _count_power_sum_solves(monkeypatch)
    for trial in range(3):
        f = trial_function(7, trial, grid)
        solves.clear()
        assert space_norm(f, space) == pytest.approx(_orlicz_slice_oracle(f, space), rel=1e-14, abs=0.0)
        assert solves.count(1) == (trial == 0)  # the first norm solves the denominator
    finer = GridSpec(dim=1, half_width=2.0, points_per_axis=128)
    solves.clear()
    f = trial_function(7, 0, finer)
    assert space_norm(f, space) == pytest.approx(_orlicz_slice_oracle(f, space), rel=1e-14, abs=0.0)
    assert solves.count(1) == 1


def _luxemburg_norm_of(which, f):
    from lpx.harness import FIVE_SPACES

    if which == "variable":
        return space_norm(f, descriptor_from_json(FIVE_SPACES["variable"], f.grid))
    return orlicz_norm(f, descriptor_from_json(FIVE_SPACES["orlicz_slice"], f.grid).phi)


@pytest.mark.parametrize("which", ["variable", "orlicz"])
@given(k=st.integers(min_value=-996, max_value=996), seed=st.integers(0, 3))
@example(k=-996, seed=0)
@example(k=996, seed=0)
@example(k=-498, seed=1)  # ~1e-150, where the unscaled bracket's lo * hi underflowed to 0
@example(k=515, seed=2)  # ~1e155, where it overflowed to inf
@settings(max_examples=25, deadline=None, derandomize=True)
def test_luxemburg_norms_exactly_homogeneous_over_the_float_range(which, k, seed):
    # the bisection runs on |f| / 2^e, so 2^k f replays it bit for bit
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=128)
    f = _unit_sized_function(grid, seed)
    c = 2.0**k
    value = _luxemburg_norm_of(which, f)
    with np.errstate(all="raise", under="ignore"):
        assert _luxemburg_norm_of(which, SampledFunction(grid, c * f.values)) == c * value


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("which", ["variable", "orlicz"])
@given(exponent=st.integers(min_value=-300, max_value=300))
@example(exponent=-300)
@example(exponent=-200)
@example(exponent=-150)
@example(exponent=155)
@example(exponent=200)
@example(exponent=300)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_luxemburg_norms_of_a_bump_over_decimal_amplitudes(which, n, exponent):
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=n)
    f = gaussian_bump(grid, [0.2], 0.5)
    c = 10.0**exponent
    value = _luxemburg_norm_of(which, f)
    with np.errstate(all="raise", under="ignore"):
        assert _luxemburg_norm_of(which, SampledFunction(grid, c * f.values)) == pytest.approx(c * value, rel=1e-14, abs=0.0)


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
    ones = Weight(SampledFunction(grid, np.ones(256)), lambda x: np.ones_like(x))
    for p in (1.0, 1.5, 2.0, 4.0):
        assert ap_characteristic(ones, p) == pytest.approx(1.0, rel=1e-12)


def _ap_characteristic_per_radius(w, p):
    """The ``ap_characteristic`` loop that one ``ball_filters`` call and the
    cached offset counts replaced: per radius, the cell count of its
    ``ball_mask`` and, at p = 1, its own ``ball_filter``."""
    family = BallFamily.build(w.values.grid, spaces_mod.BALL_RADII_PER_OCTAVE)
    omega = w.array
    sums_w = family.ball_sums(omega)
    if p != 1.0:
        sums_dual = family.ball_sums(omega ** (1.0 / (1.0 - p)))
    best = 0.0
    for i, rad in enumerate(family.radii):
        count = int(np.count_nonzero(family.grid.ball_mask(rad)))
        mean_w = sums_w[i] / count
        if p == 1.0:
            vals = mean_w * family.ball_filter(1.0 / omega, rad)
        else:
            vals = mean_w * np.maximum(sums_dual[i] / count, 0.0) ** (p - 1.0)
        best = max(best, float(vals.max()))
    return best


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 32)], ids=["1d-256", "2d-32"])
def test_ap_characteristic_matches_the_per_radius_loop_bitwise(dim, n):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    w = power_weight(grid, 0.7)
    for p in (1.0, 1.2, 2.0, 3.5):
        assert ap_characteristic(w, p) == _ap_characteristic_per_radius(w, p), p


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
    ones = Weight(SampledFunction(grid, np.ones(512)), lambda x: np.ones_like(x))
    assert critical_index(ones) == 1.0
    decay = Weight(
        SampledFunction(grid, (1 + np.abs(grid.axis_coordinates())) ** -0.5),
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
@settings(max_examples=30, deadline=None, derandomize=True)
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

    def ev(x):
        return np.abs(x) ** -1.0

    w = Weight(SampledFunction(grid, ev(grid.axis_coordinates())), ev)
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
