import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from helpers import halfspace_integrate
from lpx import grid as grid_mod, squarefuncs
from lpx.errors import LambdaTooSmall
from lpx.grid import (
    CACHE_SIZE,
    FieldStack,
    GridSpec,
    HalfSpaceField,
    SampledFunction,
    ScaleGrid,
    gaussian_bump,
    pure_frequency,
)
from lpx.harness import trial_function
from lpx.kernels import build_annular_kernel
from lpx.squarefuncs import (cone_spectra, g_function, g_lambda_star, gstar_spectra, lusin_area, scale_sums,
                             tent_functional)
from lpx.transforms import build_field, build_fields, build_plan, correlate, inverse_spectrum, spectrum

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


@pytest.mark.parametrize("amplitude", [1e-300, 2.0**-900, 1e-200, 1e-170, 1e200, 2.0**900, 1e300])
def test_square_functions_are_homogeneous_over_the_float_range(plan, amplitude):
    # unscaled, |F|^2 underflowed to 0 below about 1e-160 (S, g and g*_lambda
    # were exactly 0) and overflowed to inf above about 1e154
    F = build_field(gaussian_bump(GRID, [0.0], 0.4), plan)
    scaled = HalfSpaceField(GRID, SCALES, amplitude * F.values)
    for op in (lusin_area, g_function, lambda G: g_lambda_star(G, 2.5)):
        ref, out = op(F).values, op(scaled).values
        assert np.max(np.abs(out / amplitude - ref)) <= 2e-15 * ref.max()


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
    # S and g*_lambda are homogeneous, so the domination needs no absolute
    # slack at any amplitude
    for amplitude in (1.0, 2.0**-900, 2.0**900):
        F = build_field(SampledFunction(GRID, amplitude * np.fft.ifft(spectrum)), plan)
        s = lusin_area(F).values.real
        gs = g_lambda_star(F, lam).values.real
        bound = 2.0 ** (lam * GRID.dim / 2.0) * gs
        assert np.all(s <= bound * (1 + 1e-12))


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
        assert np.all(s <= bound * (1 + 1e-12))


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


# -- references for the batched, cached-spectrum path -------------------------


def _tent_reference(F, alpha):
    """The per-scale correlation loop that the batched path replaced."""
    grid, scales = F.grid, F.scales
    dist = grid.offset_distances()
    power = np.abs(F.values) ** 2
    acc = np.zeros(grid.shape)
    weights = grid.cell_volume * scales.log_weight / scales.scales**grid.dim
    for k, t in enumerate(scales.scales):
        mask = (dist < alpha * t).astype(float)
        if not mask.any():
            continue
        acc += correlate(power[..., k], spectrum(mask, grid.dim), grid.dim) * weights[k]
    np.maximum(acc, 0.0, out=acc)
    return np.sqrt(acc)


def _gstar_reference(F, lam):
    """The per-scale correlation loop that the batched path replaced."""
    grid, scales = F.grid, F.scales
    dist = grid.offset_distances()
    power = np.abs(F.values) ** 2
    acc = np.zeros(grid.shape)
    lw = scales.log_weight * grid.cell_volume
    for k, t in enumerate(scales.scales):
        kernel = (t / (t + dist)) ** (lam * grid.dim)
        acc += correlate(power[..., k], spectrum(kernel, grid.dim), grid.dim) * (lw / t**grid.dim)
    np.maximum(acc, 0.0, out=acc)
    return np.sqrt(acc)


def _spectral_sum_reference(power, kernels, weights):
    """sqrt of one owner's frequency-space scale sum, as a plain loop: the
    spectrum of each live scale row (kernel and row not all zero) times its
    kernel's spectrum times its weight, summed left to right, then one
    inverse FFT.  ``power`` is |F|^2 with the
    scale axis first."""
    dim = power.ndim - 1
    products = [spectrum(row, dim) * (spectrum(kernel, dim) * w)
                for row, kernel, w in zip(power, kernels, weights) if kernel.any() and row.any()]
    acc = np.zeros(power.shape[1:])
    if products:
        total = products[0]
        for product in products[1:]:
            total = total + product
        acc = inverse_spectrum(total, acc.shape)
    np.maximum(acc, 0.0, out=acc)
    return np.sqrt(acc)


def _tent_spectral_reference(F, alpha):
    grid, scales = F.grid, F.scales
    dist = grid.offset_distances()
    kernels = [(dist < alpha * t).astype(float) for t in scales.scales]
    weights = grid.cell_volume * scales.log_weight / scales.scales**grid.dim
    return _spectral_sum_reference(np.moveaxis(np.abs(F.values) ** 2, -1, 0), kernels, weights)


def _gstar_spectral_reference(F, lam):
    grid, scales = F.grid, F.scales
    dist = grid.offset_distances()
    kernels = [(t / (t + dist)) ** (lam * grid.dim) for t in scales.scales]
    lw = scales.log_weight * grid.cell_volume
    weights = [lw / t**grid.dim for t in scales.scales]
    return _spectral_sum_reference(np.moveaxis(np.abs(F.values) ** 2, -1, 0), kernels, weights)


# the frequency-space scale sum against the spatial per-scale loop, as a
# fraction of the sum's max (measured: at most 1e-15).  The sums are compared,
# not their roots: where a sum is 0, either path leaves FFT round-off of about
# 1e-16 of the max, whose root is about 1e-8 of the root's max.
SPATIAL_TOL = 1e-14


def _assert_near_spatial(fast, spatial):
    assert np.max(np.abs(fast**2 - spatial**2)) <= SPATIAL_TOL * np.max(spatial**2)


ORACLE_GRIDS = {
    "1d-64": (GridSpec(dim=1, half_width=2.0, points_per_axis=64), ScaleGrid(1 / 16, 2.0, 4)),
    "2d-16": (GridSpec(dim=2, half_width=2.0, points_per_axis=16), ScaleGrid(1 / 8, 2.0, 4)),
    "2d-32": (GridSpec(dim=2, half_width=2.0, points_per_axis=32), ScaleGrid(1 / 8, 2.0, 4)),
}


def _oracle_field(grid, scales, kind):
    """Complex noise on every scale, the same with alternate and leading scale
    slices zeroed (as in a tent-atom piece), or zero."""
    rng = np.random.default_rng(grid.size)
    shape = grid.shape + (len(scales),)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "zeroed-slices":
        values[..., ::2] = 0.0
        values[..., :5] = 0.0
    elif kind == "zero":
        values[...] = 0.0
    return HalfSpaceField(grid, scales, values)


@pytest.mark.parametrize("kind", ["noise", "zeroed-slices", "zero"])
@pytest.mark.parametrize("case", list(ORACLE_GRIDS))
def test_batched_operators_match_per_scale_reference_bitwise(case, kind):
    F = _oracle_field(*ORACLE_GRIDS[case], kind)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        fast = tent_functional(F, alpha).values
        assert np.array_equal(fast, _tent_spectral_reference(F, alpha)), alpha
        _assert_near_spatial(fast, _tent_reference(F, alpha))
    for lam in (1.5, 3.0):
        fast = g_lambda_star(F, lam).values
        assert np.array_equal(fast, _gstar_spectral_reference(F, lam)), lam
        _assert_near_spatial(fast, _gstar_reference(F, lam))


def _rows_bytes(grid, rows):
    """The budget of ``rows`` (field, scale) rows of ``scale_sums``, a row
    costing four real grid rows and a field as many rows as the stack has
    live scales."""
    return rows * 4 * grid.size * 8


@pytest.mark.parametrize("chunk", [None, 1, 7], ids=["default", "chunk-1", "chunk-7"])
@pytest.mark.parametrize("case", list(ORACLE_GRIDS))
def test_field_stack_operators_match_spectral_reference_bitwise(case, chunk, monkeypatch):
    grid, scales = ORACLE_GRIDS[case]
    fields = [_oracle_field(grid, scales, kind) for kind in ("noise", "zero", "zeroed-slices")]
    fields.append(HalfSpaceField(grid, scales, 1e-3 * fields[0].values[..., ::-1].real))
    stack = FieldStack(grid, scales, np.stack([F.values for F in fields]))
    if chunk is not None:
        monkeypatch.setattr(grid_mod, "WORK_BYTES", _rows_bytes(grid, chunk))
    for alpha in (0.5, 1.0, 2.0):
        for F, row in zip(fields, scale_sums(stack, [cone_spectra(grid, scales, alpha)])[0]):
            assert np.array_equal(row, _tent_spectral_reference(F, alpha)), alpha
    for lam in (1.5, 3.0):
        for F, row in zip(fields, scale_sums(stack, [gstar_spectra(grid, scales, lam)])[0]):
            assert np.array_equal(row, _gstar_spectral_reference(F, lam)), lam


@pytest.mark.parametrize("case", list(ORACLE_GRIDS))
def test_field_stack_operators_match_one_field_calls_bitwise(case, monkeypatch):
    grid, scales = ORACLE_GRIDS[case]
    fields = [_oracle_field(grid, scales, kind) for kind in ("noise", "zeroed-slices", "zero")]
    fields.append(HalfSpaceField(grid, scales, 1e-3 * fields[0].values[..., ::-1]))
    stack = FieldStack(grid, scales, np.stack([F.values for F in fields]))
    # a budget that ends mid-field: batches of two whole fields
    monkeypatch.setattr(grid_mod, "WORK_BYTES", _rows_bytes(grid, 2 * len(scales) + 3))
    for alpha in (0.0, 1.0, 2.0):
        rows = scale_sums(stack, [cone_spectra(grid, scales, alpha)])[0]
        assert rows.shape == (len(fields),) + grid.shape
        for F, row in zip(fields, rows):
            assert np.array_equal(row, tent_functional(F, alpha).values.real), alpha
    for lam in (1.5, 3.0):
        for F, row in zip(fields, scale_sums(stack, [gstar_spectra(grid, scales, lam)])[0]):
            assert np.array_equal(row, g_lambda_star(F, lam).values.real), lam
    for F, row in zip(fields, scale_sums(stack, [])[-1]):
        assert np.array_equal(row, g_function(F).values.real)
    with pytest.raises(LambdaTooSmall):
        scale_sums(stack, [gstar_spectra(grid, scales, 1.0)])
    # a stack handed to a one-field operator is refused, not read as its first field
    for singular in (lambda F: tent_functional(F, 1.0), lusin_area, g_function, lambda F: g_lambda_star(F, 1.5)):
        with pytest.raises(TypeError, match="FieldStack"):
            singular(stack)


def _trial_stack(grid, scales, trials):
    """The annular fields of trials 0..trials-1 of seed 42, as one stack."""
    return build_fields([trial_function(42, i, grid) for i in range(trials)],
                        build_plan(build_annular_kernel(grid), scales))


def _oracle_stack(case, kinds):
    grid, scales = ORACLE_GRIDS[case]
    return FieldStack(grid, scales, np.stack([_oracle_field(grid, scales, kind).values for kind in kinds]))


SCALE_SUMS_CASES = {
    # the verify-1d benchmark's one block of 10 trials
    "1d-64-10-trials": lambda: _trial_stack(GridSpec(1, 2.0, 64), ScaleGrid(1 / 16, 16.0, 8), 10),
    # a block of the default verify's equivalence experiment (two trials at
    # 1-D N=512): an out-of-place product of all but the last table moves
    # its rows by an ulp
    "1d-512-2-trials": lambda: _trial_stack(GridSpec(1, 8.0, 512), ScaleGrid(1 / 16, 16.0, 8), 2),
    "2d-32": lambda: _oracle_stack("2d-32", ["noise", "zeroed-slices"]),
    "complex": lambda: FieldStack(*ORACLE_GRIDS["1d-64"], _oracle_field(*ORACLE_GRIDS["1d-64"], "noise").values[None]),
    "zero-field": lambda: _oracle_stack("1d-64", ["noise", "zero", "zeroed-slices"]),
}


@pytest.mark.parametrize("case", list(SCALE_SUMS_CASES))
def test_scale_sums_rows_are_the_one_table_rows_bitwise(case):
    F = SCALE_SUMS_CASES[case]()
    grid, scales = F.grid, F.scales
    params = [("cone", 1.0), ("gstar", 1.5), ("cone", 2.0), ("cone", 0.5), ("gstar", 3.0)]
    spectra = {"cone": cone_spectra, "gstar": gstar_spectra}
    # g, the last row, is the log-weighted sum of the unit powers over the
    # contiguous scale axis, scaled back: bitwise whatever tables ride along
    power, exps = squarefuncs._unit_powers(F.stack)
    g = np.ldexp(np.sqrt(np.sum(power, axis=-1) * scales.log_weight), exps.reshape((-1,) + (1,) * grid.dim))
    assert np.array_equal(scale_sums(F, [])[-1], g)
    for picks in (params[:2], params[2:4] + params[:1], params):  # cone 1 and g* 1.5 both last once and not last once
        rows = scale_sums(F, [spectra[kind](grid, scales, v) for kind, v in picks])
        assert rows.shape == (len(picks) + 1, len(F.stack)) + grid.shape
        assert np.array_equal(rows[-1], g)
        for (kind, v), row in zip(picks, rows):
            assert np.array_equal(row, scale_sums(F, [spectra[kind](grid, scales, v)])[0]), (kind, v)


def _mixed_fields(grid, scales):
    """Field values whose live scales differ: noise live on every fifth
    scale (the fewest live scales of a nonzero field, first), zero, noise,
    1e300 times noise live on the odd scales, 1e-300 times real noise on
    one cell in twenty, and noise live on the even scales but the first
    five."""
    rng = np.random.default_rng(grid.size + 1)
    shape = grid.shape + (len(scales),)
    noise = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(4)]
    few, odd, even = noise[0].copy(), 1e300 * noise[1], noise[2].copy()
    few[..., np.arange(len(scales)) % 5 != 0] = 0.0
    odd[..., ::2] = 0.0
    even[..., 1::2] = 0.0
    even[..., :5] = 0.0
    tiny = 1e-300 * noise[3].real * (rng.random(shape[:-1]) < 0.05)[..., None]
    return [few, np.zeros(shape), noise[3], odd, tiny, even]


@pytest.mark.parametrize("budget", ["default", "one-field"])
@pytest.mark.parametrize("case", ["1d-64", "2d-16"])
def test_scale_sums_batches_of_mixed_fields_are_the_one_field_calls_bytewise(case, budget, monkeypatch):
    # a batch transforms the scales live in some field of it: a scale dead in
    # one field adds that field ±0 products, so its rows keep their bytes,
    # the signs of zeros included
    grid, scales = ORACLE_GRIDS[case]
    values = _mixed_fields(grid, scales)
    stack = FieldStack(grid, scales, np.stack(values))
    tables = [cone_spectra(grid, scales, 1.0), gstar_spectra(grid, scales, 1.5)]
    if budget == "one-field":  # a field costs the stack's live scales, every scale here
        monkeypatch.setattr(grid_mod, "WORK_BYTES", _rows_bytes(grid, len(scales)))
    batches = []
    transform = squarefuncs.spectrum
    monkeypatch.setattr(squarefuncs, "spectrum",
                        lambda rows, dim: batches.append(rows.size // grid.size) or transform(rows, dim))
    rows = scale_sums(stack, tables)
    live = [int(np.any(field != 0, axis=tuple(range(grid.dim))).sum()) for field in values]
    assert live[0] == min(count for count in live if count) and max(live) == len(scales)
    # one batch of every field's rows at every scale, or one per field of its live scales
    assert batches == ([len(values) * len(scales)] if budget == "default" else live)
    for i, field in enumerate(values):
        assert rows[:, i].tobytes() == scale_sums(HalfSpaceField(grid, scales, field), tables)[:, 0].tobytes(), i


def test_maximum_with_zero_turns_negative_zero_positive():
    # the scale sums' byte equality above rests on this: a dead scale's ±0
    # products can leave a sum of -0.0, which np.maximum(acc, 0.0) makes +0.0
    assert not np.signbit(np.maximum(-0.0, 0.0))
    rows = np.full((3, 33), -0.0)
    assert not np.signbit(np.maximum(rows, 0.0)).any()
    np.maximum(rows, 0.0, out=rows)
    assert not np.signbit(rows).any()


def test_lambda_at_most_one_is_refused_by_every_g_lambda_star_route():
    F = _oracle_field(*ORACLE_GRIDS["1d-64"], "noise")
    for lam in (1.0, 0.5):
        with pytest.raises(LambdaTooSmall):
            g_lambda_star(F, lam)
        with pytest.raises(LambdaTooSmall):
            scale_sums(F, [gstar_spectra(F.grid, F.scales, lam)])
        with pytest.raises(LambdaTooSmall):
            scale_sums(F, [cone_spectra(F.grid, F.scales, 1.0), gstar_spectra(F.grid, F.scales, lam)])


def _quadrature_oracle(F, kernel):
    """sqrt of the direct double sum over cells y and scales t_k of
    kernel(|x - y|, t_k) |F(y, t_k)|^2 cell_volume ln2/J t_k^-n, with the torus
    distance taken from the cell coordinates."""
    grid, scales = F.grid, F.scales
    coords = np.stack([c.ravel() for c in grid.coordinate_mesh()], axis=1)
    gap = np.abs(coords[:, None, :] - coords[None, :, :])
    gap = np.minimum(gap, 2.0 * grid.half_width - gap)
    dist = np.sqrt(np.sum(gap**2, axis=-1))  # (x, y)
    power = np.abs(F.values.reshape(grid.size, -1)) ** 2
    total = np.zeros(grid.size)
    for k, t in enumerate(scales.scales):
        total += kernel(dist, t) @ power[:, k] * grid.cell_volume * scales.log_weight / t**grid.dim
    return np.sqrt(total).reshape(grid.shape)


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8), (2, 16)], ids=["1d-16", "2d-8", "2d-16"])
def test_square_functions_match_brute_force_quadrature(dim, n):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    F = _oracle_field(grid, ScaleGrid(1 / 4, 4.0, 4), "noise")
    for alpha in (0.5, 1.0, 2.0):
        slow = _quadrature_oracle(F, lambda d, t: (d < alpha * t).astype(float))
        fast = tent_functional(F, alpha).values.real
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(slow), alpha
    for lam in (1.5, 3.0):
        slow = _quadrature_oracle(F, lambda d, t: (t / (t + d)) ** (lam * dim))
        fast = g_lambda_star(F, lam).values.real
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(slow), lam


# -- the spectrum caches --------------------------------------------------------


@pytest.mark.parametrize("which", ["cone", "gstar"])
def test_spectrum_cache_is_read_only_keyed_and_bounded(which):
    cache = {"cone": squarefuncs.cone_spectra, "gstar": squarefuncs.gstar_spectra}[which]
    grid, scales = ORACLE_GRIDS["1d-64"]
    cache.cache_clear()
    first = cache(grid, scales, 2.0)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0
    assert cache(grid, scales, 2.0) is first
    assert cache.cache_info().hits == 1
    # another grid, scale grid or parameter is another entry with its own table
    others = [
        cache(GridSpec(dim=1, half_width=4.0, points_per_axis=64), scales, 2.0),
        cache(GridSpec(dim=1, half_width=2.0, points_per_axis=128), scales, 2.0),
        cache(grid, ScaleGrid(1 / 16, 2.0, 8), 2.0),
        cache(grid, scales, 3.0),
    ]
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 5, 5)
    tables = [first] + others
    for i, a in enumerate(tables):
        for b in tables[i + 1:]:
            assert a.shape != b.shape or not np.array_equal(a, b)
    for p in np.linspace(1.5, 4.0, 2 * info.maxsize):
        cache(grid, scales, float(p))
    info = cache.cache_info()
    assert info.maxsize == CACHE_SIZE
    assert info.currsize == info.maxsize


def test_a_cone_table_is_held_once():
    # the cone masks' spectra are weighted in place, so an aperture's cone
    # table adds no unweighted ball_spectra entry beside it
    grid, scales = ORACLE_GRIDS["2d-16"]
    squarefuncs.cone_spectra.cache_clear()
    before = squarefuncs.ball_spectra.cache_info()
    squarefuncs.cone_spectra(grid, scales, 2.0)
    after = squarefuncs.ball_spectra.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)
    assert squarefuncs.cone_spectra.cache_info().currsize == 1


WEIGHTED_TABLE_GRIDS = {**ORACLE_GRIDS,  # and the CLI's default scales on the default 1-D and a 2-D N=64 grid
                        "1d-512-cli": (GridSpec(1, 8.0, 512), ScaleGrid(1 / 16, 16.0, 8)),
                        "2d-64-cli": (GridSpec(2, 2.0, 64), ScaleGrid(1 / 16, 16.0, 8))}


@pytest.mark.parametrize("case", sorted(WEIGHTED_TABLE_GRIDS))
def test_weighted_tables_are_the_spectra_times_the_scale_weights_bitwise(case):
    # the cached tables carry each scale's quadrature weight: bitwise the
    # product the scale sum formed per call from the unweighted spectra, the
    # cone weights as one array division, the g*_lambda weights scale by scale
    grid, scales = WEIGHTED_TABLE_GRIDS[case]
    dist = grid.offset_distances()
    lead = (-1,) + (1,) * grid.dim
    for alpha in (0.0, 1.0, 2.0):
        weights = grid.cell_volume * scales.log_weight / scales.scales**grid.dim
        unweighted = squarefuncs.ball_spectra(grid, tuple(alpha * t for t in scales.scales))
        assert np.array_equal(squarefuncs.cone_spectra(grid, scales, alpha), unweighted * weights.reshape(lead))
    for lam in (1.5, 3.0):
        lw = scales.log_weight * grid.cell_volume
        weights = np.asarray([lw / t**grid.dim for t in scales.scales])
        unweighted = spectrum(np.stack([(t / (t + dist)) ** (lam * grid.dim) for t in scales.scales]), grid.dim)
        assert np.array_equal(squarefuncs.gstar_spectra(grid, scales, lam), unweighted * weights.reshape(lead))


@pytest.mark.parametrize("case", ["1d-64", "2d-16"])
def test_cone_functional_at_aperture_zero_is_positive_zero(case):
    # every cone mask dist < 0 is empty, so every kernel spectrum is 0: the
    # scale sum runs those rows and must still give +0.0, with no sign bit
    grid, scales = ORACLE_GRIDS[case]
    F = _oracle_field(grid, scales, "noise")
    stack = FieldStack(grid, scales, np.stack([F.values, -3.0 * F.values.real, np.zeros_like(F.values)]))
    for rows in (tent_functional(F, 0.0).values, scale_sums(stack, [cone_spectra(grid, scales, 0.0)])[0]):
        assert np.all(rows == 0.0) and not np.signbit(rows).any()


def test_square_functions_take_no_cache_knob():
    import inspect

    assert list(inspect.signature(tent_functional).parameters) == ["F", "alpha"]
    assert list(inspect.signature(scale_sums).parameters) == ["F", "tables"]  # fields only, no pieces
    assert list(inspect.signature(g_lambda_star).parameters) == ["F", "lam"]
    assert "environ" not in inspect.getsource(squarefuncs)
