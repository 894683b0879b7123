import dataclasses
import math
import types

import numpy as np
import pytest

from lpx import atoms, grid as grid_mod, maximal
from lpx.atoms import (
    Ball,
    TentAtom,
    coefficient_functional,
    synthesize_molecule,
    tent_decompose,
)
from helpers import (atom_from_field, ball_indicator, check_atom, check_molecule, count_built_atoms,
                     default_molecule_decay, tent_atom_size, tent_mask)
from lpx.grid import GridSpec, HalfSpaceField, SampledFunction, ScaleGrid, pure_frequency, real_or_complex
from lpx.harness import trial_function
from lpx.kernels import build_annular_kernel, calderon_companion
from lpx.maximal import BallFamily, ball_volume
from lpx.spaces import (Lebesgue, MixedNorm, Morrey, Weight, WeightedLebesgue, descriptor_from_json, power_weight,
                        space_norm, space_norms)
from lpx.squarefuncs import ball_spectra, cone_spectra, tent_functional
from lpx.transforms import build_field, build_fields, build_plan, correlate, inverse_spectrum, spatial_kernel, spectrum

GRID = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
SCALES = ScaleGrid(t_min=1 / 16, t_max=2.0, steps_per_octave=4)
BALLS = BallFamily.build(GRID, 4)


def random_field(seed, grid=GRID, scales=SCALES):
    """Field of multiscale convolutions of a concentrated random function."""
    rng = np.random.default_rng(seed)
    plan = build_plan(build_annular_kernel(grid), scales)
    r2 = sum(c**2 for c in grid.coordinate_mesh())
    envelope = np.exp(-r2 / (2 * (grid.half_width / 10) ** 2))
    f = SampledFunction(grid, rng.normal(size=grid.shape) * envelope)
    return build_field(f, plan)


def test_real_data_stays_float64_and_complex_data_complex128():
    rng = np.random.default_rng(2)
    real = SampledFunction(GRID, rng.normal(size=GRID.shape) * np.exp(-GRID.coordinate_mesh()[0] ** 2))
    wave = pure_frequency(GRID, [40])
    assert real.values.dtype == np.float64 and wave.values.dtype == np.complex128
    assert SampledFunction(GRID, real.values + 0j).values.dtype == np.float64  # no imaginary part
    plan = build_plan(build_annular_kernel(GRID), SCALES)
    F = build_field(real, plan)
    assert F.values.dtype == np.float64 and build_fields([real, real], plan).values.dtype == np.float64
    assert build_field(wave, plan).values.dtype == np.complex128
    mixed = build_fields([real, wave], plan)
    assert mixed.values.dtype == np.complex128
    assert all(np.array_equal(row, build_field(f, plan).values) for f, row in zip([real, wave], mixed.values))
    dec = tent_decompose(F, Lebesgue(2.0), BALLS)
    assert dec.atoms and all(atom.values.dtype == np.float64 for atom in dec.atoms)
    assert dec.atoms[0].field.values.dtype == np.float64 and dec.reconstruct().values.dtype == np.float64


def test_decompose_zero_field():
    # with no atoms, the rebuilt field's grid and scales come only from the
    # decomposition's own fields
    grid_2d = GridSpec(dim=2, half_width=2.0, points_per_axis=16)
    for grid, scales in ((GRID, SCALES), (grid_2d, ScaleGrid(t_min=1 / 8, t_max=1.0, steps_per_octave=4))):
        F = HalfSpaceField(grid, scales, np.zeros(grid.shape + (len(scales),)))
        dec = tent_decompose(F, Lebesgue(2.0))
        assert len(dec.atoms) == 0 and dec.ball_norms == [] and dec.sizes == {2.0: [], 4.0: []}
        rebuilt = dec.reconstruct()
        assert rebuilt.grid == grid and rebuilt.scales == scales and rebuilt.values.dtype == np.float64
        assert np.array_equal(rebuilt.values, F.values)
        assert coefficient_functional(dec, Lebesgue(2.0)) == 0.0


def _containment_reference(F, area, levels):
    """The per-scale correlation loop that the batched containment test replaced."""
    grid, scales = F.grid, F.scales
    dist = grid.offset_distances()
    out = np.full(F.values.shape, -1, dtype=int)
    for li, lev in enumerate(levels):
        inside = area > lev
        if not inside.any():
            break
        outside = (~inside).astype(float)
        for k, t in enumerate(scales.scales):
            mask = (dist < t).astype(float)
            contained = correlate(outside, spectrum(mask, grid.dim), grid.dim) < 0.5
            out[..., k][contained] = li
    return out


@pytest.mark.parametrize("zero", [False, True], ids=["field", "zero"])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (2, 32)], ids=["1d-64", "2d-16", "2d-32"])
def test_containment_levels_match_per_scale_reference_bitwise(dim, n, zero):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    scales = ScaleGrid(1 / 8, 2.0, 4)
    rng = np.random.default_rng(n + dim)
    envelope = np.exp(-sum(c**2 for c in grid.coordinate_mesh()) / 0.5)
    values = rng.normal(size=grid.shape + (len(scales),)) * envelope[..., None]
    F = HalfSpaceField(grid, scales, 0.0 * values if zero else values)
    area = tent_functional(F, 1.0).values.real
    top = math.ceil(math.log2(area.max())) if area.any() else 0
    levels = 2.0 ** np.arange(top - 12, top + 1)
    fast = atoms._containment_levels(F, area, levels)
    assert np.array_equal(fast, _containment_reference(F, area, levels))
    assert (fast >= 0).any() != zero


def _on_distance_scales(grid, cells):
    """Scales whose every fourth node t_min * 2^(k/4 + 1/8) is exactly the
    distance ``cells`` * h * 2^(k/4) of a grid cell."""
    h = grid.spacing
    scales = ScaleGrid(cells * h * 2**-0.125, 8 * cells * h * 2**-0.125, 4)
    dist = grid.offset_distances()
    assert all((dist == t).any() for t in scales.scales[::4])
    return scales


@pytest.mark.parametrize("dim,n,cells", [(1, 64, 3), (2, 32, 5)], ids=["1d-64-r3h", "2d-32-r5h"])
def test_ball_fits_on_a_cell_distance_match_the_correlation_oracles(dim, n, cells):
    # in 2-D, 5h is the distance of the cells at offsets (3, 4) and (5, 0)
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    scales = _on_distance_scales(grid, cells)
    rng = np.random.default_rng(7 * n + dim)
    envelope = np.exp(-sum(c**2 for c in grid.coordinate_mesh()) / 0.5)
    F = HalfSpaceField(grid, scales, rng.normal(size=grid.shape + (len(scales),)) * envelope[..., None])
    area = tent_functional(F, 1.0).values
    top = math.ceil(math.log2(area.max()))
    levels = 2.0 ** np.arange(top - 12, top + 1)
    fast = atoms._containment_levels(F, area, levels)
    assert np.array_equal(fast, _containment_reference(F, area, levels))
    # the boundary cells decide some levels: balls that hold them give others
    closed = atoms._ball_minima(area, BallFamily(grid, np.nextafter(scales.scales, np.inf)))
    assert (np.searchsorted(levels, np.moveaxis(closed, 0, -1)) - 1 != fast).any()
    # family balls whose doubles lie on the same cell distances
    balls = BallFamily(grid, scales.scales[::4] / 2.0)
    double_min = atoms._ball_minima(area, BallFamily(grid, 2.0 * balls.radii))
    inside, fits = _level_stacks(area, double_min, levels)
    for level_inside, level_fits in zip(inside, fits):
        assert np.array_equal(level_fits, _double_fit_rows(grid, level_inside, balls))
    _assert_cover_matches_levels_reference(grid, inside, balls, fits)


@pytest.mark.parametrize("dim,n,cells", [(1, 64, 3), (2, 32, 5)], ids=["1d-64-r3h", "2d-32-r5h"])
def test_every_ball_reader_leaves_out_the_cells_on_the_boundary(dim, n, cells):
    # h = 4/n is a power of two, so the cells at offset 3 (1-D) and at
    # offsets (3, 4) and (5, 0) (2-D) lie exactly at distance r = cells * h
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    r = cells * grid.spacing
    dist = grid.offset_distances()
    expected = dist < r
    boundary = [(3,)] if dim == 1 else [(3, 4), (4, 3), (5, 0), (0, 5)]
    assert all(dist[o] == r and not expected[o] for o in boundary)
    assert expected[(cells - 1,) + (0,) * (dim - 1)]
    assert np.array_equal(ball_spectra(grid, (r,))[0], spectrum(expected.astype(float), dim))
    widths = np.count_nonzero(expected.reshape(-1, n), axis=1)
    assert np.array_equal(grid.ball_row_widths((r,))[0], widths)
    runs = maximal._ball_runs(grid, (r,))[0][0]
    run_widths = [(dx, (b - a) % n + (1 << k)) for dx, k, a, b in runs]
    assert sorted(run_widths) == [(dx, w) for dx, w in enumerate(widths.tolist()) if w]
    # the row at dx = 0 first, then the rows of one read consecutive
    assert runs[0][0] == 0 and [run[1:] for run in runs[1:]] == sorted(run[1:] for run in runs[1:])
    # the ball max of a unit spike at the origin is the (symmetric) ball itself
    spike = np.zeros(grid.shape)
    spike[(0,) * dim] = 1.0
    assert np.array_equal(BallFamily(grid=grid, radii=np.array([r])).ball_filter(spike, r), expected.astype(float))
    axes = tuple(range(dim))
    centres = [(0,) * dim, (1,) * dim, (n - 1,) * dim, (n // 2, 5)[:dim], (3, n - 3)[:dim]]
    balls = [Ball(c, r) for c in centres] + [Ball(centres[0], 2 * r), Ball(centres[1], 2 * grid.half_width)]
    flat, radii = _ball_arrays(grid, balls)
    rows = atoms._ball_rows(grid, flat, atoms._ball_widths(grid, radii))
    for c, row in zip(centres, rows):
        ball = np.roll(expected, shift=c, axis=axes)
        assert np.array_equal(row, ball)
        assert np.array_equal(ball_indicator(grid, Ball(c, r)).values, ball.astype(float))
    assert np.array_equal(rows[-2], dist < 2 * r)  # a second radius in the same scatter
    assert rows[-1].all()  # the full box 2L: every row full (w = n), about a centre off the origin


def _ball_arrays(grid, balls):
    """The flat centre cells and the radii of ``balls``, as ``atoms._ball_norms`` takes them."""
    centres = np.array([np.ravel_multi_index(ball.center, grid.shape) for ball in balls], dtype=np.intp)
    return centres, np.array([ball.radius for ball in balls], dtype=float)


def _flat(pieces):
    """A list of pieces' cell arrays as the flat (cells, starts) that
    ``atoms._piece_functionals`` and ``atoms._piece_sizes`` take."""
    counts = np.array([len(cells) for cells in pieces], dtype=np.intp)
    return np.concatenate([np.empty(0, dtype=np.intp), *pieces]), np.cumsum(counts) - counts


def _one_piece_spectral_reference(F):
    """The one-piece cone functional as a plain frequency-space loop: the
    spectrum of each live scale row times its cone's spectrum times its
    weight, summed left to right, then one inverse FFT."""
    grid, scales = F.grid, F.scales
    dist = grid.offset_distances()
    weights = grid.cell_volume * scales.log_weight / scales.scales**grid.dim
    power = np.moveaxis(np.abs(F.values) ** 2, -1, 0)
    products = [spectrum(row, grid.dim) * (spectrum((dist < t).astype(float), grid.dim) * w)
                for row, t, w in zip(power, scales.scales, weights) if row.any() and (dist < t).any()]
    acc = np.zeros(grid.shape)
    if products:
        total = products[0]
        for product in products[1:]:
            total = total + product
        acc = inverse_spectrum(total, grid.shape)
    np.maximum(acc, 0.0, out=acc)
    return np.sqrt(acc)


# the frequency-space cone functionals against the spatial per-scale loop:
# each row's square (the scale sum) within FUNCTIONAL_TOL of the row's max
# square (measured: at most 1e-15), the coefficients within COEFFICIENT_RTOL.
# Where a sum is 0 either path leaves FFT round-off of about 1e-16 of the max,
# whose root is about 1e-8 of the root's max, so the roots are not compared.
FUNCTIONAL_TOL, COEFFICIENT_RTOL = 1e-14, 1e-13
# the pieces' interval-sum sizes against the FFT piece path they replaced,
# relative, and with them the coefficients and atom values (measured: at most
# 3.4e-15 on the decompose-1d inputs, 1.7e-15 on 2-D N=64)
SIZE_RTOL = 1e-14


def _assert_near_spatial(fast, spatial):
    """Every row of ``fast`` squared within ``FUNCTIONAL_TOL`` of its row max in ``spatial`` squared."""
    axes = tuple(range(1, spatial.ndim))
    gap = np.max(np.abs(fast**2 - spatial**2), axis=axes)
    assert np.all(gap <= FUNCTIONAL_TOL * np.max(spatial**2, axis=axes))


def _one_piece_functional_reference(F):
    """The spatial one-piece cone functional the frequency-space sum replaced:
    nonzero scale rows in one correlation, summed in scale order."""
    grid, scales = F.grid, F.scales
    table = ball_spectra(grid, tuple(scales.scales))
    weights = grid.cell_volume * scales.log_weight / scales.scales**grid.dim
    power = np.moveaxis(np.abs(F.values) ** 2, -1, 0)
    keep = np.flatnonzero(power.reshape(len(power), -1).any(axis=1))
    acc = np.zeros(grid.shape)
    if len(keep):
        corr = correlate(power[keep], table[keep], grid.dim)
        for row, k in zip(corr, keep):
            acc += row * weights[k]
    np.maximum(acc, 0.0, out=acc)
    return np.sqrt(acc)


def _cells_mask(F, cells):
    """Boolean half-space mask of the flat cell indices ``cells``."""
    mask = np.zeros(F.values.shape, dtype=bool)
    mask.reshape(-1)[cells] = True
    return mask


def _piece_functionals_reference(F, alpha, masks, one_piece=_one_piece_spectral_reference):
    """One call per piece ``where(mask, F, 0)``, as ``tent_decompose`` made
    before the batched pass."""
    assert alpha == 1.0
    pieces = [HalfSpaceField(F.grid, F.scales, np.where(m, F.values, 0.0)) for m in masks]
    return np.array([one_piece(p) for p in pieces]).reshape((len(masks),) + F.grid.shape)


def _double_fit_reference(grid, inside, radius):
    """The centres whose ball ``dist < radius`` lies in ``inside``: one
    correlation counting the outside cells of every ball."""
    hat = spectrum((grid.offset_distances() < radius).astype(float), grid.dim)
    return correlate((~inside).astype(float), hat, grid.dim) < 0.5


def _whitney_regions_reference(grid, inside, balls, double_fits=None):
    """One correlation per doubled radius and one ``np.roll`` per claimed ball.

    The doubled-ball fits come from ``inside`` by ``_double_fit_reference``;
    ``double_fits`` is ignored, so the fits a caller passes are not trusted."""
    dist = grid.offset_distances()
    region = np.full(grid.shape, -1, dtype=int)
    leaders = []
    uncovered = inside.copy()
    axes = tuple(range(grid.dim))
    for r in balls.radii[::-1]:
        if not uncovered.any():
            break
        candidates = _double_fit_reference(grid, inside, 2.0 * r) & uncovered
        if not candidates.any():
            continue
        ball_mask = dist < r
        for idx in np.argwhere(candidates):
            idx = tuple(idx)
            if not uncovered[idx]:
                continue
            member = np.roll(ball_mask, shift=idx, axis=axes)
            fresh = member & uncovered
            if not fresh.any():
                continue
            region[fresh] = len(leaders)
            leaders.append(Ball(center=idx, radius=float(r)))
            uncovered &= ~member
    for idx in np.argwhere(uncovered):
        idx = tuple(idx)
        region[idx] = len(leaders)
        leaders.append(Ball(center=idx, radius=float(balls.radii[0])))
    return region, leaders


def _level_by_level(one_level, inside, fits):
    """``one_level(level_inside, level_fits)``, a flat region id array and
    its leaders' flat centre cells, called once per level of an ``(levels,
    grid.size)`` stack, each level's region ids offset by the regions of
    the levels before it."""
    regions, leaders, count = [], [], 0
    for level_inside, level_fits in zip(inside, fits):
        region, level_leaders = one_level(level_inside, level_fits)
        regions.append(np.where(region >= 0, region + count, -1))
        leaders.append(level_leaders)
        count += len(level_leaders)
    return np.array(regions, dtype=int).reshape(inside.shape), np.concatenate([np.empty(0, dtype=np.intp), *leaders])


def _whitney_levels_reference(grid, inside, balls, double_fits):
    """``_whitney_regions_reference`` level by level, its leaders' centres as
    flat cells, as ``atoms._whitney_regions`` returns them; ``double_fits``
    is ignored."""
    def one_level(level_inside, _):
        region, leaders = _whitney_regions_reference(grid, level_inside.reshape(grid.shape), balls)
        return region.reshape(-1), _ball_arrays(grid, leaders)[0]

    return _level_by_level(one_level, inside, double_fits)


def _level_stacks(area, double_min, levels):
    """The ``(levels, cells)`` sets {area > lev} and ``(levels, radii,
    cells)`` doubled-ball fits that ``atoms._pieces`` hands
    ``_whitney_regions``, from the doubled-ball minima of ``area``."""
    levels = np.asarray(levels)
    return (area.reshape(-1) > levels[:, None],
            double_min.reshape(len(double_min), -1) > levels[:, None, None])


def _double_fit_rows(grid, level_inside, balls):
    """The correlation oracle's doubled-ball fits of one flat set, one row per family radius."""
    inside = level_inside.reshape(grid.shape)
    return np.array([_double_fit_reference(grid, inside, 2.0 * r).reshape(-1) for r in balls.radii])


def _field_case(dim, n, kind):
    """Half-space fields for the bitwise oracles: a random concentrated field,
    the zero field, and a field 1e40 times weaker on one half, whose weak
    cells fall below every level and become stray pieces, or 1e200 times
    weaker ("faint"), whose squares underflow at the field's max."""
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    scales = ScaleGrid(1 / 8, 1.0, 4)
    rng = np.random.default_rng(10 * n + dim)
    mesh = grid.coordinate_mesh()
    envelope = np.exp(-sum(c**2 for c in mesh) / 0.5)
    values = rng.normal(size=grid.shape + (len(scales),)) * envelope[..., None]
    if kind == "zero":
        values = 0.0 * values
    elif kind == "stray":
        values = values * np.where(mesh[0] > 0, 1.0, 1e-40)[..., None]
    elif kind == "faint":
        values = values * np.where(mesh[0] > 0, 1.0, 1e-200)[..., None]
    return HalfSpaceField(grid, scales, values)


def _fit_ball_reference(grid, balls, center, piece_mask, ts):
    """The mask-based ball fit: torus distances over the whole grid times every scale."""
    dist = np.roll(grid.offset_distances(), shift=center, axis=tuple(range(grid.dim)))
    reach = dist[..., None] + ts.reshape((1,) * grid.dim + (-1,))
    need = float(reach[piece_mask].max())
    candidates = balls.radii[balls.radii > need * (1.0 + 1e-12)]
    if len(candidates):
        return Ball(center=center, radius=float(candidates[0]))
    assert need < 2.0 * grid.half_width
    return Ball(center=center, radius=2.0 * grid.half_width)


def test_fit_balls_take_the_first_fitting_radius_or_the_full_box():
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)  # cells of 1/16
    balls = BallFamily(grid, np.array([0.25, 0.5, 1.0]))
    ts = np.array([0.125, 0.5, 2.0])
    # a piece's cells are flat (point, scale) indices point * K + k
    centers = np.array([10, 10, 20, 40])
    pieces = [np.array([30]), np.array([30, 37]), np.array([62]), np.array([121, 151])]
    radii = atoms._fit_balls(grid, balls, centers, *_flat(pieces), ts)
    assert radii.tolist() == [0.25, 1.0, 4.0, 4.0]  # needs 0.125, 0.625, 2 and 1.125
    for radius, center, cells in zip(radii.tolist(), centers.tolist(), pieces):
        mask = np.zeros(grid.shape + (len(ts),), dtype=bool)
        mask.reshape(-1)[cells] = True
        assert Ball((center,), radius) == _fit_ball_reference(grid, balls, (center,), mask, ts)
    with pytest.raises(ValueError, match="reaches above the box"):
        atoms._fit_balls(grid, balls, centers, *_flat(pieces), np.array([0.125, 0.5, 4.0]))


def _pieces_reference(F, area, balls):
    """The stopping-time pieces as (boolean mask, centre): one full-grid mask
    per piece, as before pieces were carried as cell indices."""
    top = math.ceil(math.log2(area.max()))
    bottom = max(math.floor(math.log2(area[area > 0].min())) - 1, top - atoms.MAX_LEVELS)
    levels = 2.0 ** np.arange(bottom, top + 1)
    cell_level = atoms._containment_levels(F, area, levels)
    support = np.abs(F.values) > 0
    pieces = []
    for li, lev in enumerate(levels):
        shell = support & (cell_level == li)
        if not shell.any():
            continue
        inside = (area > lev).reshape(1, -1)
        fits = _double_fit_rows(F.grid, inside[0], balls)[None]
        region, leaders = atoms._whitney_regions(F.grid, inside, balls, fits)
        region = region.reshape(F.grid.shape)
        for rid in np.unique(np.broadcast_to(region[..., None], shell.shape)[shell]):
            if rid >= 0:
                centre = tuple(int(i) for i in np.unravel_index(leaders[rid], F.grid.shape))
                pieces.append((shell & (region[..., None] == rid), centre))
    assigned = np.zeros_like(support)
    for mask, _ in pieces:
        assigned |= mask
    stray = support & ~assigned
    for idx in np.argwhere(stray.any(axis=-1)):
        idx = tuple(idx)
        mask = np.zeros_like(stray)
        mask[idx] = stray[idx]
        pieces.append((mask, idx))
    return pieces


def _dense_decomposition_reference(F, space, balls, one_piece=_one_piece_spectral_reference):
    """Per-piece sizing with a dense field per atom, as before atoms were stored
    on their cells, with ``one_piece`` the cone functional of the field and of
    each piece.  Returns [(ball, coefficient, dense atom values)] and the dense
    sum of coefficient times atom."""
    grid = F.grid
    ref_atoms = []
    total = np.zeros_like(F.values)
    area = one_piece(F)
    if not np.any(area > 0):
        return ref_atoms, total
    pieces = _pieces_reference(F, area, balls)
    areas = _piece_functionals_reference(F, 1.0, [mask for mask, _ in pieces], one_piece)
    for (mask, center), row in zip(pieces, areas):
        ball = _fit_ball_reference(grid, balls, center, mask, F.scales.scales)
        norm_1b = space_norm(ball_indicator(grid, ball), space)
        piece_area = SampledFunction(grid, row)
        lam = max(
            space_norm(piece_area, Lebesgue(p)) * norm_1b / ball_volume(ball.radius, grid.dim) ** (1.0 / p)
            for p in (2.0, 4.0)
        )
        if lam != 0.0:
            values = np.zeros_like(F.values)
            np.divide(F.values, lam, out=values, where=mask)
            ref_atoms.append((ball, lam, values))
            total = total + lam * values
    return ref_atoms, total


def _coefficient_functional_reference(decomp, space):
    """The per-atom loop: one indicator and one norm per atom, added into a dense sum."""
    if not decomp.atoms:
        return 0.0
    grid = decomp.grid
    s = min(1.0, space.floor())
    acc = np.zeros(grid.shape)
    for atom in decomp.atoms:
        indicator = ball_indicator(grid, atom.ball)
        acc += (atom.coefficient / space_norm(indicator, space)) ** s * indicator.values.real
    return space_norm(SampledFunction(grid, acc ** (1.0 / s)), space)


def _assert_matches_dense_reference(dec, reference, space):
    """The decomposition against the FFT per-piece reference: the same balls,
    cells and ball norms bitwise; the coefficients, atom values, rebuilt
    field and coefficient functional within ``SIZE_RTOL``, as the pieces'
    sizes come from interval sums, not from the reference's FFTs."""
    ref_atoms, ref_total = reference
    assert len(dec.atoms) == len(ref_atoms)
    grid, scales = dec.grid, dec.scales
    for atom, (ball, lam, values) in zip(dec.atoms, ref_atoms):
        assert atom.ball == ball
        assert np.array_equal(atom.cells, np.flatnonzero(values))
        assert atom.coefficient == pytest.approx(lam, rel=SIZE_RTOL, abs=0.0)
        np.testing.assert_allclose(atom.field.values, values, rtol=SIZE_RTOL, atol=0.0)
    assert dec.ball_norms == [space_norm(ball_indicator(grid, atom.ball), space) for atom in dec.atoms]
    np.testing.assert_allclose(dec.reconstruct().values, ref_total, rtol=SIZE_RTOL, atol=0.0)
    # the reference loop reads only the grid and the atoms
    ref_dec = types.SimpleNamespace(grid=grid, atoms=[atom_from_field(HalfSpaceField(grid, scales, values), ball, lam)
                                                      for ball, lam, values in ref_atoms])
    assert coefficient_functional(dec, space) == pytest.approx(_coefficient_functional_reference(ref_dec, space),
                                                               rel=SIZE_RTOL, abs=0.0)


def _assert_near_spatial_decomposition(dec, F, space, balls):
    """The decomposition against the spatial cone functionals: the same atoms,
    balls and cells, coefficients within ``COEFFICIENT_RTOL``."""
    ref_atoms, _ = _dense_decomposition_reference(F, space, balls, one_piece=_one_piece_functional_reference)
    assert len(dec.atoms) == len(ref_atoms)
    for atom, (ball, lam, values) in zip(dec.atoms, ref_atoms):
        assert atom.ball == ball
        assert np.array_equal(atom.cells, np.flatnonzero(values))
        assert atom.coefficient == pytest.approx(lam, rel=COEFFICIENT_RTOL, abs=0.0)


LEBESGUE, MORREY = Lebesgue(2.0), Morrey(2.0, 1.0)  # Morrey ball norms depend on the centre
CASES = [(1, 64, "field", LEBESGUE), (1, 64, "zero", LEBESGUE), (1, 64, "stray", LEBESGUE),
         (2, 16, "field", LEBESGUE), (2, 16, "stray", LEBESGUE),
         (1, 64, "field", MORREY), (1, 64, "stray", MORREY)]


@pytest.mark.parametrize("dim,n,kind,space", CASES, ids=[f"{d}d-{n}-{k}-{s.tag}" for d, n, k, s in CASES])
def test_decompose_matches_per_piece_reference_bitwise(monkeypatch, dim, n, kind, space):
    F = _field_case(dim, n, kind)
    if kind == "stray":
        # support cells whose balls fit in no superlevel set belong to no shell
        area = tent_functional(F, 1.0).values.real
        top = math.ceil(math.log2(area.max()))
        bottom = max(math.floor(math.log2(area[area > 0].min())) - 1, top - atoms.MAX_LEVELS)
        levels = 2.0 ** np.arange(bottom, top + 1)
        assert ((atoms._containment_levels(F, area, levels) < 0) & (np.abs(F.values) > 0)).any()
    balls = BallFamily.build(F.grid, 2)
    fast = tent_decompose(F, space, balls)
    assert (len(fast.atoms) == 0) == (kind == "zero")
    # the reference: per-radius Whitney regions level by level, one boolean mask and one cone
    # functional per piece, mask-based ball fits, one norm per piece and a
    # dense field per atom
    monkeypatch.setattr(atoms, "_whitney_regions", _whitney_levels_reference)
    _assert_matches_dense_reference(fast, _dense_decomposition_reference(F, space, balls), space)
    _assert_near_spatial_decomposition(fast, F, space, balls)
    if kind != "zero":  # the pieces' cell indices are the reference masks' cells
        area = tent_functional(F, 1.0).values.real
        (cells, starts, centres), ref = atoms._pieces(F, area, balls), _pieces_reference(F, area, balls)
        assert centres.tolist() == [np.ravel_multi_index(centre, F.grid.shape) for _, centre in ref]
        pieces = np.split(cells, starts[1:])
        assert len(pieces) == len(ref)
        assert all(np.array_equal(cells, np.flatnonzero(mask)) for cells, (mask, _) in zip(pieces, ref))


@pytest.mark.parametrize("seed", [0, 4243])
def test_decompose_1d_benchmark_trials_match_dense_reference_bitwise(seed):
    # the benchmark's decompose-1d inputs: trials 0-3 on 1-D N=256
    plan = build_plan(build_annular_kernel(GRID), SCALES)
    for trial in range(4):
        F = build_field(trial_function(seed, trial, GRID), plan)
        dec = tent_decompose(F, LEBESGUE, BALLS)
        _assert_matches_dense_reference(dec, _dense_decomposition_reference(F, LEBESGUE, BALLS), LEBESGUE)
        _assert_near_spatial_decomposition(dec, F, LEBESGUE, BALLS)


@pytest.mark.parametrize("case", ["1d-256-field", "2d-16-stray", "2d-16-faint"])
def test_atoms_store_disjoint_cells_covering_the_support(case):
    # a faint half's pieces hold only cells whose |F|^2 underflows at the
    # field's max: each piece is sized at its own max, so none is dropped
    F = random_field(2) if case == "1d-256-field" else _field_case(2, 16, case.split("-")[-1])
    dec = tent_decompose(F, LEBESGUE, BallFamily.build(F.grid, 2))
    owners = np.zeros(F.values.size, dtype=int)
    for atom in dec.atoms:
        assert np.all(np.diff(atom.cells) > 0)  # sorted and unique
        assert atom.values.size == np.count_nonzero(atom.field.values)
        owners[atom.cells] += 1
        again = atom_from_field(atom.field, atom.ball, atom.coefficient)
        assert np.array_equal(again.cells, atom.cells) and np.array_equal(again.values, atom.values)
    assert owners.max() == 1  # pairwise disjoint
    assert np.array_equal(owners == 1, F.values.reshape(-1) != 0)  # the union is the support of F


@pytest.mark.parametrize("case", ["1d-256-field", "2d-16-stray"])
def test_decomposition_sizes_match_each_atom_size(case):
    # an atom's size is its piece's size over its coefficient, not a recomputation
    F = random_field(2) if case == "1d-256-field" else _field_case(2, 16, "stray")
    dec = tent_decompose(F, LEBESGUE, BallFamily.build(F.grid, 2))
    assert dec.atoms
    assert sorted(dec.sizes) == [2.0, 4.0]
    for p, sizes in dec.sizes.items():
        assert sizes == pytest.approx([tent_atom_size(atom.field, p) for atom in dec.atoms], rel=1e-14, abs=0.0)


def _decomposition_pieces(F, balls):
    """The piece cell indices ``tent_decompose`` sizes."""
    seen = []

    def record(F, cells, starts):
        seen.extend(np.split(cells, starts[1:]))
        return piece_functionals(F, cells, starts)

    piece_functionals = atoms._piece_functionals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atoms, "_piece_functionals", record)
        tent_decompose(F, Lebesgue(2.0), balls)
    return seen


def _chunked_functionals(F, pieces):
    """Every piece's cone functional from ``atoms._piece_functionals``, the
    root of its squared row scaled back by its exponent, and the pieces per
    chunk."""
    chunks = [np.ldexp(np.sqrt(rows), exps.reshape((-1,) + (1,) * F.grid.dim))
              for rows, exps in atoms._piece_functionals(F, *_flat(pieces))]
    return np.concatenate([np.empty((0,) + F.grid.shape), *chunks]), [len(c) for c in chunks]


def _sizes(grid, rows):
    """The L^p norm of every row, per p of ``SIZE_EXPONENTS``."""
    return [space_norms(grid, rows, Lebesgue(p)) for p in atoms.SIZE_EXPONENTS]


# (case, chunk budget in 8-byte elements): budgets of several pieces per
# chunk, and of one
CHUNK_CASES = [("1d-256-field", 4096), ("1d-64-field", 300), ("1d-64-stray", 1), ("2d-16-field", 1000),
               ("2d-16-stray", 1), ("2d-32-field", 20000)]


@pytest.mark.parametrize("case,chunk", CHUNK_CASES, ids=[c for c, _ in CHUNK_CASES])
def test_piece_functionals_span_chunks_bitwise(monkeypatch, case, chunk):
    if case == "1d-256-field":
        F, balls = random_field(1), BALLS
    else:
        dim, n, kind = case.split("-")
        F = _field_case(int(dim[0]), int(n), kind)
        balls = BallFamily.build(F.grid, 2)
    pieces = _decomposition_pieces(F, balls)
    monkeypatch.setattr(grid_mod, "WORK_BYTES", 1 << 62)
    whole, counts = _chunked_functionals(F, pieces)
    assert counts == [len(pieces)]  # one chunk
    monkeypatch.setattr(grid_mod, "WORK_BYTES", 8 * chunk)
    rows, counts = _chunked_functionals(F, pieces)
    # whole pieces per chunk, several chunks, and several pieces per chunk unless the budget is one
    assert sum(counts) == len(pieces) and len(counts) > 1 and (max(counts) > 1) == (chunk > 1)
    assert np.array_equal(rows, whole)
    masks = [_cells_mask(F, cells) for cells in pieces]
    reference = _piece_functionals_reference(F, 1.0, masks)
    _assert_near_spatial(rows, reference)
    _assert_near_spatial(rows, _piece_functionals_reference(F, 1.0, masks, _one_piece_functional_reference))
    for fast, sizes, ref in zip(_sizes(F.grid, rows), atoms._piece_sizes(F, *_flat(pieces)),
                                _sizes(F.grid, reference)):
        assert fast == pytest.approx(ref, rel=SIZE_RTOL, abs=0.0)
        assert sizes == pytest.approx(ref, rel=SIZE_RTOL, abs=0.0)
    assert list(atoms._piece_functionals(F, *_flat([]))) == []
    # the one-piece case is the field's own cone functional
    whole = tent_functional(F, 1.0).values
    assert np.array_equal(whole, _one_piece_spectral_reference(F))
    _assert_near_spatial(whole[None], _one_piece_functional_reference(F)[None])
    _assert_near_spatial(_chunked_functionals(F, [np.flatnonzero(F.values)])[0], whole[None])


@pytest.mark.parametrize("case", ["1d-256-benchmark", "2d-16-stray"])
def test_decomposition_sizes_do_not_depend_on_the_chunk_budget(monkeypatch, case):
    if case == "1d-256-benchmark":
        F = build_field(trial_function(5, 0, GRID), build_plan(build_annular_kernel(GRID), SCALES))
        balls = BALLS
    else:
        F = _field_case(2, 16, "stray")
        balls = BallFamily.build(F.grid, 2)
    dec = tent_decompose(F, LEBESGUE, balls)
    functionals = [coefficient_functional(dec, space) for space in (LEBESGUE, MORREY)]
    # one piece per chunk, one ball per norm chunk, and one item per batch everywhere
    monkeypatch.setattr(grid_mod, "WORK_BYTES", 1)
    one = tent_decompose(F, LEBESGUE, balls)
    assert dec.sizes == one.sizes and [a.coefficient for a in dec.atoms] == [a.coefficient for a in one.atoms]
    assert dec.ball_norms == one.ball_norms
    assert [coefficient_functional(one, space) for space in (LEBESGUE, MORREY)] == functionals


@pytest.mark.parametrize("trial", range(4))
def test_decomposition_is_exactly_equivariant_under_powers_of_two(trial):
    # decompose-1d's field of seed 5 scaled by 2^k: by the smallest k that
    # keeps every nonzero sample normal, and far down and up.  Scaling by a
    # power of two is exact there, so the atoms keep their bits and the
    # coefficients scale by exactly 2^k; the sizes are those of the atoms,
    # and the rebuilt field and the coefficient functional in the space the
    # atoms were sized for scale by exactly 2^k
    F = build_field(trial_function(5, trial, GRID), build_plan(build_annular_kernel(GRID), SCALES))
    smallest = np.abs(F.values[F.values != 0]).min()
    lowest = np.finfo(float).minexp - int(np.frexp(smallest)[1]) + 1  # the smallest k keeping it normal
    assert np.ldexp(smallest, lowest) >= np.finfo(float).tiny > np.ldexp(smallest, lowest - 1)
    for space in (LEBESGUE, Lebesgue(0.5), MORREY):
        dec = tent_decompose(F, space, BALLS)
        assert dec.atoms
        rebuilt, functional = dec.reconstruct().values, coefficient_functional(dec, space)
        for k in (lowest, -500, 900):
            scaled = tent_decompose(HalfSpaceField(GRID, SCALES, np.ldexp(F.values, k)), space, BALLS)
            assert len(scaled.atoms) == len(dec.atoms) and scaled.ball_norms == dec.ball_norms
            for atom, other in zip(dec.atoms, scaled.atoms):
                assert np.array_equal(atom.cells, other.cells) and np.array_equal(atom.values, other.values)
                assert atom.ball == other.ball and other.coefficient == math.ldexp(atom.coefficient, k)
            assert scaled.sizes == dec.sizes
            assert np.array_equal(scaled.reconstruct().values, np.ldexp(rebuilt, k))
            assert coefficient_functional(scaled, space) == math.ldexp(functional, k)


def _brute_force_piece_functional(F, cells):
    """A piece's unit-aperture cone functional cell by cell, without FFTs:
    each cell (y, t_k) adds w_k |F(y, t_k)|^2 on ``grid.ball_mask(t_k)``
    rolled to y, w_k the scale's quadrature weight."""
    grid, scales = F.grid, F.scales
    weights = grid.cell_volume * scales.log_weight / scales.scales**grid.dim
    flat = F.values.reshape(-1)
    acc = np.zeros(grid.shape)
    axes = tuple(range(grid.dim))
    for cell in cells.tolist():
        point, k = divmod(cell, len(scales))
        mask = np.roll(grid.ball_mask(scales.scales[k]), np.unravel_index(point, grid.shape), axis=axes)
        acc += weights[k] * abs(flat[cell]) ** 2 * mask
    return np.sqrt(acc)


def _run_kinds(F, cells):
    """Which kinds of ball-row runs the cells make: a run (narrower than the
    line) ending exactly at n, one wrapping past n, and full rows."""
    n = F.grid.points_per_axis
    widths = F.grid.ball_row_widths(tuple(F.scales.scales.tolist()))
    point, k = np.divmod(cells, len(F.scales))
    w = widths[k]
    end = (point[:, None] % n - w // 2) % n + w
    part = (w > 0) & (w < n)
    return {"ends at n": bool((part & (end == n)).any()), "wraps": bool((part & (end > n)).any()),
            "full rows": bool((w == n).any())}


INTERVAL_CASES = ["1d-64-real", "1d-64-complex", "1d-64-underflow", "2d-16-real", "2d-16-complex", "2d-16-underflow"]


@pytest.mark.parametrize("case", INTERVAL_CASES)
def test_piece_functionals_match_the_brute_force_and_fft_references(case):
    dim, n, kind = case.split("-")
    grid = GridSpec(dim=int(dim[0]), half_width=2.0, points_per_axis=int(n))
    scales = ScaleGrid(1 / 8, 8.0, 4)  # up to balls of more than the box: full rows
    rng = np.random.default_rng(int(n) + int(dim[0]))
    values = rng.normal(size=grid.shape + (len(scales),))
    if kind == "complex":
        values = values + 1j * rng.normal(size=values.shape)
    elif kind == "underflow":  # support cells whose unit-scaled |F|^2 is 0
        values[grid.coordinate_mesh()[0] < 0] *= 1e-200
    F = HalfSpaceField(grid, scales, values)
    cells = rng.permutation(F.values.size)
    edges = np.cumsum([1, 2, 5, 30, 200, F.values.size // 3])
    pieces = np.split(cells, edges)
    column = np.arange(len(scales)) + (grid.size - 1) * len(scales)  # every scale at the last point
    pieces += [column, np.sort(cells[:2])]
    if kind == "underflow":
        unit = np.abs(F.values) / 2.0 ** np.frexp(np.abs(F.values).max())[1]
        assert ((unit**2 == 0.0) & (unit > 0.0)).any()
        weak = np.flatnonzero(np.broadcast_to((grid.coordinate_mesh()[0] < 0)[..., None], F.values.shape))
        pieces.append(weak[:50])
    assert _run_kinds(F, cells) == {"ends at n": True, "wraps": True, "full rows": True}
    rows, _ = _chunked_functionals(F, pieces)
    brute = np.array([_brute_force_piece_functional(F, cells) for cells in pieces])
    _assert_near_spatial(rows, brute)
    reference = _piece_functionals_reference(F, 1.0, [_cells_mask(F, cells) for cells in pieces])
    _assert_near_spatial(rows, reference)
    # the references square |F| unscaled, so a piece of weak cells alone is 0
    # there; each piece's own tent_functional scales it to its max, as the
    # pieces' rows do
    strong = np.abs(F.values.reshape(-1)) > 1e-100
    compared = np.flatnonzero([strong[cells].any() for cells in pieces])
    sizes = atoms._piece_sizes(F, *_flat(pieces))
    for fast, size, ref, spectral, p in zip(_sizes(grid, rows), sizes, _sizes(grid, brute), _sizes(grid, reference),
                                            atoms.SIZE_EXPONENTS):
        for got in (np.take(fast, compared), np.take(size, compared)):
            assert got == pytest.approx(np.take(ref, compared), rel=SIZE_RTOL, abs=0.0)
            assert got == pytest.approx(np.take(spectral, compared), rel=SIZE_RTOL, abs=0.0)
        if kind == "underflow":
            own = [tent_atom_size(HalfSpaceField(grid, scales, np.where(_cells_mask(F, cells), F.values, 0.0)), p)
                   for cells in pieces]
            assert size == pytest.approx(own, rel=SIZE_RTOL, abs=0.0)
    if kind == "underflow":
        assert not brute[-1].any() and rows[-1].all() and not np.signbit(rows).any()
    else:
        assert len(compared) == len(pieces)


def test_piece_sizes_stay_exact_where_the_squared_rows_squares_overflow():
    # at scales near 2^-600 the weights 1/t make a squared row about 2^600
    # at its max, so its square, S^4, overflows unless the row is scaled first
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(2.0**-600, 2.0**-598, 4)
    F = HalfSpaceField(grid, scales, np.random.default_rng(0).normal(size=grid.shape + (len(scales),)))
    pieces = [np.arange(30), np.arange(30, F.values.size)]
    rows, _ = _chunked_functionals(F, pieces)
    assert 4 * np.log2(rows.max()) > 1024
    for size, p in zip(atoms._piece_sizes(F, *_flat(pieces)), atoms.SIZE_EXPONENTS):
        own = [tent_atom_size(HalfSpaceField(grid, scales, np.where(_cells_mask(F, cells), F.values, 0.0)), p)
               for cells in pieces]
        assert size == pytest.approx(own, rel=SIZE_RTOL, abs=0.0)


def _mixed_complex_field():
    """A complex field whose imaginary part is zero on the left half of the
    box, so some of its pieces are real and some complex."""
    F = random_field(4)
    imag = random_field(5).values * (GRID.coordinate_mesh()[0] > 0)[..., None]
    return HalfSpaceField(GRID, SCALES, F.values + 1j * imag)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_atoms_are_each_pieces_quotient_and_rebuild_as_the_per_atom_sum_bitwise(kind):
    F = random_field(4) if kind == "real" else _mixed_complex_field()
    dec = tent_decompose(F, LEBESGUE, BALLS)
    flat = F.values.reshape(-1)
    dtypes = set()
    for atom in dec.atoms:
        # one division for every atom is bitwise each piece's own, and the
        # values keep real_or_complex's dtype per atom
        expected = real_or_complex(flat[atom.cells] / atom.coefficient)
        assert atom.values.dtype == expected.dtype and np.array_equal(atom.values, expected)
        assert atom.cells.dtype == np.intp
        assert not atom.values.flags.writeable and not atom.cells.flags.writeable
        dtypes.add(atom.values.dtype)
    assert dtypes == ({np.dtype(float)} if kind == "real" else {np.dtype(float), np.dtype(complex)})
    # one scatter is bitwise the atom-by-atom sum
    total = np.zeros(F.values.shape, dtype=np.result_type(float, *dtypes))
    for atom in dec.atoms:
        total.reshape(-1)[atom.cells] += atom.coefficient * atom.values
    rebuilt = dec.reconstruct().values
    assert rebuilt.dtype == total.dtype and np.array_equal(rebuilt, total)
    assert np.max(np.abs(rebuilt - F.values)) <= 1e-12


def test_decomposing_rebuilding_and_weighting_build_no_atom(monkeypatch):
    built = count_built_atoms(monkeypatch)
    dec = tent_decompose(random_field(4), LEBESGUE, BALLS)
    count = len(dec.atoms)
    dec.reconstruct()
    coefficient_functional(dec, LEBESGUE)
    coefficient_functional(dec, MORREY)
    assert count > 1 and built == []
    # reading an atom builds that atom alone
    dec.atoms[count // 2]
    assert len(built) == 1


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_atoms_read_by_index_slice_and_iteration_match_the_per_piece_reference(kind):
    # each atom is built when it is read, by index, from the end, in a slice
    # or in iteration, and is the reference piece's: its ball, cells and
    # coefficient, and its values the piece's quotient in its own dtype
    F = random_field(4) if kind == "real" else _mixed_complex_field()
    dec = tent_decompose(F, LEBESGUE, BALLS)
    ref_atoms, _ = _dense_decomposition_reference(F, LEBESGUE, BALLS)
    flat, count = F.values.reshape(-1), len(ref_atoms)
    dtypes = set()

    def check(atom, ref):
        ball, lam, values = ref
        assert atom.ball == ball and type(atom.ball.radius) is float
        assert all(type(i) is int for i in atom.ball.center) and type(atom.coefficient) is float
        assert np.array_equal(atom.cells, np.flatnonzero(values))
        assert atom.coefficient == pytest.approx(lam, rel=SIZE_RTOL, abs=0.0)
        expected = real_or_complex(flat[atom.cells] / atom.coefficient)
        assert atom.values.dtype == expected.dtype and np.array_equal(atom.values, expected)
        assert not atom.values.flags.writeable and not atom.cells.flags.writeable
        dtypes.add(atom.values.dtype)

    assert len(dec.atoms) == count > 2
    for i in range(count):
        check(dec.atoms[i], ref_atoms[i])
    check(dec.atoms[-1], ref_atoms[-1])
    check(dec.atoms[-count], ref_atoms[0])
    for part in (slice(1, -1, 2), slice(None, None, -3), slice(count, None)):
        atoms_part = dec.atoms[part]
        assert len(atoms_part) == len(ref_atoms[part])
        for atom, ref in zip(atoms_part, ref_atoms[part]):
            check(atom, ref)
    iterated = list(dec.atoms)
    assert len(iterated) == count
    for atom, ref in zip(iterated, ref_atoms):
        check(atom, ref)
    assert dtypes == ({np.dtype(float)} if kind == "real" else {np.dtype(float), np.dtype(complex)})
    for past in (count, -count - 1):
        with pytest.raises(IndexError):
            dec.atoms[past]
    with pytest.raises(TypeError):
        dec.atoms[0] = dec.atoms[1]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_an_atom_read_from_a_decomposition_holds_views_of_its_flat_arrays(kind):
    # TentAtom's checked constructor keeps each piece's cells and values as
    # views; a real piece of a complex decomposition gets float values, a
    # copy unless the piece has one cell
    F = random_field(4) if kind == "real" else _mixed_complex_field()
    dec = tent_decompose(F, LEBESGUE, BALLS)
    same_dtype = [atom for atom in dec.atoms if atom.values.dtype == dec.values.dtype]
    assert all(np.shares_memory(atom.cells, dec.cells) for atom in dec.atoms)
    assert same_dtype and all(np.shares_memory(atom.values, dec.values) for atom in same_dtype)
    assert (len(same_dtype) == len(dec.atoms)) == (kind == "real")


def test_a_non_finite_atom_value_raises(monkeypatch):
    # sizes near the bottom of the float range make coefficients whose quotients overflow
    monkeypatch.setattr(atoms, "_piece_sizes", lambda F, cells, starts: [[1e-310] * len(starts)] * 2)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="values must be finite"):
        tent_decompose(random_field(1), LEBESGUE, BALLS)
    # the public constructor keeps its own checks
    ball = Ball((0,), 1.0)
    with pytest.raises(ValueError, match="values must be finite"):
        TentAtom(GRID, SCALES, np.array([0, 1]), np.array([1.0, np.inf]), ball, 1.0)
    with pytest.raises(ValueError, match="matching"):
        TentAtom(GRID, SCALES, np.array([0, 1]), np.array([1.0]), ball, 1.0)


def _oracle_balls(grid, count):
    """Balls for the ball-norm oracle: centres on the box edges, whose balls
    wrap around the torus, and random ones; radii from the family, a radius
    of half a cell, and ``_fit_balls``'s full-box fallback 2L."""
    n = grid.points_per_axis
    rng = np.random.default_rng(n * grid.dim)
    radii = BallFamily.build(grid, 2).radii
    centres = [(0,) * grid.dim, (n - 1,) * grid.dim, (n - 1, 0)[: grid.dim]]
    centres += [tuple(int(i) for i in rng.integers(0, n, grid.dim)) for _ in range(count)]
    choices = [float(radii[0]), float(radii[len(radii) // 2]), float(radii[-1]), 0.5 * grid.spacing,
               2.0 * grid.half_width]
    return [Ball(c, choices[i % len(choices)]) for i, c in enumerate(centres)] + [
        Ball(centres[0], 2.0 * grid.half_width), Ball(centres[1], float(radii[-1]))]


NORM_GRIDS = [(1, 64), (1, 256), (2, 16), (2, 64)]


@pytest.mark.parametrize("dim,n", NORM_GRIDS, ids=[f"{d}d-{n}" for d, n in NORM_GRIDS])
def test_ball_norms_match_each_indicator_norm_bitwise(dim, n):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    spaces = [Lebesgue(1.3), Lebesgue(2.0), Lebesgue(4.0), WeightedLebesgue(1.5, power_weight(grid, 0.5)),
              Morrey(2.0, 1.0), MixedNorm((1.5,) * dim),
              descriptor_from_json({"tag": "variable", "base": 1.8, "dip": 0.3}, grid)]
    if n < 64:  # a 2-D N=64 OrliczSlice norm takes seconds
        spaces.append(descriptor_from_json({"tag": "orlicz_slice", "r": 1.5, "t": 1.0}, grid))
    for space in spaces:
        # a 2-D N=64 Morrey norm takes milliseconds: fewer balls there
        balls = _oracle_balls(grid, 4 if isinstance(space, Morrey) and n == 64 else 24)
        assert (atoms._ball_norms(grid, *_ball_arrays(grid, balls), space)
                == [space_norm(ball_indicator(grid, b), space) for b in balls])
        assert atoms._ball_norms(grid, *_ball_arrays(grid, []), space) == []


@pytest.mark.parametrize("kind", ["field", "stray"])
@pytest.mark.parametrize("space", [LEBESGUE, MORREY], ids=["lebesgue", "morrey"])
def test_decomposition_ball_norms_are_its_atoms_ball_norms_bitwise(kind, space):
    # one norm per kept atom, the ones tent_decompose sized the atoms with
    F = _field_case(1, 64, kind)
    dec = tent_decompose(F, space, BallFamily.build(F.grid, 2))
    assert dec.atoms and len(dec.ball_norms) == len(dec.atoms)
    assert dec.ball_norms == [space_norm(ball_indicator(F.grid, atom.ball), space) for atom in dec.atoms]
    assert tent_decompose(_field_case(1, 64, "zero"), space).ball_norms == []


COEFFICIENT_CASES = [("1d-64-field", LEBESGUE), ("1d-64-field", Lebesgue(0.5)), ("1d-64-stray", MORREY),
                     ("2d-16-stray", Lebesgue(1.3)), ("1d-256-benchmark", LEBESGUE)]


@pytest.mark.parametrize("case,space", COEFFICIENT_CASES,
                         ids=[f"{c}-{sp.tag}{getattr(sp, 'p', '')}-sNone" for c, sp in COEFFICIENT_CASES])
def test_coefficient_functional_matches_per_atom_loop_bitwise(case, space):
    if case == "1d-256-benchmark":
        plan = build_plan(build_annular_kernel(GRID), SCALES)
        fields, balls = [build_field(trial_function(5, trial, GRID), plan) for trial in range(4)], BALLS
    else:
        dim, n, kind = case.split("-")
        fields = [_field_case(int(dim[0]), int(n), kind)]
        balls = BallFamily.build(fields[0].grid, 2)
    for F in fields:
        dec = tent_decompose(F, space, balls)
        assert len(dec.atoms) > 1
        assert coefficient_functional(dec, space) == _coefficient_functional_reference(dec, space)


@pytest.mark.parametrize("case", ["1d-64-field", "1d-64-stray", "1d-256-benchmark"])
def test_coefficient_functional_in_another_space_matches_per_atom_loop_bitwise(case):
    # atoms sized in Lebesgue(2) take their Morrey ball norms anew
    if case == "1d-256-benchmark":
        plan = build_plan(build_annular_kernel(GRID), SCALES)
        fields, balls = [build_field(trial_function(5, trial, GRID), plan) for trial in range(4)], BALLS
    else:
        dim, n, kind = case.split("-")
        fields = [_field_case(int(dim[0]), int(n), kind)]
        balls = BallFamily.build(fields[0].grid, 2)
    for F in fields:
        dec = tent_decompose(F, LEBESGUE, balls)
        assert len(dec.atoms) > 1
        assert coefficient_functional(dec, MORREY) == _coefficient_functional_reference(dec, MORREY)


def test_coefficient_functional_norms_the_balls_again_only_in_another_descriptor(monkeypatch):
    # the sizing descriptor itself reads the stored ball norms; an equal but
    # distinct descriptor takes one space_norms call and gives the same bits
    F = _field_case(1, 64, "field")
    dec = tent_decompose(F, LEBESGUE, BallFamily.build(F.grid, 2))
    calls = []

    def counted(grid, rows, space):
        calls.append(len(rows))
        return space_norms(grid, rows, space)

    monkeypatch.setattr(atoms, "space_norms", counted)
    same = coefficient_functional(dec, LEBESGUE)
    assert calls == []
    assert coefficient_functional(dec, Lebesgue(2.0)) == same == _coefficient_functional_reference(dec, LEBESGUE)
    assert calls == [len(dec.atoms)]


def _vanishing_weight_space(grid):
    """Weighted L^1.5 whose weight is the least subnormal on x < 0: a ball
    there has norm 0, so its piece gets coefficient 0 and is dropped."""
    weight = np.where(grid.coordinate_mesh()[0] < 0, np.nextafter(0.0, 1.0), 1.0)
    return WeightedLebesgue(1.5, Weight(SampledFunction(grid, weight)), q_omega=1.0)


@pytest.mark.parametrize("kind", ["field", "dropped"])
def test_decomposition_keeps_its_atoms_arrays_and_balls(kind):
    # the flat cells, values and per-cell coefficients hold every atom's,
    # each atom's arrays are views into them, and the centres and radii are
    # the kept atoms' balls, all read-only
    F = _field_case(1, 64, "field")
    balls = BallFamily.build(F.grid, 2)
    space = LEBESGUE if kind == "field" else _vanishing_weight_space(F.grid)
    dec = tent_decompose(F, space, balls)
    pieces = len(_decomposition_pieces(F, balls))
    assert (len(dec.atoms) < pieces) == (kind == "dropped") and dec.space is space
    assert np.array_equal(dec.cells, np.concatenate([atom.cells for atom in dec.atoms]))
    assert np.array_equal(dec.values, np.concatenate([atom.values for atom in dec.atoms]))
    assert np.array_equal(dec.coefficients, np.repeat([atom.coefficient for atom in dec.atoms],
                                                      [len(atom.cells) for atom in dec.atoms]))
    for atom in dec.atoms:
        assert np.shares_memory(atom.cells, dec.cells) and np.shares_memory(atom.values, dec.values)
    centres, radii = _ball_arrays(F.grid, [atom.ball for atom in dec.atoms])
    assert np.array_equal(dec.centers, centres) and np.array_equal(dec.radii, radii)
    assert not any(a.flags.writeable for a in (dec.cells, dec.values, dec.coefficients, dec.centers, dec.radii))
    assert coefficient_functional(dec, space) == _coefficient_functional_reference(dec, space)
    assert coefficient_functional(dec, MORREY) == _coefficient_functional_reference(dec, MORREY)


def test_empty_decomposition_passes_the_batched_ball_bookkeeping():
    F = _field_case(1, 64, "zero")
    for space in (LEBESGUE, MORREY, Lebesgue(0.5)):
        dec = tent_decompose(F, space, BallFamily.build(F.grid, 2))
        assert len(dec.atoms) == 0
        assert dec.ball_norms == [space_norm(ball_indicator(F.grid, atom.ball), space) for atom in dec.atoms] == []
        assert coefficient_functional(dec, space) == 0.0 == _coefficient_functional_reference(dec, space)


def _whitney_inputs(F, balls, area=None):
    """The (grid, inside, balls, double_fits) of the ``_whitney_regions``
    call that decomposing F makes, or that ``atoms._pieces`` makes with
    ``area`` in place of F's cone functional."""
    seen = []

    def record(grid, inside, balls, double_fits):
        seen.append((grid, inside.copy(), balls, double_fits.copy()))
        return whitney(grid, inside, balls, double_fits)

    whitney = atoms._whitney_regions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atoms, "_whitney_regions", record)
        if area is None:
            tent_decompose(F, LEBESGUE, balls)
        else:
            atoms._pieces(F, area, balls)
    (call,) = seen
    return call


def _assert_cover_matches_levels_reference(grid, inside, balls, fits):
    """The batched cover against the roll reference called level by level."""
    region, leaders = atoms._whitney_regions(grid, inside, balls, fits)
    ref_region, ref_leaders = _whitney_levels_reference(grid, inside, balls, fits)
    assert np.array_equal(region, ref_region)
    assert np.array_equal(leaders, ref_leaders)


@pytest.mark.parametrize("seed", [0, 5, 4243])
def test_whitney_regions_match_reference_on_benchmark_inputs(seed):
    # the benchmark's decompose-1d inputs: trials 0-3 on 1-D N=256
    plan = build_plan(build_annular_kernel(GRID), SCALES)
    calls = [_whitney_inputs(build_field(trial_function(seed, trial, GRID), plan), BALLS) for trial in range(4)]
    assert sum(len(inside) for _, inside, _, _ in calls) > 20
    for grid, inside, balls, fits in calls:
        # the fits tent_decompose passes are the correlation oracle's
        for level_inside, level_fits in zip(inside, fits):
            assert np.array_equal(level_fits, _double_fit_rows(grid, level_inside, balls))
        _assert_cover_matches_levels_reference(grid, inside, balls, fits)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (2, 32), (2, 64)], ids=["1d-64", "2d-16", "2d-32", "2d-64"])
def test_whitney_regions_match_per_radius_roll_reference_bitwise(dim, n):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    balls = BallFamily.build(grid, 2)
    area = tent_functional(_field_case(dim, n, "field"), 1.0).values.real
    double_min = atoms._ball_minima(area, BallFamily(grid, 2.0 * balls.radii))
    inside, fits = _level_stacks(area, double_min, np.quantile(area, [0.0, 0.3, 0.6, 0.9]))
    _assert_cover_matches_levels_reference(grid, inside, balls, fits)


def _claimed_run_kinds(grid, inside, balls):
    """Which kinds of first-axis runs the roll reference's claimed balls make,
    level by level: a run (narrower than the line) that wraps past n, and a
    full row.  A region of more than one cell is led by a claimed ball."""
    n = grid.points_per_axis
    kinds = {"wraps": False, "full rows": False}
    for level_inside in inside:
        region, leaders = _whitney_regions_reference(grid, level_inside.reshape(grid.shape), balls)
        cells = np.bincount(region[region >= 0], minlength=len(leaders))
        for ball in (ball for ball, count in zip(leaders, cells.tolist()) if count > 1):
            w = grid.ball_row_widths((ball.radius,))[0]
            part = (w > 0) & (w < n)
            kinds["wraps"] |= bool((part & ((ball.center[-1] - w // 2) % n + w > n)).any())
            kinds["full rows"] |= bool((w == n).any())
    return kinds


RUN_EDGE_GRIDS = [(1, 64), (2, 16), (2, 32)]


@pytest.mark.parametrize("case", ["seam", "whole-grid"])
@pytest.mark.parametrize("dim,n", RUN_EDGE_GRIDS, ids=[f"{d}d-{n}" for d, n in RUN_EDGE_GRIDS])
def test_whitney_runs_that_wrap_or_fill_a_row_match_the_roll_reference(dim, n, case):
    # claimed balls whose first-axis runs wrap past n (the field's sets moved
    # across the torus seam by n/2 on every axis) or fill a whole row (a level
    # below the area's min, whose set is the whole grid), against the roll
    # reference level by level
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    balls = BallFamily.build(grid, 2)
    F = _field_case(dim, n, "field")
    if case == "seam":
        F = HalfSpaceField(grid, F.scales, np.roll(F.values, n // 2, axis=tuple(range(dim))))
    area = tent_functional(F, 1.0).values.real
    levels = np.quantile(area, [0.0, 0.3, 0.6, 0.9])
    if case == "whole-grid":
        levels = np.concatenate([[area.min() - 1.0], levels])
    double_min = atoms._ball_minima(area, BallFamily(grid, 2.0 * balls.radii))
    inside, fits = _level_stacks(area, double_min, levels)
    assert inside[0].all() == (case == "whole-grid")
    kinds = _claimed_run_kinds(grid, inside, balls)
    assert kinds["wraps"] if case == "seam" else kinds["full rows"]
    _assert_cover_matches_levels_reference(grid, inside, balls, fits)


def _isolated_cells_level(grid, balls):
    """A set of isolated cells (every other cell along each axis) and its
    doubled-ball fits: the smallest doubled ball reaches a neighbour, so no
    doubled ball fits and the set is covered by single-cell regions only."""
    isolated = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        isolated &= (np.indices(grid.shape)[axis] % 2) == 0
    area = isolated.astype(float)
    double_min = atoms._ball_minima(area, BallFamily(grid, 2.0 * balls.radii))
    inside, fits = _level_stacks(area, double_min, [0.5])
    assert inside.any() and not fits.any()
    return inside, fits


WHITNEY_CASES = ["1d-256-seed5", "1d-256-seed0", "1d-256-seed4243", "2d-64", "singles-only", "all-stray"]


@pytest.mark.parametrize("case", WHITNEY_CASES)
def test_batched_whitney_cover_matches_per_level_calls_bitwise(case):
    # the cover of every shell level in one call against one call per level,
    # of the reference and of ``_whitney_regions`` itself, in region ids and leaders
    if case.startswith("1d-256"):  # decompose-1d's trials 0-3
        plan = build_plan(build_annular_kernel(GRID), SCALES)
        seed = int(case.split("seed")[1])
        calls = [_whitney_inputs(build_field(trial_function(seed, trial, GRID), plan), BALLS) for trial in range(4)]
    else:  # the 2-D N=64 memory-guard field (16 scales, trial 0 of seed 0)
        grid = GridSpec(dim=2, half_width=2.0, points_per_axis=64)
        F = build_field(trial_function(0, 0, grid), build_plan(build_annular_kernel(grid), ScaleGrid(1 / 16, 1.0, 4)))
        balls = BallFamily.build(grid, 2)
        if case == "all-stray":
            # an area that is zero on every other cell puts a zero in every
            # cell's ball, so every support cell is contained at no level
            area = tent_functional(F, 1.0).values * _isolated_cells_level(grid, balls)[0].reshape(grid.shape)
            call = _whitney_inputs(F, balls, area)
            _, starts, _ = atoms._pieces(F, area, balls)
            assert len(starts) == np.count_nonzero(np.abs(F.values).max(axis=-1))  # one per support point
        else:
            call = _whitney_inputs(F, balls)
        if case == "singles-only":  # one level of isolated cells amid the field's levels
            grid, inside, balls, fits = call
            lone_inside, lone_fits = _isolated_cells_level(grid, balls)
            middle = len(inside) // 2
            call = (grid, np.concatenate([inside[:middle], lone_inside, inside[middle:]]), balls,
                    np.concatenate([fits[:middle], lone_fits, fits[middle:]]))
        calls = [call]
    for grid, inside, balls, fits in calls:
        assert (len(inside) == 0) == (case == "all-stray")
        def one_level(level_inside, level_fits):
            region, leaders = atoms._whitney_regions(grid, level_inside[None], balls, level_fits[None])
            return region[0], leaders

        region, leaders = atoms._whitney_regions(grid, inside, balls, fits)
        one_region, one_leaders = _level_by_level(one_level, inside, fits)
        assert np.array_equal(region, one_region) and np.array_equal(leaders, one_leaders)
        _assert_cover_matches_levels_reference(grid, inside, balls, fits)
        if case == "singles-only":
            lone = region[middle][inside[middle]]
            assert np.array_equal(np.diff(lone), np.ones(len(lone) - 1))  # one region per cell, in cell order
            assert np.array_equal(leaders[lone], np.flatnonzero(inside[middle]))  # each led by its own cell


def test_decompose_exact_reconstruction_and_additivity():
    F = random_field(1)
    dec = tent_decompose(F, Lebesgue(2.0), BALLS)
    assert len(dec.atoms) >= 1
    rebuilt = dec.reconstruct()
    assert np.max(np.abs(rebuilt.values - F.values)) <= 1e-12
    # disjoint supports: absolute values add up cell by cell
    abs_sum = np.zeros_like(F.values, dtype=float)
    for atom in dec.atoms:
        abs_sum += atom.coefficient * np.abs(atom.field.values)
    assert np.max(np.abs(abs_sum - np.abs(F.values))) <= 1e-12


def test_decompose_supports_disjoint_and_in_tents():
    F = random_field(2)
    dec = tent_decompose(F, Lebesgue(2.0), BALLS)
    counts = np.zeros_like(F.values, dtype=int)
    for atom in dec.atoms:
        nz = np.abs(atom.field.values) > 0
        counts += nz
        inside = tent_mask(GRID, SCALES, atom.ball)
        assert not np.any(nz & ~inside), "atom leaks outside its tent"
    assert counts.max() <= 1


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_decompose_size_normalization(p):
    F = random_field(3)
    dec = tent_decompose(F, Lebesgue(2.0), BALLS)
    for atom in dec.atoms:
        lhs = tent_atom_size(atom.field, p)
        rhs = ball_volume(atom.ball.radius, 1) ** (1 / p) / space_norm(
            ball_indicator(GRID, atom.ball), Lebesgue(2.0)
        )
        assert lhs <= rhs * (1 + 1e-9)


def test_decompose_single_atom_recovery():
    # a field that is the multiple of one valid atom comes back as one piece
    # with a comparable coefficient
    ball = Ball(center=(128,), radius=2.0)
    inside = tent_mask(GRID, SCALES, ball)
    vals = np.where(inside, 1.0 + 0.0j, 0.0)
    pre = HalfSpaceField(GRID, SCALES, vals)
    size = tent_atom_size(pre, 2.0)
    rhs = ball_volume(2.0, 1) ** 0.5 / space_norm(ball_indicator(GRID, ball), Lebesgue(2.0))
    lam_true = 7.0
    F = HalfSpaceField(GRID, SCALES, lam_true * (rhs / size) * vals)
    dec = tent_decompose(F, Lebesgue(2.0), BALLS)
    total = sum(a.coefficient for a in dec.atoms)
    assert total == pytest.approx(lam_true, rel=3.0)  # within factor 4
    assert np.max(np.abs(dec.reconstruct().values - F.values)) <= 1e-12


def test_coefficient_functional_stability():
    from lpx.squarefuncs import ball_spectra, tent_functional

    space = Lebesgue(2.0)
    ratios = []
    for seed in range(8):
        F = random_field(seed + 10)
        dec = tent_decompose(F, space, BALLS)
        lam = coefficient_functional(dec, space)
        area_norm = space_norm(tent_functional(F, 1.0), space)
        ratios.append(lam / area_norm)
    spread = max(ratios) / min(ratios)
    assert spread <= 10.0


def test_molecule_zero_mean_and_single_cell_oracle():
    phi = build_annular_kernel(GRID)
    pair = calderon_companion(phi, ScaleGrid(1 / 16, 16.0, 8))
    scales = SCALES
    # single-cell atom: the molecule is one dilated kernel slice
    vals = np.zeros((256, len(scales)), dtype=complex)
    k0, y0 = 7, 100
    vals[y0, k0] = 2.0
    atom = atom_from_field(HalfSpaceField(GRID, scales, vals), Ball(center=(y0,), radius=4.0), 1.0)
    mol = synthesize_molecule(atom, pair.psi)
    t0 = scales.scales[k0]
    kern = spatial_kernel(pair.psi, t0)
    expected = 2.0 * np.roll(kern, y0) * GRID.cell_volume * scales.log_weight
    assert np.max(np.abs(mol.func.values - expected)) <= 1e-10 * np.max(np.abs(expected))
    # kernel transform vanishes at zero, so the mean is exactly killed
    l1 = np.sum(np.abs(mol.func.values)) * GRID.cell_volume
    mean = abs(np.sum(mol.func.values) * GRID.cell_volume)
    assert mean <= 1e-8 * l1


def test_molecule_zero_atom():
    phi = build_annular_kernel(GRID)
    pair = calderon_companion(phi, ScaleGrid(1 / 16, 16.0, 8))
    atom = atom_from_field(HalfSpaceField(GRID, SCALES, np.zeros((256, len(SCALES)))),
                               Ball(center=(0,), radius=1.0), 0.0)
    mol = synthesize_molecule(atom, pair.psi)
    assert np.all(mol.func.values == 0)


def test_molecule_rejects_kernel_on_other_grid():
    other = build_annular_kernel(GridSpec(dim=1, half_width=4.0, points_per_axis=256))
    atom = atom_from_field(HalfSpaceField(GRID, SCALES, np.zeros((256, len(SCALES)))),
                               Ball(center=(0,), radius=1.0), 0.0)
    with pytest.raises(ValueError):
        synthesize_molecule(atom, other)


def test_molecule_synthesis_linear():
    phi = build_annular_kernel(GRID)
    pair = calderon_companion(phi, ScaleGrid(1 / 16, 16.0, 8))
    F1 = random_field(20)
    F2 = random_field(21)
    b = Ball(center=(128,), radius=4.0)
    a1 = atom_from_field(F1, b, 1.0)
    a2 = atom_from_field(F2, b, 1.0)
    both = atom_from_field(HalfSpaceField(GRID, SCALES, F1.values + F2.values), b, 1.0)
    m1 = synthesize_molecule(a1, pair.psi).func.values
    m2 = synthesize_molecule(a2, pair.psi).func.values
    m12 = synthesize_molecule(both, pair.psi).func.values
    assert np.allclose(m12, m1 + m2, atol=1e-12)


def test_molecule_report_from_decomposition():
    phi = build_annular_kernel(GRID)
    pair = calderon_companion(phi, ScaleGrid(1 / 16, 16.0, 8))
    space = Lebesgue(2.0)
    F = random_field(22)
    dec = tent_decompose(F, space, BALLS)
    atom = max(dec.atoms, key=lambda a: a.coefficient)
    eps = default_molecule_decay(space, q=2.0, dim=1)
    mol = synthesize_molecule(atom, pair.psi)
    report = check_molecule(mol, space, q=2.0, d=0, epsilon=eps)
    assert report.mean_ok
    assert report.moments_ok  # order-zero moment within 1e-6 of nothing
    assert len(report.shell_lhs) >= 1  # shells measured and reported
    # a whole-box ball, radius 2L as tent_decompose's fallback gives, is its
    # one shell: the left-hand side is the L^2 norm over the whole box
    whole = check_molecule(dataclasses.replace(mol, ball=Ball(atom.ball.center, 2.0 * GRID.half_width)), space,
                           q=2.0, d=0, epsilon=eps)
    assert len(whole.shell_lhs) == 1
    assert whole.shell_lhs[0] == pytest.approx(space_norm(mol.func, Lebesgue(2.0)), rel=1e-12)


def test_check_atom_pass_and_failures():
    space = Morrey(2.0, 1.0)
    ball = Ball(center=(128,), radius=1.0)
    ind = ball_indicator(GRID, ball).values.real
    x = GRID.axis_coordinates()
    center = x[128]
    odd = np.where(ind > 0, np.sign(x - center + 1e-12), 0.0)
    odd -= ind * (odd.sum() / ind.sum())  # kill the mean exactly, keep support
    norm_1b = space_norm(ball_indicator(GRID, ball), space)
    a_vals = odd / (np.max(np.abs(odd)) * norm_1b)  # sup norm = 1 / ||1_B||_X
    good = SampledFunction(GRID, a_vals)
    report = check_atom(good, ball, space, q=np.inf, d=0)
    assert report.passed, report

    bad_moment = SampledFunction(GRID, np.abs(a_vals))
    assert not check_atom(bad_moment, ball, space, q=np.inf, d=0).moments_ok

    shifted = SampledFunction(GRID, np.roll(a_vals, 64))
    assert not check_atom(shifted, ball, space, q=np.inf, d=0).support_ok

    oversized = SampledFunction(GRID, 10.0 * a_vals)
    assert not check_atom(oversized, ball, space, q=np.inf, d=0).size_ok


def test_check_atom_finite_q():
    space = Lebesgue(2.0)
    ball = Ball(center=(100,), radius=2.0)
    ind = ball_indicator(GRID, ball).values.real
    x = GRID.axis_coordinates()
    profile = ind * np.sin(np.pi * (x - x[100]))
    profile -= ind * (profile.sum() / ind.sum())
    f = SampledFunction(GRID, profile)
    lhs = space_norm(f, Lebesgue(2.0))
    rhs = ball_volume(2.0, 1) ** 0.5 / space_norm(ball_indicator(GRID, ball), space)
    scaled = SampledFunction(GRID, profile * (rhs / lhs) * 0.999)
    assert check_atom(scaled, ball, space, q=2.0, d=0).passed
