import dataclasses
import math

import numpy as np
import pytest

from lpx import atoms, squarefuncs
from lpx.atoms import (
    Ball,
    TentDecomposition,
    ball_norms,
    coefficient_functional,
    synthesize_molecule,
    tent_decompose,
)
from helpers import (atom_from_field, ball_indicator, check_atom, check_molecule, default_molecule_decay,
                     tent_atom_size, tent_mask)
from lpx.grid import GridSpec, HalfSpaceField, SampledFunction, ScaleGrid, pure_frequency
from lpx.harness import trial_function
from lpx.kernels import build_annular_kernel, calderon_companion
from lpx.maximal import BallFamily, ball_volume
from lpx.spaces import Lebesgue, MixedNorm, Morrey, WeightedLebesgue, descriptor_from_json, power_weight, space_norm
from lpx.squarefuncs import ball_spectra, cone_spectra, tent_functional, tent_functionals
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
        assert dec.atoms == [] and dec.ball_norms == [] and dec.sizes == {2.0: [], 4.0: []}
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


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)], ids=["1d-64", "2d-32"])
def test_double_ball_spectra_match_per_radius_masks_bitwise(dim, n):
    # _whitney_regions reads the doubled balls dist < 2r from the cached ball spectra
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    radii = BallFamily.build(grid, 2).radii
    dist = grid.offset_distances()
    ball_spectra.cache_clear()
    table = ball_spectra(grid, tuple(2.0 * r for r in radii))
    assert not table.flags.writeable
    assert len(table) == len(radii)
    for r, row in zip(radii, table):
        assert np.array_equal(row, spectrum((dist < 2.0 * r).astype(float), dim))
    # one table per (grid, ball family): a rebuilt family hits the cache
    rebuilt = BallFamily.build(grid, 2).radii
    assert ball_spectra(grid, tuple(2.0 * r for r in rebuilt)) is table


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
    assert np.array_equal(np.stack(grid.ball_offsets((r,))[0]), np.stack(np.nonzero(expected)))
    widths = np.count_nonzero(expected.reshape(-1, n), axis=1)
    runs = BallFamily(grid=grid, radii=np.array([r]))._row_runs[r]
    assert runs == [(dx, w) for dx, w in enumerate(widths.tolist()) if w]
    axes = tuple(range(dim))
    centres = [(0,) * dim, (1,) * dim, (n - 1,) * dim, (n // 2, 5)[:dim], (3, n - 3)[:dim]]
    rows = atoms._ball_rows(grid, [Ball(c, r) for c in centres] + [Ball(centres[0], 2 * r)])
    for c, row in zip(centres, rows):
        ball = np.roll(expected, shift=c, axis=axes)
        assert np.array_equal(row, ball)
        assert np.array_equal(ball_indicator(grid, Ball(c, r)).values, ball.astype(float))
    assert np.array_equal(rows[-1], dist < 2 * r)  # a second radius in the same gather


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


def _whitney_regions_reference(grid, inside, balls):
    """One correlation per doubled radius and one ``np.roll`` per claimed ball."""
    dist = grid.offset_distances()
    region = np.full(grid.shape, -1, dtype=int)
    leaders = []
    uncovered = inside.copy()
    outside = (~inside).astype(float)
    axes = tuple(range(grid.dim))
    for r in balls.radii[::-1]:
        if not uncovered.any():
            break
        double_hat = spectrum((dist < 2.0 * r).astype(float), grid.dim)
        candidates = (correlate(outside, double_hat, grid.dim) < 0.5) & uncovered
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


def _field_case(dim, n, kind):
    """Half-space fields for the bitwise oracles: a random concentrated field,
    the zero field, and a field 1e40 times weaker on one half, whose weak
    cells fall below every level and become stray pieces."""
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
        region, leaders = atoms._whitney_regions(F.grid, area > lev, balls)
        for rid in np.unique(np.broadcast_to(region[..., None], shell.shape)[shell]):
            if rid >= 0:
                pieces.append((shell & (region[..., None] == rid), leaders[rid].center))
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
    ref_atoms, ref_total = reference
    assert len(dec.atoms) == len(ref_atoms)
    for atom, (ball, lam, values) in zip(dec.atoms, ref_atoms):
        assert atom.ball == ball
        assert atom.coefficient == lam
        assert np.array_equal(atom.field.values, values)
    assert np.array_equal(dec.reconstruct().values, ref_total)
    grid, scales = dec.grid, dec.scales
    ref_dec = TentDecomposition([atom_from_field(HalfSpaceField(grid, scales, values), ball, lam)
                                 for ball, lam, values in ref_atoms], grid, scales, dec.ball_norms, dec.sizes)
    assert coefficient_functional(dec, space) == _coefficient_functional_reference(ref_dec, space)


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
    # the reference: per-radius Whitney regions, one boolean mask and one cone
    # functional per piece, mask-based ball fits, one norm per piece and a
    # dense field per atom
    monkeypatch.setattr(atoms, "_whitney_regions", _whitney_regions_reference)
    _assert_matches_dense_reference(fast, _dense_decomposition_reference(F, space, balls), space)
    _assert_near_spatial_decomposition(fast, F, space, balls)
    if kind != "zero":  # the pieces' cell indices are the reference masks' cells
        area = tent_functional(F, 1.0).values.real
        pieces, ref = atoms._pieces(F, area, balls), _pieces_reference(F, area, balls)
        assert [centre for _, centre in pieces] == [centre for _, centre in ref]
        assert all(np.array_equal(cells, np.flatnonzero(mask)) for (cells, _), (mask, _) in zip(pieces, ref))


@pytest.mark.parametrize("seed", [0, 4243])
def test_decompose_1d_benchmark_trials_match_dense_reference_bitwise(seed):
    # the benchmark's decompose-1d inputs: trials 0-3 on 1-D N=256
    plan = build_plan(build_annular_kernel(GRID), SCALES)
    for trial in range(4):
        F = build_field(trial_function(seed, trial, GRID), plan)
        dec = tent_decompose(F, LEBESGUE, BALLS)
        _assert_matches_dense_reference(dec, _dense_decomposition_reference(F, LEBESGUE, BALLS), LEBESGUE)
        _assert_near_spatial_decomposition(dec, F, LEBESGUE, BALLS)


@pytest.mark.parametrize("case", ["1d-256-field", "2d-16-stray"])
def test_atoms_store_disjoint_cells_covering_the_support(case):
    F = random_field(2) if case == "1d-256-field" else _field_case(2, 16, "stray")
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
    """The piece cell indices ``tent_decompose`` hands to the batched pass."""
    seen = []

    def record(F, alpha, pieces):
        seen.extend(pieces)
        return tent_functionals(F, alpha, pieces)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atoms, "tent_functionals", record)
        tent_decompose(F, Lebesgue(2.0), balls)
    return seen


CHUNK_CASES = [("1d-256-field", None), ("1d-64-field", 7), ("1d-64-stray", 1), ("2d-16-field", 7),
               ("2d-16-stray", 1), ("2d-32-field", None)]


@pytest.mark.parametrize("case,chunk", CHUNK_CASES, ids=[c for c, _ in CHUNK_CASES])
def test_piece_functionals_span_chunks_bitwise(monkeypatch, case, chunk):
    if case == "1d-256-field":
        F, balls = random_field(1), BALLS
    else:
        dim, n, kind = case.split("-")
        F = _field_case(int(dim[0]), int(n), kind)
        balls = BallFamily.build(F.grid, 2)
    pieces = _decomposition_pieces(F, balls)
    masks = [_cells_mask(F, cells) for cells in pieces]
    live_rows = sum(int(np.any(np.where(m, F.values, 0) != 0, axis=tuple(range(F.grid.dim))).sum())
                    for m in masks)
    if chunk is not None:
        monkeypatch.setattr(squarefuncs, "SCALE_SUM_CHUNK", chunk)
    assert live_rows > squarefuncs.SCALE_SUM_CHUNK  # the rows fill more than one chunk
    batches = []

    def record(values, dim):
        batches.append(len(values))
        return spectrum(values, dim)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(squarefuncs, "spectrum", record)
        fast = tent_functionals(F, 1.0, pieces)
    # whole pieces per batch: within SCALE_SUM_CHUNK rows, or one piece's K rows
    assert sum(batches) == live_rows and max(batches) <= max(squarefuncs.SCALE_SUM_CHUNK, len(F.scales))
    assert np.array_equal(fast, _piece_functionals_reference(F, 1.0, masks))
    _assert_near_spatial(fast, _piece_functionals_reference(F, 1.0, masks, _one_piece_functional_reference))
    assert tent_functionals(F, 1.0, []).shape == (0,) + F.grid.shape
    # the one-piece case is the field's own cone functional
    whole = tent_functional(F, 1.0).values
    assert np.array_equal(whole, _one_piece_spectral_reference(F))
    _assert_near_spatial(whole[None], _one_piece_functional_reference(F)[None])


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
        assert ball_norms(grid, balls, space) == [space_norm(ball_indicator(grid, b), space) for b in balls]
        assert ball_norms(grid, [], space) == []


@pytest.mark.parametrize("kind", ["field", "stray"])
@pytest.mark.parametrize("space", [LEBESGUE, MORREY], ids=["lebesgue", "morrey"])
def test_decomposition_ball_norms_are_its_atoms_ball_norms_bitwise(kind, space):
    # one norm per kept atom, the ones tent_decompose sized the atoms with
    F = _field_case(1, 64, kind)
    dec = tent_decompose(F, space, BallFamily.build(F.grid, 2))
    assert dec.atoms and len(dec.ball_norms) == len(dec.atoms)
    assert dec.ball_norms == ball_norms(F.grid, [atom.ball for atom in dec.atoms], space)
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


def test_empty_decomposition_passes_the_batched_ball_bookkeeping():
    F = _field_case(1, 64, "zero")
    for space in (LEBESGUE, MORREY, Lebesgue(0.5)):
        dec = tent_decompose(F, space, BallFamily.build(F.grid, 2))
        assert dec.atoms == []
        assert ball_norms(F.grid, [atom.ball for atom in dec.atoms], space) == []
        assert coefficient_functional(dec, space) == 0.0 == _coefficient_functional_reference(dec, space)


def _whitney_inputs(F, balls):
    """The (grid, inside, balls) of every ``_whitney_regions`` call a decomposition makes."""
    seen = []

    def record(grid, inside, balls):
        seen.append((grid, inside.copy(), balls))
        return whitney(grid, inside, balls)

    whitney = atoms._whitney_regions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atoms, "_whitney_regions", record)
        tent_decompose(F, LEBESGUE, balls)
    return seen


@pytest.mark.parametrize("seed", [0, 5, 4243])
def test_whitney_regions_match_reference_on_benchmark_inputs(seed):
    # the benchmark's decompose-1d inputs: trials 0-3 on 1-D N=256
    plan = build_plan(build_annular_kernel(GRID), SCALES)
    calls = [call for trial in range(4)
             for call in _whitney_inputs(build_field(trial_function(seed, trial, GRID), plan), BALLS)]
    assert len(calls) > 20
    for grid, inside, balls in calls:
        region, leaders = atoms._whitney_regions(grid, inside, balls)
        ref_region, ref_leaders = _whitney_regions_reference(grid, inside, balls)
        assert np.array_equal(region, ref_region)
        assert leaders == ref_leaders


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (2, 32), (2, 64)], ids=["1d-64", "2d-16", "2d-32", "2d-64"])
def test_whitney_regions_match_per_radius_roll_reference_bitwise(dim, n):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    balls = BallFamily.build(grid, 2)
    area = tent_functional(_field_case(dim, n, "field"), 1.0).values.real
    for lev in np.quantile(area, [0.0, 0.3, 0.6, 0.9]):
        inside = area > lev
        region, leaders = atoms._whitney_regions(grid, inside, balls)
        ref_region, ref_leaders = _whitney_regions_reference(grid, inside, balls)
        assert np.array_equal(region, ref_region)
        assert leaders == ref_leaders


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
