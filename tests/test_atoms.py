import math

import numpy as np
import pytest

from lpx import atoms, squarefuncs
from lpx.atoms import (
    Ball,
    TentAtom,
    ball_indicator,
    check_atom,
    check_molecule,
    coefficient_functional,
    default_molecule_decay,
    synthesize_molecule,
    tent_atom_size,
    tent_decompose,
    tent_mask,
)
from lpx.grid import GridSpec, HalfSpaceField, SampledFunction, ScaleGrid
from lpx.kernels import build_annular_kernel, calderon_companion
from lpx.maximal import BallFamily, ball_volume
from lpx.spaces import Lebesgue, Morrey, space_norm
from lpx.squarefuncs import ball_spectra, cone_spectra, tent_functional, tent_functionals
from lpx.transforms import build_field, build_plan, correlate, spatial_kernel, spectrum

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


def test_decompose_zero_field():
    F = HalfSpaceField(GRID, SCALES, np.zeros((256, len(SCALES))))
    dec = tent_decompose(F, Lebesgue(2.0), BALLS)
    assert dec.atoms == []
    assert np.all(dec.residual.values == 0)


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
    table, live = ball_spectra(grid, tuple(2.0 * r for r in radii))
    assert not table.flags.writeable and live.all()
    assert len(table) == len(radii)
    for r, row in zip(radii, table):
        assert np.array_equal(row, spectrum((dist < 2.0 * r).astype(float), dim))
    # one table per (grid, ball family): a rebuilt family hits the cache
    rebuilt = BallFamily.build(grid, 2).radii
    assert ball_spectra(grid, tuple(2.0 * r for r in rebuilt))[0] is table


def _one_piece_functional_reference(F):
    """The one-piece cone functional the batched (piece, scale) pass replaced:
    live scale rows in one correlation, summed in scale order."""
    grid, scales = F.grid, F.scales
    table, live = cone_spectra(grid, scales, 1.0)
    weights = grid.cell_volume * scales.log_weight / scales.scales**grid.dim
    power = np.moveaxis(np.abs(F.values) ** 2, -1, 0)
    keep = np.flatnonzero(live & power.reshape(len(power), -1).any(axis=1))
    acc = np.zeros(grid.shape)
    if len(keep):
        corr = correlate(power[keep], table[keep], grid.dim)
        for row, k in zip(corr, keep):
            acc += row * weights[k]
    np.maximum(acc, 0.0, out=acc)
    return np.sqrt(acc)


def _piece_functionals_reference(F, alpha, masks):
    """One call per piece, as ``tent_decompose`` made before the batched pass."""
    assert alpha == 1.0
    pieces = [HalfSpaceField(F.grid, F.scales, np.where(m, F.values, 0.0)) for m in masks]
    return np.array([_one_piece_functional_reference(p) for p in pieces]).reshape((len(masks),) + F.grid.shape)


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


def _same_decomposition(a, b):
    assert len(a.atoms) == len(b.atoms)
    for x, y in zip(a.atoms, b.atoms):
        assert x.ball == y.ball
        assert x.coefficient == y.coefficient
        assert np.array_equal(x.field.values, y.field.values)


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
    monkeypatch.setattr(atoms, "tent_functionals", _piece_functionals_reference)
    monkeypatch.setattr(atoms, "_whitney_regions", _whitney_regions_reference)
    _same_decomposition(fast, tent_decompose(F, space, balls))


def _decomposition_pieces(F, balls):
    """The piece masks ``tent_decompose`` hands to the batched pass."""
    seen = []

    def record(F, alpha, masks):
        seen.extend(masks)
        return tent_functionals(F, alpha, masks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atoms, "tent_functionals", record)
        tent_decompose(F, Lebesgue(2.0), balls)
    return seen


CHUNK_CASES = [("1d-256-field", None), ("1d-64-field", 7), ("1d-64-stray", 1), ("2d-16-field", 7)]


@pytest.mark.parametrize("case,chunk", CHUNK_CASES, ids=[c for c, _ in CHUNK_CASES])
def test_piece_functionals_span_chunks_bitwise(monkeypatch, case, chunk):
    if case == "1d-256-field":
        F, balls = random_field(1), BALLS
    else:
        dim, n, kind = case.split("-")
        F = _field_case(int(dim[0]), int(n), kind)
        balls = BallFamily.build(F.grid, 2)
    masks = _decomposition_pieces(F, balls)
    live_rows = sum(int(np.any(np.where(m, F.values, 0) != 0, axis=tuple(range(F.grid.dim))).sum())
                    for m in masks)
    if chunk is not None:
        monkeypatch.setattr(squarefuncs, "SCALE_SUM_CHUNK", chunk)
    assert live_rows > squarefuncs.SCALE_SUM_CHUNK  # the rows fill more than one chunk
    fast = tent_functionals(F, 1.0, masks)
    assert np.array_equal(fast, _piece_functionals_reference(F, 1.0, masks))
    # the one-piece case is the field's own cone functional
    assert np.array_equal(tent_functional(F, 1.0).values.real, _one_piece_functional_reference(F))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (2, 32)], ids=["1d-64", "2d-16", "2d-32"])
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
    dec = tent_decompose(F, Lebesgue(2.0), BALLS, p_checks=(2.0, 4.0))
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
    dec = tent_decompose(F, Lebesgue(2.0), BALLS, p_checks=(2.0,))
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
    atom = TentAtom(
        field=HalfSpaceField(GRID, scales, vals),
        ball=Ball(center=(y0,), radius=4.0),
        coefficient=1.0,
    )
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
    atom = TentAtom(
        field=HalfSpaceField(GRID, SCALES, np.zeros((256, len(SCALES)))),
        ball=Ball(center=(0,), radius=1.0),
        coefficient=0.0,
    )
    mol = synthesize_molecule(atom, pair.psi)
    assert np.all(mol.func.values == 0)


def test_molecule_rejects_kernel_on_other_grid():
    other = build_annular_kernel(GridSpec(dim=1, half_width=4.0, points_per_axis=256))
    atom = TentAtom(
        field=HalfSpaceField(GRID, SCALES, np.zeros((256, len(SCALES)))),
        ball=Ball(center=(0,), radius=1.0),
        coefficient=0.0,
    )
    with pytest.raises(ValueError):
        synthesize_molecule(atom, other)


def test_molecule_synthesis_linear():
    phi = build_annular_kernel(GRID)
    pair = calderon_companion(phi, ScaleGrid(1 / 16, 16.0, 8))
    F1 = random_field(20)
    F2 = random_field(21)
    b = Ball(center=(128,), radius=4.0)
    a1 = TentAtom(field=F1, ball=b, coefficient=1.0)
    a2 = TentAtom(field=F2, ball=b, coefficient=1.0)
    both = TentAtom(
        field=HalfSpaceField(GRID, SCALES, F1.values + F2.values), ball=b, coefficient=1.0
    )
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
    mol = synthesize_molecule(atom, pair.psi, q=2.0, d=0, epsilon=eps)
    report = check_molecule(mol, space)
    assert report.mean_ok
    assert report.moments_ok  # order-zero moment within 1e-6 of nothing
    assert len(report.shell_lhs) >= 1  # shells measured and reported


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
