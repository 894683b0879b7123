import math

import numpy as np
import pytest

from lpx import atoms
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
from lpx.squarefuncs import ball_spectra, tent_functional
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
