"""Level-set decomposition of half-space fields into tent-supported atoms.

The construction follows the classical stopping-time recipe: threshold the
cone functional at dyadic levels, cover each superlevel set with family balls
(preferring balls whose doubles stay inside), split the set among the chosen
balls, and cut the field along the per-cell level of the largest superlevel
set whose surrounding ball still fits.  Each piece is normalized so it passes
the tent-atom size inequality for every requested integrability exponent.

The pieces' cone functionals run as one batched pass
(``squarefuncs.tent_functionals``): only the live (piece, scale) rows are
stacked, ``squarefuncs.SCALE_SUM_CHUNK`` rows per correlation, so no
pieces x cells x scales array is built.  Each level tests every doubled ball
in one correlation against the cached ``ball_spectra``, and a claimed ball
marks its cells through its offset list.  All of it is bitwise what one call
per piece, one correlation per radius and one ``np.roll`` per ball give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .grid import GridSpec, HalfSpaceField, SampledFunction, ScaleGrid
from .kernels import Kernel
from .maximal import BallFamily, ball_volume
from .spaces import Lebesgue, SpaceDescriptor, space_norm
from .squarefuncs import ball_spectra, cone_spectra, tent_functional, tent_functionals
from .transforms import apply_multiplier, correlate

__all__ = [
    "Ball",
    "TentAtom",
    "TentDecomposition",
    "Molecule",
    "AtomReport",
    "MoleculeReport",
    "ball_indicator",
    "tent_mask",
    "tent_decompose",
    "tent_atom_size",
    "synthesize_molecule",
    "check_atom",
    "check_molecule",
    "coefficient_functional",
    "default_molecule_decay",
]

MAX_LEVELS = 80


class Ball(NamedTuple):
    center: tuple[int, ...]  # grid index of the center cell
    radius: float


def ball_indicator(grid: GridSpec, ball: Ball) -> SampledFunction:
    """Indicator of the ball in the torus metric."""
    dist = grid.torus_distance_to(ball.center)
    return SampledFunction(grid, (dist < ball.radius).astype(complex))


def tent_mask(grid: GridSpec, scales: ScaleGrid, ball: Ball) -> np.ndarray:
    """Boolean mask of the tent region {(y, t): t < r, |y - c| < r - t}."""
    dist = grid.torus_distance_to(ball.center)
    gap = ball.radius - scales.scales  # allowed distance per scale
    return dist[..., None] < gap.reshape((1,) * grid.dim + (-1,))


@dataclass(frozen=True)
class TentAtom:
    field: HalfSpaceField
    ball: Ball
    coefficient: float


@dataclass(frozen=True)
class TentDecomposition:
    atoms: list[TentAtom]
    residual: HalfSpaceField

    def reconstruct(self) -> HalfSpaceField:
        grid = self.residual.grid
        scales = self.residual.scales
        total = np.array(self.residual.values, dtype=complex)
        for atom in self.atoms:
            total = total + atom.coefficient * atom.field.values
        return HalfSpaceField(grid, scales, total)


@dataclass(frozen=True)
class Molecule:
    func: SampledFunction
    ball: Ball
    q: float
    d: int
    epsilon: float


@dataclass(frozen=True)
class AtomReport:
    support_ok: bool
    support_leak: float
    size_ok: bool
    size_lhs: float
    size_rhs: float
    moments_ok: bool
    moment_slacks: dict

    @property
    def passed(self) -> bool:
        return self.support_ok and self.size_ok and self.moments_ok


@dataclass(frozen=True)
class MoleculeReport:
    shell_lhs: list[float]
    shell_rhs: list[float]
    mean_slack: float
    moment_slacks: dict
    size_ok: bool
    mean_ok: bool
    moments_ok: bool


def _containment_levels(F: HalfSpaceField, area: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per half-space cell, the index of the largest level k such that the
    ball B(y, t) stays inside the superlevel set {area > levels[k]} (-1: none)."""
    grid = F.grid
    # the unit-aperture cone masks are the balls dist < t_k
    table, _ = cone_spectra(grid, F.scales, 1.0)
    out = np.full(F.values.shape, -1, dtype=int)
    for li, lev in enumerate(levels):
        inside = area > lev
        if not inside.any():
            break
        outside = (~inside).astype(float)
        contained = correlate(outside, table, grid.dim) < 0.5
        out[np.moveaxis(contained, 0, -1)] = li
    return out


def _whitney_regions(
    grid: GridSpec, inside: np.ndarray, balls: BallFamily
) -> tuple[np.ndarray, list[Ball]]:
    """Partition ``inside`` into regions led by greedily chosen balls.

    Large balls whose doubles stay inside are claimed first; whatever remains
    is covered by single-cell regions.  Returns (region id array, leaders).
    """
    dist = grid.offset_distances()
    n = grid.points_per_axis
    region = np.full(grid.shape, -1, dtype=int)
    leaders: list[Ball] = []
    uncovered = inside.copy()
    outside = (~inside).astype(float)
    doubles, _ = ball_spectra(grid, tuple(2.0 * r for r in balls.radii))
    double_ok = correlate(outside, doubles, grid.dim) < 0.5
    for r, double_ok_r in zip(balls.radii[::-1], double_ok[::-1]):  # largest first
        if not uncovered.any():
            break
        candidates = double_ok_r & uncovered
        if not candidates.any():
            continue
        offsets = np.argwhere(dist < r)
        for idx in np.argwhere(candidates):
            if not uncovered[tuple(idx)]:
                continue
            member = tuple(((idx + offsets) % n).T)
            fresh = uncovered[member]
            if not fresh.any():
                continue
            region[tuple(m[fresh] for m in member)] = len(leaders)
            leaders.append(Ball(center=tuple(idx), radius=float(r)))
            uncovered[member] = False
    for idx in np.argwhere(uncovered):
        idx = tuple(idx)
        region[idx] = len(leaders)
        leaders.append(Ball(center=idx, radius=float(balls.radii[0])))
    return region, leaders


def tent_atom_size(field: HalfSpaceField, p: float) -> float:
    """L^p norm of the unit-aperture cone functional of the field."""
    return space_norm(tent_functional(field, 1.0), Lebesgue(p))


def _fit_ball(grid: GridSpec, balls: BallFamily, center: tuple[int, ...],
              piece_mask: np.ndarray, ts: np.ndarray) -> Ball:
    """Smallest family ball around ``center`` whose tent holds the piece."""
    dist = grid.torus_distance_to(center)
    reach = dist[..., None] + ts.reshape((1,) * grid.dim + (-1,))
    need = float(reach[piece_mask].max())
    candidates = balls.radii[balls.radii > need * (1.0 + 1e-12)]
    if len(candidates):
        return Ball(center=center, radius=float(candidates[0]))
    fallback = 2.0 * grid.half_width
    if need >= fallback:
        raise ValueError("piece reaches above the box; shrink the scale range")
    return Ball(center=center, radius=fallback)


def tent_decompose(
    F: HalfSpaceField,
    space: SpaceDescriptor,
    balls: BallFamily | None = None,
    p_checks: Sequence[float] = (2.0, 4.0),
) -> TentDecomposition:
    """Split F into coefficients times tent atoms with disjoint supports.

    Reconstruction is exact cell by cell, |F| is additive across the pieces,
    and every atom satisfies the size inequality for all requested p.
    """
    grid, scales = F.grid, F.scales
    balls = balls or BallFamily.build(grid, 2)
    zero = HalfSpaceField(grid, scales, np.zeros_like(F.values))
    area = tent_functional(F, 1.0).values.real
    if not np.any(area > 0):
        return TentDecomposition(atoms=[], residual=zero)

    top = math.ceil(math.log2(area.max()))
    positive_min = area[area > 0].min()
    bottom = max(math.floor(math.log2(positive_min)) - 1, top - MAX_LEVELS)
    levels = 2.0 ** np.arange(bottom, top + 1)
    cell_level = _containment_levels(F, area, levels)

    support = np.abs(F.values) > 0
    ts = scales.scales
    pieces: list[tuple[np.ndarray, tuple[int, ...]]] = []

    for li, lev in enumerate(levels):
        shell = support & (cell_level == li)
        if not shell.any():
            continue
        region, leaders = _whitney_regions(grid, area > lev, balls)
        shell_rids = np.broadcast_to(region[..., None], shell.shape)[shell]
        for rid in np.unique(shell_rids):
            if rid < 0:
                continue
            piece_mask = shell & (region[..., None] == rid)
            pieces.append((piece_mask, leaders[rid].center))

    # strays (possible only when the dynamic range exceeds the level cap, or
    # a shell cell sits over a point outside its superlevel set): one piece
    # per spatial point keeps supports disjoint and reconstruction exact
    assigned = np.zeros_like(support)
    for mask, _ in pieces:
        assigned |= mask
    stray = support & ~assigned
    if stray.any():
        stray_spatial = stray.any(axis=-1)
        for idx in np.argwhere(stray_spatial):
            idx = tuple(idx)
            piece_mask = np.zeros_like(stray)
            piece_mask[idx] = stray[idx]
            pieces.append((piece_mask, idx))

    # every piece's cone functional in one batched pass, then its coefficient;
    # the batch is dropped before any atom field is built
    areas = tent_functionals(F, 1.0, [mask for mask, _ in pieces])
    sized: list[tuple[np.ndarray, Ball, float]] = []
    for (piece_mask, center), area_row in zip(pieces, areas):
        ball = _fit_ball(grid, balls, center, piece_mask, ts)
        norm_1b = space_norm(ball_indicator(grid, ball), space)
        piece_area = SampledFunction(grid, area_row)
        lam = max(
            space_norm(piece_area, Lebesgue(p)) * norm_1b / ball_volume(ball.radius, grid.dim) ** (1.0 / p)
            for p in p_checks
        )
        if lam != 0.0:
            sized.append((piece_mask, ball, lam))
    del areas, pieces

    atoms: list[TentAtom] = []
    for piece_mask, ball, lam in sized:
        values = np.zeros_like(F.values)
        np.divide(F.values, lam, out=values, where=piece_mask)
        atom_field = HalfSpaceField(grid, scales, values)
        atoms.append(TentAtom(field=atom_field, ball=ball, coefficient=lam))
    return TentDecomposition(atoms=atoms, residual=zero)


def default_molecule_decay(space: SpaceDescriptor, q: float, dim: int) -> float:
    """Smallest admissible shell decay rate, with a small safety margin."""
    theta = min(1.0, space.floor())
    return dim * (1.0 / theta - 1.0 / q) + 0.01


def synthesize_molecule(
    atom: TentAtom,
    psi: Kernel,
    scales: ScaleGrid | None = None,
    q: float = 2.0,
    d: int = 0,
    epsilon: float = 0.5,
) -> Molecule:
    """Project a tent atom to the base space through the companion kernel.

    The output is the dt/t-weighted sum over scales of the convolution of
    each field slice with the dilated kernel; its mean vanishes because the
    kernel transform vanishes at frequency zero.
    """
    fieldv = atom.field
    grid = fieldv.grid
    if scales is not None and scales != fieldv.scales:
        raise ValueError("scales must match the atom's own scale grid")
    if psi.grid != grid:
        raise ValueError("kernel grid must match the atom's grid")
    scales = fieldv.scales
    out = np.zeros(grid.shape, dtype=complex)
    for k, t in enumerate(scales.scales):
        slice_k = fieldv.values[..., k]
        if not np.any(slice_k):
            continue
        out += apply_multiplier(slice_k, psi.multiplier(t))
    out *= scales.log_weight
    return Molecule(func=SampledFunction(grid, out), ball=atom.ball, q=q, d=d, epsilon=epsilon)


def _multi_indices(dim: int, d: int):
    if dim == 1:
        return [(k,) for k in range(d + 1)]
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


def _moment_slacks(f: SampledFunction, d: int) -> dict:
    grid = f.grid
    mesh = grid.coordinate_mesh()
    l1 = float(np.sum(np.abs(f.values)) * grid.cell_volume)
    slacks = {}
    for beta in _multi_indices(grid.dim, d):
        mono = np.ones(grid.shape)
        for axis, power in enumerate(beta):
            mono = mono * mesh[axis] ** power
        moment = abs(complex(np.sum(f.values * mono) * grid.cell_volume))
        scale = l1 * grid.half_width ** sum(beta) if l1 > 0 else 1.0
        slacks[beta] = moment / scale
    return slacks


def check_atom(
    a: SampledFunction,
    ball: Ball,
    space: SpaceDescriptor,
    q: float,
    d: int,
    moment_tol: float = 1e-6,
) -> AtomReport:
    """Support, size, and vanishing-moment report for a candidate atom."""
    grid = a.grid
    dist = grid.torus_distance_to(ball.center)
    outside = dist >= ball.radius
    mass = float(np.sum(np.abs(a.values)))
    leak = float(np.sum(np.abs(a.values)[outside])) / mass if mass > 0 else 0.0
    support_ok = leak == 0.0

    norm_1b = space_norm(ball_indicator(grid, ball), space)
    if math.isinf(q):
        lhs = float(np.max(np.abs(a.values)))
        rhs = 1.0 / norm_1b
    else:
        lhs = space_norm(a, Lebesgue(q))
        rhs = ball_volume(ball.radius, grid.dim) ** (1.0 / q) / norm_1b
    size_ok = lhs <= rhs * (1 + 1e-9)

    slacks = _moment_slacks(a, d)
    moments_ok = all(v <= moment_tol for v in slacks.values())
    return AtomReport(
        support_ok=support_ok,
        support_leak=leak,
        size_ok=size_ok,
        size_lhs=lhs,
        size_rhs=rhs,
        moments_ok=moments_ok,
        moment_slacks=slacks,
    )


def check_molecule(
    m: Molecule,
    space: SpaceDescriptor,
    mean_tol: float = 1e-8,
    moment_tol: float = 1e-6,
) -> MoleculeReport:
    """Shell-decay and vanishing-moment report; shells stop at the box edge."""
    grid = m.func.grid
    dist = grid.torus_distance_to(m.ball.center)
    norm_1b = space_norm(ball_indicator(grid, m.ball), space)
    lhs_list, rhs_list = [], []
    j = 0
    while m.ball.radius * 2.0**j <= grid.half_width:
        if j == 0:
            shell = dist < m.ball.radius
            measure = ball_volume(m.ball.radius, grid.dim)
        else:
            r_hi = m.ball.radius * 2.0**j
            r_lo = m.ball.radius * 2.0 ** (j - 1)
            shell = (dist >= r_lo) & (dist < r_hi)
            measure = ball_volume(r_hi, grid.dim) - ball_volume(r_lo, grid.dim)
        vals = np.where(shell, np.abs(m.func.values), 0.0)
        if math.isinf(m.q):
            lhs = float(vals.max())
            rhs = 2.0 ** (-j * m.epsilon) / norm_1b
        else:
            lhs = float((np.sum(vals**m.q) * grid.cell_volume) ** (1.0 / m.q))
            rhs = 2.0 ** (-j * m.epsilon) * measure ** (1.0 / m.q) / norm_1b
        lhs_list.append(lhs)
        rhs_list.append(rhs)
        j += 1
    l1 = float(np.sum(np.abs(m.func.values)) * grid.cell_volume)
    mean = abs(complex(np.sum(m.func.values) * grid.cell_volume))
    mean_slack = mean / l1 if l1 > 0 else 0.0
    slacks = _moment_slacks(m.func, m.d)
    return MoleculeReport(
        shell_lhs=lhs_list,
        shell_rhs=rhs_list,
        mean_slack=mean_slack,
        moment_slacks=slacks,
        size_ok=all(l <= r * (1 + 1e-9) for l, r in zip(lhs_list, rhs_list)),
        mean_ok=mean_slack <= mean_tol,
        moments_ok=all(v <= moment_tol for v in slacks.values()),
    )


def coefficient_functional(
    decomp: TentDecomposition, space: SpaceDescriptor, s: float | None = None
) -> float:
    """Aggregated coefficient size of the decomposition relative to the space."""
    if not decomp.atoms:
        return 0.0
    grid = decomp.residual.grid
    if s is None:
        s = min(1.0, space.floor())
    acc = np.zeros(grid.shape)
    for atom in decomp.atoms:
        indicator = ball_indicator(grid, atom.ball)
        norm_1b = space_norm(indicator, space)
        acc += (atom.coefficient / norm_1b) ** s * indicator.values.real
    return space_norm(SampledFunction(grid, acc ** (1.0 / s)), space)
