"""Level-set decomposition of half-space fields into tent-supported atoms.

The construction follows the classical stopping-time recipe: threshold the
cone functional at dyadic levels, cover each superlevel set with family balls
(preferring balls whose doubles stay inside), split the set among the chosen
balls, and cut the field along the per-cell level of the largest superlevel
set whose surrounding ball still fits.  Each piece is normalized so it passes
the tent-atom size inequality for each exponent of ``SIZE_EXPONENTS``.
The support cells are grouped once by containment level; the cells
contained at no level are the strays, one piece per spatial point.

The pieces' cone functionals run as one batched pass
(``squarefuncs.tent_functionals``): only the nonzero (piece, scale) rows are
stacked, whole pieces up to ``squarefuncs.SCALE_SUM_CHUNK`` rows per batch,
and each piece's scales are summed in frequency space before one inverse
FFT, so no pieces x cells x scales array is built.  Each level tests every
doubled ball in one correlation against the cached ``ball_spectra``, then
walks the inside centres once, by the largest radius whose doubled ball
fits, rather than once per radius; a claimed ball marks its cells through
its offset list, ``GridSpec.ball_offsets``.
Every ball's cells are ``GridSpec.ball_mask``'s: the offset lists, the
doubled balls' spectra, and the indicators (``_ball_rows``), which read each
ball's mask at its centre, all balls in one ``torus_window_view`` gather.
The pieces are then sized in one pass: their balls from one gather of their
own cells' torus distances, their L^p sizes, kept on the decomposition per
atom, from row-batched reductions.  The sizes and the balls' indicator norms
(``ball_norms``) take one ``space_norms`` call each, which chunks the rows
itself; ``coefficient_functional`` adds its per-atom weights with one
``np.bincount``.  A ``TentAtom`` keeps only its
piece's cells and values; its dense field is built on demand.  All of it is
bitwise what one call per piece, one correlation and candidate loop per
radius, one ``np.roll`` per ball, one indicator per ball norm and a dense
field per atom give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .grid import GridSpec, HalfSpaceField, SampledFunction, ScaleGrid, real_or_complex
from .kernels import Kernel
from .maximal import BallFamily, ball_volume
from .spaces import Lebesgue, SpaceDescriptor, space_norm, space_norms
from .squarefuncs import ball_spectra, tent_functional, tent_functionals
from .transforms import apply_multiplier, build_plan, correlate

__all__ = [
    "Ball",
    "TentAtom",
    "TentDecomposition",
    "Molecule",
    "ball_norms",
    "tent_decompose",
    "synthesize_molecule",
    "coefficient_functional",
]

# dyadic levels of the area kept below its max.  The area is the root of an
# FFT scale sum, whose round-off leaves about 2^-26 of the area's max where
# the area is 0 (sqrt of the double epsilon; measured 2^-26.5 to 2^-27.8 on
# 1-D N=64 to 1024 and 2-D N=16 to 64).  Level sets further down would follow
# that round-off, so the lowest level stays 16 times above it and support
# cells below every level become stray pieces.
MAX_LEVELS = 22
# the exponents p of the L^p sizes every atom is normalized for and the
# decomposition keeps
SIZE_EXPONENTS = (2.0, 4.0)


class Ball(NamedTuple):
    center: tuple[int, ...]  # grid index of the center cell
    radius: float


def _ball_rows(grid: GridSpec, balls: Sequence[Ball]) -> np.ndarray:
    """Boolean ``(balls,) + grid.shape`` array whose rows are the balls'
    indicators: each ball's ``grid.ball_mask`` read at its centre, every ball
    in one ``torus_window_view`` gather over the masks of the distinct radii."""
    slot: dict[float, int] = {}  # each distinct radius's mask, in order of first use
    which = np.array([slot.setdefault(ball.radius, len(slot)) for ball in balls], dtype=np.intp)
    masks = np.array([grid.ball_mask(r) for r in slot], dtype=bool).reshape((len(slot),) + grid.shape)
    centers = np.array([ball.center for ball in balls], dtype=int).reshape(len(balls), grid.dim)
    # B(c, r) holds x iff mask[(x - c) mod n]: the window at shift -c
    shifts = tuple((-centers % grid.points_per_axis).T)
    return grid.torus_window_view(masks)[(which,) + shifts].reshape((len(balls),) + grid.shape)


def ball_norms(grid: GridSpec, balls: Sequence[Ball], space: SpaceDescriptor) -> list[float]:
    """The space norm of every ball's indicator, bitwise its one-row
    ``space_norm``.

    The indicators come from one gather and take their norms row-batched.
    """
    return space_norms(grid, _ball_rows(grid, balls), space)


@dataclass(frozen=True)
class TentAtom:
    """A tent atom stored on its piece's cells.

    ``cells`` are sorted flat indices into the half-space layout
    ``grid.shape + (len(scales),)`` and ``values`` the atom there (the field
    divided by ``coefficient``); the atom is zero on every other cell.
    ``field`` builds the dense half-space field on demand.
    """

    grid: GridSpec
    scales: ScaleGrid
    cells: np.ndarray
    values: np.ndarray
    ball: Ball
    coefficient: float

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.intp)
        values = real_or_complex(self.values)
        if cells.ndim != 1 or values.shape != cells.shape:
            raise ValueError("cells and values must be matching 1-D arrays")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "values", values)

    @property
    def field(self) -> HalfSpaceField:
        values = np.zeros(self.grid.shape + (len(self.scales),), dtype=self.values.dtype)
        values.reshape(-1)[self.cells] = self.values
        return HalfSpaceField(self.grid, self.scales, values)


@dataclass(frozen=True)
class TentDecomposition:
    """The atoms of ``tent_decompose`` on the half-space of ``grid`` and
    ``scales``; ``ball_norms[i]`` is the norm of ``atoms[i]``'s ball indicator
    in the space the atoms were sized for (``ball_norms``), and
    ``sizes[p][i]`` the L^p norm of its unit-aperture cone functional, for
    each p of ``SIZE_EXPONENTS``."""

    atoms: list[TentAtom]
    grid: GridSpec
    scales: ScaleGrid
    ball_norms: list[float]
    sizes: dict[float, list[float]]

    def reconstruct(self) -> HalfSpaceField:
        """The sum of coefficient times atom, a float field when there are no atoms."""
        dtype = np.result_type(float, *{atom.values.dtype for atom in self.atoms})
        total = np.zeros(self.grid.shape + (len(self.scales),), dtype=dtype)
        flat = total.reshape(-1)
        for atom in self.atoms:
            flat[atom.cells] += atom.coefficient * atom.values
        return HalfSpaceField(self.grid, self.scales, total)


@dataclass(frozen=True)
class Molecule:
    """The function ``synthesize_molecule`` makes of an atom, and the atom's ball."""

    func: SampledFunction
    ball: Ball


def _containment_levels(F: HalfSpaceField, area: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per half-space cell, the index of the largest level k such that the
    ball B(y, t) stays inside the superlevel set {area > levels[k]} (-1: none)."""
    grid = F.grid
    table = ball_spectra(grid, tuple(F.scales.scales))  # the balls grid.ball_mask(t_k)
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
    radii = tuple(balls.radii.tolist())
    region = np.full(grid.size, -1, dtype=int)
    leaders: list[Ball] = []
    uncovered = inside.reshape(-1).copy()
    outside = (~inside).astype(float)
    doubles = ball_spectra(grid, tuple(2.0 * r for r in radii))
    double_ok = correlate(outside, doubles, grid.dim).reshape(len(radii), grid.size) < 0.5
    # Taken radius by radius, largest first, every inside centre whose doubled
    # ball fits is claimed or already covered by the end of that radius.  The
    # doubled balls are nested, so a centre fits every radius up to its
    # largest and is a candidate only there: one walk of the inside centres
    # by largest fitting radius, then cell, makes the same claims without a
    # pass per radius.
    fit = double_ok & uncovered
    top = len(radii) - 1 - fit[::-1].argmax(axis=0)  # each centre's largest fitting radius
    walk = np.flatnonzero(fit.any(axis=0))
    walk = walk[np.argsort(-top[walk], kind="stable")]
    offsets = grid.ball_offsets(radii)
    coords = (c.tolist() for c in np.unravel_index(walk, grid.shape))
    for cell, ri, *center in zip(walk.tolist(), top[walk].tolist(), *coords):
        if not uncovered[cell]:
            continue
        # the centre is uncovered and in its own ball: it claims at least itself
        member = np.ravel_multi_index(tuple(o + c for o, c in zip(offsets[ri], center)),
                                      grid.shape, mode="wrap")
        region[member[uncovered[member]]] = len(leaders)
        leaders.append(Ball(center=tuple(center), radius=radii[ri]))
        uncovered[member] = False
    rest = np.flatnonzero(uncovered)
    region[rest] = np.arange(len(leaders), len(leaders) + len(rest))
    leaders += [Ball(center=tuple(center), radius=radii[0])
                for center in zip(*(c.tolist() for c in np.unravel_index(rest, grid.shape)))]
    return region.reshape(grid.shape), leaders


def _fit_balls(grid: GridSpec, balls: BallFamily, centers: list[tuple[int, ...]],
               cells: list[np.ndarray], ts: np.ndarray) -> list[Ball]:
    """Smallest family ball around each piece's centre whose tent holds the piece.

    A cell (y, t_k) needs radius > |y - c| + t_k; the torus distances of every
    piece's own cells are read from the offset table in one gather.
    """
    n, k_count = grid.points_per_axis, len(ts)
    counts = [len(c) for c in cells]
    flat = np.concatenate(cells)
    spatial, k = np.divmod(flat, k_count)
    origin = np.repeat(np.array(centers, dtype=int).reshape(len(cells), grid.dim), counts, axis=0)
    offset = tuple((y - c) % n for y, c in zip(np.unravel_index(spatial, grid.shape), origin.T))
    reach = grid.offset_distances()[offset] + ts[k]
    needs = np.maximum.reduceat(reach, np.cumsum([0] + counts[:-1]))
    fits = balls.radii > (needs * (1.0 + 1e-12))[:, None]
    fallback = 2.0 * grid.half_width
    out = []
    for center, need, row in zip(centers, needs.tolist(), fits):
        if row.any():
            out.append(Ball(center=center, radius=float(balls.radii[row.argmax()])))
        elif need >= fallback:
            raise ValueError("piece reaches above the box; shrink the scale range")
        else:
            out.append(Ball(center=center, radius=fallback))
    return out


def _groups(keys: np.ndarray, cells: np.ndarray):
    """(key, cells with that key) for each distinct key, keys ascending and
    each group's cells in their given order."""
    order = np.argsort(keys, kind="stable")
    distinct, starts = np.unique(keys[order], return_index=True)
    return zip(distinct.tolist(), np.split(cells[order], starts[1:]))


def _pieces(F: HalfSpaceField, area: np.ndarray, balls: BallFamily) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The stopping-time pieces of F as (cells, leader centre) pairs: sorted flat
    cell indices into ``grid.shape + (K,)``, disjoint and covering the support
    of F; ``area`` is F's cone functional.

    The support cells are grouped by containment level.  A cell (y, t_k) of
    level k has B(y, t_k) inside {area > levels[k]}, so y lies in that set and
    ``_whitney_regions`` gives it a region.  The cells contained at no level
    (-1) are the strays."""
    grid, k_count = F.grid, len(F.scales)
    top = math.ceil(math.log2(area.max()))
    positive_min = area[area > 0].min()
    bottom = max(math.floor(math.log2(positive_min)) - 1, top - MAX_LEVELS)
    levels = 2.0 ** np.arange(bottom, top + 1)
    cell_level = _containment_levels(F, area, levels)

    support = np.flatnonzero(np.abs(F.values) > 0)
    shells = dict(_groups(cell_level.reshape(-1)[support], support))
    stray = shells.pop(-1, support[:0])  # level -1: contained at no level
    pieces: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for li, shell in shells.items():
        region, leaders = _whitney_regions(grid, area > levels[li], balls)
        for rid, cells in _groups(region.reshape(-1)[shell // k_count], shell):
            pieces.append((cells, leaders[rid].center))

    # strays (possible when the area's range exceeds the level cap): one
    # piece per spatial point keeps supports disjoint and reconstruction exact
    for point, cells in _groups(stray // k_count, stray):
        pieces.append((cells, tuple(int(i) for i in np.unravel_index(point, grid.shape))))
    return pieces


def tent_decompose(
    F: HalfSpaceField,
    space: SpaceDescriptor,
    balls: BallFamily | None = None,
) -> TentDecomposition:
    """Split F into coefficients times tent atoms with disjoint supports.

    Reconstruction is exact cell by cell, |F| is additive across the pieces,
    and every atom satisfies the size inequality for each p of
    ``SIZE_EXPONENTS``.
    """
    grid, scales = F.grid, F.scales
    balls = balls or BallFamily.build(grid, 2)
    area = tent_functional(F, 1.0).values
    if not np.any(area > 0):
        return TentDecomposition(atoms=[], grid=grid, scales=scales, ball_norms=[],
                                 sizes={p: [] for p in SIZE_EXPONENTS})
    pieces = _pieces(F, area, balls)

    # every piece's ball in one gather and the balls' norms in one more, then
    # its cone functional in one batched pass and its L^p sizes chunked like
    # the ball norms, so the pieces' dense cone functionals are the one stack
    # held at the peak
    cells = [piece_cells for piece_cells, _ in pieces]
    fitted = _fit_balls(grid, balls, [center for _, center in pieces], cells, scales.scales)
    norms = ball_norms(grid, fitted, space)
    areas = tent_functionals(F, 1.0, cells)
    sizes = [space_norms(grid, areas, Lebesgue(p)) for p in SIZE_EXPONENTS]

    flat = F.values.reshape(-1)
    atoms: list[TentAtom] = []
    kept_norms: list[float] = []
    kept_sizes: dict[float, list[float]] = {p: [] for p in SIZE_EXPONENTS}
    for piece_cells, ball, norm_1b, piece_sizes in zip(cells, fitted, norms, zip(*sizes)):
        lam = max(
            size * norm_1b / ball_volume(ball.radius, grid.dim) ** (1.0 / p)
            for p, size in zip(SIZE_EXPONENTS, piece_sizes)
        )
        if lam != 0.0:
            atoms.append(TentAtom(grid, scales, piece_cells, flat[piece_cells] / lam, ball, lam))
            kept_norms.append(norm_1b)
            for p, size in zip(SIZE_EXPONENTS, piece_sizes):
                kept_sizes[p].append(size / lam)  # the L^p size is positively homogeneous
    return TentDecomposition(atoms=atoms, grid=grid, scales=scales, ball_norms=kept_norms, sizes=kept_sizes)


def synthesize_molecule(atom: TentAtom, psi: Kernel) -> Molecule:
    """Project a tent atom to the base space through the companion kernel.

    The output is the dt/t-weighted sum over scales of the convolution of
    each field slice with the dilated kernel; its mean vanishes because the
    kernel transform vanishes at frequency zero.
    """
    fieldv = atom.field
    grid = fieldv.grid
    if psi.grid != grid:
        raise ValueError("kernel grid must match the atom's grid")
    scales = fieldv.scales
    slices = np.moveaxis(fieldv.values, -1, 0)
    live = np.flatnonzero(slices.reshape(len(scales), -1).any(axis=1))
    out = apply_multiplier(slices[live], build_plan(psi, scales).multipliers[live], grid.dim).sum(axis=0)
    return Molecule(func=SampledFunction(grid, out * scales.log_weight), ball=atom.ball)


def coefficient_functional(decomp: TentDecomposition, space: SpaceDescriptor) -> float:
    """Aggregated coefficient size of the decomposition relative to the space:
    the space norm of (sum of (coefficient / ||1_B||)^s 1_B)^(1/s) over the
    atoms' balls B, s = min(1, the space's floor exponent)."""
    if not decomp.atoms:
        return 0.0
    grid = decomp.grid
    s = min(1.0, space.floor())
    rows = _ball_rows(grid, [atom.ball for atom in decomp.atoms])
    norms = space_norms(grid, rows, space)
    weights = [(atom.coefficient / norm_1b) ** s for atom, norm_1b in zip(decomp.atoms, norms)]
    # bincount adds in input order, atom by atom: bitwise the sum of weight
    # times indicator, whose other terms are exact zeros
    owner, cells = np.nonzero(rows.reshape(len(rows), grid.size))
    acc = np.bincount(cells, np.array(weights)[owner], minlength=grid.size).reshape(grid.shape)
    return space_norm(SampledFunction(grid, acc ** (1.0 / s)), space)
