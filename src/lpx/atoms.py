"""Level-set decomposition of half-space fields into tent-supported atoms.

The construction follows the classical stopping-time recipe: threshold the
cone functional at dyadic levels, cover each superlevel set with family balls
(preferring balls whose doubles stay inside), split the set among the chosen
balls, and cut the field along the per-cell level of the largest superlevel
set whose surrounding ball still fits.  Each piece is normalized so it passes
the tent-atom size inequality for each exponent of ``SIZE_EXPONENTS``.
A ball lies in {area > lev} exactly when the area's min over it exceeds lev,
so every fit is a comparison against ball minima, every radius of a family
in one ``BallFamily.ball_filters`` call: those over B(y, t_k) give each cell's
containment level in one ``np.searchsorted``, those over the doubled family
balls each level's doubled-ball fits.  The cells contained at no level are
the strays, one piece per spatial point.  Each level walks its inside
centres once, by the largest radius whose doubled ball fits, and a claimed
ball marks its cells through ``GridSpec.ball_offsets``.  Every ball's cells
are ``GridSpec.ball_mask``'s.

The pieces' cone functionals are exact interval sums, not FFTs
(``_piece_functionals``): each first-axis row of a ball is one run of cells
along the last axis (``GridSpec.ball_row_widths``), so a piece's squared
cone functional is the cumulative sum of difference rows that one
``np.bincount`` fills.  Pieces go in chunks of whole pieces within
``PIECE_CHUNK`` elements, and each chunk's rows go straight into the
``space_norms`` calls of the L^p sizes (kept per atom), so no pieces x cells
stack is held.  The pieces' balls come from one gather of their own cells'
torus distances, and the balls' indicators (``_ball_rows``) from one
``torus_window_view`` gather whose norms take one ``space_norms`` call;
``coefficient_functional`` adds its per-atom weights with one
``np.bincount``.  A ``TentAtom`` keeps only its piece's cells and
values; its dense field is built on demand.  ``tent_decompose`` divides
every kept atom's values in one operation and checks them once, and
``TentDecomposition.reconstruct`` adds them back in one scatter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .grid import (CACHE_SIZE, GridSpec, HalfSpaceField, SampledFunction, ScaleGrid, real_or_complex,
                   scale_to_unit_rows)
from .kernels import Kernel
from .maximal import BallFamily, ball_volume
from .spaces import Lebesgue, SpaceDescriptor, space_norm, space_norms
from .squarefuncs import cone_weights, tent_functional, whole_batches
from .transforms import apply_multiplier, build_plan

__all__ = [
    "Ball",
    "TentAtom",
    "TentDecomposition",
    "Molecule",
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
# elements per chunk of pieces in ``_piece_functionals``, counting each
# piece's difference rows and its (cell, ball row) runs: a chunk holds whole
# pieces, as many as fit, and at least one (a 2-D N=64 chunk is about 250
# pieces)
PIECE_CHUNK = 1 << 20


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

    @classmethod
    def _trusted(cls, grid: GridSpec, scales: ScaleGrid, cells: np.ndarray, values: np.ndarray,
                 ball: Ball, coefficient: float) -> "TentAtom":
        """An atom of arrays its caller has already checked and made read-only
        (``tent_decompose``), built without ``__post_init__``'s checks."""
        atom = object.__new__(cls)
        atom.__dict__.update(grid=grid, scales=scales, cells=cells, values=values, ball=ball,
                             coefficient=coefficient)
        return atom

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
    in the space the atoms were sized for, bitwise its one-row
    ``space_norm``, and ``sizes[p][i]`` the L^p norm of its unit-aperture
    cone functional, for each p of ``SIZE_EXPONENTS``."""

    atoms: list[TentAtom]
    grid: GridSpec
    scales: ScaleGrid
    ball_norms: list[float]
    sizes: dict[float, list[float]]

    def reconstruct(self) -> HalfSpaceField:
        """The sum of coefficient times atom, a float field when there are no atoms.

        The atoms' cells are disjoint, so one scatter adds 0.0 + coefficient
        times value once per cell: bitwise the sum atom by atom."""
        dtype = np.result_type(float, *{atom.values.dtype for atom in self.atoms})
        total = np.zeros(self.grid.shape + (len(self.scales),), dtype=dtype)
        if self.atoms:
            coefficients = np.repeat([atom.coefficient for atom in self.atoms],
                                     [len(atom.cells) for atom in self.atoms])
            total.reshape(-1)[np.concatenate([atom.cells for atom in self.atoms])] += (
                coefficients * np.concatenate([atom.values for atom in self.atoms]))
        return HalfSpaceField(self.grid, self.scales, total)


@dataclass(frozen=True)
class Molecule:
    """The function ``synthesize_molecule`` makes of an atom, and the atom's ball."""

    func: SampledFunction
    ball: Ball


def _ball_minima(area: np.ndarray, family: BallFamily) -> np.ndarray:
    """Min of ``area`` over B(x, r) for every centre x, one row per radius r
    of ``family``: the negated ball max of the negated area, exact."""
    return -family.ball_filters(-area)


def _containment_levels(F: HalfSpaceField, area: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per half-space cell, the index of the largest level k such that the
    ball B(y, t) stays inside the superlevel set {area > levels[k]} (-1: none):
    the count, less one, of the (ascending) levels below the ball's min."""
    minima = _ball_minima(area, BallFamily(F.grid, F.scales.scales))
    return np.searchsorted(levels, np.moveaxis(minima, 0, -1), side="left") - 1


@functools.lru_cache(maxsize=CACHE_SIZE)
def _cell_windows(grid: GridSpec) -> np.ndarray:
    """``torus_window_view`` of the cells' flat indices, built once per grid:
    at ``center + offsets`` it reads the flat index of the cell at each
    offset from the centre."""
    return grid.torus_window_view(np.arange(grid.size).reshape(grid.shape))


def _whitney_regions(
    grid: GridSpec, inside: np.ndarray, balls: BallFamily, double_fits: np.ndarray
) -> tuple[np.ndarray, list[Ball]]:
    """Partition ``inside`` into regions led by greedily chosen balls.

    Large balls whose doubles stay inside (``double_fits[i]``: the centres
    whose B(x, 2 r_i) does) are claimed first; whatever remains is covered by
    single-cell regions.  Returns (region id array, leaders).
    """
    radii = tuple(balls.radii.tolist())
    region = np.full(grid.size, -1, dtype=int)
    leaders: list[Ball] = []
    uncovered = inside.reshape(-1).copy()
    # Taken radius by radius, largest first, every inside centre whose doubled
    # ball fits is claimed or already covered by the end of that radius.  The
    # doubled balls are nested, so a centre fits every radius up to its
    # largest and is a candidate only there: one walk of the inside centres
    # by largest fitting radius, then cell, makes the same claims without a
    # pass per radius.
    fit = double_fits.reshape(len(radii), grid.size) & uncovered
    top = len(radii) - 1 - fit[::-1].argmax(axis=0)  # each centre's largest fitting radius
    walk = np.flatnonzero(fit.any(axis=0))
    walk = walk[np.argsort(-top[walk], kind="stable")]
    offsets = grid.ball_offsets(radii)
    ids = _cell_windows(grid)
    coords = (c.tolist() for c in np.unravel_index(walk, grid.shape))
    for cell, ri, center in zip(walk.tolist(), top[walk].tolist(), zip(*coords)):
        if not uncovered[cell]:
            continue
        # the centre is uncovered and in its own ball: it claims at least itself
        member = ids[center + offsets[ri]]
        region[member[uncovered[member]]] = len(leaders)
        leaders.append(Ball(center=center, radius=radii[ri]))
        uncovered[member] = False
    rest = np.flatnonzero(uncovered)
    region[rest] = np.arange(len(leaders), len(leaders) + len(rest))
    leaders += [Ball(center=center, radius=radii[0])
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


def _piece_functionals(F: HalfSpaceField, pieces: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """The unit-aperture cone functional of every piece, piece i being F on
    the cells ``pieces[i]`` (flat indices into ``grid.shape + (K,)``) and
    zero elsewhere: yields ``(pieces of the chunk,) + grid.shape`` rows, one
    chunk of whole pieces after another (``PIECE_CHUNK``,
    ``squarefuncs.whole_batches``).

    A cell (y, t_k) adds c = w_k |F(y, t_k)|^2, w_k the scale's quadrature
    weight (``squarefuncs.cone_weights``), to the squared functional on
    B(y, t_k), whose first-axis rows are runs along the last axis
    (``GridSpec.ball_row_widths``).  So each piece's square is a cumulative
    sum of difference rows, one per (piece, first-axis line) with a dropped
    column n: each (cell, ball row) adds +c at its run's
    start and -c one past its end (a run ending at n puts it in the dropped
    column), and a run that wraps past n ends at its end - n and adds one
    more +c at 0; a full row (w = n) is taken to start at 0, so it never
    wraps.  One ``np.bincount`` per chunk fills the
    rows, adding each bin's terms in input order, so a piece's rows do not
    depend on the chunk it falls in.  |F| is divided by the power of two of
    its max before squaring and the root is scaled back, as ``scale_sums``
    does; the squares are clipped at 0 against round-off.
    """
    grid, scales = F.grid, F.scales
    n, k_count, lines = grid.points_per_axis, len(scales), grid.size // grid.points_per_axis
    widths = grid.ball_row_widths(tuple(scales.scales.tolist()))
    row_scale, row_dx = np.nonzero(widths)  # every (scale, ball row), scale-major
    row_width, row_count = widths[row_scale, row_dx], np.bincount(row_scale, minlength=k_count)
    row_first = np.cumsum(row_count) - row_count
    counts = [len(c) for c in pieces]
    cells = np.concatenate([np.empty(0, dtype=np.intp), *pieces])
    if not len(cells):
        if pieces:
            yield np.zeros((len(pieces),) + grid.shape)
        return
    spatial, k = np.divmod(cells, k_count)
    owner = np.repeat(np.arange(len(pieces)), counts)
    power = np.abs(F.values.reshape(-1)[cells])
    exp = int(scale_to_unit_rows(power[None])[0])
    np.square(power, out=power)
    power *= cone_weights(grid, scales)[k]
    runs = row_count[k]
    cost = lines * (n + 1) + np.bincount(owner, runs, minlength=len(pieces))
    cell_ends = np.cumsum(counts)
    for lo, hi in whole_batches(cost, PIECE_CHUNK):
        first, last = (cell_ends[lo - 1] if lo else 0), cell_ends[hi - 1]
        chunk_runs = runs[first:last]
        cell = np.repeat(np.arange(first, last), chunk_runs)  # one entry per (cell, ball row)
        ball_row = np.arange(len(cell)) + np.repeat(row_first[k[first:last]] - (np.cumsum(chunk_runs) - chunk_runs),
                                                    chunk_runs)
        width, y = row_width[ball_row], spatial[cell]
        start = np.where(width == n, 0, (y % n - width // 2) % n)
        end = start + width
        # the run's difference row: its piece, and the line dx past the cell's own (1-D: the one line)
        base = ((owner[cell] - lo) * lines + (y // n + row_dx[ball_row]) % lines) * (n + 1)
        c, wraps = power[cell], end > n
        diff = np.bincount(np.concatenate([base + start, base + end - n * wraps, base[wraps]]),
                           np.concatenate([c, -c, c[wraps]]), minlength=(hi - lo) * lines * (n + 1))
        rows = np.cumsum(diff.reshape(-1, n + 1)[:, :n], axis=1)
        np.maximum(rows, 0.0, out=rows)
        np.sqrt(rows, out=rows)
        yield np.ldexp(rows, exp, out=rows).reshape((hi - lo,) + grid.shape)


def _piece_sizes(F: HalfSpaceField, pieces: Sequence[np.ndarray]) -> list[list[float]]:
    """Per p of ``SIZE_EXPONENTS``, the L^p norm of every piece's cone
    functional (``_piece_functionals``), each chunk normed as it comes."""
    sizes: list[list[float]] = [[] for _ in SIZE_EXPONENTS]
    for rows in _piece_functionals(F, pieces):
        for out, p in zip(sizes, SIZE_EXPONENTS):
            out += space_norms(F.grid, rows, Lebesgue(p))
    return sizes


def _split(values: np.ndarray, bounds: Sequence[int]) -> list[np.ndarray]:
    """``np.split(values, bounds)`` of a 1-D array, the views taken as plain
    slices: ``np.split`` costs about a microsecond per part, and a
    decomposition splits once per level and once per kept atom."""
    edges = [0, *bounds, len(values)]
    return [values[lo:hi] for lo, hi in zip(edges, edges[1:])]


def _groups(keys: np.ndarray, cells: np.ndarray):
    """(key, cells with that key) for each distinct key, keys ascending and
    each group's cells in their given order."""
    order = np.argsort(keys, kind="stable")
    distinct, starts = np.unique(keys[order], return_index=True)
    return zip(distinct.tolist(), _split(cells[order], starts[1:].tolist()))


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
    double_min = _ball_minima(area, BallFamily(grid, 2.0 * balls.radii))
    for li, shell in shells.items():
        region, leaders = _whitney_regions(grid, area > levels[li], balls, double_min > levels[li])
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
    # its L^p sizes from its cone functional's interval sums, chunk by chunk
    cells = [piece_cells for piece_cells, _ in pieces]
    fitted = _fit_balls(grid, balls, [center for _, center in pieces], cells, scales.scales)
    norms = np.array(space_norms(grid, _ball_rows(grid, fitted), space))
    sizes = np.array(_piece_sizes(F, cells))
    volumes = ball_volume(np.array([ball.radius for ball in fitted]), grid.dim)
    lams = np.max([size * norms / volumes ** (1.0 / p) for p, size in zip(SIZE_EXPONENTS, sizes)], axis=0)
    keep = np.flatnonzero(lams)
    kept_lams = lams[keep]
    kept_sizes = {p: (size[keep] / kept_lams).tolist()  # the L^p size is positively homogeneous
                  for p, size in zip(SIZE_EXPONENTS, sizes)}
    if not len(keep):
        return TentDecomposition(atoms=[], grid=grid, scales=scales, ball_norms=[], sizes=kept_sizes)

    # every kept atom's values in one division and one finiteness check:
    # bitwise each piece's own F / lam
    counts = [len(cells[i]) for i in keep.tolist()]
    kept_cells = np.concatenate([cells[i] for i in keep.tolist()])
    values = F.values.reshape(-1)[kept_cells] / np.repeat(kept_lams, counts)
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    kept_cells.setflags(write=False)
    values.setflags(write=False)
    bounds = np.cumsum(counts[:-1]).tolist()
    piece_values = _split(values, bounds)
    if np.iscomplexobj(values):  # a piece without imaginary parts keeps float values, as real_or_complex gives
        piece_values = [v if v.imag.any() else real_or_complex(v) for v in piece_values]
    atoms = [TentAtom._trusted(grid, scales, piece_cells, v, fitted[i], lam)
             for i, lam, piece_cells, v in zip(keep.tolist(), kept_lams.tolist(), _split(kept_cells, bounds),
                                               piece_values)]
    return TentDecomposition(atoms=atoms, grid=grid, scales=scales, ball_norms=norms[keep].tolist(),
                             sizes=kept_sizes)


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
