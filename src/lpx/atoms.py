"""Level-set decomposition of half-space fields into tent-supported atoms.

``tent_decompose`` follows the classical stopping-time recipe: threshold the
cone functional at dyadic levels, cover each superlevel set with family
balls whose doubles stay inside (``_whitney_regions``), cut the field into
pieces along those regions (``_pieces``) and size each piece so it passes
the tent-atom size inequality for each exponent of ``SIZE_EXPONENTS``
(``_piece_functionals``, ``_piece_sizes``).  A ball is only a centre cell
and a radius, its cells listed by ``_ball_cells``.  The
``TentDecomposition`` keeps its atoms as flat arrays and builds a
``TentAtom`` only when one is read; ``coefficient_functional`` and
``synthesize_molecule`` read it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import grid as grid_module
from .grid import GridSpec, HalfSpaceField, SampledFunction, ScaleGrid, real_or_complex, stable_order, whole_batches
from .kernels import Kernel
from .maximal import BallFamily, ball_volume
from .spaces import SpaceDescriptor, space_norm, space_norms
from .squarefuncs import cone_weights, tent_functional
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
# the int64 and float64 arrays a chunk of pieces holds per (cell, ball row)
# run at once, a bound: 7.8 measured under tracemalloc on the largest piece
# of the 2-D N=64 memory-guard field
RUN_ELEMENTS = 15
# the bytes ``_ball_cells`` holds per ball cell at once, its output among
# them (measured: 24.1-26.9 under tracemalloc, 1-D N=2048 to 2-D N=128)
CELL_BYTES = 27


class Ball(NamedTuple):
    center: tuple[int, ...]  # grid index of the center cell
    radius: float


def _ball_widths(grid: GridSpec, radii: np.ndarray) -> np.ndarray:
    """Row i: ``GridSpec.ball_row_widths`` of radius ``radii[i]``."""
    distinct = np.unique(radii)
    return grid.ball_row_widths(tuple(distinct.tolist()))[np.searchsorted(distinct, radii)]


def _ball_cells(grid: GridSpec, centers: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (ball, flat cell) pairs of the balls about the flat cells ``centers``,
    ball by ball: row dx of ball i is the run of w = ``widths[i, dx]`` last-axis
    cells from w // 2 before the centre's, on the line dx past the centre's, mod n."""
    n = grid.points_per_axis
    ball, dx = np.nonzero(widths)  # every (ball, row) run, ball-major
    w = widths[ball, dx]
    line, col = np.divmod(centers[ball], n)
    run = np.repeat(np.arange(len(w)), w)  # one entry per cell
    cells = np.arange(len(run)) + (col - w // 2 - (np.cumsum(w) - w))[run]
    cells &= n - 1  # mod n: n is a power of two
    cells += ((line + dx) % (grid.size // n) * n)[run]
    return ball[run], cells


def _ball_rows(grid: GridSpec, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The indicators of the balls of ``_ball_cells``, ``(balls,) + grid.shape``."""
    ball, cells = _ball_cells(grid, centers, widths)
    rows = np.zeros((len(centers),) + grid.shape, dtype=bool)
    rows.reshape(-1)[ball * grid.size + cells] = True
    return rows


def _ball_norms(grid: GridSpec, centers: np.ndarray, radii: np.ndarray, space: SpaceDescriptor) -> list[float]:
    """The ``space`` norm of each ball B(centers[i], radii[i])'s indicator,
    bitwise its ``space_norm``: one ``space_norms`` call per chunk of whole
    balls (``whole_batches``), a ball costing its row and ``CELL_BYTES`` per cell."""
    widths = _ball_widths(grid, radii)
    cost = grid.size + CELL_BYTES * widths.sum(axis=1)
    return [norm for lo, hi in whole_batches(cost)
            for norm in space_norms(grid, _ball_rows(grid, centers[lo:hi], widths[lo:hi]), space)]


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


class _AtomView(Sequence):
    """The atoms of a ``TentDecomposition``, read-only: ``len`` reads the
    flat ``starts``, and atom i is built by ``TentAtom`` from the flat arrays
    when it is read, its ``cells`` and ``values`` views into them; a piece
    without imaginary parts of a complex decomposition gets float values
    (``real_or_complex``), a copy."""

    __slots__ = ("_dec",)

    def __init__(self, dec: "TentDecomposition"):
        self._dec = dec

    def __len__(self) -> int:
        return len(self._dec.starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        dec, count = self._dec, len(self)
        i = operator.index(i)
        if not -count <= i < count:
            raise IndexError("atom index out of range")
        i %= count
        lo = int(dec.starts[i])
        hi = int(dec.starts[i + 1]) if i + 1 < count else len(dec.cells)
        center = tuple(int(c) for c in np.unravel_index(int(dec.centers[i]), dec.grid.shape))
        return TentAtom(dec.grid, dec.scales, dec.cells[lo:hi], dec.values[lo:hi],
                        Ball(center, float(dec.radii[i])), float(dec.coefficients[lo]))


@dataclass(frozen=True)
class TentDecomposition:
    """The atoms of ``tent_decompose`` on the half-space of ``grid`` and
    ``scales``, sized for ``space``; ``ball_norms[i]`` is the norm of
    ``atoms[i]``'s ball indicator in ``space``, bitwise its one-row
    ``space_norm``, and ``sizes[p][i]`` the L^p norm of its unit-aperture
    cone functional, for each p of ``SIZE_EXPONENTS``.

    ``cells``, ``values`` and ``coefficients`` hold every atom's cells,
    values and coefficient, one entry per cell, atom after atom, and
    ``starts[i]`` is atom i's first entry in them.  ``centers[i]`` (a flat
    cell index) and ``radii[i]`` are atom i's ball.  ``atoms`` is a
    read-only sequence that builds each ``TentAtom`` when it is read."""

    grid: GridSpec
    scales: ScaleGrid
    ball_norms: list[float]
    sizes: dict[float, list[float]]
    space: SpaceDescriptor
    cells: np.ndarray
    starts: np.ndarray
    values: np.ndarray
    coefficients: np.ndarray
    centers: np.ndarray
    radii: np.ndarray

    @classmethod
    def _empty(cls, grid: GridSpec, scales: ScaleGrid, space: SpaceDescriptor,
               sizes: dict[float, list[float]]) -> "TentDecomposition":
        """The decomposition without atoms: its reconstruction is a zero float field."""
        return cls(grid=grid, scales=scales, ball_norms=[], sizes=sizes, space=space,
                   cells=np.empty(0, dtype=np.intp), starts=np.empty(0, dtype=np.intp), values=np.empty(0),
                   coefficients=np.empty(0), centers=np.empty(0, dtype=np.intp), radii=np.empty(0))

    @property
    def atoms(self) -> Sequence[TentAtom]:
        return _AtomView(self)

    def reconstruct(self) -> HalfSpaceField:
        """The sum of coefficient times atom, a float field when every atom is real.

        The atoms' cells are disjoint, so one scatter adds 0.0 + coefficient
        times value once per cell: bitwise the sum atom by atom."""
        total = np.zeros(self.grid.shape + (len(self.scales),), dtype=np.result_type(float, self.values.dtype))
        total.reshape(-1)[self.cells] += self.coefficients * self.values
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


def _whitney_regions(
    grid: GridSpec, inside: np.ndarray, balls: BallFamily, double_fits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Partition each level's set into regions led by greedily chosen balls.

    ``inside`` holds one row per level, ``(levels, grid.size)``: the flat
    cells of that level's set.  ``double_fits`` holds one block per level,
    ``(levels, len(balls.radii), grid.size)``: row i of level l marks the
    centres whose B(x, 2 r_i) lies in level l's set.  In each level, large
    balls whose doubles stay inside are claimed first; whatever remains is
    covered by single-cell regions.  Returns (region ids, ``(levels,
    grid.size)``, -1 outside each level's set; leaders): the ids run level
    by level, each level's claimed balls in claim order and then its
    single-cell regions in cell order, and ``leaders[id]`` is the flat
    centre cell of the ball that leads region id.
    """
    radii = tuple(balls.radii.tolist())
    levels, size, n = len(inside), grid.size, grid.points_per_axis
    lines = size // n
    # Taken radius by radius, largest first, every inside centre whose doubled
    # ball fits is claimed or already covered by the end of that radius.  The
    # doubled balls are nested, so a centre fits every radius up to its
    # largest and is a candidate only there: one walk of the inside centres
    # by largest fitting radius, then cell, makes the same claims without a
    # pass per radius.  Each level keeps its own rows, so one walk by level,
    # then radius, then cell makes every level's claims.  A centre lies in
    # its own ball, so every fitting centre is inside, and a claimed ball
    # lies in its doubled ball, so every claimed cell is inside.
    fitting = double_fits.reshape(levels, len(radii), size).view(np.uint8).sum(
        axis=1, dtype=np.min_scalar_type(len(radii))).reshape(-1)  # the count of fitting radii
    walk = np.flatnonzero(fitting)
    top = fitting[walk].astype(np.intp) - 1  # largest fitting radius
    # by level, then largest fitting radius first, then cell: the key
    # level * R + (R - 1 - top) is non-negative, as ``stable_order`` needs
    order = stable_order(walk // size * len(radii) + (len(radii) - 1 - top))
    walk, top = walk[order], top[order]
    # A claim marks its ball in a byte per cell of every level's set, one
    # slice per first-axis row (``GridSpec.ball_row_widths``): the run of w
    # cells from w // 2 before the centre, two slices if it wraps past n
    widths = grid.ball_row_widths(radii)
    rows = [[(dx, w, w // 2, b"\x01" * w) for dx, w in enumerate(row) if w] for row in widths.tolist()]
    covered = bytearray(~inside.reshape(-1))  # outside the set, or in a claimed ball
    claims = []
    for at, ri in zip(walk.tolist(), top.tolist()):
        if covered[at]:
            continue
        claims.append(at)
        level_start = at - at % size
        line, col = divmod(at - level_start, n)
        for dx, w, half, fill in rows[ri]:
            row = level_start + (line + dx) % lines * n
            lo = (col - half) % n
            hi = lo + w
            if hi <= n:
                covered[row + lo:row + hi] = fill
            else:
                covered[row + lo:row + n] = fill[:n - lo]
                covered[row:row + hi - n] = fill[n - lo:]
    # every claimed cell takes its first claim's id, from the claims' runs;
    # the cells left uncovered become single-cell regions
    claim = np.array(claims, dtype=np.intp)
    claim_level, claim_cell = np.divmod(claim, size)
    owner, cells = _ball_cells(grid, claim_cell, widths[fitting[claim] - 1])
    rest = np.flatnonzero(np.frombuffer(covered, dtype=np.uint8) == 0)
    region = np.full(levels * size, len(claim) + len(rest))  # outside each level's set
    np.minimum.at(region, claim_level[owner] * size + cells, owner)
    region[rest] = np.arange(len(claim), len(claim) + len(rest))
    rest_level, rest_cell = np.divmod(rest, size)
    # renumber level by level: each level's claims, then its single cells
    order = stable_order(np.concatenate([claim_level, rest_level]))
    rank = np.empty(len(order) + 1, dtype=int)
    rank[order] = np.arange(len(order))
    rank[-1] = -1  # cells outside every level's set
    return rank[region].reshape(levels, size), np.concatenate([claim_cell, rest_cell])[order]


def _fit_balls(grid: GridSpec, balls: BallFamily, centers: np.ndarray, cells: np.ndarray, starts: np.ndarray,
               ts: np.ndarray) -> np.ndarray:
    """Radius of the smallest family ball around each piece's centre whose
    tent holds the piece, piece i being ``cells[starts[i]:starts[i + 1]]``
    about the flat centre cell ``centers[i]``.

    A cell (y, t_k) needs radius > |y - c| + t_k; the torus distances of every
    piece's own cells are read from the offset table in one gather, and each
    piece takes the first family radius that fits (one ``argmax`` over the
    fits table), or 2L where none does.
    """
    n, k_count = grid.points_per_axis, len(ts)
    spatial, k = np.divmod(cells, k_count)
    origin = np.unravel_index(np.repeat(centers, np.diff(starts, append=len(cells))), grid.shape)
    offset = tuple((y - c) & (n - 1) for y, c in zip(np.unravel_index(spatial, grid.shape), origin))  # n = 2^j
    reach = grid.offset_distances()[offset] + ts[k]
    needs = np.maximum.reduceat(reach, starts)
    fits = balls.radii > (needs * (1.0 + 1e-12))[:, None]
    fallback = 2.0 * grid.half_width
    fitted = fits.any(axis=1)
    if (needs[~fitted] >= fallback).any():
        raise ValueError("piece reaches above the box; shrink the scale range")
    return np.where(fitted, balls.radii[fits.argmax(axis=1)], fallback)


def _piece_functionals(F: HalfSpaceField, cells: np.ndarray,
                       starts: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The squared unit-aperture cone functional of every piece, piece i
    being F on the cells ``cells[starts[i]:starts[i + 1]]`` (flat indices
    into ``grid.shape + (K,)``) divided by 2^e_i, e_i the binary exponent (``np.frexp``) of its
    max |F|, and zero elsewhere: yields ``(pieces of the chunk,) +
    grid.shape`` rows and the chunk's exponents e_i, one chunk of whole
    pieces after another (``grid.whole_batches``), a piece costing 8 bytes
    per element of its rows and ``RUN_ELEMENTS`` elements per run.
    Piece i's cone functional is the root of its row times 2^e_i.

    A cell (y, t_k) adds c = w_k |F(y, t_k) / 2^e_i|^2, w_k the scale's
    quadrature weight (``squarefuncs.cone_weights``), to the squared
    functional on B(y, t_k), whose first-axis rows are runs along the last
    axis (``GridSpec.ball_row_widths``).  So each row is a cumulative sum of
    difference rows, one per (piece, first-axis line): each (cell, ball
    row) adds +c at its run's start and -c one past its end (none for a run
    ending at n), and a run that wraps past n ends at its end - n and adds
    one more +c at 0; a full row (w = n) is taken to start at 0, so it
    never wraps.  A chunk's rows are the zeroed head of one workspace per
    call, which ``np.add.at`` fills with the start terms, then the end
    terms, then the wrap terms: each bin adds its terms in input order from
    +0.0, bitwise as ``np.bincount`` would, so a piece's rows do not depend
    on the chunk it falls in.  Their cumulative sums are taken in place and
    clipped at 0 against round-off.  The yielded rows are the workspace's,
    valid until the next chunk.  Each piece is scaled by its own max, so a
    piece far below the field's max keeps its size.
    """
    grid, scales = F.grid, F.scales
    n, k_count, lines = grid.points_per_axis, len(scales), grid.size // grid.points_per_axis
    widths = grid.ball_row_widths(tuple(scales.scales.tolist()))
    row_scale, row_dx = np.nonzero(widths)  # every (scale, ball row), scale-major
    row_width, row_count = widths[row_scale, row_dx], np.bincount(row_scale, minlength=k_count)
    row_first = np.cumsum(row_count) - row_count
    bounds = np.append(starts, len(cells))
    spatial, k = np.divmod(cells, k_count)
    owner = np.repeat(np.arange(len(starts)), np.diff(bounds))
    power = np.abs(F.values.reshape(-1)[cells])
    peaks = np.zeros(len(starts))
    np.maximum.at(peaks, owner, power)
    exps = np.frexp(peaks)[1]
    np.ldexp(power, -exps[owner], out=power)
    np.square(power, out=power)
    power *= cone_weights(grid, scales)[k]
    runs = row_count[k]
    cost = 8 * (lines * n + RUN_ELEMENTS * np.bincount(owner, runs, minlength=len(starts)))
    batches = list(whole_batches(cost))
    # one workspace per call, for the largest chunk's rows and at least the
    # budget (or the call's whole cost): glibc trimmed and faulted in again
    # the rows that each chunk allocated afresh
    work = np.empty(max([(hi - lo) * lines * n for lo, hi in batches]
                        + [min(grid_module.WORK_BYTES, int(cost.sum())) // 8]))
    for lo, hi in batches:
        first, last = bounds[lo], bounds[hi]
        chunk_runs = runs[first:last]
        # one entry per (cell, ball row), each array dropped once it is read:
        # a chunk of one large piece holds a few of them at once
        cell = np.repeat(np.arange(first, last), chunk_runs)
        ball_row = np.repeat(row_first[k[first:last]] - (np.cumsum(chunk_runs) - chunk_runs), chunk_runs)
        ball_row += np.arange(len(cell))
        c, y = power[cell], spatial[cell]
        # the run's difference row: its piece, and the line dx past the cell's own (1-D: the one line)
        base = ((owner[cell] - lo) * lines + ((y // n + row_dx[ball_row]) & (lines - 1))) * n
        del cell
        width = row_width[ball_row]
        del ball_row
        start = y & (n - 1)  # mod n and lines, powers of two
        del y
        start -= width // 2
        start &= n - 1
        start[width == n] = 0  # a full row starts at 0
        end = start + width
        del width
        wraps = end > n
        end[wraps] -= n  # a wrapping run ends at end - n
        closed = end < n  # a run ending at n has no end term
        start += base  # the terms' bins
        end += base
        rows = work[:(hi - lo) * lines * n]
        rows.fill(0.0)
        np.add.at(rows, start, c)
        np.subtract.at(rows, end[closed], c[closed])
        np.add.at(rows, base[wraps], c[wraps])
        rows = rows.reshape(-1, n)
        np.cumsum(rows, axis=1, out=rows)
        np.maximum(rows, 0.0, out=rows)
        yield rows.reshape((hi - lo,) + grid.shape), exps[lo:hi]


def _piece_sizes(F: HalfSpaceField, cells: np.ndarray, starts: np.ndarray) -> list[list[float]]:
    """Per p of ``SIZE_EXPONENTS``, the L^p norm of every piece's cone
    functional S, from its squared row q = (S / 2^e)^2 of
    ``_piece_functionals(F, cells, starts)``, each chunk as it comes.

    Each row is divided by 4^m, m the least integer with the row's max
    below 4^m, so its max q' lies in [1/4, 1) (a zero row keeps m = 0).
    Then ||S||_p = (cellvol * sum of q'^(p/2))^(1/p) 2^(m+e): the sum lies
    between 2^-p and the cell count, so it neither overflows nor
    underflows, and scaling by powers of two is exact, so the sizes scale
    by exactly 2^k with the field wherever they stay in the float range.  A
    size past the float range is inf, as a ``space_norms`` norm is."""
    sizes: list[list[float]] = [[] for _ in SIZE_EXPONENTS]
    for squares, exps in _piece_functionals(F, cells, starts):
        squares = squares.reshape(len(squares), -1)
        m = -(-np.frexp(squares.max(axis=1))[1] // 2)  # ceil(e / 2), e the binary exponent of the max
        np.ldexp(squares, -2 * m[:, None], out=squares)
        # the sums of q'^(p/2) for SIZE_EXPONENTS = (2, 4): of q', then of
        # q'^2, the rows squared in place
        sums = [np.add.reduce(squares, axis=1), np.add.reduce(np.square(squares, out=squares), axis=1)]
        for out, p, total in zip(sizes, SIZE_EXPONENTS, sums):
            with np.errstate(over="ignore"):
                out += np.ldexp((total * F.grid.cell_volume) ** (1.0 / p), m + exps).tolist()
    return sizes


def _groups(keys: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``cells`` grouped by key, keys ascending and each group's cells in
    their given order: the grouped cells, each group's start in them and
    its key."""
    order = stable_order(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are non-negative
    return cells[order], starts, keys[starts]


def _pieces(F: HalfSpaceField, area: np.ndarray, balls: BallFamily) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stopping-time pieces of F as flat arrays (cells, starts, centres):
    piece i is ``cells[starts[i]:starts[i + 1]]``, sorted flat cell indices
    into ``grid.shape + (K,)``, and ``centres[i]`` its leader's flat centre
    cell; the pieces are disjoint and cover the support of F, and ``area`` is
    F's cone functional.

    A support cell (y, t_k) of containment level k has B(y, t_k) inside
    {area > levels[k]}, so y lies in that set.  The levels that hold support
    cells, the shells, go to one ``_whitney_regions`` call, and each region
    of a shell is a piece.  The cells contained at no level (-1) are the
    strays, one piece per spatial point.  One grouping of every support
    cell, a shell cell keyed by its region id, which runs level by level, and
    a stray by its point after every region, gives the pieces level by level,
    each level's in region order, and then the strays in point order."""
    grid, k_count = F.grid, len(F.scales)
    top = math.ceil(math.log2(area.max()))
    positive_min = area[area > 0].min()
    bottom = max(math.floor(math.log2(positive_min)) - 1, top - MAX_LEVELS)
    levels = 2.0 ** np.arange(bottom, top + 1)
    cell_level = _containment_levels(F, area, levels)

    support = np.flatnonzero(np.abs(F.values) > 0)
    support_level = cell_level.reshape(-1)[support]
    contained = support_level >= 0  # level -1: contained at no level
    stray, shell = support[~contained], support[contained]
    # every shell level's set and doubled-ball fits in one comparison each
    shell_level = support_level[contained]
    present = np.bincount(shell_level) > 0  # the shells, and each shell cell's row among them
    lev = levels[np.flatnonzero(present)]
    shell_row = (np.cumsum(present) - 1)[shell_level]
    double_min = _ball_minima(area, BallFamily(grid, 2.0 * balls.radii)).reshape(len(balls.radii), -1)
    region, leaders = _whitney_regions(grid, area.reshape(-1) > lev[:, None], balls, double_min > lev[:, None, None])
    # strays (possible when the area's range exceeds the level cap): one
    # piece per spatial point keeps supports disjoint and reconstruction exact
    keys = np.concatenate([region[shell_row, shell // k_count], len(leaders) + stray // k_count])
    cells, starts, keys = _groups(keys, np.concatenate([shell, stray]))
    return cells, starts, np.concatenate([leaders, np.arange(grid.size)])[keys]


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
        return TentDecomposition._empty(grid, scales, space, {p: [] for p in SIZE_EXPONENTS})
    cells, starts, centers = _pieces(F, area, balls)

    # every piece's ball in one gather, then the balls' norms and the pieces'
    # L^p sizes (from their cone functionals' interval sums), chunk by chunk
    radii = _fit_balls(grid, balls, centers, cells, starts, scales.scales)
    norms = np.array(_ball_norms(grid, centers, radii, space))
    sizes = np.array(_piece_sizes(F, cells, starts))
    volumes = ball_volume(radii, grid.dim)
    lams = np.max([size * norms / volumes ** (1.0 / p) for p, size in zip(SIZE_EXPONENTS, sizes)], axis=0)
    keep = np.flatnonzero(lams)
    kept_lams = lams[keep]
    kept_sizes = {p: (size[keep] / kept_lams).tolist()  # the L^p size is positively homogeneous
                  for p, size in zip(SIZE_EXPONENTS, sizes)}
    if not len(keep):
        return TentDecomposition._empty(grid, scales, space, kept_sizes)

    # every kept atom's values in one division and one finiteness check:
    # bitwise each piece's own F / lam
    counts = np.diff(starts, append=len(cells))
    if len(keep) < len(lams):
        cells, counts = cells[np.repeat(lams != 0, counts)], counts[keep]
    coefficients = np.repeat(kept_lams, counts)
    values = F.values.reshape(-1)[cells] / coefficients
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    values = real_or_complex(values)  # float when no kept atom has an imaginary part
    starts = np.cumsum(counts) - counts
    centers, radii = centers[keep], radii[keep]
    for kept in (cells, starts, coefficients, centers, radii):
        kept.setflags(write=False)
    return TentDecomposition(grid=grid, scales=scales, ball_norms=norms[keep].tolist(), sizes=kept_sizes,
                             space=space, cells=cells, starts=starts, values=values, coefficients=coefficients,
                             centers=centers, radii=radii)


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
    atoms' balls B, s = min(1, the space's floor exponent).

    The ball norms are the decomposition's ``ball_norms`` when ``space`` is
    the descriptor it was sized in (``is``: a descriptor holding arrays has
    no usable ``==``), else ``_ball_norms``'s.  The weights are added over
    the balls' cells in chunks of whole balls (``whole_batches``), a ball
    costing ``CELL_BYTES`` per cell."""
    if not len(decomp.starts):
        return 0.0
    grid, centers, radii = decomp.grid, decomp.centers, decomp.radii
    s = min(1.0, space.floor())
    norms = decomp.ball_norms if space is decomp.space else _ball_norms(grid, centers, radii, space)
    lams = decomp.coefficients[decomp.starts].tolist()
    weights = np.array([(lam / norm_1b) ** s for lam, norm_1b in zip(lams, norms)])
    widths = _ball_widths(grid, radii)
    acc = np.zeros(grid.size)
    for lo, hi in whole_batches(CELL_BYTES * widths.sum(axis=1)):
        # add.at adds in input order, atom by atom across the chunks: bitwise
        # the sum of weight times indicator, whose other terms are exact zeros
        owner, cells = _ball_cells(grid, centers[lo:hi], widths[lo:hi])
        np.add.at(acc, cells, weights[lo:hi][owner])
    return space_norm(SampledFunction(grid, acc.reshape(grid.shape) ** (1.0 / s)), space)
