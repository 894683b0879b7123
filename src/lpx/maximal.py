"""Maximal operators over a dyadic ball family.

Ball averages divide the cell mass of the samples whose centers fall in the
ball by the continuous ball measure (2r in 1-D, pi r^2 in 2-D).  Radii are
snapped so that the covered cell volume never exceeds the continuous measure:
in 1-D they are whole numbers of cells, in 2-D each radius is inflated until
pi r^2 dominates the lattice count.  This keeps every average of |f| below
sup|f| and makes the power inequality for ball means exact up to the
round-off of the correlation that sums the balls.

``hl_maximal`` runs on |f| divided by the power of two of its max
(``grid.scale_to_unit_rows``) and scales back, so it is positively
homogeneous over the whole float range.  Both ball operations are one path
in 1-D and 2-D.
``BallFamily.ball_sums`` correlates the values with the cached spectra of
the ball masks, every radius at once.  ``BallFamily.ball_filters`` takes the
ball max of every radius at once, in numpy alone: each first-axis row of a
torus ball is one symmetric run of cells along the last axis, and the max
over a run of w cells is two reads of one level of a doubling table (level
j: the max over 2^j consecutive cells), from a read table built once per
(grid, radii).  A ball's cells are ``GridSpec.ball_mask``'s, and
``BallFamily.build`` keeps the last ``FAMILY_CACHE_SIZE`` families it built,
so a default family is built once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .grid import GridSpec, SampledFunction, ScaleGrid, scale_to_unit_rows
from .squarefuncs import ball_spectra
from .transforms import ConvolutionPlan, build_fields, correlate

__all__ = [
    "BallFamily",
    "ball_volume",
    "hl_maximal",
    "peetre_maximal",
    "peetre_maximals",
    "hardy_norm",
    "default_peetre_exponent",
]

DEFAULT_RADII_PER_OCTAVE = {1: 32, 2: 8}
# ball families kept by ``BallFamily.build``, one per (grid, radii per octave)
FAMILY_CACHE_SIZE = 8
# bytes of the doubling-table levels of one block of stacked rows in
# ``BallFamily.ball_filters`` (at least one row)
FILTER_BLOCK_BYTES = 1 << 20
# elements, live scales x inputs x distances x cells, per envelope step of the
# smoothed sup (at least one distance); bounds its temporaries
PEETRE_CHUNK = 1 << 17
# distance tables of the smoothed sup kept per (grid, scales, b)
PEETRE_CACHE_SIZE = 8


def ball_volume(radius: float, dim: int) -> float:
    return 2.0 * radius if dim == 1 else math.pi * radius**2


def _snap_radii_1d(grid: GridSpec, per_octave: int) -> np.ndarray:
    n = grid.points_per_axis
    octaves = int(math.log2(n))
    ladder = n * 2.0 ** (-np.arange(octaves * per_octave + 1) / per_octave)
    cells = np.unique(np.maximum(1, np.round(ladder).astype(int)))
    return cells * grid.spacing


def _snap_radii_2d(grid: GridSpec, per_octave: int) -> np.ndarray:
    n = grid.points_per_axis
    spacing = grid.spacing
    j = np.arange(n)
    d = np.minimum(j, n - j)
    dx, dy = np.meshgrid(d, d, indexing="ij")
    dist2 = (dx**2 + dy**2).astype(np.int64)
    octaves = int(math.log2(n))
    ladder = (n / 2) * 2.0 ** (-np.arange(octaves * per_octave + 1) / per_octave)
    radii = []
    for eta in ladder:
        eta = max(1.0, min(eta, n / 2))
        # inflate until the continuous area dominates the lattice count, so
        # ball averages of a constant never exceed the constant
        for _ in range(64):
            count = int(np.count_nonzero(dist2 < eta**2))
            needed = math.sqrt(count / math.pi)
            if eta >= needed:
                break
            eta = needed * (1.0 + 1e-12)
        if eta <= n / 2:
            radii.append(eta * spacing)
    radii.append(2.0 * grid.half_width)  # full box: every cell, measure 4*pi*L^2
    return np.unique(np.asarray(radii))


@dataclass(frozen=True)
class BallFamily:
    """Finite family of balls: every grid point is a center, radii are dyadic.

    ``build``'s ``radii_per_octave`` refines the classical octave ladder: 1
    reproduces it, larger values give the density needed to track continuum
    suprema to a few percent.  Each operation over the balls picks its own.
    """

    grid: GridSpec
    radii: np.ndarray

    @classmethod
    @lru_cache(maxsize=FAMILY_CACHE_SIZE)
    def build(cls, grid: GridSpec, radii_per_octave: int) -> "BallFamily":
        """The family of the grid and ladder density, built once per pair."""
        if radii_per_octave < 1:
            raise ValueError("radii_per_octave must be >= 1")
        if grid.dim == 1:
            radii = _snap_radii_1d(grid, radii_per_octave)
        else:
            radii = _snap_radii_2d(grid, radii_per_octave)
        radii.setflags(write=False)
        return cls(grid=grid, radii=radii)

    def __len__(self) -> int:
        return len(self.radii)

    def ball_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of ``values`` over cells whose centers lie in B(x, r), for all x
        and every family radius r: one row per radius, ``(len(self),) + grid.shape``.

        Leading axes of ``values`` beyond ``grid.shape`` are a batch, giving
        ``lead + (len(self),) + grid.shape``, each row bitwise its unbatched
        value.  Every radius, the whole box included, in either dimension,
        comes from one correlation against the cached
        ``squarefuncs.ball_spectra``, exact up to its round-off.
        """
        grid = self.grid
        table = ball_spectra(grid, tuple(self.radii.tolist()))
        return correlate(values[(..., None) + (slice(None),) * grid.dim], table, grid.dim)

    def ball_filters(self, values: np.ndarray) -> np.ndarray:
        """Max of ``values`` over B(x, r_i) for every center x and every
        family radius r_i: one row per radius, ``(len(self),) + grid.shape``.

        ``values`` is either a stack ``(len(self),) + grid.shape``, row i taken
        over the balls of radius r_i, or one grid-shaped array that every
        radius shares.  Each first-axis row of a torus ball is one run of w
        cells along the last axis (a 1-D ball is one row), and the max over a
        run is the max of two overlapping reads of the doubling-table level
        holding the max over 2^k consecutive cells, 2^k <= w < 2^(k+1)
        (``_ball_runs``, ``_doubling_table``).  A stack is
        taken in blocks of rows whose levels, up to the widest run of the
        block, stay within ``FILTER_BLOCK_BYTES``.  A max is exact, so every
        entry equals the brute-force max over the ball's cells.
        """
        grid, n = self.grid, self.grid.points_per_axis
        shared = values.shape == grid.shape
        if not shared and values.shape != (len(self),) + grid.shape:
            raise ValueError(f"values of shape {values.shape} are neither one grid nor one row per radius")
        runs, tops = _ball_runs(grid, tuple(self.radii.tolist()))
        out = np.empty((len(self),) + grid.shape, dtype=values.dtype)
        row_bytes = 2 * values.itemsize * grid.size * (max(tops) + 1)
        step = len(self) if shared else max(1, FILTER_BLOCK_BYTES // row_bytes)
        for lo in range(0, len(self), step):
            hi = min(lo + step, len(self))
            table = _doubling_table(values[None] if shared else values[lo:hi], max(tops[lo:hi]))
            for i in range(lo, hi):
                levels = table[:, 0 if shared else i - lo]
                maxima = {}  # the running max of each width, once per radius
                for dx, k, a, b in runs[i]:
                    if dx == 0:  # the widest row, first
                        np.maximum(levels[k, ..., a:a + n], levels[k, ..., b:b + n], out=out[i])
                        continue
                    if (k, a) not in maxima:
                        maxima[k, a] = np.maximum(levels[k, ..., a:a + n], levels[k, ..., b:b + n])
                    run = maxima[k, a]
                    np.maximum(out[i, :n - dx], run[dx:], out=out[i, :n - dx])
                    np.maximum(out[i, n - dx:], run[:dx], out=out[i, n - dx:])
        return out

    def ball_filter(self, values: np.ndarray, radius: float) -> np.ndarray:
        """Max of ``values`` over B(x, r) for every center x: row 0 of the
        one-radius family's ``ball_filters``."""
        return BallFamily(self.grid, np.array([radius])).ball_filters(values)[0]


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _ball_runs(
    grid: GridSpec, radii: tuple[float, ...]
) -> tuple[tuple[tuple[tuple[int, int, int, int], ...], ...], tuple[int, ...]]:
    """The reads of ``BallFamily.ball_filters``, built once per (grid, radii).

    Per radius r, one (first-axis offset dx, level k, starts a, b) per
    first-axis row that the ball ``grid.ball_mask(r)`` meets, the row at
    dx = 0 first; a 1-D ball is the one row at dx = 0.  A row of w cells
    about x is the run [x - w//2, x - w//2 + w), the max of level
    k = floor(log2 w) read at the shifts a = -(w//2) and b = a + w - 2^k
    (mod n).  Also each radius's highest level.
    """
    n = grid.points_per_axis
    runs = []
    for widths in grid.ball_row_widths(radii).tolist():
        rows = []
        for dx, w in enumerate(widths):
            if w:
                k = w.bit_length() - 1
                a = -(w // 2) % n
                rows.append((dx, k, a, (a + w - (1 << k)) % n))
        runs.append(tuple(rows))
    return tuple(runs), tuple(max(k for _, k, _, _ in rows) for rows in runs)


def _doubling_table(values: np.ndarray, top: int) -> np.ndarray:
    """Levels 0..top of the running max along the last axis, each doubled:
    ``table[j][..., x]`` is the max of ``values[..., x:x + 2^j]`` (mod n), and
    ``table[j][..., x + n]`` equals ``table[j][..., x]``, so a read at any
    shift a in [0, n) is the slice ``a:a + n``."""
    n = values.shape[-1]
    table = np.empty((top + 1,) + values.shape[:-1] + (2 * n,), dtype=values.dtype)
    table[0, ..., :n] = values
    table[0, ..., n:] = values
    flat = table.reshape(top + 1, -1)
    for j in range(1, top + 1):
        half = 1 << (j - 1)
        # one contiguous max over every row; the last ``half`` cells of a row
        # read into the next row, so they are copied from the row's first copy
        np.maximum(flat[j - 1, :-half], flat[j - 1, half:], out=flat[j, :-half])
        table[j, ..., 2 * n - half:] = table[j, ..., n - half:n]
    return table


def hl_maximal(f: SampledFunction, balls: BallFamily | None = None) -> SampledFunction:
    """Ball-average maximal function sup over family balls containing x."""
    grid = f.grid
    balls = balls or BallFamily.build(grid, DEFAULT_RADII_PER_OCTAVE[grid.dim])
    mag = np.abs(f.values)
    e = scale_to_unit_rows(mag[None])[0]
    scale = np.array([grid.cell_volume / ball_volume(r, grid.dim) for r in balls.radii])
    avg = balls.ball_sums(mag)
    avg *= scale.reshape((-1,) + (1,) * grid.dim)
    # x sees exactly the balls whose centers lie within r of x
    out = np.maximum.reduce(balls.ball_filters(avg), axis=0)
    np.maximum(out, 0.0, out=out)  # FFT ball sums can leave -1e-17 on empty regions
    return SampledFunction(grid, np.ldexp(out, e, out=out))


def peetre_maximal(f: SampledFunction, b: float, *, plan: ConvolutionPlan) -> SampledFunction:
    """Smoothed maximal function sup_{y, t} |psi_t * f(x - y)| / (1 + |y|/t)^b.

    ``plan`` is the convolution plan of the kernel psi; the supremum runs over
    every grid offset y (torus distance, hence |y| <= L) and every scale of
    the plan's grid.  The one-input case of ``peetre_maximals``.
    """
    return SampledFunction(f.grid, peetre_maximals([f], b, plan=plan)[0])


@lru_cache(maxsize=PEETRE_CACHE_SIZE)
def _peetre_tables(grid: GridSpec, scales: ScaleGrid, b: float) -> tuple[np.ndarray, ...]:
    """The offsets of the smoothed sup, grouped by distance: read-only
    ``(shifts, rows, bounds, weights)``.

    The offsets y with |y| <= L (beyond half the box they are wrap-around
    aliases) are stably sorted by distance; ``shifts`` holds their window
    shifts -y mod N, one row per offset, ``rows`` the index of each
    offset's distinct distance, and the offsets of the j-th distance are
    ``bounds[j]:bounds[j + 1]``.  ``weights[k, j]`` is the weight
    (1 + |y|/t_k)^(-b) of the k-th scale at the j-th distance, taken from
    the (scale, offset) table at the distance's first offset, so it is
    bitwise the weight of every offset of that distance.
    """
    dist_grid = grid.offset_distances()
    keep = np.argwhere(dist_grid <= grid.half_width)
    dist = dist_grid[tuple(keep.T)]
    order = np.argsort(dist, kind="stable")
    keep, dist = keep[order], dist[order]
    first = np.flatnonzero(np.concatenate([[True], dist[1:] != dist[:-1]]))
    bounds = np.append(first, len(dist))
    rows = np.repeat(np.arange(len(first)), np.diff(bounds))
    weights = ((1.0 + dist / scales.scales[:, None]) ** (-b))[:, first]
    tables = (-keep % grid.points_per_axis, rows, bounds, weights)
    for table in tables:
        table.setflags(write=False)
    return tables


def peetre_maximals(fs: Sequence[SampledFunction], b: float, *, plan: ConvolutionPlan) -> np.ndarray:
    """``peetre_maximal`` of every input, one row per input, each bitwise the
    one-input value.

    With G_k = |psi_{t_k} * f| and w_k(d) = (1 + d/t_k)^(-b), the sup over
    scales and offsets is the sup over offsets y of the distance envelope
    H_{|y|}(x - y), H_d = max_k w_k(d) G_k.  The inputs' psi-fields are built
    as one stack (``build_fields``); the scales whose G is zero for every
    input are dropped (their products are +0.0).  The distinct distances are
    taken in chunks, as many per step as keep the step's (scale, input,
    distance, cell) products within ``PEETRE_CHUNK`` elements and at least
    one: each step takes its envelopes by one multiply and one max over the
    scales, gathers its offsets from them and folds their max into the output.
    Every product is the one of a (scale, offset) pair and a maximum is exact,
    so neither the envelopes nor the chunking change the result.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    grid = plan.grid
    shifts, rows, bounds, weights = _peetre_tables(grid, plan.scales, b)
    # (scales, inputs) + grid.shape; the fields are dropped once their
    # magnitudes are taken
    mags = np.abs(np.moveaxis(build_fields(fs, plan).values, -1, 0))
    live = mags.reshape(len(mags), -1).any(axis=1)
    out = np.zeros((len(fs),) + grid.shape)
    if not live.any():
        return out
    mags = mags[live][:, :, None]
    weights = weights[live].reshape((len(mags), 1, -1) + (1,) * grid.dim)
    n_dist = len(bounds) - 1
    step = min(n_dist, max(1, PEETRE_CHUNK // (len(mags) * len(fs) * grid.size)))
    tmp = np.empty(mags.shape[:2] + (step,) + grid.shape)
    for lo in range(0, n_dist, step):
        hi = min(lo + step, n_dist)
        products = np.multiply(weights[:, :, lo:hi], mags, out=tmp[:, :, : hi - lo])
        windows = grid.torus_window_view(np.maximum.reduce(products, axis=0))
        c = slice(bounds[lo], bounds[hi])
        gathered = windows[(slice(None), rows[c] - lo) + tuple(shifts[c].T)]
        np.maximum(out, gathered.max(axis=1), out=out)
    return out


def default_peetre_exponent(dim: int, floor_exponent: float) -> float:
    """Decay exponent b = 2 (n / floor + 1): safely above n / min(p, 1)."""
    return 2.0 * (dim / floor_exponent + 1.0)


def hardy_norm(f: SampledFunction, space, psi_plan: ConvolutionPlan, b: float | None = None) -> float:
    """Space norm of the smoothed maximal function of the companion kernel.

    ``psi_plan`` is the companion's plan, ``build_plan(pair.psi, pair.scales)``
    for a ``ReproducingPair`` pair; build it once and reuse it across inputs.
    """
    from .spaces import space_norm  # deferred: spaces uses BallFamily

    if b is None:
        b = default_peetre_exponent(f.grid.dim, space.floor())
    m = peetre_maximal(f, b, plan=psi_plan)
    return space_norm(m, space)
