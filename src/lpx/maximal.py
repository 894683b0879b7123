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
the ball masks, every radius at once.  ``BallFamily.ball_filter`` takes the
ball max: each first-axis row of a torus ball is one symmetric run of cells,
so it takes a running max per row width and reads it at each row's offset.
A ball's cells are ``GridSpec.ball_mask``'s, and ``BallFamily.build`` keeps
the last ``FAMILY_CACHE_SIZE`` families it built, so a default family is
built once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from scipy import ndimage

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

    @cached_property
    def _row_runs(self) -> dict[float, list[tuple[int, int]]]:
        """Per family radius r, the (first-axis offset, cell count) of every
        first-axis row the ball ``grid.ball_mask(r)`` meets; a 1-D ball is the
        one row at offset 0.  Built once per family."""
        n = self.grid.points_per_axis
        widths = {r: np.count_nonzero(self.grid.ball_mask(r).reshape(-1, n), axis=1) for r in self.radii.tolist()}
        return {r: [(dx, w) for dx, w in enumerate(row.tolist()) if w] for r, row in widths.items()}

    def ball_filter(self, values: np.ndarray, radius: float) -> np.ndarray:
        """Max of ``values`` over B(x, r) for every center x, r one of the
        family's radii.

        Each first-axis row of a torus ball is one symmetric run of cells (a
        1-D ball is one row), so the max is, over the ball's rows, the running
        max of the row's width along the last axis, read at the row's offset:
        one ``maximum_filter1d`` per distinct width (``_row_runs``).
        """
        n = self.grid.points_per_axis
        runs = {}
        out = None
        for dx, width in self._row_runs[radius]:
            if width not in runs:
                runs[width] = ndimage.maximum_filter1d(values, size=width, axis=-1, mode="wrap")
            if out is None:  # the row at offset 0 comes first
                out = runs[width].copy()
            else:
                np.maximum(out[:n - dx], runs[width][dx:], out=out[:n - dx])
                np.maximum(out[n - dx:], runs[width][:dx], out=out[n - dx:])
        return out


def hl_maximal(f: SampledFunction, balls: BallFamily | None = None) -> SampledFunction:
    """Ball-average maximal function sup over family balls containing x."""
    balls = balls or BallFamily.build(f.grid, DEFAULT_RADII_PER_OCTAVE[f.grid.dim])
    mag = np.abs(f.values)
    e = scale_to_unit_rows(mag[None])[0]
    cellvol = f.grid.cell_volume
    out = np.zeros(f.grid.shape)
    for r, sums in zip(balls.radii, balls.ball_sums(mag)):
        avg = sums * (cellvol / ball_volume(r, f.grid.dim))
        # x sees exactly the balls whose centers lie within r of x
        np.maximum(out, balls.ball_filter(avg, r), out=out)
    np.maximum(out, 0.0, out=out)  # FFT ball sums can leave -1e-17 on empty regions
    return SampledFunction(f.grid, np.ldexp(out, e, out=out))


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
