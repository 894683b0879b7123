"""Maximal operators over a dyadic ball family.

Ball averages divide the cell mass of the samples whose centers fall in the
ball by the continuous ball measure (2r in 1-D, pi r^2 in 2-D).  Radii are
snapped so that the covered cell volume never exceeds the continuous measure:
in 1-D they are whole numbers of cells, in 2-D each radius is inflated until
pi r^2 dominates the cell volume of its ``GridSpec.ball_mask``.  This keeps
every average of |f| below sup|f| and makes the power inequality for ball
means exact up to the round-off of the correlation that sums the balls.

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
``BallFamily.build`` keeps the last ``grid.CACHE_SIZE`` families it built,
so a default family is built once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .grid import CACHE_SIZE, GridSpec, SampledFunction, ScaleGrid, scale_to_unit_rows
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
# bytes of the doubling-table levels of one block of stacked rows in
# ``BallFamily.ball_filters`` (at least one row)
FILTER_BLOCK_BYTES = 1 << 20
# elements, candidate products and doubled envelope cells, per distance step
# of the smoothed sup (at least one distance): a call's one step buffer holds
# at most 1 MiB, the dense envelope loop's step buffer
PEETRE_CHUNK = 1 << 17
# relative margin of the smoothed sup's far-distance test of its candidate
# scales; it covers the rounding of the weight table and of the products
PEETRE_MARGIN = 1e-12


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
    octaves = int(math.log2(n))
    ladder = (n / 2) * 2.0 ** (-np.arange(octaves * per_octave + 1) / per_octave)
    radii = []
    for eta in ladder:
        r = max(1.0, min(eta, n / 2)) * grid.spacing
        # inflate until the continuous area dominates the volume of the
        # ball's cells, so ball averages of a constant never exceed it
        for _ in range(64):
            covered = grid.cell_volume * np.count_nonzero(grid.ball_mask(r))
            if ball_volume(r, 2) >= covered:
                break
            r = math.sqrt(covered / math.pi) * (1.0 + 1e-12)
        if r <= grid.half_width:
            radii.append(r)
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
    @lru_cache(maxsize=CACHE_SIZE)
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


@lru_cache(maxsize=CACHE_SIZE)
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


@lru_cache(maxsize=CACHE_SIZE)
def _peetre_tables(grid: GridSpec, scales: ScaleGrid, b: float) -> tuple:
    """The offsets of the smoothed sup, grouped by distance: read-only
    ``(shifts, bounds, weights)``, and whether the weights are ordered.

    The offsets y with |y| <= L (beyond half the box they are wrap-around
    aliases) are stably sorted by distance; ``shifts`` holds their window
    shifts -y mod N, one row per offset, and the offsets of the j-th
    distinct distance are ``bounds[j]:bounds[j + 1]``.  ``weights[k, j]`` is
    the weight (1 + |y|/t_k)^(-b) of the k-th scale at the j-th distance,
    taken from the (scale, offset) table at the distance's first offset, so
    it is bitwise the weight of every offset of that distance.
    ``peetre_maximals`` drops scales only with an ordered table
    (``_ordered``).
    """
    dist_grid = grid.offset_distances()
    keep = np.argwhere(dist_grid <= grid.half_width)
    dist = dist_grid[tuple(keep.T)]
    order = np.argsort(dist, kind="stable")
    keep, dist = keep[order], dist[order]
    first = np.flatnonzero(np.concatenate([[True], dist[1:] != dist[:-1]]))
    weights = ((1.0 + dist / scales.scales[:, None]) ** (-b))[:, first]
    tables = (-keep % grid.points_per_axis, np.append(first, len(dist)), weights)
    for table in tables:
        table.setflags(write=False)
    return tables + (_ordered(weights),)


def _ordered(weights: np.ndarray) -> bool:
    """Whether a (scale, distance) weight table keeps the two orders of the
    exact weights that ``_candidate_scales`` relies on: every column
    non-decreasing along the scales, and, over the scales whose weight at the
    largest distance is positive, that weight normal and each row divided by
    it non-increasing along the scales within a factor 1 + ``PEETRE_MARGIN``
    / 2 (for t_k > t_j, w_k(d) / w_j(d) grows with d)."""
    far = weights[weights[:, -1] > 0]
    if not (np.all(np.diff(weights, axis=0) >= 0) and np.all(far[:, -1] >= np.finfo(float).tiny)):
        return False
    relative = far / far[:, -1:]  # at most 1 / tiny: no overflow
    return bool(np.all(relative[1:] <= (1 + PEETRE_MARGIN / 2) * np.minimum.accumulate(relative)[:-1]))


def _candidate_scales(mags: np.ndarray, far: np.ndarray) -> np.ndarray:
    """``keep[c, k]``: whether the k-th scale stays a candidate for the
    distance envelope of cell c, for magnitudes ``mags`` (cells, scales) and
    the scales' weights ``far`` at the largest distance, from an ordered
    weight table.

    With j0 a cell's scale of largest magnitude and j1 its scale of largest
    far product, a scale is dropped when it lies below j0, when it lies below
    j1 with at most j1's magnitude (the larger scale's weight is at least as
    large at every distance, and a float multiply is monotone), or when it
    lies above j0 (or j1) with a far product below ``1 - PEETRE_MARGIN``
    times j0's (or j1's) and that product is normal (the larger scale's
    weight ratio to the smaller one is largest at the largest distance, so
    the smaller scale's product is at least its own at every distance).
    Where every magnitude (far product) of a cell is zero, its last scale is
    j0 (j1).  Following the witnesses from a dropped scale ends at a kept
    one, so every cell keeps a scale and the envelope over the candidates is
    bitwise the envelope over every scale.
    """
    cells, count = mags.shape
    above = ~np.tri(count + 1, count, -1, dtype=bool)  # above[j, k]: k >= j
    products = mags * far
    at = np.arange(cells) * count
    j0 = np.argmax(mags, axis=1)
    j1 = np.argmax(products, axis=1)
    j0[mags.ravel()[at + j0] == 0] = count - 1
    j1[products.ravel()[at + j1] == 0] = count - 1
    thresholds = (1 - PEETRE_MARGIN) * products.ravel()[np.stack([at + j0, at + j1])]
    thresholds[thresholds < np.finfo(float).tiny] = 0.0
    keep = above[j0]
    keep &= above[j1] | (mags > mags.ravel()[at + j1][:, None])
    keep &= products >= thresholds[0][:, None]
    keep &= ~above[j1 + 1] | (products >= thresholds[1][:, None])
    return keep


def peetre_maximals(fs: Sequence[SampledFunction], b: float, *, plan: ConvolutionPlan) -> np.ndarray:
    """``peetre_maximal`` of every input, one row per input, each bitwise the
    one-input value.

    With G_k = |psi_{t_k} * f| and w_k(d) = (1 + d/t_k)^(-b), the sup over
    scales and offsets is the sup over offsets y of the distance envelope
    H_{|y|}(x - y), H_d = max_k w_k(d) G_k.  The inputs' psi-fields are built
    as one stack (``build_fields``).  Each cell's envelope takes products only
    of its candidate scales (``_candidate_scales``; every scale when the
    weight table is not ordered), a few of the 55-64 live ones.  The cells
    are sorted by their candidate count, so the r-th candidates of every
    cell that has one are one contiguous block.  The distinct distances run
    in steps, as many per step as keep its candidate products and its
    envelopes, doubled along every grid axis, within ``PEETRE_CHUNK``
    elements and at least one; one buffer per call holds them.  A step takes
    its products by one gather and one multiply and its envelopes by one max
    per candidate rank, reads the envelopes back into grid order doubled by
    one more gather, and folds each offset's window, one slice of the
    doubled envelopes, into the output.  Every product is the one of a
    (scale, offset) pair and a maximum is exact, so neither the candidates
    nor the steps change the result.
    """
    if not b > 0:
        raise ValueError("b must be positive")
    grid = plan.grid
    shifts, bounds, weights, ordered = _peetre_tables(grid, plan.scales, b)
    # (input cells, scales); the fields are dropped once their magnitudes are taken
    mags = np.abs(build_fields(fs, plan).values).reshape(-1, len(weights))
    keep = _candidate_scales(mags, weights[:, -1]) if ordered else np.ones(mags.shape, dtype=bool)
    flat = np.flatnonzero(keep)  # the candidates cell by cell, each cell's by scale
    cell = flat // len(weights)
    counts = np.bincount(cell, minlength=len(mags))
    del keep
    # the cells by decreasing candidate count, and the candidates by rank within
    # their cell: the rank-r candidates of the first levels[r] sorted cells form
    # the r-th block
    order = np.argsort(-counts, kind="stable")
    position = np.empty_like(order)  # each cell's place among the sorted cells
    position[order] = np.arange(len(order))
    rank = np.arange(len(flat)) - (np.cumsum(counts) - counts)[cell]
    levels = np.bincount(rank)
    ends = np.cumsum(levels)
    slot = position[cell] + (ends - levels)[rank]
    scale = np.empty_like(flat)
    scale[slot] = flat - cell * len(weights)
    values = np.empty(len(flat))
    values[slot] = mags.ravel()[flat]
    del mags, flat, cell, rank, slot  # the per-cell arrays go before the steps
    # the cells of every input's grid doubled along every grid axis, as sorted
    n = grid.points_per_axis
    doubled_at = np.tile(position.reshape((len(fs),) + grid.shape), (1,) + (2,) * grid.dim).ravel()
    columns = np.ascontiguousarray(weights.T)  # (distances, scales)
    n_dist = len(bounds) - 1
    per_distance = len(scale) + len(doubled_at)
    step = min(n_dist, max(1, PEETRE_CHUNK // per_distance))
    buffer = np.empty(step * per_distance)  # a step's products, then its doubled envelopes
    products = buffer[: step * len(scale)].reshape(step, len(scale))
    doubled = buffer[step * len(scale):].reshape(step, len(doubled_at))
    out = np.zeros((len(fs),) + grid.shape)
    ends = ends.tolist()
    cuts = [slice(s, s + n) for s in range(n)]
    for lo in range(0, n_dist, step):
        hi = min(lo + step, n_dist)
        # every index is in range; "clip" lets np.take write straight into out
        p = np.take(columns[lo:hi], scale, axis=1, out=products[: hi - lo], mode="clip")
        p *= values
        for start, end in zip(ends, ends[1:]):
            np.maximum(p[:, : end - start], p[:, start:end], out=p[:, : end - start])
        d = np.take(p, doubled_at, axis=1, out=doubled[: hi - lo], mode="clip")
        d = d.reshape((hi - lo, len(fs)) + (2 * n,) * grid.dim)
        for j in range(lo, hi):
            for shift in shifts[bounds[j]:bounds[j + 1]].tolist():
                np.maximum(out, d[(j - lo, slice(None)) + tuple(map(cuts.__getitem__, shift))], out=out)
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
