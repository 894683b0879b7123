"""Maximal operators over a dyadic ball family.

``BallFamily`` is the snapped dyadic ball family of a grid
(``BallFamily.build``): its ``ball_sums`` give the ball sums and its
``ball_filters`` the ball maxima of every radius at once.  ``hl_maximal`` is
the ball-average maximal function, whose radii are snapped so that an
average of |f| never exceeds sup |f| (``_snap_radii_1d``,
``_snap_radii_2d``).  ``peetre_maximals`` is the smoothed maximal sup of a
prebuilt psi-field stack, exact over every scale and offset;
``peetre_maximal`` and ``hardy_norm`` are its one-input forms.  Read
``peetre_maximals`` and ``_candidate_scales`` for the sup's mechanism and
exactness argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import grid as grid_module
from .grid import (CACHE_SIZE, FieldStack, GridSpec, HalfSpaceField, SampledFunction, ScaleGrid, batch_items,
                   scale_to_unit_rows)
from .squarefuncs import ball_spectra
from .transforms import ConvolutionPlan, build_field, correlate

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
        family radius r_i: one row per radius, ``(len(self),) + lead + grid.shape``.

        ``values`` is either a stack ``(len(self),) + lead + grid.shape``, row
        i taken over the balls of radius r_i (``lead``, a batch), or exactly
        one grid-shaped array that every radius shares.  Each first-axis row
        of a torus ball is one run of w cells along the last axis (a 1-D ball
        is one row), and the max over a run is the max of two overlapping
        reads of the doubling-table level holding the max over 2^k
        consecutive cells, 2^k <= w < 2^(k+1) (``_ball_runs``,
        ``_doubling_table``); the rows of one read share its running max, one
        ``lead + grid.shape`` array per call.  A stack is taken in blocks of
        rows (``grid.batch_items``), a row costing its doubled levels up to
        the family's widest run.  A max is exact, so every entry equals the
        brute-force max over the ball's cells.
        """
        grid, n = self.grid, self.grid.points_per_axis
        shared = values.shape == grid.shape
        lead = () if shared else values.shape[1:values.ndim - grid.dim]
        if not shared and values.shape != (len(self),) + lead + grid.shape:
            raise ValueError(f"values of shape {values.shape} are neither one grid nor one row per radius")
        runs, tops = _ball_runs(grid, tuple(self.radii.tolist()))
        out = np.empty((len(self),) + lead + grid.shape, dtype=values.dtype)
        run = np.empty(lead + grid.shape, dtype=values.dtype)  # the running max of one read
        row_bytes = 2 * values.itemsize * math.prod(lead) * grid.size * (max(tops) + 1)
        step = len(self) if shared else batch_items(row_bytes)
        for lo in range(0, len(self), step):
            hi = min(lo + step, len(self))
            table = _doubling_table(values[None] if shared else values[lo:hi], max(tops[lo:hi]))
            for i in range(lo, hi):
                levels = table[:, 0 if shared else i - lo]
                read = None  # the read that ``run`` holds
                for dx, k, a, b in runs[i]:
                    if dx == 0:  # the widest row, first
                        np.maximum(levels[k, ..., a:a + n], levels[k, ..., b:b + n], out=out[i])
                        continue
                    if (k, a, b) != read:  # the rows of one read are consecutive
                        read = k, a, b
                        np.maximum(levels[k, ..., a:a + n], levels[k, ..., b:b + n], out=run)
                    np.maximum(out[i, ..., :n - dx, :], run[..., dx:, :], out=out[i, ..., :n - dx, :])
                    np.maximum(out[i, ..., n - dx:, :], run[..., :dx, :], out=out[i, ..., n - dx:, :])
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
    dx = 0 first, then by read (k, a, b); a 1-D ball is the one row at
    dx = 0.  A row of w cells about x is the run [x - w//2, x - w//2 + w),
    the max of level k = floor(log2 w) read at the shifts a = -(w//2) and
    b = a + w - 2^k (mod n).  Also each radius's highest level.
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
        runs.append((rows[0], *sorted(rows[1:], key=lambda row: row[1:])))
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
    """Ball-average maximal function sup over family balls containing x.

    A ball average divides the cell mass of the samples whose centers fall
    in the ball by the continuous measure (2r in 1-D, pi r^2 in 2-D), and
    the family's radii are snapped so that this measure is at least the
    ball's cell volume, so every average of |f| stays below sup |f|.  It
    runs on |f| divided by the power of two of its max
    (``grid.scale_to_unit_rows``) and scales back, so it is positively
    homogeneous over the whole float range.
    """
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
    the plan's grid.  The one-input case of ``peetre_maximals``, on the
    field ``build_field(f, plan)``.
    """
    return SampledFunction(f.grid, peetre_maximals(build_field(f, plan), b)[0])


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


def _candidate_chunk(count: int, cells: int) -> tuple[int, int]:
    """The cells of one chunk of ``_candidate_scales`` on ``count`` scales,
    within ``grid.WORK_BYTES``, a cell costing two rows of its scales (its
    magnitudes and their running max), and the elements of the workspace
    that its tests take: those two rows and a block of scaled far products
    of at most an eighth of the budget."""
    chunk = min(batch_items(16 * count), cells)
    return chunk, (2 * count + min(batch_items(64 * chunk), count)) * chunk


def _candidate_scales(
    stack: np.ndarray, far: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate scales of every cell of the field values ``stack``
    (cells..., scales), from an ordered weight table whose weights at the
    largest distance are ``far``: the candidates' cells and scales, cell by
    cell and each cell's by scale, and their magnitudes.  The tests' arrays
    lie in ``work``, of at least the elements ``_candidate_chunk`` gives.

    A scale k is kept unless one other scale j dominates it:

    - *magnitude*: j is larger and has at least k's magnitude.  A larger
      scale's weight is at least as large at every distance and a float
      multiply is monotone, so no margin is needed.  k is kept only above the
      running max of the larger scales' magnitudes.
    - *far product*: j is smaller and its far product exceeds 1 +
      ``PEETRE_MARGIN`` times k's, raised to the smallest normal number.
      For t_k > t_j the weight ratio w_k(d) / w_j(d) is largest at the
      largest distance, so j's product is the larger one at every distance.
      The margin covers the rounding of the table and of the products; a
      subnormal product rounds too coarsely for it, and raised, the product
      and its margin are normal.  k is kept only when its raised product
      times the margin reaches the running max of the far products from the
      smallest scale (k's own included, which never exceeds it).

    A dominator's far product is at least the dropped scale's, and above it
    where the dominator is the smaller scale, so no chain of dominators
    returns to its start: every dropped scale has a kept dominator, every
    cell keeps a scale, and the envelope over the candidates is bitwise the
    envelope over every scale.  The tests run per chunk of cells
    (``_candidate_chunk``), and on the scales from the lowest of the
    chunk's cells' first largest magnitudes on: a scale below a cell's is
    dropped by magnitude, and as a witness of the far test it gives way to
    the larger scale that dominates it, which is kept by magnitude.
    """
    count = stack.shape[-1]
    cells = stack.reshape(-1, count)
    chunk, _ = _candidate_chunk(count, len(cells))
    found = []
    for start in range(0, len(cells), chunk):
        size = min(chunk, len(cells) - start)
        # the chunk's magnitudes by cell, then by scale from low, whose
        # running max takes over the first rows once they are read
        first, second, rest = np.split(work, [count * size, 2 * count * size])
        by_cell = first.reshape(size, count)
        np.abs(cells[start:start + size], out=by_cell)
        low = int(np.argmax(by_cell, axis=1).min())
        mags = second[: (count - low) * size].reshape(count - low, size)
        np.copyto(mags, by_cell[:, low:].T)
        run = first[: mags.size].reshape(mags.shape)
        run[-1] = mags[-1]
        for k in range(len(mags) - 2, -1, -1):
            np.maximum(mags[k], run[k + 1], out=run[k])
        keep = np.empty(mags.shape, dtype=bool)
        keep[-1] = True
        np.greater(mags[:-1], run[1:], out=keep[:-1])
        # run turns into the running max of the far products from the
        # smallest scale, a block of rows at a time, each block's raised
        # products times 1 + margin taken first
        np.multiply(mags, far[low:, None], out=run)
        rows = min(batch_items(64 * chunk), len(mags))
        for lo in range(0, len(mags), rows):
            hi = min(lo + rows, len(mags))
            block = np.maximum(run[lo:hi], np.finfo(float).tiny, out=rest[: (hi - lo) * size].reshape(hi - lo, size))
            block *= 1 + PEETRE_MARGIN
            for k in range(max(lo, 1), hi):
                np.maximum(run[k - 1], run[k], out=run[k])
            keep[lo:hi] &= block >= run[lo:hi]
        cell, scale = np.divmod(np.flatnonzero(keep.T), len(mags))
        found.append((cell + start, scale + low, mags[scale, cell]))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _distances_per_step(distances: int, per_distance: int) -> int:
    """The distances of one step of ``peetre_maximals``, each costing
    ``per_distance`` 8-byte elements: its candidate products and its
    doubled envelopes."""
    return min(distances, batch_items(8 * per_distance))


def peetre_maximals(F: HalfSpaceField | FieldStack, b: float) -> np.ndarray:
    """The smoothed maximal function of each prebuilt psi-field of F (one, or
    each of a ``FieldStack``), one row per field, each bitwise its one-field
    value: on ``transforms.build_fields(fs, plan)``, row i is
    ``peetre_maximal(fs[i], b, plan=plan)``.

    With G_k = |F(., t_k)| and w_k(d) = (1 + d/t_k)^(-b), the sup over
    scales and offsets is the sup over offsets y of the distance envelope
    H_{|y|}(x - y), H_d = max_k w_k(d) G_k; grid and scales are F's.  Each
    cell's envelope takes products only of its candidate scales
    (``_candidate_scales``; every scale when the weight table is not
    ordered).  The cells are sorted by their candidate count, so the r-th
    candidates of every cell that has one are one contiguous block.  The
    distinct distances run in steps (``grid.batch_items``), a distance
    costing the 8-byte elements of its candidate products and its
    envelopes, doubled along every grid axis.  One workspace per call, of
    the budget or more, holds first the candidate tests' arrays and then a
    step.  A step takes its products by one gather and one multiply and its
    envelopes by one max per candidate rank, and reads the envelopes back
    into grid order doubled by one more gather.  In 2-D it folds each
    offset's window, one slice of the doubled envelopes, into the output.
    In 1-D the offsets at distance j are the shifts j and -j, so the step's
    windows are two diagonals of the doubled envelopes, each folded by one
    max over the step's distances.  Every product is the one of a
    (scale, offset) pair and a maximum is exact, so neither the candidates
    nor the steps change the result.
    """
    if not b > 0:
        raise ValueError("b must be positive")
    grid, stack = F.grid, F.stack
    shifts, bounds, weights, ordered = _peetre_tables(grid, F.scales, b)
    count = len(weights)
    # one workspace per call, of the budget or more: first the candidate
    # tests' arrays, then a step's products and doubled envelopes.  glibc
    # maps a block of at least its threshold afresh, raises the threshold to
    # each mapped block it frees and returns a freed heap top past twice the
    # threshold, so a call whose transient blocks grew and shrank with the
    # candidates had its heap returned and faulted in again at each call
    work = np.empty(max(_candidate_chunk(count, stack.size // count)[1], grid_module.WORK_BYTES // 8))
    if ordered:
        cell, scale, mags = _candidate_scales(stack, weights[:, -1], work)
    else:
        (cell, scale), mags = np.divmod(np.arange(stack.size), count), np.abs(stack).ravel()
    counts = np.bincount(cell, minlength=stack.size // count)
    # the cells by decreasing candidate count, and the candidates by rank within
    # their cell: the rank-r candidates of the first levels[r] sorted cells form
    # the r-th block
    order = np.argsort(-counts, kind="stable")
    position = np.empty_like(order)  # each cell's place among the sorted cells
    position[order] = np.arange(len(order))
    rank = np.arange(len(cell)) - (np.cumsum(counts) - counts)[cell]
    levels = np.bincount(rank)
    ends = np.cumsum(levels)
    slot = position[cell] + (ends - levels)[rank]
    scale[slot] = scale.copy()  # the candidates' scales and magnitudes in slot order
    values = np.empty(len(cell))
    values[slot] = mags
    del mags, cell, rank, slot  # the per-cell arrays go before the steps
    # the cells of every input's grid doubled along every grid axis, as sorted
    n = grid.points_per_axis
    doubled_at = np.tile(position.reshape((len(stack),) + grid.shape), (1,) + (2,) * grid.dim).ravel()
    columns = np.ascontiguousarray(weights.T)  # (distances, scales)
    n_dist = len(bounds) - 1
    per_distance = len(scale) + len(doubled_at)
    step = _distances_per_step(n_dist, per_distance)
    # a step past the workspace is one distance past the budget
    buffer = work if step * per_distance <= len(work) else np.empty(step * per_distance)
    products = buffer[: step * len(scale)].reshape(step, len(scale))
    doubled = buffer[step * len(scale): step * per_distance].reshape(step, len(doubled_at))
    out = np.zeros((len(stack),) + grid.shape)
    ends = ends.tolist()
    cuts = [slice(s, s + n) for s in range(n)]
    fold = np.empty_like(out)  # a 1-D step's fold of one diagonal
    for lo in range(0, n_dist, step):
        hi = min(lo + step, n_dist)
        # every index is in range; "clip" lets np.take write straight into out
        p = np.take(columns[lo:hi], scale, axis=1, out=products[: hi - lo], mode="clip")
        p *= values
        for start, end in zip(ends, ends[1:]):
            np.maximum(p[:, : end - start], p[:, start:end], out=p[:, : end - start])
        d = np.take(p, doubled_at, axis=1, out=doubled[: hi - lo], mode="clip")
        d = d.reshape((hi - lo, len(stack)) + (2 * n,) * grid.dim)
        if grid.dim == 1:
            # distance lo + j has the shifts lo + j and n - lo - j, whose
            # windows d[j, :, lo + j:][..., :n] and d[j, :, n - lo - j:][..., :n]
            # lie on two diagonals of d, within its 2n cells
            rows, inputs, cells = d.strides
            for start, along in ((lo, rows + cells), (n - lo, rows - cells)):
                diagonal = as_strided(d[:, :, start:], (hi - lo, len(stack), n), (along, inputs, cells))
                np.maximum(out, np.maximum.reduce(diagonal, axis=0, out=fold), out=out)
            continue
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
