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
homogeneous over the whole float range; ``powered_maximal`` takes its power
of |f| so scaled, and ``fs_vector_check`` scales its whole family by one
power of two.  Both ball operations are one path in 1-D and 2-D.
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

from .errors import ZeroDenominator
from .grid import GridSpec, SampledFunction, scale_to_unit_rows
from .squarefuncs import ball_spectra
from .transforms import ConvolutionPlan, build_fields, correlate

__all__ = [
    "BallFamily",
    "ball_volume",
    "hl_maximal",
    "powered_maximal",
    "peetre_maximal",
    "peetre_maximals",
    "hardy_norm",
    "default_peetre_exponent",
    "fs_vector_check",
]

DEFAULT_RADII_PER_OCTAVE = {1: 32, 2: 8}
# ball families kept by ``BallFamily.build``, one per (grid, radii per octave)
FAMILY_CACHE_SIZE = 8
# elements, (scale, offset) pairs x inputs x cells, per vectorized step of the
# smoothed sup; bounds its temporaries
PEETRE_CHUNK = 1 << 15


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

    ``radii_per_octave`` refines the classical octave ladder; the default of 1
    reproduces it, larger values give the density needed to track continuum
    suprema to a few percent.
    """

    grid: GridSpec
    radii: np.ndarray
    radii_per_octave: int

    @classmethod
    @lru_cache(maxsize=FAMILY_CACHE_SIZE)
    def build(cls, grid: GridSpec, radii_per_octave: int = 1) -> "BallFamily":
        """The family of the grid and ladder density, built once per pair."""
        if radii_per_octave < 1:
            raise ValueError("radii_per_octave must be >= 1")
        if grid.dim == 1:
            radii = _snap_radii_1d(grid, radii_per_octave)
        else:
            radii = _snap_radii_2d(grid, radii_per_octave)
        radii.setflags(write=False)
        return cls(grid=grid, radii=radii, radii_per_octave=radii_per_octave)

    def __len__(self) -> int:
        return len(self.radii)

    def ball_sums(self, values: np.ndarray, radii) -> np.ndarray:
        """Sum of ``values`` over cells whose centers lie in B(x, r), for all x
        and every r in ``radii``: one row per radius, ``(len(radii),) + grid.shape``.

        Leading axes of ``values`` beyond ``grid.shape`` are a batch, giving
        ``lead + (len(radii),) + grid.shape``, each row bitwise its unbatched
        value.  Every radius, the whole box included, in either dimension,
        comes from one correlation against the cached
        ``squarefuncs.ball_spectra``, exact up to its round-off.
        """
        grid = self.grid
        if not len(radii):
            return np.empty(values.shape[:values.ndim - grid.dim] + (0,) + grid.shape)
        table = ball_spectra(grid, tuple(float(r) for r in radii))
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
    for r, sums in zip(balls.radii, balls.ball_sums(mag, balls.radii)):
        avg = sums * (cellvol / ball_volume(r, f.grid.dim))
        # x sees exactly the balls whose centers lie within r of x
        np.maximum(out, balls.ball_filter(avg, r), out=out)
    np.maximum(out, 0.0, out=out)  # FFT ball sums can leave -1e-17 on empty regions
    return SampledFunction(f.grid, np.ldexp(out, e, out=out))


def powered_maximal(f: SampledFunction, theta: float, balls: BallFamily | None = None) -> SampledFunction:
    """Composition {M(|f|^theta)}^(1/theta) of |f| scaled to unit max, scaled back."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    mag = np.abs(f.values)
    e = scale_to_unit_rows(mag[None])[0]
    m = hl_maximal(SampledFunction(f.grid, mag**theta), balls)
    return SampledFunction(f.grid, np.ldexp(m.values ** (1.0 / theta), e))


def peetre_maximal(f: SampledFunction, b: float, *, plan: ConvolutionPlan) -> SampledFunction:
    """Smoothed maximal function sup_{y, t} |psi_t * f(x - y)| / (1 + |y|/t)^b.

    ``plan`` is the convolution plan of the kernel psi; the supremum runs over
    every grid offset y (torus distance, hence |y| <= L) and every scale of
    the plan's grid.  The one-input case of ``peetre_maximals``.
    """
    return SampledFunction(f.grid, peetre_maximals([f], b, plan=plan)[0])


def peetre_maximals(fs: Sequence[SampledFunction], b: float, *, plan: ConvolutionPlan) -> np.ndarray:
    """``peetre_maximal`` of every input, one row per input, each bitwise the
    one-input value.

    The inputs' psi-fields are built as one stack (``build_fields``) and the
    (scale, offset) pairs are visited in scale-major order for every input at
    once, as many pairs per vectorized step as keep the step within
    ``PEETRE_CHUNK`` elements; a step may span two scales.  A maximum is
    exact, so the chunking does not change the result.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    grid = plan.grid
    n = grid.points_per_axis
    ts = plan.scales.scales
    dist_grid = grid.offset_distances()
    # offsets beyond half the box are wrap-around aliases; skip them
    keep = np.argwhere(dist_grid <= grid.half_width)
    dist = dist_grid[tuple(keep.T)]
    # one weight and one window index per (scale, offset) pair, scale-major;
    # |psi_t * f_i|(x - y) is windows[i][k][-y mod N][x] for the k-th scale t
    weights = ((1.0 + dist / ts[:, None]) ** (-b)).reshape((-1,) + (1,) * grid.dim)
    index = np.column_stack([np.repeat(np.arange(len(ts)), len(keep)), np.tile(-keep % n, (len(ts), 1))]).T
    # the fields are dropped once their magnitudes are taken
    windows = grid.torus_window_view(np.abs(np.moveaxis(build_fields(fs, plan).values, -1, 1)))
    step = max(1, PEETRE_CHUNK // (len(fs) * grid.size))
    out = np.zeros((len(fs),) + grid.shape)
    for start in range(0, len(weights), step):
        c = slice(start, start + step)
        rows = windows[(slice(None),) + tuple(index[:, c])]
        rows *= weights[c]
        np.maximum(out, rows.max(axis=1), out=out)
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


def fs_vector_check(
    fs: list[SampledFunction],
    theta: float,
    s: float,
    space,
    balls: BallFamily | None = None,
) -> float:
    """Ratio of the l^s-aggregated powered maximal family to the plain family.

    Finiteness of this ratio across families is the vector-valued boundedness
    the whole theory rests on; the harness records it empirically.  The ratio
    is of degree 0, so it is taken of the family divided by the power of two
    of its max (``grid.scale_to_unit_rows`` on the family as one row).
    """
    from .spaces import space_norm

    if not fs:
        raise ValueError("need at least one function")
    if s <= 0:
        raise ValueError("s must be positive")
    grid = fs[0].grid
    mags = np.abs(np.stack([f.values for f in fs]))
    scale_to_unit_rows(mags[None])
    num = np.zeros(grid.shape)
    den = np.zeros(grid.shape)
    for mag in mags:
        m = powered_maximal(SampledFunction(grid, mag), theta, balls)
        num += m.values ** s
        den += mag**s
    num_f = SampledFunction(grid, num ** (1.0 / s))
    den_f = SampledFunction(grid, den ** (1.0 / s))
    denom = space_norm(den_f, space)
    if denom == 0.0:
        raise ZeroDenominator("all inputs vanish")
    return space_norm(num_f, space) / denom
