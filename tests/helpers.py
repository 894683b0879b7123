"""Test-side constructors and oracles that the library itself does not use:
sampling a callable, a box indicator or a band-limited trial, the half-space
quadrature, the tent region of a ball, the cone-functional size of one field,
and the atom that stores a dense field on its nonzero cells."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from lpx.atoms import Ball, TentAtom
from lpx.grid import GridSpec, HalfSpaceField, SampledFunction, ScaleGrid
from lpx.spaces import Lebesgue, space_norm
from lpx.squarefuncs import tent_functional


def from_callable(grid: GridSpec, fn: Callable[..., np.ndarray]) -> SampledFunction:
    """Sample fn(x) (1-D) or fn(x, y) (2-D) at the cell centers."""
    return SampledFunction(grid, fn(*grid.coordinate_mesh()))


def indicator_box(grid: GridSpec, lo: Sequence[float], hi: Sequence[float]) -> SampledFunction:
    mesh = grid.coordinate_mesh()
    inside = np.ones(grid.shape, dtype=bool)
    for c, a, b in zip(mesh, lo, hi):
        inside &= (c >= a) & (c <= b)
    return SampledFunction(grid, inside)


def band_limited_trial(seed: int, grid: GridSpec, lo: float = 1.5, hi: float = 6.0) -> SampledFunction:
    """Complex function whose spectrum is random on the band lo <= |xi| <= hi and zero elsewhere."""
    rng = np.random.default_rng(seed)
    radii = grid.frequency_radii()
    band = (radii >= lo) & (radii <= hi)
    spectrum = np.zeros(grid.shape, dtype=complex)
    spectrum[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
    return SampledFunction(grid, np.fft.ifftn(spectrum))


def halfspace_integrate(
    F: HalfSpaceField,
    region_mask: Callable[[np.ndarray, float], np.ndarray] | np.ndarray | None = None,
    squared: bool = True,
) -> float:
    """Quadrature for the measure dy dt / t^(n+1) over a masked region.

    The integrand is |F|^2 by default (``squared=False`` integrates |F|).
    ``region_mask`` is either a boolean array shaped like ``F.values`` or a
    callable mask(distance_unused, t_k) evaluated per scale on the spatial
    coordinate mesh; ``None`` selects every cell.
    """
    grid, scales = F.grid, F.scales
    ts = scales.scales
    mag = np.abs(F.values)
    integrand = mag**2 if squared else mag
    per_scale_weight = grid.cell_volume * scales.log_weight / ts**grid.dim
    if region_mask is None:
        sums = integrand.reshape(-1, len(ts)).sum(axis=0)
    elif isinstance(region_mask, np.ndarray):
        sums = np.where(region_mask, integrand, 0.0).reshape(-1, len(ts)).sum(axis=0)
    else:
        mesh = grid.coordinate_mesh()
        sums = np.empty(len(ts))
        for k, t in enumerate(ts):
            m = region_mask(mesh, t)
            sums[k] = integrand[..., k][m].sum()
    return float(np.sum(sums * per_scale_weight))


def tent_mask(grid: GridSpec, scales: ScaleGrid, ball: Ball) -> np.ndarray:
    """Boolean mask of the tent region {(y, t): t < r, |y - c| < r - t}."""
    dist = np.roll(grid.offset_distances(), shift=ball.center, axis=tuple(range(grid.dim)))
    gap = ball.radius - scales.scales  # allowed distance per scale
    return dist[..., None] < gap.reshape((1,) * grid.dim + (-1,))


def tent_atom_size(field: HalfSpaceField, p: float) -> float:
    """L^p norm of the unit-aperture cone functional of the field."""
    return space_norm(tent_functional(field, 1.0), Lebesgue(p))


def atom_from_field(field: HalfSpaceField, ball: Ball, coefficient: float) -> TentAtom:
    """The atom equal to ``field``, stored on its nonzero cells."""
    flat = field.values.reshape(-1)
    cells = np.flatnonzero(flat)
    return TentAtom(field.grid, field.scales, cells, flat[cells], ball, coefficient)
