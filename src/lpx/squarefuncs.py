"""Cone functionals and the three multiscale square functions.

Every square function takes a prebuilt half-space field F(y, t_k) =
phi_{t_k} * f(y) (see ``transforms.build_field``), so one field per input
serves all three.  All quadratures share the half-space measure
dy dt / t^(n+1) realized as cell_volume * ln2/J * t_k^(-n) per cell, with the
torus distance deciding cone membership.  Per scale, the sums over y are
circular correlations of |F|^2 with a kernel that depends only on the grid,
the scale and the aperture or lambda; the spectra of those kernels are cached
(``ball_spectra``, ``cone_spectra``, ``gstar_spectra``) and all scales run as
one batched ``transforms.correlate``.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import LambdaTooSmall
from .grid import GridSpec, HalfSpaceField, SampledFunction, ScaleGrid
from .transforms import correlate, spectrum

__all__ = ["tent_functional", "tent_functionals", "lusin_area", "g_function", "g_lambda_star", "ball_spectra",
           "cone_spectra", "gstar_spectra"]

# kernel spectra kept per (grid, radii) or (grid, scales, aperture or lambda);
# a 2-D N=64 table over 64 scales is 2.2 MB
SPECTRA_CACHE_SIZE = 8
# (piece, scale) rows per batched correlation of ``_scale_sum``; bounds its
# temporaries (a 2-D N=64 chunk of rows is 8 MB)
SCALE_SUM_CHUNK = 256


@functools.lru_cache(maxsize=SPECTRA_CACHE_SIZE)
def ball_spectra(grid: GridSpec, radii: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of the ball masks ``dist < r``, one row per radius, and whether
    each mask holds any cell.  Both arrays are read-only."""
    dist = grid.offset_distances()
    masks = np.stack([(dist < r).astype(float) for r in radii])
    table = spectrum(masks, grid.dim)
    live = masks.reshape(len(masks), -1).any(axis=1)
    table.setflags(write=False)
    live.setflags(write=False)
    return table, live


@functools.lru_cache(maxsize=SPECTRA_CACHE_SIZE)
def cone_spectra(grid: GridSpec, scales: ScaleGrid, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """``ball_spectra`` of the cone masks ``dist < alpha * t_k``, one row per scale."""
    return ball_spectra(grid, tuple(alpha * t for t in scales.scales))


@functools.lru_cache(maxsize=SPECTRA_CACHE_SIZE)
def gstar_spectra(grid: GridSpec, scales: ScaleGrid, lam: float) -> np.ndarray:
    """Read-only spectra of the weights ``(t_k / (t_k + dist))^(lambda n)``, one row per scale."""
    dist = grid.offset_distances()
    table = spectrum(np.stack([(t / (t + dist)) ** (lam * grid.dim) for t in scales.scales]), grid.dim)
    table.setflags(write=False)
    return table


def _scale_sum(F: HalfSpaceField, table: np.ndarray, live: np.ndarray | bool, weights,
               masks: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """sqrt(sum_k weights[k] * (|P(., t_k)|^2 correlated with kernel k)) for each piece P.

    Piece i is ``where(masks[i], F, 0)``; ``masks=None`` makes F itself the one
    piece.  A (piece, scale) row whose kernel is empty or whose slice is zero
    adds exactly zero and is skipped.  The rest are correlated
    ``SCALE_SUM_CHUNK`` rows at a time and summed per piece in scale order, so
    each piece's sum is bitwise what a call on that piece alone gives.
    Returns one row per piece, shaped ``(pieces,) + grid.shape``.
    """
    grid = F.grid
    weights = np.asarray(weights)
    power = np.moveaxis(np.abs(F.values) ** 2, -1, 0)
    nonzero = power != 0
    flat_live = np.asarray(live) & nonzero.reshape(len(power), -1).any(axis=1)
    acc = np.zeros((1 if masks is None else len(masks),) + grid.shape)
    rows = np.empty((SCALE_SUM_CHUNK,) + grid.shape)
    owner = np.empty(SCALE_SUM_CHUNK, dtype=int)
    scale = np.empty(SCALE_SUM_CHUNK, dtype=int)
    fill = 0

    def flush(n: int) -> None:
        corr = correlate(rows[:n], table[scale[:n]], grid.dim)
        corr *= weights[scale[:n]].reshape((-1,) + (1,) * grid.dim)
        for i, row in zip(owner[:n].tolist(), corr):
            acc[i] += row

    for i, mask in enumerate([None] if masks is None else masks):
        if mask is None:
            keep = np.flatnonzero(flat_live)
            block = power[keep]
        else:
            by_scale = np.moveaxis(mask, -1, 0)
            keep = np.flatnonzero(flat_live & (by_scale & nonzero).reshape(len(power), -1).any(axis=1))
            block = np.where(by_scale[keep], power[keep], 0.0)
        done = 0
        while done < len(keep):
            n = min(SCALE_SUM_CHUNK - fill, len(keep) - done)
            rows[fill:fill + n] = block[done:done + n]
            owner[fill:fill + n] = i
            scale[fill:fill + n] = keep[done:done + n]
            fill += n
            done += n
            if fill == SCALE_SUM_CHUNK:
                flush(fill)
                fill = 0
    if fill:
        flush(fill)
    np.maximum(acc, 0.0, out=acc)
    return np.sqrt(acc)


def tent_functional(F: HalfSpaceField, alpha: float) -> SampledFunction:
    """Square root of the |F|^2 half-space integral over the aperture-alpha cone."""
    return SampledFunction(F.grid, tent_functionals(F, alpha)[0])


def tent_functionals(F: HalfSpaceField, alpha: float,
                     masks: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """``tent_functional`` of every piece ``where(masks[i], F, 0)`` at once, one
    row per piece (``masks=None``: F itself), each bitwise the one-piece value."""
    if alpha < 0:
        raise ValueError("aperture must be nonnegative")
    grid, scales = F.grid, F.scales
    table, live = cone_spectra(grid, scales, alpha)
    weights = grid.cell_volume * scales.log_weight / scales.scales**grid.dim
    return _scale_sum(F, table, live, weights, masks)


def lusin_area(F: HalfSpaceField) -> SampledFunction:
    """Unit-aperture cone square function of the field F = (phi_t * f)_t."""
    return tent_functional(F, 1.0)


def g_function(F: HalfSpaceField) -> SampledFunction:
    """Vertical square function of F = (phi_t * f)_t: sqrt of the dt/t integral of |F(x, t)|^2."""
    acc = np.sum(np.abs(F.values) ** 2, axis=-1) * F.scales.log_weight
    return SampledFunction(F.grid, np.sqrt(acc))


def g_lambda_star(F: HalfSpaceField, lam: float) -> SampledFunction:
    """Globally weighted square function of the field F = (phi_t * f)_t with
    weight (t/(t+|x-y|))^(lambda*n).

    The y-sum runs over the whole box; lambda must exceed 1 so the weight is
    integrable at the continuum level.
    """
    if lam <= 1.0:
        raise LambdaTooSmall(f"lambda must exceed 1, got {lam:g}")
    grid, scales = F.grid, F.scales
    lw = scales.log_weight * grid.cell_volume
    weights = [lw / t**grid.dim for t in scales.scales]
    return SampledFunction(grid, _scale_sum(F, gstar_spectra(grid, scales, lam), True, weights)[0])
