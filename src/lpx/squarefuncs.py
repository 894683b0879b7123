"""Cone functionals and the three multiscale square functions.

Every square function reads a prebuilt half-space field F(y, t_k) =
phi_{t_k} * f(y) (``transforms.build_field``), with the half-space measure
dy dt / t^(n+1) as the per-cell weight ``cone_weights``.  ``scale_sums`` is
the one implementation: from one squaring of a field or a ``FieldStack`` it
gives the rows of every requested table (the cone tables of
``cone_spectra``, the g*_lambda tables of ``gstar_spectra``) and then g.
``tent_functional``, ``lusin_area``, ``g_function`` and ``g_lambda_star``
are its one-field cases.  Read ``scale_sums`` for the mechanism and its
exactness argument.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import LambdaTooSmall
from .grid import (CACHE_SIZE, FieldStack, GridSpec, HalfSpaceField, SampledFunction, ScaleGrid, scale_to_unit_rows,
                   whole_batches)
from .transforms import inverse_spectrum, spectrum

__all__ = ["tent_functional", "lusin_area", "g_function", "g_lambda_star", "scale_sums",
           "ball_spectra", "cone_spectra", "gstar_spectra", "cone_weights"]


def _mask_spectra(grid: GridSpec, radii: Sequence[float]) -> np.ndarray:
    """Spectra of the ball masks ``grid.ball_mask(r)``, one row per radius."""
    return spectrum(np.stack([grid.ball_mask(r) for r in radii]).astype(float), grid.dim)


@functools.lru_cache(maxsize=CACHE_SIZE)
def ball_spectra(grid: GridSpec, radii: tuple[float, ...]) -> np.ndarray:
    """Read-only spectra of the ball masks ``grid.ball_mask(r)``, one row per radius."""
    table = _mask_spectra(grid, radii)
    table.setflags(write=False)
    return table


def cone_weights(grid: GridSpec, scales: ScaleGrid) -> np.ndarray:
    """The half-space quadrature weight cell_volume * ln2/J * t_k^(-n) of a
    cell at each scale t_k."""
    return grid.cell_volume * scales.log_weight / scales.scales**grid.dim


def _scale_weighted(grid: GridSpec, scales: ScaleGrid, table: np.ndarray) -> np.ndarray:
    """``table``, one spectrum per scale, with row k multiplied in place by
    the scale's quadrature weight (``cone_weights``); read-only."""
    table *= cone_weights(grid, scales).reshape((-1,) + (1,) * grid.dim)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=CACHE_SIZE)
def cone_spectra(grid: GridSpec, scales: ScaleGrid, alpha: float) -> np.ndarray:
    """Read-only spectra of the cone masks ``grid.ball_mask(alpha * t_k)``,
    weighted per scale (``_scale_weighted``).  The masks' spectra are
    weighted in place, so only the weighted table is cached."""
    if alpha < 0:
        raise ValueError("aperture must be nonnegative")
    return _scale_weighted(grid, scales, _mask_spectra(grid, [alpha * t for t in scales.scales]))


@functools.lru_cache(maxsize=CACHE_SIZE)
def gstar_spectra(grid: GridSpec, scales: ScaleGrid, lam: float) -> np.ndarray:
    """Read-only spectra of the weights ``(t_k / (t_k + dist))^(lambda n)``,
    weighted per scale (``_scale_weighted``); lambda must exceed 1."""
    if lam <= 1.0:
        raise LambdaTooSmall(f"lambda must exceed 1, got {lam:g}")
    dist = grid.offset_distances()
    rows = np.stack([(t / (t + dist)) ** (lam * grid.dim) for t in scales.scales])
    return _scale_weighted(grid, scales, spectrum(rows, grid.dim))


def _unit_powers(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|F| / 2^e)^2 of every field of the stack, each field scaled to unit
    max (``grid.scale_to_unit_rows``), and the exponents e."""
    mag = np.abs(stack)
    exps = scale_to_unit_rows(mag)
    return np.square(mag, out=mag), exps


def scale_sums(F: HalfSpaceField | FieldStack, tables: Sequence[np.ndarray]) -> np.ndarray:
    """sqrt(sum_k |F(., t_k)|^2 correlated with kernel k) for each field of F
    (one, or each of a ``FieldStack``) and each table, row k of a table being
    the spectrum of kernel k, weight included (``cone_spectra``,
    ``gstar_spectra``), then the vertical square function g of each field.

    The sum runs in frequency space: |F|^2 is taken once, each field scaled
    to unit max and the roots scaled back (``_unit_powers``), so the sums
    are positively homogeneous over the whole float range; and a batch of whole fields (``grid.whole_batches``)
    transforms its rows at the scales live in some field of it once, a
    field costing four real grid rows per live scale of the stack.  Per
    table, one product of the batch's spectra with those scales' table rows
    and one sum over the scale axis, each field's rows left to right in
    scale order, then one inverse FFT per field.  A scale dead in a field
    adds it only +-0, and the final ``np.maximum`` makes a -0.0 sum +0.0, so
    each field's row is bitwise what a call on that field alone gives.
    Every table but the last multiplies a copy of the batch's spectra in
    place, the last the spectra themselves, so each table's rows are
    bitwise what a one-table call gives.  g sums the same powers over their
    contiguous scale axis, times ln2/J; with no table, no FFT runs at all.  Returns
    ``(len(tables) + 1, fields) + grid.shape``: a row per table, then g.
    """
    grid = F.grid
    field_power, exps = _unit_powers(F.stack)
    k_count = field_power.shape[-1]
    power = np.moveaxis(field_power.reshape(len(field_power), grid.size, k_count), -1, 1)
    live = (power != 0).any(axis=2)  # (fields, scales)
    acc = np.zeros((len(tables) + 1, len(power)) + grid.shape)
    np.multiply(np.sum(field_power, axis=-1), F.scales.log_weight, out=acc[-1])
    cost = int(live.any(axis=0).sum()) * 4 * grid.size * power.itemsize  # per field
    for first, last in whole_batches(np.full(len(power), cost)) if tables else ():
        kept = np.flatnonzero(live[first:last].any(axis=0))
        spectra = spectrum(power[first:last, kept].reshape((last - first, kept.size) + grid.shape), grid.dim)
        for t, table in enumerate(tables):
            products = spectra if t == len(tables) - 1 else spectra.copy()
            products *= table[kept]
            acc[t, first:last] = inverse_spectrum(np.add.reduce(products, axis=1), grid.shape)
    np.maximum(acc, 0.0, out=acc)
    np.sqrt(acc, out=acc)
    return np.ldexp(acc, exps.reshape((-1,) + (1,) * grid.dim), out=acc)


def _one_field(F: HalfSpaceField) -> HalfSpaceField:
    """F itself; a ``FieldStack`` raises, it belongs to the batched forms."""
    if not isinstance(F, HalfSpaceField):
        raise TypeError(f"expected one HalfSpaceField, got {type(F).__name__}: "
                        "the batched forms are scale_sums and peetre_maximals")
    return F


def tent_functional(F: HalfSpaceField, alpha: float) -> SampledFunction:
    """Square root of the |F|^2 half-space integral over the aperture-alpha cone."""
    return SampledFunction(F.grid, scale_sums(_one_field(F), [cone_spectra(F.grid, F.scales, alpha)])[0, 0])


def lusin_area(F: HalfSpaceField) -> SampledFunction:
    """Unit-aperture cone square function of the field F = (phi_t * f)_t."""
    return tent_functional(F, 1.0)


def g_function(F: HalfSpaceField) -> SampledFunction:
    """Vertical square function of F = (phi_t * f)_t: sqrt of the dt/t integral of |F(x, t)|^2."""
    return SampledFunction(F.grid, scale_sums(_one_field(F), [])[-1, 0])


def g_lambda_star(F: HalfSpaceField, lam: float) -> SampledFunction:
    """Globally weighted square function of the field F = (phi_t * f)_t with
    weight (t/(t+|x-y|))^(lambda*n).

    The y-sum runs over the whole box; lambda must exceed 1 so the weight is
    integrable at the continuum level.
    """
    return SampledFunction(F.grid, scale_sums(_one_field(F), [gstar_spectra(F.grid, F.scales, lam)])[0, 0])
