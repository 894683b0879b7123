"""Cone functionals and the three multiscale square functions.

Every square function reads a prebuilt ``FieldStack`` of half-space fields
F(y, t_k) = phi_{t_k} * f(y) (``transforms.build_fields``), with the
half-space measure dy dt / t^(n+1) as the per-cell weight ``cone_weights``.
``scale_sums`` is the one implementation: from one squaring of the stack it
gives each field's rows of every requested table (the cone tables of
``cone_spectra``, the g*_lambda tables of ``gstar_spectra``) and then g.
``tent_functional``, ``lusin_area``, ``g_function`` and ``g_lambda_star``
are its one-field forms, which take a stack of one (``build_field``) and
refuse any other.  Read ``scale_sums`` for the mechanism, its batch rule
(whole fields at three tables' bytes each, gathered C-contiguous so the
scale sums add left to right) and its exactness argument.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import LambdaTooSmall
from .grid import CACHE_SIZE, FieldStack, GridSpec, SampledFunction, ScaleGrid, batch_items, scale_to_unit_rows
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


def scale_sums(F: FieldStack, tables: Sequence[np.ndarray]) -> np.ndarray:
    """sqrt(sum_k |F(., t_k)|^2 correlated with kernel k) for each field of F
    and each table, row k of a table being the spectrum of kernel k, weight
    included (``cone_spectra``, ``gstar_spectra``), then the vertical square
    function g of each field.

    The sum runs in frequency space: |F|^2 is taken once, each field scaled
    to unit max and the roots scaled back (``_unit_powers``), so the sums
    are positively homogeneous over the whole float range.  A batch of whole
    fields (``grid.batch_items``, a field costing three tables' bytes: its
    gathered powers, their spectra and one copy) transforms every scale row
    of its fields once; per table, one product with the table, in place on a
    copy of the spectra but for the last table, one sum over the scale axis
    and one inverse FFT per field.  The rows are gathered C-contiguous, so
    the sum adds each field's scales left to right, a zero row adding +-0
    that the final ``np.maximum`` makes +0.0: each row is bitwise what a
    one-field, one-table call gives.  g sums the same powers over their
    contiguous scale axis, times ln2/J; with no table, no FFT runs at all.
    Returns ``(len(tables) + 1, fields) + grid.shape``: a row per table, then g.
    """
    grid = F.grid
    power, exps = _unit_powers(F.values)
    acc = np.zeros((len(tables) + 1, len(power)) + grid.shape)
    np.multiply(np.sum(power, axis=-1), F.scales.log_weight, out=acc[-1])
    step = batch_items(3 * tables[0].nbytes) if tables else len(power)
    for first in range(0, len(power), step) if tables else ():
        # gathered C-contiguous, so the spectra are too and their sum over the
        # scale axis adds left to right; a strided gather's is pairwise
        spectra = spectrum(np.ascontiguousarray(np.moveaxis(power[first:first + step], -1, 1)), grid.dim)
        for t, table in enumerate(tables):
            products = spectra if t == len(tables) - 1 else spectra.copy()
            products *= table
            acc[t, first:first + step] = inverse_spectrum(np.add.reduce(products, axis=1), grid.shape)
            del products  # so a batch holds its spectra and at most one copy
        del spectra  # before the next batch's gather
    np.maximum(acc, 0.0, out=acc)
    np.sqrt(acc, out=acc)
    return np.ldexp(acc, exps.reshape((-1,) + (1,) * grid.dim), out=acc)


def _one_field_row(F: FieldStack, tables: Sequence[np.ndarray]) -> SampledFunction:
    """The first row of ``scale_sums(F, tables)`` (g with no table) of F, a
    stack of one; any other stack raises, it belongs to the batched forms."""
    if len(F.values) != 1:
        raise ValueError(f"expected a stack of one field, got {len(F.values)}: "
                         "the batched forms are scale_sums and peetre_maximals")
    return SampledFunction(F.grid, scale_sums(F, tables)[0, 0])


def tent_functional(F: FieldStack, alpha: float) -> SampledFunction:
    """Square root of the |F|^2 half-space integral over the aperture-alpha cone."""
    return _one_field_row(F, [cone_spectra(F.grid, F.scales, alpha)])


def lusin_area(F: FieldStack) -> SampledFunction:
    """Unit-aperture cone square function of the field F = (phi_t * f)_t."""
    return tent_functional(F, 1.0)


def g_function(F: FieldStack) -> SampledFunction:
    """Vertical square function of F = (phi_t * f)_t: sqrt of the dt/t integral of |F(x, t)|^2."""
    return _one_field_row(F, [])


def g_lambda_star(F: FieldStack, lam: float) -> SampledFunction:
    """Globally weighted square function of the field F = (phi_t * f)_t with
    weight (t/(t+|x-y|))^(lambda*n).

    The y-sum runs over the whole box; lambda must exceed 1 so the weight is
    integrable at the continuum level.
    """
    return _one_field_row(F, [gstar_spectra(F.grid, F.scales, lam)])
