"""Cone functionals and the three multiscale square functions.

Every square function takes a prebuilt half-space field F(y, t_k) =
phi_{t_k} * f(y) (see ``transforms.build_field``), so one field per input
serves all three.  All quadratures share the half-space measure
dy dt / t^(n+1) realized as cell_volume * ln2/J * t_k^(-n) per cell
(``cone_weights``), with
``GridSpec.ball_mask`` deciding cone membership.  Per scale, the sums over y
are circular correlations of |F|^2 with a kernel that depends only on the
grid, the scale and the aperture or lambda.  The spectra of those kernels
are cached (``ball_spectra``), the cone and g*_lambda tables with each
scale's row multiplied in place by its quadrature weight (``cone_spectra``,
``gstar_spectra``, both through ``_scale_weighted``), so each is held once.
The sum over scales runs in frequency space (``scale_sums``): |F|^2 is
taken once and each batch of its (field, scale) rows is transformed once,
however many tables read it; per table, each row's spectrum times its table
row, summed over the scales, then one inverse FFT per field.  Every table
but the last multiplies a copy of the spectra in place (``*=``;
``spectra * table`` can differ in the last bit), so each table's rows are
bitwise its one-table value.  A (field, scale) row whose |F|^2 is zero is
the only one skipped.  (The cone functionals of a decomposition's pieces,
which hold a few cells per scale, are interval sums in
``atoms._piece_functionals`` instead.)  The batched forms, ``scale_sums``
and ``g_functions``, take a ``FieldStack`` (``transforms.build_fields``) or
one ``HalfSpaceField``, real or complex, and return one real row per field,
each bitwise the one-field value.  The singular forms are their one-field
cases and refuse a stack: ``tent_functional`` and ``g_lambda_star`` are
``scale_sums`` of one field and one table, ``g_function`` is ``g_functions``
of one field.  Each field's |F| is divided by the power of two of its
maximum before squaring and the root is scaled back (``_unit_powers``,
through ``grid.scale_to_unit_rows``), so the square functions are
positively homogeneous over the whole float range.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

from .errors import LambdaTooSmall
from .grid import CACHE_SIZE, FieldStack, GridSpec, HalfSpaceField, SampledFunction, ScaleGrid, scale_to_unit_rows
from .transforms import inverse_spectrum, spectrum

__all__ = ["tent_functional", "lusin_area", "g_function", "g_functions", "g_lambda_star", "scale_sums",
           "ball_spectra", "cone_spectra", "gstar_spectra", "cone_weights", "whole_batches"]

# (field, scale) rows per batch of ``scale_sums``: a batch holds whole
# fields, as many as fit, and at least one, so its temporaries stay within
# max(SCALE_SUM_CHUNK, K) rows (a 2-D N=64 chunk of rows is 8 MB)
SCALE_SUM_CHUNK = 256


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


def whole_batches(sizes: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Greedy batches of whole items of the given sizes, as item ranges
    (lo, hi): each takes as many items as end within ``budget`` of its start,
    and at least one."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(ends):
        start = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, start + budget, side="right")), lo + 1)
        yield lo, hi
        lo = hi


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
    ``gstar_spectra``).

    A (field, scale) row whose slice is zero adds exactly zero and is
    skipped.  The sum runs in frequency space: |F|^2 is taken once
    (``_unit_powers``) and each batch of kept rows is transformed once; per
    table, each row's spectrum times its table row, summed per field left to
    right in scale order, then one inverse FFT per field.  Every table but
    the last multiplies a copy of the batch's spectra in place, the last the
    spectra themselves, so each table's rows are bitwise what a one-table
    call gives.  A batch holds whole fields (``whole_batches``), so each field's
    sum is bitwise what a call on that field alone gives.  Returns
    ``(len(tables), fields) + grid.shape``.
    """
    grid = F.grid
    field_power, exps = _unit_powers(F.stack)
    k_count = field_power.shape[-1]
    power = np.moveaxis(field_power.reshape(len(field_power), grid.size, k_count), -1, 1)
    owner, scale = np.divmod(np.flatnonzero((power != 0).any(axis=2)), k_count)  # field-major, then scale
    fields, counts = np.unique(owner, return_counts=True)
    edges = np.concatenate([[0], np.cumsum(counts)]).tolist()  # each kept field's rows
    acc = np.zeros((len(tables), len(power)) + grid.shape)
    for first, last in whole_batches(counts, SCALE_SUM_CHUNK):
        lo, hi = edges[first], edges[last]
        spectra = spectrum(power[owner[lo:hi], scale[lo:hi]].reshape((hi - lo,) + grid.shape), grid.dim)
        for t, table in enumerate(tables):
            products = spectra if t == len(tables) - 1 else spectra.copy()
            products *= table[scale[lo:hi]]
            summed = np.empty((last - first,) + products.shape[1:], dtype=products.dtype)
            for j in range(first, last):  # each field's own rows, left to right
                np.add.reduce(products[edges[j] - lo:edges[j + 1] - lo], axis=0, out=summed[j - first])
            acc[t, fields[first:last]] = inverse_spectrum(summed, grid.shape)
    np.maximum(acc, 0.0, out=acc)
    np.sqrt(acc, out=acc)
    return np.ldexp(acc, exps.reshape((-1,) + (1,) * grid.dim), out=acc)


def _one_field(F: HalfSpaceField) -> HalfSpaceField:
    """F itself; a ``FieldStack`` raises, it belongs to the batched forms."""
    if not isinstance(F, HalfSpaceField):
        raise TypeError(f"expected one HalfSpaceField, got {type(F).__name__}: "
                        "the batched forms are scale_sums, g_functions and peetre_maximals")
    return F


def tent_functional(F: HalfSpaceField, alpha: float) -> SampledFunction:
    """Square root of the |F|^2 half-space integral over the aperture-alpha cone."""
    return SampledFunction(F.grid, scale_sums(_one_field(F), [cone_spectra(F.grid, F.scales, alpha)])[0, 0])


def lusin_area(F: HalfSpaceField) -> SampledFunction:
    """Unit-aperture cone square function of the field F = (phi_t * f)_t."""
    return tent_functional(F, 1.0)


def g_function(F: HalfSpaceField) -> SampledFunction:
    """Vertical square function of F = (phi_t * f)_t: sqrt of the dt/t integral of |F(x, t)|^2."""
    return SampledFunction(F.grid, g_functions(_one_field(F))[0])


def g_functions(F: HalfSpaceField | FieldStack) -> np.ndarray:
    """``g_function`` of every field of F, one row per field."""
    power, exps = _unit_powers(F.stack)
    root = np.sqrt(np.sum(power, axis=-1) * F.scales.log_weight)
    return np.ldexp(root, exps.reshape((-1,) + (1,) * F.grid.dim), out=root)


def g_lambda_star(F: HalfSpaceField, lam: float) -> SampledFunction:
    """Globally weighted square function of the field F = (phi_t * f)_t with
    weight (t/(t+|x-y|))^(lambda*n).

    The y-sum runs over the whole box; lambda must exceed 1 so the weight is
    integrable at the continuum level.
    """
    return SampledFunction(F.grid, scale_sums(_one_field(F), [gstar_spectra(F.grid, F.scales, lam)])[0, 0])
