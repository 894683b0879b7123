"""Cone functionals and the three multiscale square functions.

Every square function takes a prebuilt half-space field F(y, t_k) =
phi_{t_k} * f(y) (see ``transforms.build_field``), so one field per input
serves all three.  All quadratures share the half-space measure
dy dt / t^(n+1) realized as cell_volume * ln2/J * t_k^(-n) per cell, with
``GridSpec.ball_mask`` deciding cone membership.  Per scale, the sums over y
are circular correlations of |F|^2 with a kernel that depends only on the
grid, the scale and the aperture or lambda.  The spectra of those kernels
are cached (``ball_spectra``), the cone and g*_lambda tables with each
scale's row multiplied in place by its quadrature weight (``cone_spectra``,
``gstar_spectra``, both through ``_scale_weighted``), so each is held once.
The sum over scales runs in frequency space: each scale's spectrum of |F|^2
times its table row, summed over the scales, then one inverse FFT per field
or piece (``_scale_sum``); a (field or piece, scale) row whose |F|^2 is zero
is the only one skipped.  The plural forms
(``tent_functionals``, ``g_functions``, ``g_lambda_stars``) take a
``FieldStack`` (``transforms.build_fields``) or one ``HalfSpaceField``, real
or complex, and return one real row per field, each bitwise the one-field
value; the singular forms are their one-field case and refuse a stack.  Each
field's |F| is divided by the power of two of its maximum before squaring
and the root is scaled back (``_unit_powers``, through
``grid.scale_to_unit_rows``), so the square functions are positively
homogeneous over the whole float range.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

from .errors import LambdaTooSmall
from .grid import FieldStack, GridSpec, HalfSpaceField, SampledFunction, ScaleGrid, scale_to_unit_rows
from .transforms import inverse_spectrum, spectrum

__all__ = ["tent_functional", "tent_functionals", "lusin_area", "g_function", "g_functions", "g_lambda_star",
           "g_lambda_stars", "ball_spectra", "cone_spectra", "gstar_spectra"]

# kernel spectra kept per (grid, radii) or (grid, scales, aperture or lambda);
# a 2-D N=64 table over 64 scales is 2.2 MB
SPECTRA_CACHE_SIZE = 8
# (piece or field, scale) rows per batch of ``_scale_sum``: a batch holds
# whole pieces (or fields), as many as fit, and at least one, so its
# temporaries stay within max(SCALE_SUM_CHUNK, K) rows (a 2-D N=64 chunk of
# rows is 8 MB)
SCALE_SUM_CHUNK = 256


def _mask_spectra(grid: GridSpec, radii: Sequence[float]) -> np.ndarray:
    """Spectra of the ball masks ``grid.ball_mask(r)``, one row per radius."""
    return spectrum(np.stack([grid.ball_mask(r) for r in radii]).astype(float), grid.dim)


@functools.lru_cache(maxsize=SPECTRA_CACHE_SIZE)
def ball_spectra(grid: GridSpec, radii: tuple[float, ...]) -> np.ndarray:
    """Read-only spectra of the ball masks ``grid.ball_mask(r)``, one row per radius."""
    table = _mask_spectra(grid, radii)
    table.setflags(write=False)
    return table


def _scale_weighted(grid: GridSpec, scales: ScaleGrid, table: np.ndarray) -> np.ndarray:
    """``table``, one spectrum per scale, with row k multiplied in place by
    the scale's quadrature weight cell_volume * ln2/J * t_k^(-n); read-only."""
    weights = grid.cell_volume * scales.log_weight / scales.scales**grid.dim
    table *= weights.reshape((-1,) + (1,) * grid.dim)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=SPECTRA_CACHE_SIZE)
def cone_spectra(grid: GridSpec, scales: ScaleGrid, alpha: float) -> np.ndarray:
    """Read-only spectra of the cone masks ``grid.ball_mask(alpha * t_k)``,
    weighted per scale (``_scale_weighted``).  The masks' spectra are
    weighted in place, so only the weighted table is cached."""
    return _scale_weighted(grid, scales, _mask_spectra(grid, [alpha * t for t in scales.scales]))


@functools.lru_cache(maxsize=SPECTRA_CACHE_SIZE)
def gstar_spectra(grid: GridSpec, scales: ScaleGrid, lam: float) -> np.ndarray:
    """Read-only spectra of the weights ``(t_k / (t_k + dist))^(lambda n)``,
    weighted per scale (``_scale_weighted``)."""
    dist = grid.offset_distances()
    rows = np.stack([(t / (t + dist)) ** (lam * grid.dim) for t in scales.scales])
    return _scale_weighted(grid, scales, spectrum(rows, grid.dim))


def _unit_powers(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|F| / 2^e)^2 of every field of the stack, each field scaled to unit
    max (``grid.scale_to_unit_rows``), and the exponents e."""
    mag = np.abs(stack)
    exps = scale_to_unit_rows(mag)
    return np.square(mag, out=mag), exps


def _batches(owner: np.ndarray) -> Iterator[list[int]]:
    """``_scale_sum``'s batches, given each kept row's piece (piece-major,
    then scale): per batch, the row offsets where its pieces start, then its
    end.  A batch holds whole pieces, as many as fit ``SCALE_SUM_CHUNK`` rows,
    and at least one."""
    bounds = np.append(np.flatnonzero(np.diff(owner, prepend=-1)), len(owner))
    first = 0
    while first < len(bounds) - 1:
        last = max(int(np.searchsorted(bounds, bounds[first] + SCALE_SUM_CHUNK, side="right")) - 1, first + 1)
        yield bounds[first:last + 1].tolist()
        first = last


def _scale_sum(F: HalfSpaceField | FieldStack, table: np.ndarray,
               pieces: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """sqrt(sum_k |P(., t_k)|^2 correlated with kernel k) for each piece P,
    row k of ``table`` being the spectrum of kernel k, weight included.

    With ``pieces=None`` every field of F (one, or each of a ``FieldStack``)
    is one piece; otherwise F is one field and piece i is F on the cells
    ``pieces[i]`` (flat indices into ``grid.shape + (K,)``) and zero
    elsewhere.  A (piece, scale) row whose slice is zero adds exactly zero
    and is skipped.  The sum runs in frequency space: each kept row's
    spectrum times its table row, summed per piece left to right in scale
    order, then one inverse FFT per piece.  A batch holds whole pieces
    (``_batches``), so each piece's sum is bitwise what a call on that piece
    alone gives.  Returns one row per piece, shaped ``(pieces,) + grid.shape``.
    """
    grid = F.grid
    field_power, exps = _unit_powers(F.stack)
    k_count = field_power.shape[-1]
    power = np.moveaxis(field_power.reshape(len(field_power), grid.size, k_count), -1, 1)
    if pieces is None:
        owner, scale = np.divmod(np.flatnonzero((power != 0).any(axis=2)), k_count)  # field-major, then scale
        count = len(power)

        def rows(lo: int, hi: int) -> np.ndarray:
            return power[owner[lo:hi], scale[lo:hi]].reshape((hi - lo,) + grid.shape)
    else:
        if len(power) != 1:
            raise ValueError("pieces are cells of a single field")
        cells = np.concatenate([np.empty(0, dtype=np.intp), *pieces])
        spatial, k = np.divmod(cells, k_count)
        cell_power = field_power.reshape(-1)[cells]
        key = np.repeat(np.arange(len(pieces)) * k_count, [len(c) for c in pieces]) + k
        row_keys = np.unique(key[cell_power != 0])  # piece-major, then scale
        owner, scale = np.divmod(row_keys, k_count)
        slot = np.full(len(pieces) * k_count, -1)
        slot[row_keys] = np.arange(len(row_keys))
        row = slot[key]  # -1: the cell's (piece, scale) row is skipped
        count = len(pieces)

        def rows(lo: int, hi: int) -> np.ndarray:
            sel = (row >= lo) & (row < hi)
            block = np.zeros((hi - lo, grid.size))
            block[row[sel] - lo, spatial[sel]] = cell_power[sel]
            return block.reshape((hi - lo,) + grid.shape)

    acc = np.zeros((count,) + grid.shape)
    for edges in _batches(owner):
        lo, hi = edges[0], edges[-1]
        products = spectrum(rows(lo, hi), grid.dim)
        products *= table[scale[lo:hi]]
        summed = np.empty((len(edges) - 1,) + products.shape[1:], dtype=products.dtype)
        for j, (s, e) in enumerate(zip(edges, edges[1:])):  # each piece's own rows, left to right
            np.add.reduce(products[s - lo:e - lo], axis=0, out=summed[j])
        acc[owner[edges[:-1]]] = inverse_spectrum(summed, grid.shape)
    np.maximum(acc, 0.0, out=acc)
    np.sqrt(acc, out=acc)
    return np.ldexp(acc, exps.reshape((-1,) + (1,) * grid.dim), out=acc)


def _one_field(F: HalfSpaceField) -> HalfSpaceField:
    """F itself; a ``FieldStack`` raises, it belongs to the plural forms."""
    if not isinstance(F, HalfSpaceField):
        raise TypeError(f"expected one HalfSpaceField, got {type(F).__name__}: "
                        "a FieldStack goes to tent_functionals, g_functions or g_lambda_stars")
    return F


def tent_functional(F: HalfSpaceField, alpha: float) -> SampledFunction:
    """Square root of the |F|^2 half-space integral over the aperture-alpha cone."""
    return SampledFunction(F.grid, tent_functionals(_one_field(F), alpha)[0])


def tent_functionals(F: HalfSpaceField | FieldStack, alpha: float,
                     pieces: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """``tent_functional`` of every piece at once, one row per piece, each
    bitwise the one-piece value.  Piece i is the field F on the cells
    ``pieces[i]`` (flat indices into ``grid.shape + (K,)``) and zero
    elsewhere; ``pieces=None`` makes each field of F one piece."""
    if alpha < 0:
        raise ValueError("aperture must be nonnegative")
    return _scale_sum(F, cone_spectra(F.grid, F.scales, alpha), pieces)


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
    return SampledFunction(F.grid, g_lambda_stars(_one_field(F), lam)[0])


def g_lambda_stars(F: HalfSpaceField | FieldStack, lam: float) -> np.ndarray:
    """``g_lambda_star`` of every field of F, one row per field,
    each bitwise the one-field value."""
    if lam <= 1.0:
        raise LambdaTooSmall(f"lambda must exceed 1, got {lam:g}")
    return _scale_sum(F, gstar_spectra(F.grid, F.scales, lam))
