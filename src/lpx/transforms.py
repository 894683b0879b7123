"""Multiscale convolution engine.

Every convolution is a Fourier multiplier on the periodic grid, exact for
periodic data: the dilated kernel acts as phi_hat(t * xi) on the spectrum.
The multipliers are real and even, so ``apply_multiplier`` runs each as the
real FFT correlation ``correlate`` of the real rows of its input.  A field
costs one forward real FFT and one inverse batched over every scale; a stack
of fields (``build_fields``) costs the same two, batched over the inputs too.
``spectrum`` and ``inverse_spectrum`` are the one real FFT pair: ``correlate``
inverts the product of two spectra, and the square functions' scale sum
inverts a sum of such products.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import NumericFailure
from .grid import CACHE_SIZE, FieldStack, GridSpec, HalfSpaceField, SampledFunction, ScaleGrid

if TYPE_CHECKING:
    from .kernels import Kernel

__all__ = ["ConvolutionPlan", "build_plan", "spectrum", "inverse_spectrum", "correlate", "apply_multiplier",
           "convolve_at_scale", "build_field", "build_fields", "spatial_kernel"]

WRAP_DECAY_THRESHOLD = 1e-8


@dataclass(frozen=True)
class ConvolutionPlan:
    """Kernel, scale grid, and the cached multiplier table phi_hat(t_k xi)."""

    grid: GridSpec
    kernel: Kernel
    scales: ScaleGrid
    multipliers: np.ndarray  # shape (len(scales),) + grid.shape
    wraparound_warning: bool


@functools.lru_cache(maxsize=CACHE_SIZE)
def build_plan(kernel: Kernel, scales: ScaleGrid) -> ConvolutionPlan:
    """The plan of ``kernel`` on ``scales``, one shared object per (kernel,
    scales) among the last ``grid.CACHE_SIZE``; its multiplier table is
    read-only."""
    grid = kernel.grid
    radii = grid.frequency_radii()
    ts = scales.scales.reshape((-1,) + (1,) * grid.dim)
    table = kernel.profile(ts * radii)
    table.setflags(write=False)
    # at the coarsest scale the multiplier should live on the lowest dual band
    # only; otherwise the spatial kernel is wider than the box and wraps
    lowest = np.min(radii[radii > 0])
    tail = np.abs(table[-1][radii > lowest])
    warn = bool(tail.size and tail.max() >= WRAP_DECAY_THRESHOLD)
    return ConvolutionPlan(grid=grid, kernel=kernel, scales=scales, multipliers=table,
                           wraparound_warning=warn)


def spectrum(values: np.ndarray, dim: int) -> np.ndarray:
    """Real FFT over the last ``dim`` axes; any leading axes are a batch."""
    if dim == 1:
        return np.fft.rfft(values, axis=-1)
    return np.fft.rfft2(values, axes=(-2, -1))


def correlate(values: np.ndarray, kernel_hat: np.ndarray, dim: int) -> np.ndarray:
    """sum_y values[..., y] * kernel[..., x - y] on the torus of the last ``dim`` axes, via the FFT.

    ``kernel_hat`` is ``spectrum(kernel, dim)`` of an offset-indexed real kernel
    (index 0 = zero offset, like ``GridSpec.offset_distances``).  Leading axes of
    ``values`` and ``kernel_hat`` broadcast, so a stack of slices or of kernels
    runs as one batched transform pair; each row is bitwise what the unbatched
    call gives.
    """
    return inverse_spectrum(spectrum(values, dim) * kernel_hat, values.shape[-dim:])


def inverse_spectrum(values_hat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The real rows of grid shape ``shape`` whose ``spectrum`` is ``values_hat``:
    the inverse real FFT over the last ``len(shape)`` axes, any leading axes a batch."""
    if len(shape) == 1:
        return np.fft.irfft(values_hat, n=shape[0], axis=-1)
    return np.fft.irfft2(values_hat, s=shape, axes=(-2, -1))


def apply_multiplier(values: np.ndarray, mult: np.ndarray, dim: int | None = None) -> np.ndarray:
    """ifft(fft(values) * mult) for a real even multiplier on the full dual grid,
    whose last ``dim`` axes (default: all) are the grid.  Leading axes broadcast
    as one batched ``correlate``, each row bitwise its unbatched value; a complex
    input runs as its real and imaginary rows.  Overflow is a ``NumericFailure``.
    """
    if np.iscomplexobj(values):
        return apply_multiplier(values.real, mult, dim) + 1j * apply_multiplier(values.imag, mult, dim)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return correlate(values, mult[..., : mult.shape[-1] // 2 + 1], dim or mult.ndim)
    except FloatingPointError as exc:
        raise NumericFailure(f"the multiplier overflows the float range ({exc})") from exc


def convolve_at_scale(f: SampledFunction, kernel: Kernel, t: float) -> SampledFunction:
    """Convolve f with the kernel dilated to scale t."""
    return SampledFunction(f.grid, apply_multiplier(f.values, kernel.multiplier(t)))


def _field_values(fs: Sequence[SampledFunction], plan: ConvolutionPlan) -> np.ndarray:
    """The scale slices (phi_t * f) of every input from one ``apply_multiplier``,
    each input's bitwise its one-input values, C-contiguous in the
    ``(len(fs),) + grid.shape + (K,)`` layout, where reductions over the scale
    axis (``g_function``'s sum) run in the order of a per-scale filled array.
    """
    slices = apply_multiplier(np.stack([f.values for f in fs])[:, None], plan.multipliers, plan.grid.dim)
    return np.ascontiguousarray(np.moveaxis(slices, 1, -1))


def build_field(f: SampledFunction, plan: ConvolutionPlan) -> HalfSpaceField:
    """All scale slices (phi_t * f) stacked into a half-space field: the
    one-input case of ``build_fields``."""
    return HalfSpaceField(plan.grid, plan.scales, _field_values([f], plan)[0])


def build_fields(fs: Sequence[SampledFunction], plan: ConvolutionPlan) -> FieldStack:
    """``build_field`` of every input as one stack of fields, ``values[i]``
    bitwise the field of ``fs[i]``; the batched square functions take it
    whole."""
    return FieldStack(plan.grid, plan.scales, _field_values(fs, plan))


def spatial_kernel(kernel: Kernel, t: float) -> np.ndarray:
    """Offset-indexed samples of the dilated spatial kernel (index 0 = zero offset).

    Satisfies exactly: convolve_at_scale(f, kernel, t)(x) equals
    cell_volume * sum_y f(y) * spatial_kernel[x - y] on the torus.
    """
    delta = np.zeros(kernel.grid.shape)  # unit mass at the zero offset
    delta.flat[0] = 1.0 / kernel.grid.cell_volume
    return apply_multiplier(delta, kernel.multiplier(t))
