"""Multiscale convolution engine.

Every convolution is a Fourier multiplier on the periodic grid: the dilated
kernel acts as phi_hat(t * xi) on the spectrum, which is exact for periodic
data.  A half-space field costs one forward FFT of the input and one inverse
FFT batched over every scale; a stack of fields (``build_fields``) costs the
same two transforms, batched over the inputs too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericFailure
from .grid import FieldStack, GridSpec, HalfSpaceField, SampledFunction, ScaleGrid
from .kernels import Kernel

__all__ = ["ConvolutionPlan", "build_plan", "spectrum", "correlate", "apply_multiplier",
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


def build_plan(kernel: Kernel, scales: ScaleGrid) -> ConvolutionPlan:
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
    product = spectrum(values, dim) * kernel_hat
    if dim == 1:
        return np.fft.irfft(product, n=values.shape[-1], axis=-1)
    return np.fft.irfft2(product, s=values.shape[-2:], axes=(-2, -1))


def apply_multiplier(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Fourier multiplier on the periodic grid: ifft(fft(values) * mult)."""
    return np.fft.ifftn(np.fft.fftn(values) * mult)


def convolve_at_scale(f: SampledFunction, kernel: Kernel, t: float) -> SampledFunction:
    """Convolve f with the kernel dilated to scale t."""
    return SampledFunction(f.grid, apply_multiplier(f.values, kernel.multiplier(t)))


def _field_values(fs: Sequence[SampledFunction], plan: ConvolutionPlan) -> np.ndarray:
    """The scale slices (phi_t * f) of every input, C-contiguous in the
    ``(len(fs),) + grid.shape + (K,)`` layout: one forward FFT over the stacked
    inputs, then one inverse FFT over every (input, scale) pair.

    The transforms run line by line whatever the layout, so each input's
    slices are bitwise its one-input values.  In the C-contiguous layout
    reductions over the scale axis (``g_function``'s sum) run in the same
    order as over a per-scale filled array, so results do not depend on the
    layout.  Raises ``NumericFailure`` when the transforms overflow (inputs
    near the float maximum).
    """
    spatial = tuple(range(1, plan.grid.dim + 1))
    try:
        with np.errstate(over="raise", invalid="raise"):
            spectra = np.fft.fftn(np.stack([f.values for f in fs]), axes=spatial)
            slices = np.fft.ifftn(spectra[..., None] * np.moveaxis(plan.multipliers, 0, -1), axes=spatial)
    except FloatingPointError as exc:
        raise NumericFailure(f"the multiscale field overflows the float range ({exc})") from exc
    # the 1-D inverse transform returns the scale axis strided
    return np.ascontiguousarray(slices)


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
    grid = kernel.grid
    scale = grid.size / (2.0 * grid.half_width) ** grid.dim
    return np.fft.ifftn(kernel.multiplier(t)) * scale
