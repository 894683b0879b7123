"""Cone functionals and the three multiscale square functions.

Every square function takes a prebuilt half-space field F(y, t_k) =
phi_{t_k} * f(y) (see ``transforms.build_field``), so one field per input
serves all three.  All quadratures share the half-space measure
dy dt / t^(n+1) realized as cell_volume * ln2/J * t_k^(-n) per cell, with the
torus distance deciding cone membership.  Per scale, the sums over y are
circular correlations and run through ``transforms.correlate``.
"""

from __future__ import annotations

import numpy as np

from .errors import LambdaTooSmall
from .grid import HalfSpaceField, SampledFunction
from .transforms import correlate

__all__ = ["tent_functional", "lusin_area", "g_function", "g_lambda_star"]


def tent_functional(F: HalfSpaceField, alpha: float) -> SampledFunction:
    """Square root of the |F|^2 half-space integral over the aperture-alpha cone."""
    if alpha < 0:
        raise ValueError("aperture must be nonnegative")
    grid, scales = F.grid, F.scales
    dist = grid.offset_distances()
    power = np.abs(F.values) ** 2
    acc = np.zeros(grid.shape)
    weights = grid.cell_volume * scales.log_weight / scales.scales**grid.dim
    for k, t in enumerate(scales.scales):
        mask = (dist < alpha * t).astype(float)
        if not mask.any():
            continue
        acc += correlate(power[..., k], mask) * weights[k]
    np.maximum(acc, 0.0, out=acc)
    return SampledFunction(grid, np.sqrt(acc))


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
    dist = grid.offset_distances()
    power = np.abs(F.values) ** 2
    acc = np.zeros(grid.shape)
    lw = scales.log_weight * grid.cell_volume
    for k, t in enumerate(scales.scales):
        kernel = (t / (t + dist)) ** (lam * grid.dim)
        acc += correlate(power[..., k], kernel) * (lw / t**grid.dim)
    np.maximum(acc, 0.0, out=acc)
    return SampledFunction(grid, np.sqrt(acc))
