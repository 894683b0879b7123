"""Band-pass convolution kernels, given on the Fourier side.

Two admissible families are provided: an annular kernel whose transform is a
smooth cutoff equal to 1 on 2 <= |xi| <= 4 and supported in 1 < |xi| < 8, and
a weak kernel 2*pi*|xi| * exp(1/2 - 2*pi^2*|xi|^2) (derivative-of-Gaussian
profile, peak normalized to 1) that is positive on every ray.  Both vanish at
xi = 0.  A ``Kernel`` is its grid, kind and radial profile: the t-dilated
transform on the dual grid is profile(t |xi|), so every kernel is radial.
The profiles are fixed, so each family is admissible on every grid by
construction; the test suite's oracle (``tests/helpers.py``) asserts it.  A
reproducing companion psi is constructed so that the product
phi_hat * psi_hat integrates to 1 against dt/t along every ray, and the band
coverage of a pair is the scale sum of its two cached plans' tables.

``build_kernel`` and ``calderon_companion`` depend only on their arguments,
and their results are frozen, so each keeps the last ``grid.CACHE_SIZE``
results it built and returns them shared.  A ``Kernel`` compares its profile
by identity: a kernel that ``build_annular_kernel`` builds again equals the
cached one, and a cached companion hands out one psi.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import BandCoverageError, DegenerateKernel, DualRangeTooSmall
from .grid import CACHE_SIZE, GridSpec, SampledFunction, ScaleGrid, scale_to_unit_rows
from .transforms import apply_multiplier, build_plan

__all__ = [
    "KernelKind",
    "Kernel",
    "ReproducingPair",
    "smooth_step",
    "annular_profile",
    "weak_profile",
    "build_annular_kernel",
    "build_weak_kernel",
    "build_kernel",
    "calderon_companion",
    "band_coverage",
    "reproduce",
    "write_kernel_csv",
]

NORMALIZATION_TOL = 1e-3
COVERAGE_MIN = 0.99
UNCOVERED_MASS_TOL = 1e-6


class KernelKind(enum.Enum):
    ANNULAR = "annular"
    WEAK = "weak"


def smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly increasing between."""
    u = np.asarray(u, dtype=float)
    a = np.zeros_like(u)
    b = np.zeros_like(u)
    pos = u > 0
    lt1 = u < 1
    with np.errstate(over="ignore"):
        a[pos] = np.exp(-1.0 / u[pos])
        b[lt1] = np.exp(-1.0 / (1.0 - u[lt1]))
    return a / (a + b)  # a + b > 0 everywhere on the real line


def annular_profile(r: np.ndarray) -> np.ndarray:
    """Radial transform: 0 on [0,1], rises to 1 on [1,2], 1 on [2,4], falls to 0 on [4,8]."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    rise = (r > 1) & (r < 2)
    out[rise] = smooth_step(r[rise] - 1.0)
    out[(r >= 2) & (r <= 4)] = 1.0
    fall = (r > 4) & (r < 8)
    out[fall] = smooth_step((8.0 - r[fall]) / 4.0)
    return out


def weak_profile(r: np.ndarray) -> np.ndarray:
    """Radial transform 2*pi*r*exp(1/2 - 2*pi^2*r^2); peak value 1 at r = 1/(2*pi)."""
    r = np.asarray(r, dtype=float)
    return 2.0 * np.pi * r * np.exp(0.5 - 2.0 * np.pi**2 * r**2)


@dataclass(frozen=True)
class Kernel:
    """Convolution kernel given by its radial transform ``profile`` at
    arbitrary radius, which is what scale dilation phi_hat(t*xi) evaluates.
    """

    grid: GridSpec
    kind: KernelKind
    profile: Callable[[np.ndarray], np.ndarray]

    def multiplier(self, t: float) -> np.ndarray:
        """Transform of the t-dilated kernel on the dual grid."""
        return self.profile(t * self.grid.frequency_radii())

    @property
    def fourier_values(self) -> np.ndarray:
        """The transform on the grid's own dual nodes."""
        return self.multiplier(1.0)


def build_annular_kernel(grid: GridSpec) -> Kernel:
    """Annular band kernel; needs the dual range to reach |xi| = 8."""
    if grid.nyquist < 8.0:
        raise DualRangeTooSmall(
            f"axis Nyquist frequency {grid.nyquist:g} < 8; enlarge N or shrink L"
        )
    return Kernel(grid, KernelKind.ANNULAR, annular_profile)


def build_weak_kernel(grid: GridSpec) -> Kernel:
    """Weakly admissible kernel, nonzero on every ray at some scale."""
    return Kernel(grid, KernelKind.WEAK, weak_profile)


@functools.lru_cache(maxsize=CACHE_SIZE)
def build_kernel(kind: str, grid: GridSpec) -> Kernel:
    """Kernel of the family named by a ``KernelKind`` value, one shared
    object per (kind, grid) among the last ``grid.CACHE_SIZE``.  The
    catalogue is built per build, so a wrapper installed on a builder's
    module name sees the first build per (kind, grid)."""
    builders = {KernelKind.ANNULAR.value: build_annular_kernel, KernelKind.WEAK.value: build_weak_kernel}
    if kind not in builders:
        raise ValueError(f"unknown kernel kind {kind!r}; valid: {sorted(builders)}")
    return builders[kind](grid)


@dataclass(frozen=True)
class ReproducingPair:
    """Kernel pair (phi, psi) with int_0^inf phi_hat(t xi) psi_hat(t xi) dt/t = 1."""

    phi: Kernel
    psi: Kernel
    scales: ScaleGrid
    normalization_check: float
    support: tuple[float, float]  # radial annulus carrying psi_hat


def _band_center(profile: Callable[[np.ndarray], np.ndarray]) -> float:
    """Log-midpoint of the radial band where |profile| is within 10% of its
    peak, probed at the log-midpoint nodes of 1e-3 .. 64, 128 per octave."""
    probe = ScaleGrid(1e-3, 64.0, 128).scales
    vals = np.abs(profile(probe))
    peak = vals.max()
    if peak <= 0.0:
        raise DegenerateKernel("radial profile is identically zero")
    active = probe[vals >= 0.9 * peak]
    return float(np.exp(np.mean(np.log(active))))


@functools.lru_cache(maxsize=CACHE_SIZE)
def calderon_companion(phi: Kernel, scales: ScaleGrid) -> ReproducingPair:
    """Build the companion psi_hat = phi_hat * b / c with b an annular bump.

    The bump is the annular cutoff dilated so its plateau straddles the band
    where phi_hat is large.  c is the scale-grid quadrature of
    phi_hat(r)^2 b(r) dr/r, so the product phi_hat * psi_hat integrates to one
    along every ray.  One shared pair per (kernel, scales) among the last
    ``grid.CACHE_SIZE``, so the plan of its psi is built once too.
    """
    s0 = _band_center(phi.profile) / math.sqrt(8.0)  # annular log-center is sqrt(8)

    def bump(r: np.ndarray, _s0: float = s0) -> np.ndarray:
        return annular_profile(np.asarray(r, dtype=float) / _s0)

    ts = scales.scales
    c = float(np.sum(phi.profile(ts) ** 2 * bump(ts)) * scales.log_weight)
    if c <= 1e-6:
        raise DegenerateKernel(f"normalization constant {c:g} <= 1e-6; scale grid misses the band")

    def psi_profile(r: np.ndarray, _c: float = c) -> np.ndarray:
        return phi.profile(r) * bump(r) / _c

    psi = Kernel(phi.grid, phi.kind, psi_profile)

    # independent fine quadrature of the ray integral at the reference direction
    fine = ScaleGrid(s0 / 2.0, 16.0 * s0, 256)
    check = float(np.sum(phi.profile(fine.scales) * psi_profile(fine.scales)) * fine.log_weight)
    if abs(check - 1.0) > NORMALIZATION_TOL:
        raise DegenerateKernel(
            f"ray normalization {check:.6f} deviates from 1 beyond {NORMALIZATION_TOL}; "
            f"the scale grid must cover the radial band [{s0:.3g}, {8 * s0:.3g}] "
            f"and resolve it (>= 8 steps per octave)"
        )
    return ReproducingPair(phi=phi, psi=psi, scales=scales, normalization_check=check,
                           support=(s0, 8.0 * s0))


def band_coverage(pair: ReproducingPair) -> np.ndarray:
    """Truncated ray integral sum_k phi_hat(t_k xi) psi_hat(t_k xi) ln2/J per
    dual node, from the multiplier tables of the pair's two cached plans."""
    phi_plan, psi_plan = build_plan(pair.phi, pair.scales), build_plan(pair.psi, pair.scales)
    return np.add.reduce(phi_plan.multipliers * psi_plan.multipliers, axis=0) * pair.scales.log_weight


def reproduce(f: SampledFunction, pair: ReproducingPair) -> SampledFunction:
    """Rebuild f from the truncated two-kernel resolution of the identity.

    Requires the spectrum of f to sit where the truncated ray integral is at
    least 0.99; the relative L2 error of the output is then at most 1e-2.  The
    ray integral is applied as a multiplier (``transforms.apply_multiplier``),
    so a real input gives a real output.
    """
    cov = band_coverage(pair)
    power = np.abs(np.fft.fftn(f.values))
    scale_to_unit_rows(power[None])  # the ratio below is of degree 0
    power **= 2
    total = float(power.sum())
    if total > 0.0:
        uncovered = float(power[cov < COVERAGE_MIN].sum())
        if uncovered > UNCOVERED_MASS_TOL * total:
            raise BandCoverageError(
                f"{uncovered / total:.3e} of the spectral mass lies outside the covered band"
            )
    return SampledFunction(f.grid, apply_multiplier(f.values, cov))


def write_kernel_csv(kernel: Kernel, path: str | Path) -> None:
    """CSV of (frequency coordinates, transform value) plus JSON metadata sidecar."""
    path = Path(path)
    xi = kernel.grid.axis_frequencies()
    if kernel.grid.dim == 1:
        coords = [xi]
    else:
        fx, fy = np.meshgrid(xi, xi, indexing="ij")
        coords = [fx.ravel(), fy.ravel()]
    vals = kernel.fourier_values.ravel()
    with path.open("w") as fh:
        for row in zip(*[c.ravel() for c in coords], vals):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    meta = {
        "kind": kernel.kind.value,
        "radial": True,  # every Kernel is its radial profile
        "grid": {"dim": kernel.grid.dim, "N": kernel.grid.points_per_axis, "L": kernel.grid.half_width},
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
