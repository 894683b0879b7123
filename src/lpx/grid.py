"""Discretization of R^n and the upper half-space R^n x (0, inf).

The spatial domain is the periodic box [-L, L)^n sampled at N cell centers
per axis, so FFT convolution is exact for periodic data.  Scales live on a
multiplicative grid t_k = t_min * 2^((k+1/2)/J) with the midpoint-in-log
quadrature weight ln(2)/J for the measure dt/t.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "ScaleGrid",
    "SampledFunction",
    "HalfSpaceField",
    "integrate",
    "halfspace_integrate",
    "concentration_defect",
    "from_callable",
    "pure_frequency",
    "indicator_ball",
    "indicator_box",
    "gaussian_bump",
    "write_function_csv",
    "read_function_csv",
    "write_function_binary",
    "read_function_binary",
]


# offset distance tables kept per grid; a 2-D N=64 table is 32 kB
OFFSET_CACHE_SIZE = 8


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the box [-L, L)^n with cell-centered samples.

    Samples sit at x_i = -L + (i + 1/2) * (2L/N), never on the axes, so power
    weights |x|^a stay finite at every node.
    """

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.points_per_axis < 8 or not _is_power_of_two(self.points_per_axis):
            raise ValueError("points_per_axis must be a power of two >= 8")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def nyquist(self) -> float:
        """Largest resolvable frequency magnitude along one axis."""
        return self.points_per_axis / (4.0 * self.half_width)

    def axis_coordinates(self) -> np.ndarray:
        n, L = self.points_per_axis, self.half_width
        return -L + (np.arange(n) + 0.5) * self.spacing

    def coordinate_mesh(self) -> tuple[np.ndarray, ...]:
        ax = self.axis_coordinates()
        if self.dim == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))

    def axis_frequencies(self) -> np.ndarray:
        """Dual frequencies m/(2L) in FFT order."""
        return np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def frequency_radii(self) -> np.ndarray:
        xi = self.axis_frequencies()
        if self.dim == 1:
            return np.abs(xi)
        fx, fy = np.meshgrid(xi, xi, indexing="ij")
        return np.sqrt(fx**2 + fy**2)

    def offset_distances(self) -> np.ndarray:
        """Torus distance from the zero offset, indexed like an FFT kernel.

        One read-only table per grid, shared by every caller."""
        return _offset_distances(self)

    def torus_distance_to(self, center_index: tuple[int, ...]) -> np.ndarray:
        """Torus distance of every cell center from the given cell's center."""
        out = self.offset_distances()
        cells = np.arange(self.points_per_axis)
        for axis, c in enumerate(center_index):  # out[x] = table[(x - c) mod n]
            out = out.take(cells - c, axis=axis, mode="wrap")
        return out

    def torus_window_view(self, values: np.ndarray) -> np.ndarray:
        """Read-only view ``w`` with ``w[s][x] = values[(x + s) mod n]`` for every
        shift ``0 <= s <= n`` per axis (shifts 0 and n coincide).

        Leading axes of ``values`` beyond ``grid.shape`` are a batch:
        ``w[i][s][x] = values[i][(x + s) mod n]``.  It is the sliding windows of
        the doubly tiled array: one copy of ``values`` serves every shift.
        """
        lead = values.ndim - self.dim
        tiled = np.tile(values, (1,) * lead + (2,) * self.dim)
        axes = tuple(range(lead, values.ndim))
        return np.lib.stride_tricks.sliding_window_view(tiled, self.shape, axis=axes)

    def torus_windows(self, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """``values[(x + o) mod n]`` with one row per offset o and one column per cell x.

        ``offsets`` is an (m, dim) integer array; the result is (m, size) in the
        C order of the cells.  One fancy index into ``torus_window_view`` reads
        every offset at once.
        """
        n = self.points_per_axis
        return self.torus_window_view(values)[tuple((offsets % n).T)].reshape(len(offsets), self.size)


@functools.lru_cache(maxsize=OFFSET_CACHE_SIZE)
def _offset_distances(grid: GridSpec) -> np.ndarray:
    n = grid.points_per_axis
    j = np.arange(n)
    d = grid.spacing * np.minimum(j, n - j)
    if grid.dim == 2:
        dx, dy = np.meshgrid(d, d, indexing="ij")
        d = np.sqrt(dx**2 + dy**2)
    d.setflags(write=False)
    return d


@dataclass(frozen=True)
class ScaleGrid:
    """Logarithmic scale grid carrying the dt/t quadrature.

    Nodes are log-midpoints t_min * 2^((k+1/2)/J); the uniform weight ln(2)/J
    makes sum(weights) equal ln(t_max/t_min) exactly.
    """

    t_min: float
    t_max: float
    steps_per_octave: int

    def __post_init__(self):
        if self.t_min <= 0 or self.t_max <= 0:
            raise ValueError("scale bounds must be positive")
        if self.t_max / self.t_min < 4:
            raise ValueError("t_max / t_min must be at least 4")
        if self.steps_per_octave < 4:
            raise ValueError("steps_per_octave must be at least 4")

    @property
    def log_weight(self) -> float:
        return math.log(2.0) / self.steps_per_octave

    @property
    def scales(self) -> np.ndarray:
        J = self.steps_per_octave
        K = round(J * math.log2(self.t_max / self.t_min))
        return self.t_min * 2.0 ** ((np.arange(K) + 0.5) / J)

    def __len__(self) -> int:
        return len(self.scales)


def _as_complex(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SampledFunction:
    """Complex-valued function sampled at the cell centers of a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = _as_complex(self.values)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        return SampledFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        return SampledFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def abs(self) -> np.ndarray:
        return np.abs(self.values)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))


@dataclass(frozen=True)
class HalfSpaceField:
    """Values F(y, t_k) on the product of a spatial grid and a scale grid."""

    grid: GridSpec
    scales: ScaleGrid
    values: np.ndarray  # shape grid.shape + (len(scales),)

    def __post_init__(self):
        vals = _as_complex(self.values)
        expected = self.grid.shape + (len(self.scales),)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)


def integrate(f: SampledFunction) -> complex:
    """Rectangle rule for the integral of f over the box."""
    return complex(np.sum(f.values) * f.grid.cell_volume)


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


def concentration_defect(f: SampledFunction) -> float:
    """Fraction of |f| mass outside the core box [-L/2, L/2]^n."""
    mesh = f.grid.coordinate_mesh()
    half = f.grid.half_width / 2.0
    outside = np.zeros(f.grid.shape, dtype=bool)
    for c in mesh:
        outside |= np.abs(c) > half
    total = float(np.sum(np.abs(f.values)))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(f.values)[outside])) / total


# ---------------------------------------------------------------------------
# constructors for common test functions


def from_callable(grid: GridSpec, fn: Callable[..., np.ndarray]) -> SampledFunction:
    """Sample fn(x) (1-D) or fn(x, y) (2-D) at the cell centers."""
    return SampledFunction(grid, np.asarray(fn(*grid.coordinate_mesh()), dtype=np.complex128))


def pure_frequency(grid: GridSpec, k_index: Sequence[int] | int) -> SampledFunction:
    """The character exp(2*pi*i xi.x) with xi = k/(2L), k integer per axis."""
    ks = np.atleast_1d(np.asarray(k_index, dtype=int))
    if len(ks) != grid.dim:
        raise ValueError("need one integer frequency index per axis")
    mesh = grid.coordinate_mesh()
    phase = sum(k / (2.0 * grid.half_width) * c for k, c in zip(ks, mesh))
    return SampledFunction(grid, np.exp(2j * np.pi * phase))


def indicator_ball(grid: GridSpec, center: Sequence[float], radius: float) -> SampledFunction:
    """Indicator of the open ball, evaluated at cell centers (no wrap)."""
    mesh = grid.coordinate_mesh()
    d2 = sum((c - c0) ** 2 for c, c0 in zip(mesh, center))
    return SampledFunction(grid, (d2 < radius**2).astype(np.complex128))


def indicator_box(grid: GridSpec, lo: Sequence[float], hi: Sequence[float]) -> SampledFunction:
    mesh = grid.coordinate_mesh()
    inside = np.ones(grid.shape, dtype=bool)
    for c, a, b in zip(mesh, lo, hi):
        inside &= (c >= a) & (c <= b)
    return SampledFunction(grid, inside.astype(np.complex128))


def gaussian_bump(grid: GridSpec, center: Sequence[float], sigma: float) -> SampledFunction:
    mesh = grid.coordinate_mesh()
    d2 = sum((c - c0) ** 2 for c, c0 in zip(mesh, center))
    return SampledFunction(grid, np.exp(-d2 / (2.0 * sigma**2)).astype(np.complex128))


# ---------------------------------------------------------------------------
# serialization


def write_function_csv(f: SampledFunction, path: str | Path) -> None:
    """One row per grid point: coordinates, re, im.  Metadata in a # header."""
    path = Path(path)
    mesh = f.grid.coordinate_mesh()
    cols = [c.ravel() for c in mesh] + [f.values.real.ravel(), f.values.imag.ravel()]
    header = json.dumps(
        {"dim": f.grid.dim, "N": f.grid.points_per_axis, "L": f.grid.half_width}, sort_keys=True
    )
    with path.open("w") as fh:
        fh.write(f"# {header}\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_function_csv(path: str | Path) -> SampledFunction:
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError("missing metadata header")
        meta = json.loads(first[1:])
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    grid = GridSpec(dim=int(meta["dim"]), half_width=float(meta["L"]), points_per_axis=int(meta["N"]))
    vals = (data[:, -2] + 1j * data[:, -1]).reshape(grid.shape)
    return SampledFunction(grid, vals)


def _sidecar(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".json")


def write_function_binary(f: SampledFunction, path: str | Path, extra_meta: dict | None = None) -> None:
    """Flat little-endian float64 pairs (re, im) plus a JSON sidecar."""
    path = Path(path)
    flat = np.empty(2 * f.grid.size, dtype="<f8")
    flat[0::2] = f.values.real.ravel()
    flat[1::2] = f.values.imag.ravel()
    flat.tofile(path)
    meta = {"dim": f.grid.dim, "N": f.grid.points_per_axis, "L": f.grid.half_width}
    if extra_meta:
        meta.update(extra_meta)
    _sidecar(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def read_function_binary(path: str | Path) -> tuple[SampledFunction, dict]:
    path = Path(path)
    meta = json.loads(_sidecar(path).read_text())
    grid = GridSpec(dim=int(meta["dim"]), half_width=float(meta["L"]), points_per_axis=int(meta["N"]))
    flat = np.fromfile(path, dtype="<f8")
    vals = (flat[0::2] + 1j * flat[1::2]).reshape(grid.shape)
    return SampledFunction(grid, vals), meta
