"""Discretization of R^n and the upper half-space R^n x (0, inf).

``GridSpec`` samples the periodic box [-L, L)^n at N cell centers per axis,
and ``ScaleGrid`` the scales t_k = t_min * 2^((k+1/2)/J) with the dt/t weight
ln(2)/J.  The module owns what every other module reads: which cells form a
torus ball (``GridSpec.ball_mask``) and their row runs
(``GridSpec.ball_row_widths``), the working-memory budget (``WORK_BYTES``,
``batch_items``, ``whole_batches``), the power-of-two row scaling
(``scale_to_unit_rows``), the stable order of integer keys
(``stable_order``), the one check of every sampled array
(``checked_samples``) and the one field type, ``FieldStack``: a half-space
field F(y, t_k) = phi_{t_k} * f(y) is a stack of one.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "ScaleGrid",
    "SampledFunction",
    "FieldStack",
    "real_or_complex",
    "checked_samples",
    "scale_to_unit_rows",
    "batch_items",
    "whole_batches",
    "stable_order",
    "concentration_defect",
    "pure_frequency",
    "indicator_ball",
    "gaussian_bump",
    "write_function_csv",
    "read_function_csv",
    "write_function_binary",
    "read_function_binary",
]


# entries of every fixed-input cache of the library (kernels, plans, spectra,
# families, ball tables, distance tables) but the trials'; a 2-D N=64
# offset distance table is 32 kB, a 2-D N=128 plan over 64 scales 8 MiB
CACHE_SIZE = 8
# bytes one batch of any batched operator may hold, read at each call of
# ``batch_items`` and ``whole_batches``
WORK_BYTES = 1 << 20


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
        # equal grids, which share cache entries, then also print alike
        object.__setattr__(self, "half_width", float(self.half_width))
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

    def ball_mask(self, radius: float) -> np.ndarray:
        """Offset-indexed membership of the torus ball of the given radius,
        ``offset_distances() < radius``: the one rule for a ball's cells.  The
        ball about cell c is the mask rolled by c."""
        return self.offset_distances() < radius

    @functools.lru_cache(maxsize=CACHE_SIZE)
    def ball_row_widths(self, radii: tuple[float, ...]) -> np.ndarray:
        """Per radius r, the number of cells of ``ball_mask(r)`` in each
        first-axis row (offset dx = 0..n-1; a 1-D ball is the one row dx = 0),
        a read-only ``(len(radii), rows)`` integer array built once per (grid,
        radii).  A row of w cells about a centre c is the run of last-axis
        offsets [-(w // 2), w - w // 2): w is odd, or n for a full row."""
        n = self.points_per_axis
        masks = np.array([self.ball_mask(r) for r in radii], dtype=bool).reshape(len(radii), self.size // n, n)
        widths = np.count_nonzero(masks, axis=2)
        widths.setflags(write=False)
        return widths


@functools.lru_cache(maxsize=CACHE_SIZE)
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

    @functools.cached_property
    def scales(self) -> np.ndarray:
        """The nodes, computed once per instance and read-only."""
        J = self.steps_per_octave
        K = round(J * math.log2(self.t_max / self.t_min))
        ts = self.t_min * 2.0 ** ((np.arange(K) + 0.5) / J)
        ts.setflags(write=False)
        return ts

    def __len__(self) -> int:
        return len(self.scales)


def real_or_complex(values) -> np.ndarray:
    """Read-only float64 ``values``, or complex128 when some imaginary part is nonzero."""
    vals = np.asarray(values)
    complex_ = np.iscomplexobj(vals) and vals.imag.any()
    out = np.asarray(vals, np.complex128) if complex_ else np.ascontiguousarray(vals.real, np.float64)
    out.setflags(write=False)
    return out


def checked_samples(values, shape: tuple[int, ...], expected: str) -> np.ndarray:
    """``real_or_complex(values)``, checked to have ``shape`` (named by
    ``expected`` in the error) and finite entries."""
    vals = real_or_complex(values)
    if vals.shape != shape:
        raise ValueError(f"values shape {vals.shape} != {expected}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    return vals


def scale_to_unit_rows(stack: np.ndarray) -> np.ndarray:
    """Divide every row (first axis) of the non-negative float ``stack`` in
    place by 2^e, e the binary exponent (``np.frexp``) of the row's max, and
    return the exponents.  A scaled row has its max in [1/2, 1) (or is zero,
    e = 0), so its powers neither overflow nor all underflow; scaling by a
    power of two is exact, so an operator run on the scaled rows and scaled
    back keeps its bits wherever the unscaled run stays in the float range."""
    _, exps = np.frexp(stack.max(axis=tuple(range(1, stack.ndim))))
    np.ldexp(stack, -exps.reshape((-1,) + (1,) * (stack.ndim - 1)), out=stack)
    return exps


def batch_items(cost: int) -> int:
    """Items of ``cost`` bytes each that fit ``WORK_BYTES``, at least one."""
    return max(1, WORK_BYTES // cost)


def whole_batches(costs: np.ndarray) -> Iterator[tuple[int, int]]:
    """Greedy batches of whole items of the given costs in bytes, as item
    ranges (lo, hi): each takes as many items as end within ``WORK_BYTES`` of
    its start, and at least one."""
    ends = np.cumsum(costs)
    lo = 0
    while lo < len(ends):
        start = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, start + WORK_BYTES, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative integer keys, by
    one stable sort per 16-bit digit that the keys use, least significant
    first: numpy sorts uint16 keys stably by radix, int64 keys by timsort
    (4096 keys: 35 against 302 us on a 2-vCPU host)."""
    if not len(keys):
        return np.zeros(0, dtype=np.intp)
    if keys.min() < 0:
        raise ValueError("stable_order takes non-negative keys")
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the cast keeps the lowest digit
    for shift in range(16, int(keys.max()).bit_length(), 16):
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16), kind="stable")]
    return order


@dataclass(frozen=True)
class SampledFunction:
    """Real or complex function sampled at the cell centers (``checked_samples``)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        shape = self.grid.shape
        object.__setattr__(self, "values", checked_samples(self.values, shape, f"grid shape {shape}"))

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


@dataclass(frozen=True)
class FieldStack:
    """Half-space fields F(y, t_k) on the same grids, ``values[i]`` the
    values of the i-th (``checked_samples``; see ``transforms.build_fields``).
    One field is a stack of one.

    The batched operators, ``squarefuncs.scale_sums`` and
    ``maximal.peetre_maximals``, give one output row per field; the
    one-field forms of ``squarefuncs`` and ``atoms`` take a stack of one.
    """

    grid: GridSpec
    scales: ScaleGrid
    values: np.ndarray  # shape (fields,) + grid.shape + (len(scales),)

    def __post_init__(self):
        field = self.grid.shape + (len(self.scales),)
        shape = np.shape(self.values)[:1] + field
        object.__setattr__(self, "values", checked_samples(self.values, shape, f"(fields,) + {field}"))


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
    return SampledFunction(grid, d2 < radius**2)


def gaussian_bump(grid: GridSpec, center: Sequence[float], sigma: float) -> SampledFunction:
    mesh = grid.coordinate_mesh()
    d2 = sum((c - c0) ** 2 for c, c0 in zip(mesh, center))
    return SampledFunction(grid, np.exp(-d2 / (2.0 * sigma**2)))


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
