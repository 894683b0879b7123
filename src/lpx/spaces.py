"""Norm evaluators for the concrete function spaces.

Five families are implemented: plain and weighted Lebesgue, Morrey,
mixed-norm, variable-exponent, and Orlicz-slice.  All of them are lattice
quasi-norms evaluated by the grid rectangle rule; suprema over balls run over
the finite dyadic family ``BallFamily.build(grid, BALL_RADII_PER_OCTAVE)``.

Every Luxemburg-type norm, inf{lam : modular(f / lam) <= 1}, is one
``_luxemburg_rows`` solve over a stack of rows: ``VariableLebesgue`` sends all
its rows at once, ``OrliczSlice`` each block of slice windows and the slice
ball's own indicator, ``orlicz_norm`` its one row, each with the exact types
of its modular (Phi's declared types, or p_- and p_+).  The solve is a secant
in (log lam, log modular) from lam = the row's max and the bound that the
lower type puts on the root, safeguarded by the bracket those two points
close; where the types do not hold, the ``LUXEMBURG_BRACKET`` end past the
second point closes it.  A row still live after ``LUXEMBURG_MAX_STEPS``
steps is a ``NumericFailure``; each row retires once its step is a few ulps
of lam, so the result sits within the modular's own rounding of the root.
The log of a modular that sums powers of lam is convex in log lam, which the
secant relies on for speed, not for correctness: the bracket holds for any
modular decreasing in lam.

A descriptor implements only its row-batched norms: ``norms(grid, mag)``
returns the norm of every row of a finite non-negative ``(rows,) +
grid.shape`` stack, each bitwise what that row gives alone.  ``space_norms``
is the one entry to them (``space_norm`` is its one-row case) and the one
place a stack is chunked, at most ``NORM_CHUNK`` elements of rows per call.
No descriptor scales by itself: ``space_norms`` and ``orlicz_norm`` (a
Luxemburg norm with no descriptor) take the norms of each row divided by the
power of two of its max and scale them back (``_unit_row_norms``), so every
norm is homogeneous over the whole float range.  ``Morrey`` takes the ball
sums of a step's rows in one ``BallFamily.ball_sums`` call, and
``OrliczSlice`` the windows of a step's rows, or of a slab of one row, in one
Luxemburg solve; a step holds as many rows as keep it within ``NORM_CHUNK``
elements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import NoBracket, NotInAInfty, NumericFailure
from .grid import CACHE_SIZE, GridSpec, SampledFunction, read_function_csv, scale_to_unit_rows
from .maximal import BallFamily, ball_volume

__all__ = [
    "Lebesgue",
    "WeightedLebesgue",
    "Morrey",
    "MixedNorm",
    "VariableLebesgue",
    "OrliczSlice",
    "Weight",
    "ExponentFunction",
    "OrliczFunction",
    "space_norm",
    "space_norms",
    "lebesgue_row_norms",
    "orlicz_norm",
    "ap_characteristic",
    "critical_index",
    "power_weight",
    "SPACES",
    "descriptor_from_json",
]

LUXEMBURG_BRACKET = (1e-30, 1e30)  # of lam over a row's max
# largest worst sampled C in Phi(s t) <= C s^p Phi(t), p the lower type for
# s <= 1 and the upper for s >= 1.  Correct declarations give 1 (u^p,
# u^1.2 + u^1.6); u^2 declared with types (1.2, 1.6) gives 15.8 and
# min(u, 1e-12) declared with types (1, 1) gives 1000
TYPE_CONSTANT_MAX = 4.0
# secant steps a Luxemburg row may take before a NumericFailure.  The midpoint
# safeguard halves a row's bracket at least every three steps, which closes
# the bracket's 138 in log lam to a few ulps within about 175 steps
LUXEMBURG_MAX_STEPS = 200
AP_CAP = 1e6
AP_GROWTH_FLOOR = 0.02  # log2 growth per refinement always counted as stable
AP_GROWTH_SLOPE = 0.15  # threshold grows with the measured singularity strength
AP_Q_MAX = 64.0
AP_INDEX_TOL = 0.05  # width at which ``critical_index`` stops bisecting
# elements per ``space_norms`` call of ``space.norms`` (rows x cells) and per
# vectorized step inside it: rows x radii x cells of Morrey's ball sums,
# windows x offsets of an OrliczSlice Luxemburg solve.  A 1-D N=64
# equivalence block (16 rows) takes one call, two Morrey steps and two
# solves; a 2-D N=64 row one Morrey step and 64 solves of 0.4 MB of windows
# each, which run no slower than one solve over the row's 26 MB
NORM_CHUNK = 1 << 14
BALL_RADII_PER_OCTAVE = 4  # of the Morrey norm's and the A_p characteristic's family


# ---------------------------------------------------------------------------
# auxiliary objects


@dataclass(frozen=True)
class Weight:
    """Positive weight on the grid.

    ``evaluator`` re-samples the weight on refined grids; the critical-index
    search needs it because instability only shows up under refinement, so
    a weight without one (a CSV weight) needs a known ``q_omega``.
    """

    values: SampledFunction
    evaluator: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        vals = self.values.values
        if np.iscomplexobj(vals):
            raise ValueError("weight must be real")
        if not np.all(vals > 0):
            raise ValueError("weight must be strictly positive")

    @property
    def array(self) -> np.ndarray:
        return self.values.values


def power_weight(grid: GridSpec, a: float) -> Weight:
    """|x|^a sampled at cell centers (finite there since centers avoid 0),
    with its evaluator, so ``critical_index`` can refine it."""

    def evaluator(*mesh):
        r = np.sqrt(sum(c**2 for c in mesh))
        return r**a

    vals = SampledFunction(grid, evaluator(*grid.coordinate_mesh()))
    return Weight(values=vals, evaluator=evaluator)


@dataclass(frozen=True)
class ExponentFunction:
    """Variable exponent p(x) sampled at the cell centers."""

    values: np.ndarray

    @classmethod
    def build(cls, grid: GridSpec, values: np.ndarray) -> "ExponentFunction":
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError("exponent shape must match the grid")
        if values.min() <= 0 or not np.all(np.isfinite(values)):
            raise ValueError("exponent must be positive and finite")
        return cls(values=values)

    @property
    def p_minus(self) -> float:
        return float(self.values.min())

    @property
    def p_plus(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class OrliczFunction:
    """Monotone Young-type function with declared lower and upper types,
    checked on a sample grid (0 < lower_type <= upper_type, ``TYPE_CONSTANT_MAX``)."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    lower_type: float
    upper_type: float

    def __post_init__(self):
        probe = np.logspace(-6, 6, 64)
        vals = self.evaluator(probe)
        if self.evaluator(np.array([0.0]))[0] != 0.0:
            raise ValueError("Phi(0) must be 0")
        if np.any(vals <= 0) or np.any(np.diff(vals) < 0):
            raise ValueError("Phi must be positive and nondecreasing on (0, inf)")
        if not 0 < self.lower_type <= self.upper_type:
            raise ValueError(f"types must satisfy 0 < lower <= upper, got lower {self.lower_type:g}, "
                             f"upper {self.upper_type:g}")
        # sampled type bounds: Phi(s t) <= C s^p Phi(t), C the worst sampled ratio
        s = np.logspace(-3, 0, 16)
        big_s = np.logspace(0, 3, 16)
        t = np.logspace(-3, 3, 16)
        low = np.max(self.evaluator(np.outer(s, t)) / (s[:, None] ** self.lower_type * self.evaluator(t)))
        up = np.max(self.evaluator(np.outer(big_s, t)) / (big_s[:, None] ** self.upper_type * self.evaluator(t)))
        if not (low <= TYPE_CONSTANT_MAX and up <= TYPE_CONSTANT_MAX):
            raise ValueError(f"type bounds do not hold on the sample grid: worst constants {low:.3g} (lower), "
                             f"{up:.3g} (upper), above {TYPE_CONSTANT_MAX:g}")


def power_orlicz(p: float) -> OrliczFunction:
    return OrliczFunction(evaluator=lambda t: np.asarray(t, dtype=float) ** p,
                          lower_type=p, upper_type=p)


# ---------------------------------------------------------------------------
# Lebesgue and Luxemburg-type norms


def lebesgue_row_norms(mag: np.ndarray, p: float, cellvol: float) -> list[float]:
    """L^p norms of every row of the nonnegative (rows, cells) array ``mag``.
    The rows' powers must stay in the float range, as those of rows scaled to
    unit max (``scale_to_unit_rows``) do."""
    return [(total * cellvol) ** (1.0 / p) for total in np.add.reduce(mag**p, axis=-1).tolist()]


def _luxemburg_rows(mag: np.ndarray, cellvol: float, density: Callable[[np.ndarray], np.ndarray],
                    types: tuple[float, float]) -> np.ndarray:
    """inf{lam : cellvol * sum of density(row / lam) <= 1} for every row of the
    finite non-negative ``(rows, cells)`` array ``mag``; an all-zero row has
    norm 0.  ``density`` maps a ``(k, cells)`` block of ratios to its
    elementwise modular density, of exact types ``types`` = (p_lower,
    p_upper), 0 < p_lower <= p_upper.

    Each row is divided by its max and solved as a root of its log modular in
    x = log lam by a secant from two evaluated points: x = 0, giving r, and
    x = r / p_lower, clipped to LUXEMBURG_BRACKET.  Exact types make the log
    modular fall at a rate between p_lower and p_upper, so the root lies
    between r / p_upper and r / p_lower.  A row whose second point keeps the
    sign of r (declared types that do not hold) evaluates the
    LUXEMBURG_BRACKET end past it and starts from those two points instead;
    it is a ``NoBracket`` if that end keeps the sign too.  A row retires once
    its step is a few ulps of lam (of x where |x| > 1).  Any other step that
    leaves the bracket closing in on the root, or follows two steps that did
    not halve it (as on a row whose exponents span 0.05 to 8), takes the
    bracket's midpoint: a retiring step often lands on the bracket's end, and
    a midpoint there would restart a settled row.  A row live after
    LUXEMBURG_MAX_STEPS steps is a ``NumericFailure``.  A row's steps depend
    on it alone, so each row is bitwise what it gives alone.
    """
    sups = mag.max(axis=1)
    out = np.zeros(len(mag))
    live = np.flatnonzero(sups > 0)
    if not live.size:
        return out
    unit = mag[live]
    unit /= sups[live, None]

    def log_modular(block: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.log(np.add.reduce(density(block / np.exp(x)[:, None]), axis=1) * cellvol)

    count = len(live)
    rows = np.arange(count)
    ends = math.log(LUXEMBURG_BRACKET[0]), math.log(LUXEMBURG_BRACKET[1])
    tol = 4 * np.finfo(float).eps
    roots = np.empty(count)
    with np.errstate(all="ignore"):
        x0 = np.zeros(count)
        r0 = log_modular(unit, x0)
        x1 = np.clip(r0 / types[0], *ends)
        r1 = log_modular(unit, x1)
        miss = np.flatnonzero(~(r0 * r1 <= 0.0))
        if miss.size:  # the bracket end past the second point
            x0[miss], r0[miss] = x1[miss], r1[miss]
            x1[miss] = np.where(r0[miss] > 0.0, ends[1], ends[0])
            r1[miss] = log_modular(unit[miss], x1[miss])
            if not np.all(r0[miss] * r1[miss] <= 0.0):
                raise NoBracket("modular does not cross 1 inside the bracket")
        lo, hi = np.where(r0 > 0.0, x0, x1), np.where(r0 > 0.0, x1, x0)
        width1 = width2 = np.full(count, math.inf)  # of the bracket one and two steps back
        for _ in range(LUXEMBURG_MAX_STEPS):
            x = x1 - r1 * (x1 - x0) / (r1 - r0)
            x = np.where(r1 == 0.0, x1, x)  # lam = e^x1 solves the modular exactly
            done = np.abs(x - x1) <= tol * np.maximum(1.0, np.abs(x1))
            width = hi - lo
            x = np.where(done | (lo < x) & (x < hi) & (width <= 0.5 * width2), x, 0.5 * (lo + hi))
            if done.any():
                roots[rows[done]] = x[done]
                keep = ~done
                rows, x, x1, r1, lo, hi = rows[keep], x[keep], x1[keep], r1[keep], lo[keep], hi[keep]
                width, width1 = width[keep], width1[keep]
                unit = unit[keep]
                if not rows.size:
                    break
            width1, width2 = width, width1
            r = log_modular(unit, x)
            lo = np.where(r > 0.0, x, lo)
            hi = np.where(r > 0.0, hi, x)
            x0, r0, x1, r1 = x1, r1, x, r
        else:
            raise NumericFailure(f"Luxemburg solve of {rows.size} rows not settled in {LUXEMBURG_MAX_STEPS} steps")
    out[live] = np.exp(roots) * sups[live]
    return out


def _unit_row_norms(mag: np.ndarray, norms: Callable[[np.ndarray], Sequence[float]]) -> list[float]:
    """``norms`` of the non-negative float stack ``mag`` taken on its rows
    scaled to unit max (``scale_to_unit_rows``, in place) and scaled back: the
    one float-range rule of every norm entry.  A norm past the float range is
    inf."""
    exps = scale_to_unit_rows(mag)
    with np.errstate(over="ignore"):
        return np.ldexp(norms(mag), exps).tolist()


def orlicz_norm(f: SampledFunction, phi: OrliczFunction) -> float:
    """Luxemburg norm inf{lam : integral of Phi(|f|/lam) <= 1}."""
    types = phi.lower_type, phi.upper_type
    return _unit_row_norms(np.abs(f.values).reshape(1, -1),
                           lambda unit: _luxemburg_rows(unit, f.grid.cell_volume, phi.evaluator, types))[0]


def _read_csv_on(grid: GridSpec, path: str, what: str) -> SampledFunction:
    f = read_function_csv(path)
    if f.grid != grid:
        raise ValueError(f"{what} CSV {path} is sampled on {f.grid}, not on the configured {grid}")
    return f


# ---------------------------------------------------------------------------
# space descriptors
#
# Each descriptor carries its row-batched norms, its floor exponent (the
# admissible lower exponent used for lambda and b defaults), its JSON form,
# and a ``from_json`` recipe that reads exactly the keys listed in
# ``json_keys``.


@dataclass(frozen=True)
class Lebesgue:
    p: float

    tag: ClassVar[str] = "lebesgue"
    json_keys: ClassVar[tuple[str, ...]] = ("p",)

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("p must be positive")

    def norms(self, grid: GridSpec, mag: np.ndarray) -> list[float]:
        return lebesgue_row_norms(mag.reshape(len(mag), grid.size), self.p, grid.cell_volume)

    def floor(self) -> float:
        return self.p

    def to_json(self) -> dict:
        return {"tag": self.tag, "p": self.p}

    @classmethod
    def from_json(cls, cfg: dict, grid: GridSpec) -> "Lebesgue":
        return cls(p=float(cfg["p"]))


@dataclass(frozen=True)
class WeightedLebesgue:
    p: float
    weight: Weight
    q_omega: float | None = None  # critical Muckenhoupt exponent, if known

    tag: ClassVar[str] = "weighted"
    json_keys: ClassVar[tuple[str, ...]] = ("p", "weight", "q_omega")

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError("p must be positive")
        if self.q_omega is not None and not self.q_omega >= 1:
            raise ValueError(f"q_omega, a critical Muckenhoupt exponent, must be at least 1, got {self.q_omega!r}")

    def norms(self, grid: GridSpec, mag: np.ndarray) -> list[float]:
        totals = np.add.reduce((mag**self.p * self.weight.array).reshape(len(mag), grid.size), axis=-1)
        return [float((total * grid.cell_volume) ** (1.0 / self.p)) for total in totals]

    @functools.cached_property
    def critical_exponent(self) -> float:
        """``q_omega`` if given, else the weight's ``critical_index``, found
        once per descriptor."""
        return self.q_omega if self.q_omega is not None else critical_index(self.weight)

    def floor(self) -> float:
        return self.p / self.critical_exponent

    def to_json(self) -> dict:
        out = {"tag": self.tag, "p": self.p}
        if self.q_omega is not None:
            out["q_omega"] = self.q_omega
        return out

    @classmethod
    def from_json(cls, cfg: dict, grid: GridSpec) -> "WeightedLebesgue":
        wcfg = cfg.get("weight", {"kind": "power", "a": 0.5})
        if not isinstance(wcfg, dict):
            raise ValueError(f"weight must be an object with a kind, got {wcfg!r}")
        if wcfg.get("kind") == "power":
            weight = power_weight(grid, float(wcfg["a"]))
        elif wcfg.get("kind") == "csv":
            vals = _read_csv_on(grid, wcfg["path"], "weight")
            weight = Weight(values=vals)
        else:
            raise ValueError(f"unknown weight recipe {wcfg!r}")
        q_omega = cfg.get("q_omega")
        if not (q_omega is None or type(q_omega) in (int, float)):
            raise ValueError(f"q_omega must be a number, got {q_omega!r}")
        return cls(p=float(cfg["p"]), weight=weight, q_omega=q_omega)


@dataclass(frozen=True)
class Morrey:
    p: float
    r: float

    tag: ClassVar[str] = "morrey"
    json_keys: ClassVar[tuple[str, ...]] = ("p", "r")

    def __post_init__(self):
        if not (0 < self.r <= self.p):
            raise ValueError("need 0 < r <= p")

    def norms(self, grid: GridSpec, mag: np.ndarray) -> list[float]:
        """sup over the family's balls of |B|^(1/p - 1/r) ||row||_{L^r(B)}
        for every row, the ball sums of ``NORM_CHUNK`` elements' worth of
        rows per ``ball_sums`` call."""
        family = BallFamily.build(grid, BALL_RADII_PER_OCTAVE)
        cellvol = grid.cell_volume
        factors = [ball_volume(rad, grid.dim) ** (1.0 / self.p - 1.0 / self.r) for rad in family.radii.tolist()]
        powered = mag**self.r
        step = max(1, NORM_CHUNK // (len(family) * grid.size))
        norms = []
        for start in range(0, len(mag), step):
            local = family.ball_sums(powered[start:start + step])
            local *= cellvol
            np.maximum(local, 0.0, out=local)
            for tops in local.reshape(local.shape[:2] + (-1,)).max(axis=-1).tolist():
                best = 0.0
                for factor, top in zip(factors, tops):
                    best = max(best, factor * top ** (1.0 / self.r))
                norms.append(best)
        return norms

    def floor(self) -> float:
        return self.r

    def to_json(self) -> dict:
        return {"tag": self.tag, "p": self.p, "r": self.r}

    @classmethod
    def from_json(cls, cfg: dict, grid: GridSpec) -> "Morrey":
        return cls(p=float(cfg["p"]), r=float(cfg["r"]))


@dataclass(frozen=True)
class MixedNorm:
    exponents: tuple[float, ...]

    tag: ClassVar[str] = "mixed"
    json_keys: ClassVar[tuple[str, ...]] = ("p",)

    def __post_init__(self):
        if not all(0 < p for p in self.exponents):
            raise ValueError("every exponent must be positive (math.inf allowed)")

    def norms(self, grid: GridSpec, mag: np.ndarray) -> list[float]:
        if len(self.exponents) != grid.dim:
            raise ValueError("need one exponent per axis")
        work = mag
        # integrate axis by axis: first exponent binds the first grid axis.  The
        # last root is taken row by row on numpy scalars, as for a single row:
        # numpy's vectorized power can differ from the scalar one in the last bit
        for k, p in enumerate(self.exponents, 1):
            if math.isinf(p):
                work = work.max(axis=1)
            else:
                sums = np.sum(work**p, axis=1) * grid.spacing
                work = sums ** (1.0 / p) if k < len(self.exponents) else [total ** (1.0 / p) for total in sums]
        return [float(w) for w in work]

    def floor(self) -> float:
        return float(min(self.exponents))

    def to_json(self) -> dict:
        return {"tag": self.tag, "p": list(self.exponents)}

    @classmethod
    def from_json(cls, cfg: dict, grid: GridSpec) -> "MixedNorm":
        exponents = tuple(float(x) for x in cfg["p"])
        if len(exponents) != grid.dim:
            raise ValueError("need one exponent per axis")
        return cls(exponents=exponents)


@dataclass(frozen=True)
class VariableLebesgue:
    exponent: ExponentFunction

    tag: ClassVar[str] = "variable"
    json_keys: ClassVar[tuple[str, ...]] = ("csv", "base", "dip")

    def norms(self, grid: GridSpec, mag: np.ndarray) -> list[float]:
        pvals = self.exponent.values.reshape(-1)
        types = self.exponent.p_minus, self.exponent.p_plus
        return _luxemburg_rows(mag.reshape(len(mag), grid.size), grid.cell_volume, lambda ratio: ratio**pvals,
                               types).tolist()

    def floor(self) -> float:
        return self.exponent.p_minus

    def to_json(self) -> dict:
        return {"tag": self.tag, "p_minus": self.exponent.p_minus, "p_plus": self.exponent.p_plus}

    @classmethod
    def from_json(cls, cfg: dict, grid: GridSpec) -> "VariableLebesgue":
        """Exponent from a CSV, or base - dip * exp(-|x|^2)."""
        if "csv" in cfg:
            vals = _read_csv_on(grid, cfg["csv"], "exponent").values.real
        else:
            r2 = sum(c**2 for c in grid.coordinate_mesh())
            vals = float(cfg.get("base", 1.8)) - float(cfg.get("dip", 0.3)) * np.exp(-r2)
        return cls(exponent=ExponentFunction.build(grid, vals))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _slice_denominator(phi: OrliczFunction, grid: GridSpec, slice_t: float) -> float:
    """The ``OrliczSlice`` denominator, the Luxemburg norm of the indicator
    of the slice ball ``grid.ball_mask(slice_t)`` (a ones row of its cell
    count), which is the same at every centre."""
    count = len(grid.ball_offsets((slice_t,))[0][0])
    if count == 0:
        raise ValueError("slice radius smaller than one cell")
    types = phi.lower_type, phi.upper_type
    return float(_luxemburg_rows(np.ones((1, count)), grid.cell_volume, phi.evaluator, types)[0])


def _slice_windows(grid: GridSpec, mag: np.ndarray, slice_t: float):
    """The slice windows of every row of ``mag``, one window ``mag[i][(x + o) mod n]``
    over the offsets o of ``grid.ball_offsets((slice_t,))`` per (row i, cell
    x) in C order, in blocks of whole rows or of first-axis slabs of one row,
    at most ``NORM_CHUNK`` elements each (at least one line of cells)."""
    n = grid.points_per_axis
    shifts = grid.ball_offsets((slice_t,))[0]
    count = len(shifts[0])
    lines = max(1, NORM_CHUNK // (count * grid.size // n))  # first-axis lines per block
    rows, span = max(1, lines // n), min(n, lines)
    for start in range(0, len(mag), rows):
        view = grid.torus_window_view(mag[start:start + rows])
        for a in range(0, n, span):
            block = view[(slice(None),) + shifts + (slice(a, a + span),)]  # (rows, offsets, span, ...)
            yield np.ascontiguousarray(np.moveaxis(block, 1, -1)).reshape(-1, count)


@dataclass(frozen=True)
class OrliczSlice:
    phi: OrliczFunction
    r: float
    slice_t: float

    tag: ClassVar[str] = "orlicz_slice"
    json_keys: ClassVar[tuple[str, ...]] = ("r", "t", "lower_type", "upper_type")

    def __post_init__(self):
        if self.r <= 0 or self.slice_t <= 0:
            raise ValueError("r and slice_t must be positive")

    def norms(self, grid: GridSpec, mag: np.ndarray) -> list[float]:
        """The L^r norm over x of every row's Luxemburg norm on the slice
        ball around x, over the slice ball's own: one ``_luxemburg_rows``
        solve per block of ``_slice_windows``.  On rows of unit max the ratios
        are at most about 1 and near 1 at the max, so their powers stay in
        range."""
        cellvol = grid.cell_volume
        denom = _slice_denominator(self.phi, grid, self.slice_t)
        types = self.phi.lower_type, self.phi.upper_type
        inner = np.concatenate([_luxemburg_rows(windows, cellvol, self.phi.evaluator, types)
                                for windows in _slice_windows(grid, mag, self.slice_t)] or [np.zeros(0)])
        return lebesgue_row_norms((inner / denom).reshape(len(mag), grid.size), self.r, cellvol)

    def floor(self) -> float:
        return min(self.r, self.phi.lower_type)

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "r": self.r,
            "t": self.slice_t,
            "lower_type": self.phi.lower_type,
            "upper_type": self.phi.upper_type,
        }

    @classmethod
    def from_json(cls, cfg: dict, grid: GridSpec) -> "OrliczSlice":
        """Phi(u) = u^lower + u^upper, or u^p when both types equal p."""
        lower = float(cfg.get("lower_type", 1.2))
        upper = float(cfg.get("upper_type", 1.6))
        if lower == upper:
            phi = power_orlicz(lower)
        else:
            phi = OrliczFunction(
                evaluator=lambda u, lo=lower, hi=upper: np.asarray(u, float) ** lo + np.asarray(u, float) ** hi,
                lower_type=lower,
                upper_type=upper,
            )
        return cls(phi=phi, r=float(cfg["r"]), slice_t=float(cfg["t"]))


SpaceDescriptor = Lebesgue | WeightedLebesgue | Morrey | MixedNorm | VariableLebesgue | OrliczSlice

SPACES = {cls.tag: cls for cls in (Lebesgue, WeightedLebesgue, Morrey, MixedNorm, VariableLebesgue, OrliczSlice)}


def space_norm(f: SampledFunction, space: SpaceDescriptor) -> float:
    """Norm of f in the given space; 0 iff f vanishes on the grid.  The
    one-row case of ``space_norms``."""
    return space_norms(f.grid, f.values[None], space)[0]


def space_norms(grid: GridSpec, values: np.ndarray, space: SpaceDescriptor) -> list[float]:
    """``space_norm`` of every row of the real, complex or boolean ``(rows,) +
    grid.shape`` stack ``values``, each bitwise its one-row value: one
    ``space.norms`` call per step of ``max(1, NORM_CHUNK // grid.size)`` rows,
    on the step's float magnitudes scaled to unit max (``_unit_row_norms``),
    so a call's temporaries stay within a step.

    The rows are computed results, so a non-finite sample among them is a
    ``NumericFailure``.
    """
    if values.shape[1:] != grid.shape:
        raise ValueError(f"rows of shape {values.shape[1:]} do not match the grid shape {grid.shape}")
    if not np.isfinite(values).all():
        raise NumericFailure("a row to be normed holds a non-finite sample")
    norms = functools.partial(space.norms, grid)
    step = max(1, NORM_CHUNK // grid.size)
    return [norm for start in range(0, len(values), step)
            for norm in _unit_row_norms(np.abs(values[start:start + step]).astype(float, copy=False), norms)]


def descriptor_from_json(cfg: dict, grid: GridSpec) -> SpaceDescriptor:
    """Build a descriptor from the JSON schema; weights/exponents by recipe."""
    tag = cfg.get("tag") if isinstance(cfg, dict) else None
    cls = SPACES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"space must be an object with a tag among {sorted(SPACES)}, got {cfg!r}")
    unknown = set(cfg) - {"tag", *cls.json_keys}
    if unknown:
        raise ValueError(f"unknown keys in space config: {sorted(unknown)}")
    try:
        return cls.from_json(cfg, grid)
    except KeyError as exc:
        raise ValueError(f"space config {cls.tag!r} misses key {exc}") from None
    except TypeError as exc:  # a recipe value of the wrong kind, such as "p": [1] for a number
        raise ValueError(f"space config {cfg!r} has a value of the wrong kind: {exc}") from None


# ---------------------------------------------------------------------------
# Muckenhoupt layer


def ap_characteristic(w: Weight, p: float) -> float:
    """Largest ball-average product over the family (grid means, ess-sup = max)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    family = BallFamily.build(w.values.grid, BALL_RADII_PER_OCTAVE)
    counts = [len(axes[0]) for axes in family.grid.ball_offsets(tuple(family.radii.tolist()))]
    omega = w.array
    sums_w = family.ball_sums(omega)
    if p == 1.0:
        inv_ess = family.ball_filters(1.0 / omega)
    else:
        sums_dual = family.ball_sums(omega ** (1.0 / (1.0 - p)))
    best = 0.0
    for i, count in enumerate(counts):
        mean_w = sums_w[i] / count
        if p == 1.0:
            vals = mean_w * inv_ess[i]
        else:
            mean_dual = sums_dual[i] / count
            vals = mean_w * np.maximum(mean_dual, 0.0) ** (p - 1.0)
        best = max(best, float(vals.max()))
    return best


def _resampled_weight(w: Weight, factor: int) -> Weight:
    if w.evaluator is None:
        raise ValueError("critical_index needs a weight with an evaluator: a CSV weight needs q_omega")
    g = w.values.grid
    fine = GridSpec(dim=g.dim, half_width=g.half_width, points_per_axis=g.points_per_axis * factor)
    return Weight(values=SampledFunction(fine, w.evaluator(*fine.coordinate_mesh())), evaluator=w.evaluator)


def critical_index(w: Weight) -> float:
    """Smallest q whose characteristic stays stable under grid refinement.

    On a fixed finite grid every positive weight has a finite characteristic;
    divergence of the continuum supremum shows up as growth when the grid is
    refined.  The stability threshold is scaled by the refinement growth of
    the q=1 characteristic, which measures the strength of the worst
    singularity: for power weights |x|^a this centers the detected transition
    at 1 + a/n across the whole family.
    """
    weights = [w, _resampled_weight(w, 2), _resampled_weight(w, 4)]

    def growth(q: float) -> float:
        chars = [ap_characteristic(wk, q) for wk in weights]
        if chars[-1] > AP_CAP or not all(np.isfinite(chars)):
            return math.inf
        return math.log2(chars[2] / chars[1])

    strength = growth(1.0)
    if strength <= AP_GROWTH_FLOOR:
        return 1.0
    tau = max(AP_GROWTH_SLOPE * strength, AP_GROWTH_FLOOR) if math.isfinite(strength) else 0.05

    def stable(q: float) -> bool:
        return growth(q) <= tau

    lo, hi = 1.0, 2.0
    while not stable(hi):
        lo, hi = hi, hi * 2.0
        if hi > AP_Q_MAX:
            raise NotInAInfty(f"no stable exponent up to {AP_Q_MAX}")
    while hi - lo > AP_INDEX_TOL:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            hi = mid
        else:
            lo = mid
    return hi
