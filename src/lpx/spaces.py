"""Norm evaluators for the concrete function spaces.

Five families are implemented: plain and weighted Lebesgue, Morrey,
mixed-norm, variable-exponent, and Orlicz-slice.  All of them are lattice
quasi-norms evaluated by the grid rectangle rule; suprema over balls run over
a finite dyadic family; Luxemburg-type norms are solved by bisection on the
modular, which is strictly monotone in the scaling parameter.

Every bisection (``OrliczSlice``'s windows, ``orlicz_norm`` and
``VariableLebesgue`` through ``_luxemburg_norm``, ``OrliczFunction.inverse``)
is a certified replay of the plain log-bisection: a secant estimate of the
root and two evaluations around it decide every step far from the root by
comparison, so only the steps near it evaluate the modular.  Each result is
bitwise the plain bisection's provided the computed modular (or Phi) is
monotone across a relative gap of ``LUXEMBURG_BAND`` = 1e-13 next to the
root, which the certificate cannot check: its true change there is about
p * 1e-13 for a type or exponent p, against summation rounding of a few
ulps, so a very small p could let the replay differ from the plain loop in
the last bits.

A descriptor implements only its row-batched norms: ``norms(grid, mag)``
returns the norm of every row of a finite non-negative ``(rows,) +
grid.shape`` stack, each bitwise what that row gives alone.  ``space_norms``
is the one entry to them (``space_norm`` is its one-row case), and no
descriptor scales by itself: ``space_norms``, ``convexify_norm`` (which takes
its power of the scaled rows) and ``orlicz_norm`` (a Luxemburg norm with no
descriptor) take the norms of each row divided by the power of two of its
max and scale them back (``_unit_row_norms``), so every norm is homogeneous
over the whole float range.  ``Morrey`` takes the ball sums of
a step's rows in one ``BallFamily.ball_sums`` call, and ``OrliczSlice`` the
windows of a step's rows, or of a slab of one row, in one certified
bisection; a step holds as many rows as keep it within ``NORM_CHUNK``
elements.  ``VariableLebesgue`` solves one scalar bisection per row, which
is faster than a row-batched one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import NoBracket, NotInAInfty, NumericFailure
from .grid import GridSpec, SampledFunction, read_function_csv, scale_to_unit_rows
from .maximal import BallFamily, ball_volume, cached_ball_family

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
    "convexify_norm",
    "ap_characteristic",
    "critical_index",
    "power_weight",
    "SPACES",
    "descriptor_from_json",
]

LUXEMBURG_BRACKET = (1e-30, 1e30)
LUXEMBURG_BAND = 1e-13  # relative half-width of the band a root estimate is certified on
LUXEMBURG_SECANT_STEPS = 8  # most secant steps a root estimate takes
LUXEMBURG_MAX_ITER = 200
LUXEMBURG_RTOL = 1e-9
AP_CAP = 1e6
AP_GROWTH_FLOOR = 0.02  # log2 growth per refinement always counted as stable
AP_GROWTH_SLOPE = 0.15  # threshold grows with the measured singularity strength
AP_Q_MAX = 64.0
# elements per vectorized step of a batched norm: rows x radii x cells of
# Morrey's ball sums, windows x offsets of an OrliczSlice certified bisection.
# A 1-D N=64 equivalence block (16 rows) takes two Morrey steps and two
# bisections; a 2-D N=64 row one Morrey step and 64 bisections of 0.4 MB of
# windows each, which run no slower than one bisection over the row's 26 MB
NORM_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# auxiliary objects


@dataclass(frozen=True)
class Weight:
    """Positive weight on the grid, with the ball family its averages use.

    ``evaluator`` re-samples the weight on refined grids; the critical-index
    search needs it because instability only shows up under refinement.
    """

    values: SampledFunction
    family: BallFamily
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


def power_weight(grid: GridSpec, a: float, family: BallFamily | None = None) -> Weight:
    """|x|^a sampled at cell centers (finite there since centers avoid 0)."""
    if family is None:
        family = BallFamily.build(grid, 4)

    def evaluator(*mesh):
        r = np.sqrt(sum(c**2 for c in mesh))
        return r**a

    vals = SampledFunction(grid, evaluator(*grid.coordinate_mesh()))
    return Weight(values=vals, family=family, evaluator=evaluator)


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
    """Monotone Young-type function with declared lower and upper types."""

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
        # sampled type bounds: Phi(s t) <= C s^p Phi(t) with a finite worst constant
        s = np.logspace(-3, 0, 16)
        big_s = np.logspace(0, 3, 16)
        t = np.logspace(-3, 3, 16)
        low = np.max(self.evaluator(np.outer(s, t)) / (s[:, None] ** self.lower_type * self.evaluator(t)))
        up = np.max(self.evaluator(np.outer(big_s, t)) / (big_s[:, None] ** self.upper_type * self.evaluator(t)))
        if not (np.isfinite(low) and np.isfinite(up)):
            raise ValueError("type bounds do not hold on the sample grid")

    def inverse(self, y: float) -> float:
        """Numeric inverse on (0, inf) by bisection in log-argument."""
        lo, hi = LUXEMBURG_BRACKET

        def phi(t: float) -> float:
            return self.evaluator(np.array([t]))[0]

        phi_lo = phi(lo)
        if not phi_lo <= y or not y <= (phi_hi := phi(hi)):
            raise NoBracket(f"Phi never reaches {y:g} on the bracket")
        lo, hi = _certified_bisection(phi, y, True, lo, phi_lo, hi, phi_hi)
        return math.sqrt(lo * hi)


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


# Certified replay of the log-bisections.  Every Luxemburg-type solve here is
# a log-bisection, mid = sqrt(lo * hi), and its result is what that sequence
# of (lo, hi) updates leaves.  The replay runs the same sequence but evaluates
# only where a step is in doubt: a few secant steps in (log lam, log value)
# estimate the root, two evaluations certify that the step flips inside
# est * (1 -+ LUXEMBURG_BAND), and every mid outside est * (1 -+ 2
# LUXEMBURG_BAND) is then decided by comparison alone.  Those decisions are
# the evaluated ones whenever the computed step is monotone across a relative
# gap of LUXEMBURG_BAND, about 450 ulps (on criterion 5's windows it is
# monotone to the ulp).  A root whose certificate fails evaluates every step.
# The scalar solves step in Python floats and the windows in numpy rows: run
# on one row, the row stepper's numpy calls cost more per step than a scalar
# modular does, which made a VariableLebesgue norm no faster than the plain
# loop and an inverse five times slower than it.


def _secant_log_root(value: Callable[[float], float], target: float, increasing: bool,
                     x0: float, r0: float, x1: float, r1: float) -> float:
    """Root estimate of log(value(e^x) / target) from its values r0, r1 at
    x0 < x1, whose signs bracket the root.  A secant step that leaves the
    bracket is replaced by the bracket's midpoint.  Call under
    ``np.errstate(all="ignore")``."""
    lo_x, hi_x = x0, x1
    log_target = np.log(target)
    for _ in range(LUXEMBURG_SECANT_STEPS):
        x = x1 - r1 * (x1 - x0) / (r1 - r0)
        if not lo_x <= x <= hi_x:
            x = 0.5 * (lo_x + hi_x)
        if abs(x - x1) <= 0.25 * LUXEMBURG_BAND:
            break
        r = np.log(value(math.exp(x))) - log_target
        if (r > 0) != increasing:
            lo_x = x
        else:
            hi_x = x
        x0, r0, x1, r1 = x1, r1, x, r
    return math.exp(x)


def _certified_bisection(value: Callable[[float], float], target: float, increasing: bool,
                         lo: float, value_lo: float, hi: float, value_hi: float) -> tuple[float, float]:
    """(lo, hi) after the log-bisection of [lo, hi] that sets lo = mid while
    value(mid) > target (value decreasing) or value(mid) <= target (value
    increasing), and stops once hi / lo < 1 + LUXEMBURG_RTOL or after
    LUXEMBURG_MAX_ITER steps.  ``value_lo`` and ``value_hi`` are the values at
    the bracket ends.  The steps run in Python floats.
    """

    def up(lam: float) -> bool:
        v = value(lam)
        return v <= target if increasing else v > target

    below, above = 0.0, math.inf  # uncertified: every mid is evaluated
    with np.errstate(all="ignore"):
        log_target = np.log(target)
        est = _secant_log_root(value, target, increasing,
                               math.log(lo), np.log(value_lo) - log_target,
                               math.log(hi), np.log(value_hi) - log_target)
        if up(est * (1 - LUXEMBURG_BAND)) and not up(est * (1 + LUXEMBURG_BAND)):
            below, above = est * (1 - 2 * LUXEMBURG_BAND), est * (1 + 2 * LUXEMBURG_BAND)
    for _ in range(LUXEMBURG_MAX_ITER):
        mid = math.sqrt(lo * hi)
        if mid <= below or (mid < above and up(mid)):
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + LUXEMBURG_RTOL:
            break
    return lo, hi


def _secant_log_roots(modular: Callable[[np.ndarray, np.ndarray], np.ndarray], count: int) -> np.ndarray:
    """Root estimate of log modular(row, e^x) for each of ``count`` rows,
    from the log-midpoint of LUXEMBURG_BRACKET and a first step of unit
    slope; a row stops once its step is below LUXEMBURG_BAND / 4.  Call under
    ``np.errstate(all="ignore")``."""
    lo_x = np.full(count, math.log(LUXEMBURG_BRACKET[0]))
    hi_x = np.full(count, math.log(LUXEMBURG_BRACKET[1]))
    rows = np.arange(count)
    x1 = 0.5 * (lo_x + hi_x)
    r1 = np.log(modular(rows, np.exp(x1)))
    x0, r0 = x1 - 1.0, r1 + 1.0
    est = np.empty(count)
    for _ in range(LUXEMBURG_SECANT_STEPS):
        x = x1 - r1 * (x1 - x0) / (r1 - r0)
        x = np.where((lo_x <= x) & (x <= hi_x), x, 0.5 * (lo_x + hi_x))
        done = np.abs(x - x1) <= 0.25 * LUXEMBURG_BAND
        est[rows[done]] = x[done]
        live = ~done
        rows, x, x1, r1, lo_x, hi_x = rows[live], x[live], x1[live], r1[live], lo_x[live], hi_x[live]
        if not rows.size:
            break
        r = np.log(modular(rows, np.exp(x)))
        lo_x = np.where(r > 0, x, lo_x)
        hi_x = np.where(r > 0, hi_x, x)
        x0, r0, x1, r1 = x1, r1, x, r
    est[rows] = x1
    return np.exp(est)


def _certified_bisection_rows(modular: Callable[[np.ndarray, np.ndarray], np.ndarray], count: int,
                              max_iter: int) -> np.ndarray:
    """hi of ``count`` log-bisections of LUXEMBURG_BRACKET, one per row, that
    set lo = mid while modular(row, mid) > 1 (decreasing in lam); a row steps
    until its (lo, hi) reach a fixed point, at most ``max_iter`` times.
    ``modular(rows, lams)`` evaluates the given rows at one lam each.
    """
    rows = np.arange(count)
    with np.errstate(all="ignore"):
        est = _secant_log_roots(modular, count)
        flips = modular(np.concatenate([rows, rows]),
                        np.concatenate([est * (1 - LUXEMBURG_BAND), est * (1 + LUXEMBURG_BAND)])) > 1.0
    certified = flips[:count] & ~flips[count:]
    below = np.where(certified, est * (1 - 2 * LUXEMBURG_BAND), 0.0)  # uncertified: every mid is evaluated
    above = np.where(certified, est * (1 + 2 * LUXEMBURG_BAND), math.inf)
    out = np.empty(count)
    lo = np.full(count, LUXEMBURG_BRACKET[0])
    hi = np.full(count, LUXEMBURG_BRACKET[1])
    for _ in range(max_iter):
        mid = np.sqrt(lo * hi)
        up = mid <= below
        doubt = (up ^ (mid < above)).nonzero()[0]
        if doubt.size:
            up[doubt] = modular(rows[doubt], mid[doubt]) > 1.0
            # a step that leaves (lo, hi) unchanged repeats forever: retire the
            # row.  Only a mid in doubt can, since (lo, hi) closes in on the root
            settled = doubt[np.where(up[doubt], lo[doubt], hi[doubt]) == mid[doubt]]
            if settled.size:
                out[rows[settled]] = hi[settled]
                keep = np.ones(rows.size, dtype=bool)
                keep[settled] = False
                rows, lo, hi, mid, up = rows[keep], lo[keep], hi[keep], mid[keep], up[keep]
                below, above = below[keep], above[keep]
                if not rows.size:
                    break
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    out[rows] = hi
    return out


def _luxemburg_norm(mag: np.ndarray, cellvol: float, density: Callable[[np.ndarray], np.ndarray]) -> float:
    """inf{lam : sum of density(mag / lam) times cellvol <= 1}.

    Bisection on the modular, which must be strictly decreasing in lam, over
    the bracket max(mag) * LUXEMBURG_BRACKET.
    """
    sup = float(mag.max())
    if sup == 0.0:
        return 0.0

    def modular(lam: float) -> float:
        with np.errstate(divide="ignore"):
            ratio = mag / lam
        return float(np.sum(density(ratio)) * cellvol)

    lo, hi = sup * LUXEMBURG_BRACKET[0], sup * LUXEMBURG_BRACKET[1]
    modular_hi = modular(hi)
    if modular_hi > 1.0 or (modular_lo := modular(lo)) < 1.0:
        raise NoBracket("modular does not cross 1 inside the bracket")
    return _certified_bisection(modular, 1.0, False, lo, modular_lo, hi, modular_hi)[1]


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
    return _unit_row_norms(np.abs(f.values)[None],
                           lambda unit: [_luxemburg_norm(unit[0], f.grid.cell_volume, phi.evaluator)])[0]


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

    def norms(self, grid: GridSpec, mag: np.ndarray) -> list[float]:
        totals = np.add.reduce((mag**self.p * self.weight.array).reshape(len(mag), grid.size), axis=-1)
        return [float((total * grid.cell_volume) ** (1.0 / self.p)) for total in totals]

    def floor(self) -> float:
        q = self.q_omega if self.q_omega is not None else critical_index(self.weight)
        return self.p / q

    def to_json(self) -> dict:
        out = {"tag": self.tag, "p": self.p}
        if self.q_omega is not None:
            out["q_omega"] = self.q_omega
        return out

    @classmethod
    def from_json(cls, cfg: dict, grid: GridSpec) -> "WeightedLebesgue":
        wcfg = cfg.get("weight", {"kind": "power", "a": 0.5})
        if wcfg.get("kind") == "power":
            weight = power_weight(grid, float(wcfg["a"]))
        elif wcfg.get("kind") == "csv":
            vals = _read_csv_on(grid, wcfg["path"], "weight")
            weight = Weight(values=vals, family=BallFamily.build(grid, 4))
        else:
            raise ValueError(f"unknown weight recipe {wcfg!r}")
        return cls(p=float(cfg["p"]), weight=weight, q_omega=cfg.get("q_omega"))


@dataclass(frozen=True)
class Morrey:
    p: float
    r: float
    family: BallFamily | None = None

    tag: ClassVar[str] = "morrey"
    json_keys: ClassVar[tuple[str, ...]] = ("p", "r")

    def __post_init__(self):
        if not (0 < self.r <= self.p):
            raise ValueError("need 0 < r <= p")

    def norms(self, grid: GridSpec, mag: np.ndarray) -> list[float]:
        """sup over the family's balls of |B|^(1/p - 1/r) ||row||_{L^r(B)}
        for every row, the ball sums of ``NORM_CHUNK`` elements' worth of
        rows per ``ball_sums`` call."""
        family = self.family or cached_ball_family(grid, 4)
        cellvol = grid.cell_volume
        factors = [ball_volume(rad, grid.dim) ** (1.0 / self.p - 1.0 / self.r) for rad in family.radii.tolist()]
        powered = mag**self.r
        step = max(1, NORM_CHUNK // (len(family) * grid.size))
        norms = []
        for start in range(0, len(mag), step):
            local = family.ball_sums(powered[start:start + step], family.radii)
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
        return cls(exponents=tuple(float(x) for x in cfg["p"]))


@dataclass(frozen=True)
class VariableLebesgue:
    exponent: ExponentFunction

    tag: ClassVar[str] = "variable"
    json_keys: ClassVar[tuple[str, ...]] = ("csv", "base", "dip")

    def norms(self, grid: GridSpec, mag: np.ndarray) -> list[float]:
        """One scalar ``_luxemburg_norm`` per row: a row-batched bisection was
        slower, for one row and for a 2-D block alike."""
        pvals = self.exponent.values
        return [_luxemburg_norm(row, grid.cell_volume, lambda ratio, row=row: np.where(row > 0, ratio**pvals, 0.0))
                for row in mag]

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


@functools.lru_cache(maxsize=8)
def _slice_geometry(phi: OrliczFunction, grid: GridSpec, slice_t: float) -> tuple[np.ndarray, float]:
    """The offsets of the slice ball ``dist < slice_t`` and the ``OrliczSlice``
    denominator, the Luxemburg norm of that ball's indicator, which is the
    same at every centre.  The offsets are read-only."""
    mask = grid.offset_distances() < slice_t
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise ValueError("slice radius smaller than one cell")
    offsets = np.argwhere(mask)
    offsets.setflags(write=False)
    return offsets, 1.0 / phi.inverse(1.0 / (count * grid.cell_volume))


def _slice_windows(grid: GridSpec, mag: np.ndarray, offsets: np.ndarray):
    """The slice windows of every row of ``mag``, one window ``mag[i][(x + o) mod n]``
    over the offsets o per (row i, cell x) in C order, in blocks of whole rows
    or of first-axis slabs of one row, at most ``NORM_CHUNK`` elements each
    (at least one line of cells)."""
    n = grid.points_per_axis
    shifts = tuple(offsets.T)
    lines = max(1, NORM_CHUNK // (len(offsets) * grid.size // n))  # first-axis lines per block
    rows, span = max(1, lines // n), min(n, lines)
    for start in range(0, len(mag), rows):
        view = grid.torus_window_view(mag[start:start + rows])
        for a in range(0, n, span):
            block = view[(slice(None),) + shifts + (slice(a, a + span),)]  # (rows, offsets, span, ...)
            yield np.ascontiguousarray(np.moveaxis(block, 1, -1)).reshape(-1, len(offsets))


def _window_norms(phi: OrliczFunction, cellvol: float, windows: np.ndarray) -> np.ndarray:
    """The Luxemburg norm of every row of ``windows``: one certified bisection
    over the rows, each divided by its own max so the bracket holds for any
    amplitude (the norm is then hi * max).  An all-zero row has norm 0."""
    sups = windows.max(axis=1)
    live = np.flatnonzero(sups > 0)
    out = np.zeros(len(sups))
    if live.size:
        scaled = windows[live] / sups[live, None]

        def modular(rows: np.ndarray, lams: np.ndarray) -> np.ndarray:
            return phi.evaluator(scaled[rows] / lams[:, None]).sum(axis=1) * cellvol

        out[live] = _certified_bisection_rows(modular, len(live), 80) * sups[live]
    return out


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
        ball around x, over the slice ball's own: one certified bisection per
        block of ``_slice_windows``.  On rows of unit max the ratios are at
        most about 1 and near 1 at the max, so their powers stay in range."""
        cellvol = grid.cell_volume
        offsets, denom = _slice_geometry(self.phi, grid, self.slice_t)
        inner = np.concatenate([_window_norms(self.phi, cellvol, windows)
                                for windows in _slice_windows(grid, mag, offsets)] or [np.zeros(0)])
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
    """``space_norm`` of every row of the real or complex ``(rows,) + grid.shape``
    stack ``values``, each bitwise its one-row value, from one ``space.norms``
    call on the rows' magnitudes scaled to unit max (``_unit_row_norms``).

    The rows are computed results, so a non-finite sample among them is a
    ``NumericFailure``.
    """
    if values.shape[1:] != grid.shape:
        raise ValueError(f"rows of shape {values.shape[1:]} do not match the grid shape {grid.shape}")
    if not np.isfinite(values).all():
        raise NumericFailure("a row to be normed holds a non-finite sample")
    return _unit_row_norms(np.abs(values), functools.partial(space.norms, grid))


def convexify_norm(f: SampledFunction, space: SpaceDescriptor, p: float) -> float:
    """Norm of |f|^p in the space, to the 1/p power: the p-th power and the
    root of |f| scaled to unit max (``_unit_row_norms``)."""
    if p <= 0:
        raise ValueError("p must be positive")
    return _unit_row_norms(np.abs(f.values)[None],
                           lambda unit: [norm ** (1.0 / p) for norm in space.norms(f.grid, unit**p)])[0]


def descriptor_from_json(cfg: dict, grid: GridSpec) -> SpaceDescriptor:
    """Build a descriptor from the JSON schema; weights/exponents by recipe."""
    cls = SPACES.get(cfg.get("tag")) if isinstance(cfg, dict) else None
    if cls is None:
        raise ValueError(f"space must be an object with a tag among {sorted(SPACES)}, got {cfg!r}")
    unknown = set(cfg) - {"tag", *cls.json_keys}
    if unknown:
        raise ValueError(f"unknown keys in space config: {sorted(unknown)}")
    try:
        return cls.from_json(cfg, grid)
    except KeyError as exc:
        raise ValueError(f"space config {cls.tag!r} misses key {exc}") from None


# ---------------------------------------------------------------------------
# Muckenhoupt layer


def ap_characteristic(w: Weight, p: float) -> float:
    """Largest ball-average product over the family (grid means, ess-sup = max)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    family = w.family
    omega = w.array
    sums_w = family.ball_sums(omega, family.radii)
    if p != 1.0:
        sums_dual = family.ball_sums(omega ** (1.0 / (1.0 - p)), family.radii)
    best = 0.0
    for i, rad in enumerate(family.radii):
        count = family.cell_count(rad)
        mean_w = sums_w[i] / count
        if p == 1.0:
            inv_ess = family.ball_filter(1.0 / omega, rad)
            vals = mean_w * inv_ess
        else:
            mean_dual = sums_dual[i] / count
            vals = mean_w * np.maximum(mean_dual, 0.0) ** (p - 1.0)
        best = max(best, float(vals.max()))
    return best


def _resampled_weight(w: Weight, factor: int) -> Weight:
    if w.evaluator is None:
        raise ValueError("critical_index needs a weight with an evaluator")
    g = w.values.grid
    fine = GridSpec(dim=g.dim, half_width=g.half_width, points_per_axis=g.points_per_axis * factor)
    family = BallFamily.build(fine, w.family.radii_per_octave)
    vals = SampledFunction(fine, w.evaluator(*fine.coordinate_mesh()))
    return Weight(values=vals, family=family, evaluator=w.evaluator)


def critical_index(w: Weight, tol: float = 0.05) -> float:
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            hi = mid
        else:
            lo = mid
    return hi
