"""Norm evaluators for the concrete function spaces.

Six descriptors: ``Lebesgue``, ``WeightedLebesgue``, ``Morrey``,
``MixedNorm``, ``VariableLebesgue`` and ``OrliczSlice``, all lattice
quasi-norms by the grid rectangle rule, listed in ``SPACES``.  A descriptor
implements only its row-batched ``norms``; ``space_norms`` is the one entry
to them (``space_norm`` its one-row case) and ``orlicz_norm`` the one for a
bare ``OrliczFunction``.  Every Luxemburg norm is solved by
``_power_sum_norms``.  ``ap_characteristic`` and ``critical_index`` measure
weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import NotInAInfty, NumericFailure
from .grid import CACHE_SIZE, GridSpec, SampledFunction, batch_items, read_function_csv, scale_to_unit_rows
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

# Newton steps a Luxemburg row may take before a NumericFailure; rows of
# exponents from 0.05 to 8 take at most 8
LUXEMBURG_MAX_STEPS = 64
# binades of the powers in one OrliczSlice window band: a window's largest
# power stays above 2^-960, so its powers within 2^-60 of that stay normal
SLICE_BAND_BITS = 960
AP_CAP = 1e6
AP_GROWTH_FLOOR = 0.02  # log2 growth per refinement always counted as stable
AP_GROWTH_SLOPE = 0.15  # threshold grows with the measured singularity strength
AP_Q_MAX = 64.0
AP_INDEX_TOL = 0.05  # width at which ``critical_index`` stops bisecting
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
    """Young function Phi(u) = u^lower_type + u^upper_type, or u^p when both
    types equal p (0 < lower_type <= upper_type): the sum of u^p over its
    ``exponents``.  ``evaluator``, Phi as a callable, must agree with that
    sum (``np.allclose``, rtol 1e-12, on a log-spaced probe); no norm calls
    it."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    lower_type: float
    upper_type: float

    def __post_init__(self):
        if not 0 < self.lower_type <= self.upper_type:
            raise ValueError(f"types must satisfy 0 < lower <= upper, got lower {self.lower_type:g}, "
                             f"upper {self.upper_type:g}")
        probe = np.logspace(-6, 6, 64)
        if not np.allclose(self.evaluator(probe), sum(probe**p for p in self.exponents), rtol=1e-12, atol=0.0):
            raise ValueError(f"Phi must be the sum of u^p over its types {self.exponents}")

    @property
    def exponents(self) -> tuple[float, ...]:
        return (self.lower_type,) if self.lower_type == self.upper_type else (self.lower_type, self.upper_type)


def power_orlicz(lower: float, upper: float | None = None) -> OrliczFunction:
    """Phi(u) = u^lower + u^upper, or u^lower alone when ``upper`` is None or equal."""
    exps = (lower,) if upper in (None, lower) else (lower, upper)
    return OrliczFunction(lambda u: sum(np.asarray(u, dtype=float) ** p for p in exps), exps[0], exps[-1])


# ---------------------------------------------------------------------------
# Lebesgue and Luxemburg-type norms


def lebesgue_row_norms(mag: np.ndarray, p: float, cellvol: float) -> list[float]:
    """L^p norms of every row of the nonnegative (rows, cells) array ``mag``.
    The rows' powers must stay in the float range, as those of rows scaled to
    unit max (``scale_to_unit_rows``) do."""
    return [(total * cellvol) ** (1.0 / p) for total in np.add.reduce(mag**p, axis=-1).tolist()]


def _power_sum_norms(logs: np.ndarray, exps: Sequence[float] | np.ndarray) -> np.ndarray:
    """The lam solving sum_k exp(logs[i, k] - exps[k] * log lam) = 1 for
    every row i of the ``(rows, terms)`` array ``logs``, its terms' exponents
    ``exps`` positive; a row whose logs are all -inf (a zero row) gives 0.
    Every Luxemburg norm inf{lam : modular(f / lam) <= 1} of the package is
    such a root: a ``VariableLebesgue`` modular is the sum over cells of
    cellvol (u / lam)^p(x), and a Phi-modular the sum over Phi's exponents p
    of lam^-p cellvol times the sum of u^p.

    Newton in x = log lam runs from x = max_k logs[i, k] / exps[k], where
    every term is at most 1 and one term is 1.  The log of the sum is convex
    and decreasing in x, so each step climbs towards the root without
    passing it.  A row retires once its step is at most 4 ulps of x, or not
    positive; a row live after ``LUXEMBURG_MAX_STEPS`` steps is a
    ``NumericFailure``.  The live rows' logs are gathered only when a row
    retires (and at the start only past a zero row), in the memory order of
    ``logs`` (``_take_rows``).  A row's steps depend on it alone, and its
    terms add in the same order in either memory order (two terms at most
    when term-major), so each row is bitwise what it gives alone.
    """
    x = np.max(logs / exps, axis=1)
    out = np.zeros(len(logs))
    rows = np.flatnonzero(x > -np.inf)
    if rows.size < len(logs):
        logs, x = _take_rows(logs, rows), x[rows]
    for _ in range(LUXEMBURG_MAX_STEPS):
        step = _newton_steps(logs, exps, x)
        done = ~(step > 4 * np.spacing(np.abs(x)))
        if done.any():
            out[rows[done]] = np.exp(x[done])
            keep = np.flatnonzero(~done)
            rows, logs, x, step = rows[keep], _take_rows(logs, keep), x[keep], step[keep]
        if not rows.size:
            return out
        x += step
    raise NumericFailure(f"Luxemburg solve of {rows.size} rows not settled in {LUXEMBURG_MAX_STEPS} steps")


def _take_rows(logs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``logs[rows]`` in the memory order of ``logs``: a term-major array
    stays term-major, where fancy indexing would return it row-major."""
    return np.take(logs, rows, axis=0, out=np.empty_like(logs, shape=(len(rows),) + logs.shape[1:]), mode="clip")


def _newton_steps(logs: np.ndarray, exps: Sequence[float] | np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Newton step in x of log sum_k exp(logs[:, k] - exps[k] * x) = 0
    from every row's x, with one ``(rows, terms)`` temporary in the memory
    order of ``logs``."""
    terms = np.empty_like(logs)
    np.multiply(-x[:, None], exps, out=terms)
    terms += logs
    np.exp(terms, out=terms)
    total = np.add.reduce(terms, axis=1)
    terms *= exps
    return np.log(total) * total / np.add.reduce(terms, axis=1)


def _power_sum_logs(sums: Sequence[np.ndarray], cellvol: float) -> np.ndarray:
    """``_power_sum_norms``' logs of rows whose term k is cellvol * ``sums[k]``,
    a sum of non-negative powers: ``(rows, len(sums))``, -inf for a zero sum,
    held term-major (the transpose of a C-ordered ``(len(sums), rows)``
    array), so each step of the solve runs along the rows."""
    logs = np.stack(sums)
    logs *= cellvol
    with np.errstate(divide="ignore"):
        np.log(logs, out=logs)
    return logs.T


def _unit_row_norms(mag: np.ndarray, norms: Callable[[np.ndarray], Sequence[float]]) -> list[float]:
    """``norms`` of the non-negative float stack ``mag`` taken on its rows
    scaled to unit max (``scale_to_unit_rows``, in place) and scaled back: the
    one float-range rule of every norm entry.  A norm past the float range is
    inf."""
    exps = scale_to_unit_rows(mag)
    with np.errstate(over="ignore"):
        return np.ldexp(norms(mag), exps).tolist()


def orlicz_norm(f: SampledFunction, phi: OrliczFunction) -> float:
    """Luxemburg norm inf{lam : integral of Phi(|f|/lam) <= 1}: one
    ``_power_sum_norms`` solve, one term per exponent of Phi."""
    def norms(unit: np.ndarray) -> np.ndarray:
        sums = [np.add.reduce(unit**p, axis=1) for p in phi.exponents]
        return _power_sum_norms(_power_sum_logs(sums, f.grid.cell_volume), phi.exponents)

    return _unit_row_norms(np.abs(f.values).reshape(1, -1), norms)[0]


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
        for every row, the ball sums of a step of rows per ``ball_sums``
        call, a row costing 4 elements per (radius, cell)."""
        family = BallFamily.build(grid, BALL_RADII_PER_OCTAVE)
        cellvol = grid.cell_volume
        factors = [ball_volume(rad, grid.dim) ** (1.0 / self.p - 1.0 / self.r) for rad in family.radii.tolist()]
        root = 1.0 / self.r
        powered = mag**self.r
        step = batch_items(4 * 8 * len(family) * grid.size)
        norms = []
        for start in range(0, len(mag), step):
            local = family.ball_sums(powered[start:start + step])
            local *= cellvol
            np.maximum(local, 0.0, out=local)
            for tops in local.reshape(local.shape[:2] + (-1,)).max(axis=-1).tolist():
                norms.append(max(0.0, *map(mul, factors, [top ** root for top in tops])))
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
        """The Luxemburg norm of every row: one ``_power_sum_norms`` solve,
        one term log(cellvol) + p(x) log u per cell, rows row-major."""
        pvals = self.exponent.values.reshape(-1)
        with np.errstate(divide="ignore"):
            logs = np.log(mag.reshape(len(mag), grid.size))
        logs *= pvals
        logs += math.log(grid.cell_volume)
        return _power_sum_norms(logs, pvals).tolist()

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
    count = int(grid.ball_row_widths((slice_t,)).sum())
    if count == 0:
        raise ValueError("slice radius smaller than one cell")
    sums = [np.full(1, float(count))] * len(phi.exponents)
    return float(_power_sum_norms(_power_sum_logs(sums, grid.cell_volume), phi.exponents)[0])


def _slice_logs(grid: GridSpec, mag: np.ndarray, slice_t: float, exps: Sequence[float], cellvol: float):
    """The ``_power_sum_norms`` logs of every slice window of every row u of
    ``mag``, one window per (row, cell) in C order, and the windows' shifts
    s: per exponent p, log(cellvol * the sum of (u 2^-s)^p over the slice
    ball ``grid.ball_mask(slice_t)`` about the cell).

    A window's max is the slice ball's ``BallFamily.ball_filters``, and its
    shift is that max's binary exponent rounded up to a multiple of a band
    of SLICE_BAND_BITS / max(exps) binades, so its scaled max lies in the
    band below 1 and its powers that count stay normal, whatever its max.
    The row is scaled and raised to its powers once per band that holds a
    window, and each window takes its sums from its own band's pass, added
    over the slice ball's row runs in mask order (``_window_sums``)."""
    top = BallFamily(grid, np.array([slice_t])).ball_filters(mag[None])[0]
    band = max(1, min(2048, int(SLICE_BAND_BITS // max(exps))))  # 2048: past the float range, one band
    shifts = -(-np.frexp(top)[1] // band) * band
    del top
    widths = grid.ball_row_widths((slice_t,))[0].tolist()
    sums = [np.zeros(mag.shape) for _ in exps]
    for shift in range(int(shifts.min()), int(shifts.max()) + 1, band):
        at = shifts == shift
        rows = at.reshape(len(mag), -1).any(axis=1)
        if not rows.any():
            continue
        with np.errstate(over="ignore"):  # cells of other bands' windows may overflow
            scaled = np.ldexp(mag[rows], -shift)
            for total, p in zip(sums, exps):
                total[at] = _window_sums(scaled**p, widths)[at[rows]]
    return _power_sum_logs([total.reshape(-1) for total in sums], cellvol), shifts.reshape(-1)


def _window_sums(values: np.ndarray, widths: list[int]) -> np.ndarray:
    """The sums of every row of ``values`` over the ball about each cell
    whose first-axis row dx holds ``widths[dx]`` cells, added in mask order:
    per row dx of w cells, the last-axis offsets 0 .. w - w//2 - 1, then
    n - w//2 .. n - 1, each one slice of the row doubled on every axis."""
    dim, n = values.ndim - 1, values.shape[-1]
    doubled = np.tile(values, (1,) + (2,) * dim)
    sums = np.zeros(values.shape)
    for dx, w in enumerate(widths):
        line = doubled[(slice(None),) + (slice(dx, dx + n),) * (dim - 1)]
        for dy in (*range(w - w // 2), *range(n - w // 2, n)):
            sums += line[..., dy:dy + n]
    return sums


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
        ball around x, over the slice ball's own: per step of rows one
        ``_slice_logs`` pass and one ``_power_sum_norms`` solve of every
        window, a row costing max(17, 5 + 2 levels) elements per cell, the
        levels those of the slice ball's window max."""
        cellvol = grid.cell_volume
        denom = _slice_denominator(self.phi, grid, self.slice_t)
        levels = int(grid.ball_row_widths((self.slice_t,)).max()).bit_length()  # of its doubling table
        step = batch_items(8 * grid.size * max(17, 5 + 2 * levels))
        inner = []
        for start in range(0, len(mag), step):
            logs, shifts = _slice_logs(grid, mag[start:start + step], self.slice_t, self.phi.exponents, cellvol)
            inner.append(np.ldexp(_power_sum_norms(logs, self.phi.exponents), shifts))
        inner = np.concatenate(inner or [np.zeros(0)])
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
        phi = power_orlicz(float(cfg.get("lower_type", 1.2)), float(cfg.get("upper_type", 1.6)))
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
    ``space.norms`` call per step of rows, a row costing 5 of its own size,
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
    step = batch_items(5 * 8 * grid.size)
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
    counts = family.grid.ball_row_widths(tuple(family.radii.tolist())).sum(axis=1).tolist()
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
