"""Norm evaluators for the concrete function spaces.

Five families are implemented: plain and weighted Lebesgue, Morrey,
mixed-norm, variable-exponent, and Orlicz-slice.  All of them are lattice
quasi-norms evaluated by the grid rectangle rule; suprema over balls run over
a finite dyadic family; Luxemburg-type norms are solved by bisection on the
modular, which is strictly monotone in the scaling parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import NoBracket, NotInAInfty
from .grid import GridSpec, SampledFunction, read_function_csv
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
    "orlicz_norm",
    "convexify_norm",
    "ap_characteristic",
    "critical_index",
    "power_weight",
    "SPACES",
    "descriptor_from_json",
]

LUXEMBURG_BRACKET = (1e-30, 1e30)
LUXEMBURG_MAX_ITER = 200
LUXEMBURG_RTOL = 1e-9
AP_CAP = 1e6
AP_GROWTH_FLOOR = 0.02  # log2 growth per refinement always counted as stable
AP_GROWTH_SLOPE = 0.15  # threshold grows with the measured singularity strength
AP_Q_MAX = 64.0


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
        if np.any(vals.imag != 0):
            raise ValueError("weight must be real")
        if not np.all(vals.real > 0):
            raise ValueError("weight must be strictly positive")

    @property
    def array(self) -> np.ndarray:
        return self.values.values.real


def power_weight(grid: GridSpec, a: float, family: BallFamily | None = None) -> Weight:
    """|x|^a sampled at cell centers (finite there since centers avoid 0)."""
    if family is None:
        family = BallFamily.build(grid, 4)

    def evaluator(*mesh):
        r = np.sqrt(sum(c**2 for c in mesh))
        return r**a

    vals = SampledFunction(grid, evaluator(*grid.coordinate_mesh()).astype(complex))
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
        lo, hi = 1e-30, 1e30
        if not (self.evaluator(np.array([lo]))[0] <= y <= self.evaluator(np.array([hi]))[0]):
            raise NoBracket(f"Phi never reaches {y:g} on the bracket")
        for _ in range(LUXEMBURG_MAX_ITER):
            mid = math.sqrt(lo * hi)
            if self.evaluator(np.array([mid]))[0] <= y:
                lo = mid
            else:
                hi = mid
            if hi / lo < 1 + LUXEMBURG_RTOL:
                break
        return math.sqrt(lo * hi)


def power_orlicz(p: float) -> OrliczFunction:
    return OrliczFunction(evaluator=lambda t: np.asarray(t, dtype=float) ** p,
                          lower_type=p, upper_type=p)


# ---------------------------------------------------------------------------
# Luxemburg-type norms


def _luxemburg_norm(mag: np.ndarray, cellvol: float, density: Callable[[np.ndarray], np.ndarray]) -> float:
    """inf{lam : sum of density(mag / lam) times cellvol <= 1}.

    Bisection on the modular, which must be strictly decreasing in lam.
    """
    sup = float(mag.max())
    if sup == 0.0:
        return 0.0

    def modular(lam: float) -> float:
        with np.errstate(divide="ignore"):
            ratio = mag / lam
        return float(np.sum(density(ratio)) * cellvol)

    lo = sup * LUXEMBURG_BRACKET[0]
    hi = sup * LUXEMBURG_BRACKET[1]
    if modular(hi) > 1.0 or modular(lo) < 1.0:
        raise NoBracket("modular does not cross 1 inside the bracket")
    for _ in range(LUXEMBURG_MAX_ITER):
        mid = math.sqrt(lo * hi)
        if modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + LUXEMBURG_RTOL:
            break
    return hi


def orlicz_norm(f: SampledFunction, phi: OrliczFunction) -> float:
    """Luxemburg norm inf{lam : integral of Phi(|f|/lam) <= 1}."""
    return _luxemburg_norm(np.abs(f.values), f.grid.cell_volume, phi.evaluator)


def _read_csv_on(grid: GridSpec, path: str, what: str) -> SampledFunction:
    f = read_function_csv(path)
    if f.grid != grid:
        raise ValueError(f"{what} CSV {path} is sampled on {f.grid}, not on the configured {grid}")
    return f


# ---------------------------------------------------------------------------
# space descriptors
#
# Each descriptor carries its norm, its floor exponent (the admissible lower
# exponent used for lambda and b defaults), its JSON form, and a ``from_json``
# recipe that reads exactly the keys listed in ``json_keys``.


@dataclass(frozen=True)
class Lebesgue:
    p: float

    tag: ClassVar[str] = "lebesgue"
    json_keys: ClassVar[tuple[str, ...]] = ("p",)

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("p must be positive")

    def norm(self, f: SampledFunction) -> float:
        # sum the powers of |f| / 2^e with 2^e >= max|f| and scale back after the
        # root: exact in binary, so the norm is homogeneous over the whole float
        # range and overflows only when the result does
        mag = np.abs(f.values)
        e = math.frexp(np.maximum.reduce(mag, axis=None))[1]
        np.ldexp(mag, -e, out=mag)
        total = float(np.add.reduce(mag**self.p, axis=None)) * f.grid.cell_volume
        try:
            return math.ldexp(total ** (1.0 / self.p), e)
        except OverflowError:
            return math.inf

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

    def norm(self, f: SampledFunction) -> float:
        weighted = np.abs(f.values) ** self.p * self.weight.array
        return float((np.sum(weighted) * f.grid.cell_volume) ** (1.0 / self.p))

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

    def norm(self, f: SampledFunction) -> float:
        family = self.family or BallFamily.build(f.grid, 4)
        mag = np.abs(f.values)
        dim = f.grid.dim
        cellvol = f.grid.cell_volume
        best = 0.0
        for rad in family.radii:
            local = family.ball_sums(mag**self.r, rad) * cellvol
            np.maximum(local, 0.0, out=local)
            factor = ball_volume(float(rad), dim) ** (1.0 / self.p - 1.0 / self.r)
            best = max(best, factor * float(local.max()) ** (1.0 / self.r))
        return float(best)

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

    def norm(self, f: SampledFunction) -> float:
        if len(self.exponents) != f.grid.dim:
            raise ValueError("need one exponent per axis")
        spacing = f.grid.spacing
        work = np.abs(f.values)
        # integrate axis by axis: first exponent binds the first axis
        for p in self.exponents:
            if math.isinf(p):
                work = work.max(axis=0)
            else:
                work = (np.sum(work**p, axis=0) * spacing) ** (1.0 / p)
        return float(work)

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

    def norm(self, f: SampledFunction) -> float:
        mag = np.abs(f.values)
        pvals = self.exponent.values
        return _luxemburg_norm(mag, f.grid.cell_volume, lambda ratio: np.where(mag > 0, ratio**pvals, 0.0))

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

    def norm(self, f: SampledFunction) -> float:
        grid = f.grid
        mask = grid.offset_distances() < self.slice_t
        count = int(np.count_nonzero(mask))
        if count == 0:
            raise ValueError("slice radius smaller than one cell")
        cellvol = grid.cell_volume
        # denominator: the slice ball indicator has the same norm at every center
        phi = self.phi
        denom = 1.0 / phi.inverse(1.0 / (count * cellvol))

        mag = np.abs(f.values)
        # gather each ball's samples: windows[x] = values within the slice around x
        windows = np.ascontiguousarray(grid.torus_windows(mag, np.argwhere(mask)).T)

        sups = windows.max(axis=1)
        lams = np.where(sups > 0, sups, 1.0)
        # bisect each window divided by its own max, so the bracket holds for any
        # amplitude; the Luxemburg norm of the window is then hi * lams
        scaled = windows / lams[:, None]
        lo = np.full(len(lams), LUXEMBURG_BRACKET[0])
        hi = np.full(len(lams), LUXEMBURG_BRACKET[1])
        # vectorized bisection of the window modulars; a step depends only on
        # (lo, hi), so once one leaves both unchanged every later one would too
        for _ in range(80):
            mid = np.sqrt(lo * hi)
            mods = phi.evaluator(scaled / mid[:, None]).sum(axis=1) * cellvol
            high = mods > 1.0
            new_lo = np.where(high, mid, lo)
            new_hi = np.where(high, hi, mid)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        inner = np.where(sups > 0, hi * lams, 0.0)
        ratios = inner / denom
        top = ratios.max()
        if top == 0.0:
            return 0.0
        # powers of ratios / top <= 1 neither overflow nor all underflow at any amplitude
        return float((np.sum((ratios / top) ** self.r) * cellvol) ** (1.0 / self.r) * top)

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
    """Norm of f in the given space; 0 iff f vanishes on the grid."""
    return space.norm(f)


def convexify_norm(f: SampledFunction, space: SpaceDescriptor, p: float) -> float:
    """Norm of |f|^p in the space, to the 1/p power."""
    if p <= 0:
        raise ValueError("p must be positive")
    powered = SampledFunction(f.grid, np.abs(f.values) ** p)
    return space_norm(powered, space) ** (1.0 / p)


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
    best = 0.0
    for rad in family.radii:
        count = family.cell_count(rad)
        mean_w = family.ball_sums(omega, rad) / count
        if p == 1.0:
            inv_ess = family.ball_filter(1.0 / omega, rad)
            vals = mean_w * inv_ess
        else:
            mean_dual = family.ball_sums(omega ** (1.0 / (1.0 - p)), rad) / count
            vals = mean_w * np.maximum(mean_dual, 0.0) ** (p - 1.0)
        best = max(best, float(vals.max()))
    return best


def _resampled_weight(w: Weight, factor: int) -> Weight:
    if w.evaluator is None:
        raise ValueError("critical_index needs a weight with an evaluator")
    g = w.values.grid
    fine = GridSpec(dim=g.dim, half_width=g.half_width, points_per_axis=g.points_per_axis * factor)
    family = BallFamily.build(fine, w.family.radii_per_octave)
    vals = SampledFunction(fine, w.evaluator(*fine.coordinate_mesh()).astype(complex))
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
