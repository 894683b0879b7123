"""Desk-scale experiments: norm equivalences, change of angles, embeddings.

Each experiment runs a deterministic seeded family of trial functions through
the operator pipelines, records per-trial ratios, and grades them against
declared thresholds.  Reports carry every threshold next to the measured
value, and a fixed seed reproduces them byte for byte.

The equivalence and change-of-angle experiments run their trials in blocks:
the fields of a block's trials are built as one stack
(``transforms.build_fields``) and every operator runs once per block.  The
cone and g*_lambda stacks of a block, S and g*_lambda or the cone functionals
at every aperture, come from one ``squarefuncs.scale_sums`` call, which
squares the fields and transforms each batch of their rows once for all its
tables; g and the Peetre sup are ``squarefuncs.g_functions`` and
``maximal.peetre_maximals``.  The block's operator rows then take their
space norms in one ``spaces.space_norms`` call.  A block holds as many
trials as keep its stacked real field within ``FIELD_BLOCK_BYTES``
(512 KiB: sixteen trials at 1-D N=64 with 64 scales, two at 1-D N=512, one
at 2-D N=64).  Each operator bounds its own temporaries
(``maximal.PEETRE_CHUNK``, ``squarefuncs.SCALE_SUM_CHUNK``,
``spaces.NORM_CHUNK``), so only the field stacks grow with the block.  Every
batched operator gives each trial bitwise its one-trial value, so the
reports do not depend on the block size.  The embedding experiment norms all
its trials in one ``space_norms`` call per space, and the vanishing check
takes its probes' multipliers from one call of the kernel's profile.

The experiments' fixed inputs are built once per process: ``trial_function``
keeps the last ``TRIAL_CACHE_SIZE`` trials it built, ``embedding_weight`` the
last ``grid.CACHE_SIZE`` weights, and the kernel, its companion and both
plans come from the bounded caches of ``kernels.build_kernel``,
``kernels.calderon_companion`` and ``transforms.build_plan``.  A cached trial is one shared read-only object,
so an equivalence run per ``FIVE_SPACES`` space, or the three experiments of
a ``verify`` run, share one trial family.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConeOverflow
from .grid import (
    CACHE_SIZE,
    GridSpec,
    SampledFunction,
    ScaleGrid,
    concentration_defect,
    gaussian_bump,
    indicator_ball,
)
from .kernels import Kernel, build_kernel, calderon_companion
from .maximal import default_peetre_exponent, hl_maximal, peetre_maximals
from .spaces import SpaceDescriptor, Weight, WeightedLebesgue, descriptor_from_json, space_norms
from .squarefuncs import cone_spectra, g_functions, gstar_spectra, scale_sums
from .transforms import apply_multiplier, build_fields, build_plan

__all__ = [
    "ExperimentReport",
    "trial_function",
    "default_lambda",
    "equivalence_experiment",
    "change_of_angle_experiment",
    "embedding_experiment",
    "vanish_at_infinity_check",
    "FIVE_SPACES",
    "five_spaces",
]

EQUIVALENCE_SPREAD_MAX = 10.0
ANGLE_SLOPE_SLACK = 0.15
EMBEDDING_SPREAD_MAX = 10.0
CONCENTRATION_TOL = 1e-6
MIN_TRIAL_POINTS = 64
# bytes of one trial block's stacked real field (see the module docstring);
# one pass of the five-space 1-D N=64 equivalence run, its 10 trials in one
# block, peaks at about 1.57 MiB of traced memory, and at 1.53 MiB with a
# quarter of this budget (blocks of 4, 4 and 2 trials)
FIELD_BLOCK_BYTES = 1 << 19
# trial functions kept per (seed, trial, grid): at least the 20 trials of a
# default experiment (``cli._TABLE``); 32 trials at 2-D N=128 hold 4 MiB
TRIAL_CACHE_SIZE = 32


def _json_scalar(obj):
    """Unwrap numpy scalars so reports serialize (and stay deterministic)."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    space: dict
    kernel_kind: str
    seed: int
    trials: int
    series: dict  # per-trial measured values, keyed by quantity or pair
    summary: dict
    thresholds: dict
    passed: bool
    notes: dict = field(default_factory=dict)

    def to_json(self, **extra) -> str:
        """The report as sorted, indented JSON, with the ``extra`` keys added."""
        payload = {
            "name": self.name,
            "space": self.space,
            "kernel_kind": self.kernel_kind,
            "seed": self.seed,
            "trials": self.trials,
            "series": self.series,
            "summary": self.summary,
            "thresholds": self.thresholds,
            "passed": bool(self.passed),
            "notes": self.notes,
            **extra,
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=_json_scalar) + "\n"

    def to_csv(self) -> str:
        keys = sorted(self.series)
        lines = ["trial," + ",".join(keys)]
        for i in range(self.trials):
            cells = [f"{self.series[k][i]:.17g}" if i < len(self.series[k]) else "" for k in keys]
            lines.append(f"{i}," + ",".join(cells))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trial family: band-limited noise, normalized atoms, translated bumps (2:1:1)


def _band_limited(rng: np.random.Generator, grid: GridSpec) -> SampledFunction:
    radii = grid.frequency_radii()
    band = (radii >= 1.5) & (radii <= 6.0)
    spectrum = np.zeros(grid.shape, dtype=complex)
    spectrum[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
    rough = np.fft.ifftn(spectrum).real
    mesh = grid.coordinate_mesh()
    r2 = sum(c**2 for c in mesh)
    envelope = np.exp(-r2 / (2 * (grid.half_width / 12.0) ** 2))
    return SampledFunction(grid, rough * envelope)


def _atom_like(rng: np.random.Generator, grid: GridSpec) -> SampledFunction:
    L = grid.half_width
    center = rng.uniform(-L / 8, L / 8, size=grid.dim)
    radius = rng.uniform(4 * grid.spacing, L / 8)
    mesh = grid.coordinate_mesh()
    d2 = sum((c - c0) ** 2 for c, c0 in zip(mesh, center))
    inside = d2 < radius**2
    profile = np.where(inside, rng.normal(size=grid.shape), 0.0)
    count = inside.sum()
    if count:
        profile -= inside * (profile.sum() / count)  # zero mean on the ball
    return SampledFunction(grid, profile)


def _bump(rng: np.random.Generator, grid: GridSpec) -> SampledFunction:
    L = grid.half_width
    sig_lo = 2.8 * grid.spacing  # just wide enough to resolve, narrow enough for N=64
    sig_hi = max(L / 16.0, 1.1 * sig_lo)
    sigma = rng.uniform(sig_lo, sig_hi)
    # keep 5.2 sigma of clearance to the edge of the core box
    reach = max(0.0, min(L / 8.0, L / 2.0 - 5.2 * sig_hi))
    center = rng.uniform(-reach, reach, size=grid.dim)
    amp = rng.uniform(0.5, 2.0)
    return amp * gaussian_bump(grid, center, sigma)


@functools.lru_cache(maxsize=TRIAL_CACHE_SIZE)
def trial_function(seed: int, trial: int, grid: GridSpec) -> SampledFunction:
    """Deterministic mixed family; every member is concentrated in the core
    box.  Each (seed, trial, grid) among the last ``TRIAL_CACHE_SIZE`` is
    built once and returned as one shared object, whose values are
    read-only."""
    if grid.points_per_axis < MIN_TRIAL_POINTS:
        # the atom radius range [4h, L/8] with h = 2L/N is empty below this
        raise ValueError(f"trial functions need N >= {MIN_TRIAL_POINTS} points per axis, "
                         f"got N={grid.points_per_axis}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    kind = trial % 4
    if kind in (0, 1):
        f = _band_limited(rng, grid)
    elif kind == 2:
        f = _atom_like(rng, grid)
    else:
        f = _bump(rng, grid)
    if concentration_defect(f) > CONCENTRATION_TOL:
        raise AssertionError("trial function leaks outside the core box")
    return f


# the five concrete spaces the equivalence experiment is graded on, as JSON recipes
FIVE_SPACES = {
    "morrey": {"tag": "morrey", "p": 2.0, "r": 1.0},
    "mixed": {"tag": "mixed", "p": [1.5]},
    "variable": {"tag": "variable", "base": 1.8, "dip": 0.3},
    "weighted": {"tag": "weighted", "p": 1.5, "weight": {"kind": "power", "a": 0.5}, "q_omega": 1.5},
    "orlicz_slice": {"tag": "orlicz_slice", "r": 1.5, "t": 1.0, "lower_type": 1.2, "upper_type": 1.6},
}


def five_spaces(grid: GridSpec) -> dict[str, SpaceDescriptor]:
    """The ``FIVE_SPACES`` recipes built on the 1-D grid; the ``mixed``
    recipe's one exponent fits no other dimension, so a grid of any other
    dimension is refused."""
    if grid.dim != 1:
        raise ValueError(f"five_spaces builds the 1-D catalogue FIVE_SPACES, not on a {grid.dim}-D grid; "
                         f"build each {grid.dim}-D space from its recipe with "
                         f"spaces.descriptor_from_json(recipe, grid), one mixed exponent per axis")
    return {name: descriptor_from_json(cfg, grid) for name, cfg in FIVE_SPACES.items()}


def default_lambda(space: SpaceDescriptor) -> float:
    return max(1.0, 2.0 / space.floor()) + 0.5


def _spread(values) -> float:
    lo, hi = min(values), max(values)
    return math.inf if lo <= 0 else hi / lo


def _trial_blocks(seed: int, trials: int, grid: GridSpec, scales: ScaleGrid):
    """The trial functions 0..trials-1 in order, in blocks whose stacked
    half-space field fits ``FIELD_BLOCK_BYTES`` (at least one trial each)."""
    size = max(1, FIELD_BLOCK_BYTES // (grid.size * len(scales) * np.dtype(float).itemsize))
    for lo in range(0, trials, size):
        yield [trial_function(seed, i, grid) for i in range(lo, min(lo + size, trials))]


# ---------------------------------------------------------------------------
# experiments


def equivalence_experiment(
    space: SpaceDescriptor,
    kernel_kind: str,
    trials: int,
    grid: GridSpec,
    scales: ScaleGrid,
    seed: int = 0,
    lam: float | None = None,
    b: float | None = None,
) -> ExperimentReport:
    """Ratios between the maximal-function norm and the three square-function
    norms across the mixed trial family; pass iff every pairwise spread <= 10."""
    if trials < 10:
        raise ValueError("need at least 10 trials")
    kernel = build_kernel(kernel_kind, grid)
    plan = build_plan(kernel, scales)
    psi_plan = build_plan(calderon_companion(kernel, scales).psi, scales)
    if lam is None:
        lam = default_lambda(space)
    elif lam <= max(1.0, 2.0 / space.floor()):
        # the operator is fine for any lambda > 1; only the equivalence
        # constants are guaranteed above this threshold
        warnings.warn(f"lambda={lam:g} is below the equivalence range for this space",
                      stacklevel=2)
    dom_factor = 2.0 ** (lam * grid.dim / 2.0)
    if b is None:
        b = default_peetre_exponent(grid.dim, space.floor())

    tables = [cone_spectra(grid, scales, 1.0), gstar_spectra(grid, scales, lam)]
    spatial = tuple(range(1, grid.dim + 1))
    rows = []
    for fs in _trial_blocks(seed, trials, grid, scales):
        F = build_fields(fs, plan)
        s_fn, gs_fn = scale_sums(F, tables)  # lusin_area and g_lambda_star of every trial
        g_fn = g_functions(F)
        del F  # the psi-fields are built next
        dom_ok = np.all(s_fn <= dom_factor * gs_fn * (1 + 1e-12), axis=spatial).tolist()
        n = len(fs)
        norms = space_norms(grid, np.concatenate([peetre_maximals(fs, b, plan=psi_plan), s_fn, g_fn, gs_fn]), space)
        rows += zip(norms[:n], norms[n:2 * n], norms[2 * n:3 * n], norms[3 * n:], dom_ok)
    return _equivalence_report(space, kernel_kind, seed, lam, rows)


def _equivalence_report(space: SpaceDescriptor, kernel_kind: str, seed: int, lam: float,
                        rows: list[tuple]) -> ExperimentReport:
    """The graded report of per-trial rows (hardy, area, g, gstar norms, domination held)."""
    trials = len(rows)
    names = ("hardy", "area", "g", "gstar")
    series = {n: [r[k] for r in rows] for k, n in enumerate(names)}
    domination_ok = all(r[4] for r in rows)
    ratios = {}
    for a in range(4):
        for bdx in range(a + 1, 4):
            key = f"{names[a]}/{names[bdx]}"
            ratios[key] = [series[names[a]][i] / series[names[bdx]][i] for i in range(trials)]
    spreads = {k: _spread(v) for k, v in ratios.items()}
    worst = max(spreads.values())
    passed = worst <= EQUIVALENCE_SPREAD_MAX and domination_ok
    return ExperimentReport(
        name="norm_equivalence",
        space=space.to_json(),
        kernel_kind=kernel_kind,
        seed=seed,
        trials=trials,
        series={**series, **ratios},
        summary={
            "worst_spread": worst,
            **{f"spread:{k}": v for k, v in spreads.items()},
            "lambda": lam,
            "domination_ok": float(domination_ok),
        },
        thresholds={"spread_max": EQUIVALENCE_SPREAD_MAX},
        passed=passed,
    )


def change_of_angle_experiment(
    space: SpaceDescriptor,
    alphas: tuple[float, ...],
    trials: int,
    grid: GridSpec,
    scales: ScaleGrid,
    seed: int = 0,
    kernel_kind: str = "annular",
) -> ExperimentReport:
    """Log-log slope of the aperture-widened cone functional norm in alpha."""
    if len(alphas) < 2:
        raise ValueError("a slope needs at least two apertures")
    if max(alphas) * scales.t_max > grid.half_width:
        raise ConeOverflow(
            f"aperture {max(alphas):g} at t_max {scales.t_max:g} exceeds the box"
        )
    kernel = build_kernel(kernel_kind, grid)
    plan = build_plan(kernel, scales)
    s_exp = space.floor()
    bound = max(grid.dim / 2.0, grid.dim / s_exp)
    tables = [cone_spectra(grid, scales, a) for a in alphas]

    rows = []
    for fs in _trial_blocks(seed, trials, grid, scales):
        F = build_fields(fs, plan)
        n = len(fs)
        block = space_norms(grid, scale_sums(F, tables).reshape((-1,) + grid.shape), space)
        for norms in zip(*(block[j * n:(j + 1) * n] for j in range(len(alphas)))):
            slope = float(np.polyfit(np.log(alphas), np.log(norms), 1)[0])
            monotone = all(x <= y * (1 + 1e-10) for x, y in zip(norms, norms[1:]))
            rows.append((norms, slope, monotone))

    slopes = [r[1] for r in rows]
    fitted = float(np.mean(slopes))
    monotone_ok = all(r[2] for r in rows)
    passed = fitted <= bound + ANGLE_SLOPE_SLACK and monotone_ok
    series = {f"norm_alpha_{a:g}": [r[0][j] for r in rows] for j, a in enumerate(alphas)}
    series["slope"] = slopes
    return ExperimentReport(
        name="change_of_angle",
        space=space.to_json(),
        kernel_kind=kernel_kind,
        seed=seed,
        trials=trials,
        series=series,
        summary={
            "fitted_exponent": fitted,
            "max_slope": max(slopes),
            "bound": bound,
            "monotone_ok": float(monotone_ok),
        },
        thresholds={"slope_max": bound + ANGLE_SLOPE_SLACK},
        passed=passed,
        notes={"alphas": list(alphas)},
    )


@functools.lru_cache(maxsize=CACHE_SIZE)
def embedding_weight(grid: GridSpec, epsilon: float = 0.9) -> Weight:
    """The weight [M(1_{B(0,1)})]^epsilon used by the weighted embedding, M
    over the default family; with no evaluator, its space carries ``q_omega``.
    Each (grid, epsilon) among the last ``grid.CACHE_SIZE`` is built once and
    returned as one shared object, whose values are read-only."""
    ind = indicator_ball(grid, [0.0] * grid.dim, 1.0)
    vals = np.maximum(hl_maximal(ind).values, 1e-300) ** epsilon
    return Weight(values=SampledFunction(grid, vals))


def embedding_experiment(
    space: SpaceDescriptor,
    s: float,
    trials: int,
    grid: GridSpec,
    seed: int = 0,
    epsilon: float = 0.9,
) -> ExperimentReport:
    """Ratios of the decayed-weight Lebesgue norm to the space norm."""
    weight = embedding_weight(grid, epsilon)
    target = WeightedLebesgue(s, weight, q_omega=1.0)
    fs = np.stack([trial_function(seed, i, grid).values for i in range(trials)])
    ratios = [a / b for a, b in zip(space_norms(grid, fs, target), space_norms(grid, fs, space))]
    spread = _spread(ratios)
    finite = all(math.isfinite(r) and r > 0 for r in ratios)
    passed = bool(finite and spread <= EMBEDDING_SPREAD_MAX)
    return ExperimentReport(
        name="weighted_embedding",
        space=space.to_json(),
        kernel_kind="",
        seed=seed,
        trials=trials,
        series={"ratio": ratios},
        summary={"spread": spread, "max_ratio": max(ratios), "epsilon": epsilon, "s": s},
        thresholds={"spread_max": EMBEDDING_SPREAD_MAX},
        passed=passed,
    )


def vanish_at_infinity_check(
    f: SampledFunction,
    phi: Kernel,
    t_probe: tuple[float, ...],
) -> dict:
    """Sup norms of the dilated convolutions along increasing probe scales.

    The sequence first grows while the kernel band slides across the input's
    spectrum; past its peak it must decay by at least a factor 2 per octave
    (or sit below the numerical floor), so a peak at the last probe fails.
    On the periodic grid the band clears the lowest nonzero frequency at
    t = 16 L, after which the norms vanish exactly, so probes should reach
    that scale.
    """
    if any(a >= b for a, b in zip(t_probe, t_probe[1:])):
        raise ValueError("probe scales must increase")
    ts = np.asarray(t_probe, dtype=float).reshape((-1,) + (1,) * f.grid.dim)
    # phi.multiplier(t) of every probe, from one profile call
    probes = apply_multiplier(f.values, phi.profile(ts * f.grid.frequency_radii()), f.grid.dim)
    sups = np.max(np.abs(probes).reshape(len(t_probe), -1), axis=1).tolist()
    floor = 1e-14 * max(float(np.max(np.abs(f.values))), 1e-300)
    peak = int(np.argmax(sups))
    tail_monotone = all(
        sups[i + 1] <= sups[i] * (1 + 1e-9) or sups[i + 1] <= floor
        for i in range(peak, len(sups) - 1)
    )
    octaves = math.log2(t_probe[-1] / t_probe[peak])
    # aggregate rate from the peak: at least a factor 2 per octave overall; a
    # peak at the last probe above the floor shows no decay at all
    rate_ok = sups[-1] <= max(floor, sups[peak] * 2.0 ** (-octaves) * (1 + 1e-9)) and (
        peak < len(sups) - 1 or sups[peak] <= floor)
    return {
        "t_probe": list(t_probe),
        "sup_norms": sups,
        "peak_index": peak,
        "tail_monotone": tail_monotone,
        "rate_ok": bool(rate_ok),
        "passed": bool(tail_monotone and rate_ok),
        "floor": floor,
    }
