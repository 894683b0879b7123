"""Test-side constructors and oracles that no command uses:
sampling a callable, a box indicator or a band-limited trial, the half-space
quadrature, the tent region of a ball, the cone-functional size of one field,
and the atom that stores a dense field on its nonzero cells; a ball's
indicator (the oracle of the ball norms ``tent_decompose`` keeps); the
per-radius ball-average maximal loop (``hl_maximal_per_radius``, the oracle
of ``hl_maximal``); the dense smoothed sup over every live scale at every
distance (``dense_peetre_maximals``, the oracle of ``peetre_maximals``); the
powered maximal function
{M(|f|^theta)}^(1/theta) and the Fefferman-Stein vector-valued ratio
(``fs_vector_check``); the convexified norm ``convexify_norm``; and the
validity reports of an atom (``check_atom``: support, size, vanishing
moments) and of a molecule (``check_molecule``: shell decay, mean and
moments); the admissibility contract of a kernel (``assert_admissible``)
and the per-scale band coverage of a pair (``band_coverage_loop``, the
oracle of ``kernels.band_coverage``); and the emptying and the build counts
of the process-wide caches of the trial family, the kernels, their
companions and the plans; and the module of a script or benchmark file
(``load_module``)."""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from lpx import harness, kernels, transforms
from lpx.atoms import Ball, Molecule, TentAtom
from lpx.grid import GridSpec, HalfSpaceField, SampledFunction, ScaleGrid, scale_to_unit_rows
from lpx.kernels import Kernel, KernelKind, ReproducingPair
from lpx import maximal
from lpx.maximal import DEFAULT_RADII_PER_OCTAVE, BallFamily, ball_volume, hl_maximal
from lpx.spaces import Lebesgue, SpaceDescriptor, space_norm, space_norms
from lpx.squarefuncs import tent_functional

# smallest |phi_hat| that counts as a nondegeneracy witness of the weak kernel
NONDEGENERACY_FLOOR = 1e-3
# largest relative moment (``_moment_slacks``) and relative mean that
# ``check_atom`` and ``check_molecule`` count as vanishing
MOMENT_TOL = 1e-6
MEAN_TOL = 1e-8


def from_callable(grid: GridSpec, fn: Callable[..., np.ndarray]) -> SampledFunction:
    """Sample fn(x) (1-D) or fn(x, y) (2-D) at the cell centers."""
    return SampledFunction(grid, fn(*grid.coordinate_mesh()))


def indicator_box(grid: GridSpec, lo: Sequence[float], hi: Sequence[float]) -> SampledFunction:
    mesh = grid.coordinate_mesh()
    inside = np.ones(grid.shape, dtype=bool)
    for c, a, b in zip(mesh, lo, hi):
        inside &= (c >= a) & (c <= b)
    return SampledFunction(grid, inside)


def band_limited_trial(seed: int, grid: GridSpec, lo: float = 1.5, hi: float = 6.0) -> SampledFunction:
    """Complex function whose spectrum is random on the band lo <= |xi| <= hi and zero elsewhere."""
    rng = np.random.default_rng(seed)
    radii = grid.frequency_radii()
    band = (radii >= lo) & (radii <= hi)
    spectrum = np.zeros(grid.shape, dtype=complex)
    spectrum[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
    return SampledFunction(grid, np.fft.ifftn(spectrum))


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


def tent_mask(grid: GridSpec, scales: ScaleGrid, ball: Ball) -> np.ndarray:
    """Boolean mask of the tent region {(y, t): t < r, |y - c| < r - t}."""
    dist = np.roll(grid.offset_distances(), shift=ball.center, axis=tuple(range(grid.dim)))
    gap = ball.radius - scales.scales  # allowed distance per scale
    return dist[..., None] < gap.reshape((1,) * grid.dim + (-1,))


def tent_atom_size(field: HalfSpaceField, p: float) -> float:
    """L^p norm of the unit-aperture cone functional of the field."""
    return space_norm(tent_functional(field, 1.0), Lebesgue(p))


def atom_from_field(field: HalfSpaceField, ball: Ball, coefficient: float) -> TentAtom:
    """The atom equal to ``field``, stored on its nonzero cells."""
    flat = field.values.reshape(-1)
    cells = np.flatnonzero(flat)
    return TentAtom(field.grid, field.scales, cells, flat[cells], ball, coefficient)


def count_built_atoms(monkeypatch) -> list:
    """A list that gains an entry per ``TentAtom`` built from now on, each
    atom's ``__post_init__`` call."""
    built, post_init = [], TentAtom.__post_init__
    monkeypatch.setattr(TentAtom, "__post_init__", lambda atom: built.append(atom) or post_init(atom))
    return built


def ball_indicator(grid: GridSpec, ball: Ball) -> SampledFunction:
    """Indicator of the ball in the torus metric: ``grid.ball_mask`` moved to the centre."""
    return SampledFunction(grid, np.roll(grid.ball_mask(ball.radius), ball.center, axis=tuple(range(grid.dim))))


def hl_maximal_per_radius(f: SampledFunction, balls: BallFamily | None = None) -> SampledFunction:
    """The ``hl_maximal`` loop that one ``ball_filters`` call replaced: per
    radius, the ball averages and their one-radius ``ball_filter``, folded
    into a zero-initialised max in radius order."""
    balls = balls or BallFamily.build(f.grid, DEFAULT_RADII_PER_OCTAVE[f.grid.dim])
    mag = np.abs(f.values)
    e = scale_to_unit_rows(mag[None])[0]
    cellvol = f.grid.cell_volume
    out = np.zeros(f.grid.shape)
    for r, sums in zip(balls.radii, balls.ball_sums(mag)):
        avg = sums * (cellvol / ball_volume(r, f.grid.dim))
        np.maximum(out, balls.ball_filter(avg, r), out=out)
    np.maximum(out, 0.0, out=out)
    return SampledFunction(f.grid, np.ldexp(out, e, out=out))


def dense_peetre_maximals(fs: Sequence[SampledFunction], b: float, plan: transforms.ConvolutionPlan) -> np.ndarray:
    """``maximal.peetre_maximals`` with every live scale's product at every
    distance: each step of distances, as many as keep its (scale, input,
    distance, cell) products within 2^17 elements and at least one, takes
    the envelopes H_d = max_k w_k(d) G_k by one multiply and one max over the
    scales, gathers its offsets from them and folds their max into the output.
    It reads the same offset and weight tables (``maximal._peetre_tables``)."""
    grid = plan.grid
    shifts, bounds, weights, _ = maximal._peetre_tables(grid, plan.scales, b)
    rows = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    mags = np.abs(np.moveaxis(transforms.build_fields(fs, plan).values, -1, 0))
    live = mags.reshape(len(mags), -1).any(axis=1)
    out = np.zeros((len(fs),) + grid.shape)
    if not live.any():
        return out
    mags = mags[live][:, :, None]
    weights = weights[live].reshape((len(mags), 1, -1) + (1,) * grid.dim)
    n, n_dist = grid.points_per_axis, len(bounds) - 1
    step = min(n_dist, max(1, (1 << 17) // (len(mags) * len(fs) * grid.size)))
    for lo in range(0, n_dist, step):
        hi = min(lo + step, n_dist)
        envelopes = np.maximum.reduce(weights[:, :, lo:hi] * mags, axis=0)
        c = slice(bounds[lo], bounds[hi])
        # window (j, x) of the offset with shift s_j is its envelope at (x + s_j) mod n
        cells = [((s[:, None] + np.arange(n)) % n).reshape((-1,) + (1,) * a + (n,) + (1,) * (grid.dim - 1 - a))
                 for a, s in enumerate(shifts[c].T)]
        gathered = envelopes[(slice(None), (rows[c] - lo).reshape((-1,) + (1,) * grid.dim), *cells)]
        np.maximum(out, gathered.max(axis=1), out=out)
    return out


def powered_maximal(f: SampledFunction, theta: float, balls: BallFamily | None = None) -> SampledFunction:
    """Composition {M(|f|^theta)}^(1/theta) of |f| scaled to unit max, scaled back."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    mag = np.abs(f.values)
    e = scale_to_unit_rows(mag[None])[0]
    m = hl_maximal(SampledFunction(f.grid, mag**theta), balls)
    return SampledFunction(f.grid, np.ldexp(m.values ** (1.0 / theta), e))


def fs_vector_check(
    fs: list[SampledFunction],
    theta: float,
    s: float,
    space: SpaceDescriptor,
    balls: BallFamily | None = None,
) -> float:
    """Ratio of the l^s-aggregated powered maximal family to the plain family.

    Finiteness of this ratio across families is the vector-valued boundedness
    the theory rests on.  The ratio is of degree 0, so it is taken of the
    family divided by the power of two of its max (``scale_to_unit_rows`` on
    the family as one row).  A family that vanishes is a ``ZeroDivisionError``.
    """
    if not fs:
        raise ValueError("need at least one function")
    if s <= 0:
        raise ValueError("s must be positive")
    grid = fs[0].grid
    mags = np.abs(np.stack([f.values for f in fs]))
    scale_to_unit_rows(mags[None])
    num = np.zeros(grid.shape)
    den = np.zeros(grid.shape)
    for mag in mags:
        m = powered_maximal(SampledFunction(grid, mag), theta, balls)
        num += m.values ** s
        den += mag**s
    denom = space_norm(SampledFunction(grid, den ** (1.0 / s)), space)
    if denom == 0.0:
        raise ZeroDivisionError("all inputs vanish")
    return space_norm(SampledFunction(grid, num ** (1.0 / s)), space) / denom


def convexify_norm(f: SampledFunction, space: SpaceDescriptor, p: float) -> float:
    """Norm of |f|^p in the space, to the 1/p power: the p-th power and the
    root of |f| scaled to unit max, scaled back, as ``space_norms`` scales."""
    if p <= 0:
        raise ValueError("p must be positive")
    unit = np.abs(f.values)[None]
    exps = scale_to_unit_rows(unit)
    with np.errstate(over="ignore"):
        return np.ldexp([norm ** (1.0 / p) for norm in space.norms(f.grid, unit**p)], exps).tolist()[0]


@dataclass(frozen=True)
class AtomReport:
    support_ok: bool
    support_leak: float
    size_ok: bool
    size_lhs: float
    size_rhs: float
    moments_ok: bool
    moment_slacks: dict

    @property
    def passed(self) -> bool:
        return self.support_ok and self.size_ok and self.moments_ok


@dataclass(frozen=True)
class MoleculeReport:
    shell_lhs: list[float]
    shell_rhs: list[float]
    mean_slack: float
    moment_slacks: dict
    size_ok: bool
    mean_ok: bool
    moments_ok: bool


def default_molecule_decay(space: SpaceDescriptor, q: float, dim: int) -> float:
    """Smallest admissible shell decay rate, with a small safety margin."""
    theta = min(1.0, space.floor())
    return dim * (1.0 / theta - 1.0 / q) + 0.01


def _multi_indices(dim: int, d: int):
    if dim == 1:
        return [(k,) for k in range(d + 1)]
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


def _moment_slacks(f: SampledFunction, d: int) -> dict:
    grid = f.grid
    mesh = grid.coordinate_mesh()
    l1 = float(np.sum(np.abs(f.values)) * grid.cell_volume)
    slacks = {}
    for beta in _multi_indices(grid.dim, d):
        mono = np.ones(grid.shape)
        for axis, power in enumerate(beta):
            mono = mono * mesh[axis] ** power
        moment = abs(complex(np.sum(f.values * mono) * grid.cell_volume))
        scale = l1 * grid.half_width ** sum(beta) if l1 > 0 else 1.0
        slacks[beta] = moment / scale
    return slacks


def check_atom(a: SampledFunction, ball: Ball, space: SpaceDescriptor, q: float, d: int) -> AtomReport:
    """Support, size, and vanishing-moment report for a candidate atom."""
    grid = a.grid
    indicator = ball_indicator(grid, ball)
    mass = float(np.sum(np.abs(a.values)))
    leak = float(np.sum(np.abs(a.values)[indicator.values == 0])) / mass if mass > 0 else 0.0
    support_ok = leak == 0.0

    norm_1b = space_norm(indicator, space)
    if math.isinf(q):
        lhs = float(np.max(np.abs(a.values)))
        rhs = 1.0 / norm_1b
    else:
        lhs = space_norm(a, Lebesgue(q))
        rhs = ball_volume(ball.radius, grid.dim) ** (1.0 / q) / norm_1b
    size_ok = lhs <= rhs * (1 + 1e-9)

    slacks = _moment_slacks(a, d)
    moments_ok = all(v <= MOMENT_TOL for v in slacks.values())
    return AtomReport(
        support_ok=support_ok,
        support_leak=leak,
        size_ok=size_ok,
        size_lhs=lhs,
        size_rhs=rhs,
        moments_ok=moments_ok,
        moment_slacks=slacks,
    )


def check_molecule(m: Molecule, space: SpaceDescriptor, q: float, d: int, epsilon: float) -> MoleculeReport:
    """Shell-decay (L^q, rate ``epsilon``) and vanishing-moment (order ``d``)
    report; the ball is shell 0 whatever its radius, and the shells past it
    stop at the box edge."""
    grid = m.func.grid
    norm_1b = space_norm(ball_indicator(grid, m.ball), space)
    radii, measures = [], []
    r_lo, r_hi = 0.0, m.ball.radius  # shell j is r 2^(j-1) <= dist < r 2^j, the ball at j = 0
    while not radii or r_hi <= grid.half_width:
        radii.append(r_hi)
        measures.append(ball_volume(r_hi, grid.dim) - ball_volume(r_lo, grid.dim))
        r_lo, r_hi = r_hi, 2.0 * r_hi
    shells = np.array([ball_indicator(grid, Ball(m.ball.center, r)).values > 0 for r in radii])
    shells[1:] &= ~shells[:-1]  # each ball less the one inside it
    vals = np.where(shells, np.abs(m.func.values), 0.0)
    lhs_list = [float(row.max()) for row in vals] if math.isinf(q) else space_norms(grid, vals, Lebesgue(q))
    # measure ** (1 / q) is 1.0 at q = inf
    rhs_list = [2.0 ** (-j * epsilon) * measure ** (1.0 / q) / norm_1b for j, measure in enumerate(measures)]
    l1 = float(np.sum(np.abs(m.func.values)) * grid.cell_volume)
    mean = abs(complex(np.sum(m.func.values) * grid.cell_volume))
    mean_slack = mean / l1 if l1 > 0 else 0.0
    slacks = _moment_slacks(m.func, d)
    return MoleculeReport(
        shell_lhs=lhs_list,
        shell_rhs=rhs_list,
        mean_slack=mean_slack,
        moment_slacks=slacks,
        size_ok=all(l <= r * (1 + 1e-9) for l, r in zip(lhs_list, rhs_list)),
        mean_ok=mean_slack <= MEAN_TOL,
        moments_ok=all(v <= MOMENT_TOL for v in slacks.values()),
    )


def assert_admissible(kernel: Kernel) -> None:
    """The admissibility contract on the dual grid: the transform is finite
    and 0 at xi = 0; the annular one lies in [0, 1], is exactly 1 on
    2 <= |xi| <= 4 and exactly 0 off 1 < |xi| < 8; the weak one is at least
    ``NONDEGENERACY_FLOOR`` in modulus on every ray at one of 64 log-spaced
    scales t from 1/(2 pi max|xi|) to 1/(2 pi min|xi|), where the profile's
    peak t|xi| = 1/(2 pi) sweeps the dual grid."""
    vals = kernel.fourier_values
    radii = kernel.grid.frequency_radii()
    assert np.all(np.isfinite(vals)), "fourier values must be finite"
    assert np.all(vals[radii == 0.0] == 0.0), "transform must vanish at frequency zero"
    if kernel.kind is KernelKind.ANNULAR:
        assert np.all((vals >= 0) & (vals <= 1)), "annular transform must lie in [0, 1]"
        assert np.all(vals[(radii >= 2.0) & (radii <= 4.0)] == 1.0), "annular transform must be 1 on 2 <= |xi| <= 4"
        assert np.all(vals[(radii <= 1.0) | (radii >= 8.0)] == 0.0), "annular transform must vanish off 1 < |xi| < 8"
    else:
        pos = radii[radii > 0]
        probe = np.exp(np.linspace(math.log(1.0 / (2.0 * np.pi * pos.max())),
                                   math.log(1.0 / (2.0 * np.pi * pos.min())), 64))
        witnessed = np.zeros(pos.size, dtype=bool)
        for t in probe:
            witnessed |= np.abs(kernel.profile(t * pos)) >= NONDEGENERACY_FLOOR
        assert np.all(witnessed), "nondegeneracy witness missing for some dual direction"


def band_coverage_loop(pair: ReproducingPair) -> np.ndarray:
    """sum_k phi_hat(t_k xi) psi_hat(t_k xi) ln2/J per dual node, one scale
    at a time from the two profiles."""
    radii = pair.phi.grid.frequency_radii()
    cov = np.zeros_like(radii)
    for t in pair.scales.scales:
        cov += pair.phi.profile(t * radii) * pair.psi.profile(t * radii)
    return cov * pair.scales.log_weight


def clear_fixed_input_caches() -> None:
    """Empty the caches of ``trial_function``, ``embedding_weight``,
    ``build_kernel``, ``calderon_companion`` and ``build_plan``, so the next
    run is cold."""
    for cache in (harness.trial_function, harness.embedding_weight, kernels.build_kernel, kernels.calderon_companion,
                  transforms.build_plan):
        cache.cache_clear()


def count_fixed_input_builds(monkeypatch) -> dict[str, int]:
    """Builds of trials, annular kernels, companions and plans from now on,
    counted by spies on a callee of each builder: a trial kind's builder,
    ``build_annular_kernel`` (reached through ``build_kernel``'s catalogue),
    ``_band_center`` (one call per companion) and the ``ConvolutionPlan``
    that a plan build makes."""
    counts = dict.fromkeys(("trials", "kernels", "companions", "plans"), 0)

    def spy(module, name: str, key: str) -> None:
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("_band_limited", "_atom_like", "_bump"):
        spy(harness, name, "trials")
    spy(kernels, "build_annular_kernel", "kernels")
    spy(kernels, "_band_center", "companions")
    spy(transforms, "ConvolutionPlan", "plans")
    return counts


def load_module(path: Path):
    """The module of the Python file ``path`` outside the package (a script or
    a benchmark file), run afresh on each call."""
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
