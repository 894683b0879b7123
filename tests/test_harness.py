import functools
import math
import sys
import types

import numpy as np
import pytest

from helpers import clear_fixed_input_caches, count_fixed_input_builds
from lpx import cli, grid as grid_mod, kernels, squarefuncs, transforms
from lpx.errors import ConeOverflow
from lpx.grid import (CACHE_SIZE, GridSpec, SampledFunction, ScaleGrid, concentration_defect, gaussian_bump,
                      pure_frequency)
from lpx import harness
from lpx.harness import (
    change_of_angle_experiment,
    default_lambda,
    embedding_experiment,
    equivalence_experiment,
    equivalence_experiments,
    five_spaces,
    trial_function,
    vanish_at_infinity_check,
)
from lpx.kernels import build_annular_kernel, build_kernel
from lpx.grid import HalfSpaceField
from lpx.maximal import hardy_norm
from lpx.spaces import Lebesgue, Morrey, descriptor_from_json, space_norm
from lpx.squarefuncs import g_function, g_lambda_star, lusin_area, tent_functional
from lpx.transforms import build_field, build_plan, convolve_at_scale

GRID = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
SCALES = ScaleGrid(1 / 16, 16.0, 8)
ANGLE_SCALES = ScaleGrid(1 / 16, 1.0, 8)


def test_trial_family_concentrated_and_deterministic():
    for i in range(8):
        f = trial_function(3, i, GRID)
        assert concentration_defect(f) <= 1e-6
        again = trial_function(3, i, GRID)
        assert np.array_equal(f.values, again.values)
    different = trial_function(4, 0, GRID)
    assert not np.array_equal(different.values, trial_function(3, 0, GRID).values)


def test_default_lambda():
    assert default_lambda(Lebesgue(2.0)) == pytest.approx(1.5)
    assert default_lambda(Morrey(2.0, 1.0)) == pytest.approx(2.5)


def test_five_spaces_refuses_a_2d_grid_and_names_the_recipe_route():
    # the mixed recipe has one exponent, so the catalogue is 1-D; a 2-D caller
    # builds each space from its recipe, one mixed exponent per axis
    grid = GridSpec(dim=2, half_width=2.0, points_per_axis=16)
    with pytest.raises(ValueError, match="1-D catalogue FIVE_SPACES") as info:
        five_spaces(grid)
    assert "descriptor_from_json" in str(info.value)
    bump = gaussian_bump(grid, [0.0, 0.0], 0.5)
    for name, recipe in {**harness.FIVE_SPACES, "mixed": {"tag": "mixed", "p": [1.5, 1.5]}}.items():
        assert 0.0 < space_norm(bump, descriptor_from_json(recipe, grid)) < np.inf, name


def test_equivalence_requires_enough_trials():
    with pytest.raises(ValueError):
        equivalence_experiment(Lebesgue(2.0), "annular", 5, GRID, SCALES)


def test_equivalence_experiment_l2():
    rep = equivalence_experiment(Lebesgue(2.0), "annular", 12, GRID, SCALES, seed=1)
    assert rep.passed
    assert rep.summary["worst_spread"] <= 10.0
    assert rep.summary["domination_ok"] == 1.0
    # thresholds are recorded next to the measurements
    assert rep.thresholds["spread_max"] == 10.0


def test_equivalence_pure_frequency_family_tight_gstar_ratio():
    # for one-frequency inputs the ratio of the weighted to the vertical
    # square function is a fixed weight integral: spread stays near 1
    plan = build_plan(build_annular_kernel(GRID), SCALES)
    from lpx.squarefuncs import g_function, g_lambda_star
    ratios = []
    for k in (20, 24, 28, 32):
        F = build_field(pure_frequency(GRID, [k]), plan)
        g = g_function(F).values.real.mean()
        gs = g_lambda_star(F, 2.0).values.real.mean()
        ratios.append(gs / g)
    assert max(ratios) / min(ratios) <= 1.1


def test_equivalence_report_roundtrip_json():
    rep = equivalence_experiment(Lebesgue(2.0), "annular", 10, GRID, SCALES, seed=2)
    blob = rep.to_json()
    assert '"passed"' in blob
    csv = rep.to_csv()
    assert csv.splitlines()[0].startswith("trial,")
    assert len(csv.splitlines()) == 11


@pytest.mark.parametrize("hardy,domination,passed", [
    (10.0, True, True),  # a worst spread of exactly the bound passes
    (10.0 * (1 + 2.0**-52), True, False),  # one ulp past it fails
    (10.0, False, False),  # one failed domination flag fails, whatever the spread
], ids=["spread-at-bound", "spread-past-bound", "domination-failed"])
def test_the_equivalence_grader_fails_past_the_spread_bound_or_on_a_domination_flag(hardy, domination, passed):
    # hand-built rows (hardy, area, g, gstar, domination held): the hardy
    # series alone moves, so every ratio against it spreads by ``hardy``
    rows = [(1.0, 1.0, 1.0, 1.0, True), (hardy, 1.0, 1.0, 1.0, True), (1.0, 1.0, 1.0, 1.0, domination)]
    report = harness._equivalence_report(Lebesgue(2.0), "annular", 0, 2.0, rows)
    assert report.summary["worst_spread"] == hardy
    assert report.summary["domination_ok"] == float(domination)
    assert report.passed is passed


@pytest.mark.parametrize("lam,dim", [(2.5, 1), (1.75, 2)])
def test_the_domination_flag_holds_up_to_two_to_the_lambda_n_over_two(lam, dim):
    # hand-built S and g* rows: S at exactly 2^(lambda n / 2) g* is
    # dominated, S halfway (in log) to 2^(lambda n) g* is not, at one cell
    gstar = np.ones((3,) + (8,) * dim)
    s_rows = gstar.copy()
    s_rows[1] *= 2.0 ** (lam * dim / 2.0)
    s_rows[2].flat[5] = 2.0 ** (lam * dim * 3 / 4)
    assert harness._dominated(s_rows, gstar, lam) == [True, True, False]


# hand-built change-of-angle rows (norms at each aperture, fitted slope)
ALPHAS = (1.0, 2.0, 4.0, 8.0)
RISING = [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("floor,dim,bound", [(2.0, 1, 0.5), (1.0, 1, 1.0), (4.0, 1, 0.5), (4.0, 2, 1.0)],
                         ids=["n/2-at-p=2", "n/p", "n/2-above-p=2-1d", "n/2-above-p=2-2d"])
def test_the_angle_grader_fails_one_ulp_past_its_bound(floor, dim, bound):
    # the bound is max(n/2, n/floor); two equal slopes average exactly, so
    # the mean slope sits on the bound plus slack, or one ulp past it
    edge = bound + harness.ANGLE_SLOPE_SLACK
    for slope, passed in ((edge, True), (np.nextafter(edge, np.inf), False)):
        report = harness._angle_report(Lebesgue(floor), "annular", 0, ALPHAS, dim,
                                       [(RISING, slope), (RISING, slope)])
        assert report.summary["bound"] == bound and report.summary["fitted_exponent"] == slope
        assert report.thresholds["slope_max"] == edge and report.passed is passed


def test_the_angle_grader_fails_on_one_non_monotone_trial():
    # a slope well inside the bound; one trial's norms dip past the 1e-10
    # tolerance, another's by less
    within = [1.0, 2.0, 2.0 * (1 - 0.5e-10), 4.0]
    dipping = [1.0, 2.0, 2.0 * (1 - 2e-10), 4.0]
    report = harness._angle_report(Lebesgue(2.0), "annular", 0, ALPHAS, 1, [(RISING, 0.1), (within, 0.1)])
    assert report.passed and report.summary["monotone_ok"] == 1.0
    report = harness._angle_report(Lebesgue(2.0), "annular", 0, ALPHAS, 1,
                                   [(RISING, 0.1), (dipping, 0.1), (RISING, 0.1)])
    assert not report.passed and report.summary["monotone_ok"] == 0.0


@pytest.mark.parametrize("ratios,passed", [
    ([1.0, 10.0, 5.0], True),  # a spread of exactly the bound passes
    ([1.0, 10.0 * (1 + 2.0**-52), 5.0], False),  # one ulp past it fails
    ([1.0, math.inf, 5.0], False),  # a non-finite ratio fails
], ids=["spread-at-bound", "spread-past-bound", "infinite-ratio"])
def test_the_embedding_grader_fails_past_its_spread_bound(ratios, passed):
    report = harness._embedding_report(Lebesgue(2.0), 2.0, 0, 0.9, ratios)
    assert report.passed is passed and report.trials == len(ratios)


def test_the_vanish_grader_fails_on_a_tail_that_rises_while_the_rate_holds():
    # past the peak the tail rises once, yet the last probe lies more than a
    # factor 2 per octave below the peak
    t_probe = (1.0, 2.0, 4.0, 8.0)
    out = harness._vanish_report(t_probe, [1.0, 0.25, 0.3, 0.01], 1e-14)
    assert out["rate_ok"] and not out["tail_monotone"] and not out["passed"]
    out = harness._vanish_report(t_probe, [1.0, 0.25, 0.2, 0.01], 1e-14)
    assert out["rate_ok"] and out["tail_monotone"] and out["passed"]
    # a rise that stays below the floor does not count
    out = harness._vanish_report(t_probe, [1.0, 0.25, 0.0, 1e-15], 1e-14)
    assert out["passed"]


def test_change_of_angle_l2_slope():
    rep = change_of_angle_experiment(Lebesgue(2.0), (1.0, 2.0, 4.0, 8.0), 10, GRID, ANGLE_SCALES, seed=3)
    assert rep.passed
    assert rep.summary["fitted_exponent"] <= 0.5 + 0.15
    assert rep.summary["monotone_ok"] == 1.0


def test_change_of_angle_single_cell_field_saturates():
    # one deep cell is inside every cone once alpha t exceeds its distance:
    # the norms stop growing, so the slope stays near zero
    vals = np.zeros((256, len(ANGLE_SCALES)))
    vals[128, -1] = 1.0
    F = HalfSpaceField(GRID, ANGLE_SCALES, vals)
    norms = [tent_functional(F, a).values.real for a in (1.0, 2.0, 4.0, 8.0)]
    t_top = ANGLE_SCALES.scales[-1]
    x = GRID.axis_coordinates()
    center = x[128]
    for a, n in zip((1.0, 2.0, 4.0, 8.0), norms):
        inside = np.abs(x - center) < a * t_top
        assert np.allclose(n[inside] > 0, True)
    # at points well inside the narrowest cone the value is aperture-free
    core = np.abs(x - center) < 1.0 * ANGLE_SCALES.scales[-1]
    assert np.allclose(norms[0][core], norms[3][core], rtol=1e-12)


def test_change_of_angle_cone_overflow():
    with pytest.raises(ConeOverflow):
        change_of_angle_experiment(Lebesgue(2.0), (1.0, 8.0), 10, GRID, SCALES)


@pytest.mark.parametrize("alphas", [(2.0,), ()], ids=["one", "none"])
def test_change_of_angle_needs_two_apertures(alphas):
    # a line through one point fits any slope
    with pytest.raises(ValueError, match="two apertures"):
        change_of_angle_experiment(Lebesgue(2.0), alphas, 1, GRID, ANGLE_SCALES)


def test_embedding_experiment_lebesgue_ratios_below_one():
    rep = embedding_experiment(Lebesgue(2.0), 2.0, 8, GRID, seed=4)
    assert rep.passed
    # the embedding weight is at most 1, so these ratios never exceed 1
    assert rep.summary["max_ratio"] <= 1.0 + 1e-10


def test_embedding_scaling_and_determinism():
    from lpx.harness import embedding_weight
    from lpx.spaces import WeightedLebesgue, space_norm
    from lpx.grid import indicator_ball

    # scaling f leaves the ratio unchanged (both norms are homogeneous)
    weight = embedding_weight(GRID)
    target = WeightedLebesgue(2.0, weight, q_omega=1.0)
    f = gaussian_bump(GRID, [0.3], 0.4)
    r1 = space_norm(f, target) / space_norm(f, Lebesgue(2.0))
    r2 = space_norm(2.0 * f, target) / space_norm(2.0 * f, Lebesgue(2.0))
    assert r2 == pytest.approx(r1, rel=1e-12)
    # the unit-ball indicator gives explicit norms on both sides
    ind = indicator_ball(GRID, [0.0], 1.0)
    ratio = space_norm(ind, target) / space_norm(ind, Lebesgue(2.0))
    assert 0.0 < ratio <= 1.0 + 1e-10
    # reruns with the same seed reproduce the series bit for bit
    rep1 = embedding_experiment(Lebesgue(2.0), 2.0, 6, GRID, seed=5)
    rep2 = embedding_experiment(Lebesgue(2.0), 2.0, 6, GRID, seed=5)
    assert rep1.series == rep2.series


def test_vanish_check_bump_and_constant():
    kernel = build_annular_kernel(GRID)
    bump = gaussian_bump(GRID, [0.0], 0.5)
    # probes must clear the lowest grid frequency: t >= 8 * 2L = 256
    probe = tuple(1 / 16 * 2.0**k for k in range(13))
    out = vanish_at_infinity_check(bump, kernel, probe)
    assert out["passed"]
    assert out["sup_norms"][-1] == 0.0
    constant = SampledFunction(GRID, np.ones(256))
    out_c = vanish_at_infinity_check(constant, kernel, probe)
    assert all(v == 0.0 for v in out_c["sup_norms"])
    assert out_c["passed"]


def test_vanish_check_fails_when_the_probes_see_no_decay():
    # verify's bump on the 1-D default grid, probes that stop while the band
    # still climbs onto its spectrum: the peak is the last probe
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    bump = gaussian_bump(grid, [0.0], grid.half_width / 16.0)
    out = vanish_at_infinity_check(bump, build_annular_kernel(grid), (0.0625, 0.125, 0.25, 0.5))
    assert out["peak_index"] == 3 and out["sup_norms"][-1] > out["floor"]
    assert out["tail_monotone"] and not out["rate_ok"] and not out["passed"]
    # verify's default probes reach t = 16 L, past the peak
    out = vanish_at_infinity_check(bump, build_annular_kernel(grid), tuple(0.0625 * 2.0**k for k in range(10)))
    assert out["peak_index"] == 6 and out["passed"]


def test_vanish_check_pure_frequency_cutoff():
    kernel = build_annular_kernel(GRID)
    f = pure_frequency(GRID, [48])  # |xi| = 3
    probe = tuple(1 / 16 * 2.0**k for k in range(9))
    out = vanish_at_infinity_check(f, kernel, probe)
    for t, v in zip(out["t_probe"], out["sup_norms"]):
        expected = float(kernel.profile(np.array([3.0 * t]))[0])
        assert v == pytest.approx(expected, abs=1e-10)
    # band left behind once t|xi| > 8 (up to FFT noise in neighboring bins)
    assert out["sup_norms"][-1] <= out["floor"]


@pytest.mark.parametrize("case", ["1d-64-trial", "1d-256-wave", "2d-64-trial"])
def test_vanish_check_matches_per_probe_loop_bitwise(case, monkeypatch):
    # one stacked multiplier pass over a probe table from one profile call,
    # the table bitwise the per-probe multipliers and each probe's sup
    # bitwise its one-probe convolution's
    dim, n, kind = case.split("-")
    grid = GridSpec(dim=int(dim[0]), half_width=2.0, points_per_axis=int(n))
    f = trial_function(5, 1, grid) if kind == "trial" else pure_frequency(grid, [12])
    probe = tuple(1 / 16 * 2.0**k for k in range(11))
    tables = []
    apply_multiplier = harness.apply_multiplier
    monkeypatch.setattr(harness, "apply_multiplier", lambda v, m, d: tables.append(m) or apply_multiplier(v, m, d))
    for kernel in (build_kernel("annular", grid), build_kernel("weak", grid)):
        sups = [float(np.max(np.abs(convolve_at_scale(f, kernel, t).values))) for t in probe]
        assert vanish_at_infinity_check(f, kernel, probe)["sup_norms"] == sups
        assert np.array_equal(tables.pop(), np.stack([kernel.multiplier(t) for t in probe])) and not tables


def test_lambda_below_range_warns():
    import warnings as _w

    with _w.catch_warnings(record=True) as caught:
        _w.simplefilter("always")
        equivalence_experiment(Lebesgue(0.5), "annular", 10, GRID, SCALES, seed=9, lam=1.2)
    assert any("below the equivalence range" in str(c.message) for c in caught)


# -- the per-trial loops that the trial-blocked experiments replaced ----------


def _per_trial_equivalence(space, kernel_kind, trials, grid, scales, seed):
    """equivalence_experiment with every operator called once per trial."""
    kernel = build_kernel(kernel_kind, grid)
    plan = build_plan(kernel, scales)
    psi_plan = build_plan(harness.calderon_companion(kernel, scales).psi, scales)
    lam = default_lambda(space)
    dom_factor = 2.0 ** (lam * grid.dim / 2.0)
    rows = []
    for i in range(trials):
        f = trial_function(seed, i, grid)
        F = build_field(f, plan)
        s_fn = lusin_area(F)
        gs_fn = g_lambda_star(F, lam)
        dom_ok = bool(np.all(s_fn.values.real <= dom_factor * gs_fn.values.real * (1 + 1e-12)))
        rows.append((hardy_norm(f, space, psi_plan), space_norm(s_fn, space), space_norm(g_function(F), space),
                     space_norm(gs_fn, space), dom_ok))
    return harness._equivalence_report(space, kernel_kind, seed, lam, rows)


def _block_sizes(monkeypatch, trials_per_block, grid, scales):
    """Set the budget to hold the given number of trials; returns the list
    the block sizes of the phi-field builds, those on the annular kernel,
    are recorded in.  A trial costs dim + 1 times its real field, 8 bytes
    per (cell, scale)."""
    monkeypatch.setattr(grid_mod, "WORK_BYTES", trials_per_block * (grid.dim + 1) * grid.size * len(scales) * 8)
    phi = build_annular_kernel(grid)
    sizes = []
    build_fields = harness.build_fields

    def recorded(fs, plan):
        if plan.kernel == phi:
            sizes.append(len(fs))
        return build_fields(fs, plan)

    monkeypatch.setattr(harness, "build_fields", recorded)
    return sizes


@pytest.mark.parametrize("seed", [0, 5, 4243])
def test_trial_blocked_equivalence_reports_match_the_per_trial_loop(seed):
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(1 / 16, 16.0, 8)
    for name, space in [*five_spaces(grid).items(), ("lebesgue", Lebesgue(2.0))]:
        rep = equivalence_experiment(space, "annular", 10, grid, scales, seed=seed)
        assert rep.to_json() == _per_trial_equivalence(space, "annular", 10, grid, scales, seed).to_json(), name


@pytest.mark.parametrize("dim, trials, per_block, blocks", [(1, 11, 3, [3, 3, 3, 2]), (2, 10, 3, [3, 3, 3, 1])],
                         ids=["1d-11-trials", "2d-64"])
def test_trial_blocked_equivalence_with_a_partial_last_block(dim, trials, per_block, blocks, monkeypatch):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=64)
    if dim == 1:
        scales, space = ScaleGrid(1 / 16, 16.0, 8), five_spaces(grid)["morrey"]
    else:
        # trial functions need N >= 64, and at 2-D N=64 the annular kernel's
        # companion needs 48 scales, about 4 s on a 2-vCPU host; on 8 scales
        # the smoothed maximal function takes the annular profile as its psi,
        # as a kernel of its own so that its fields are told from the phi-fields
        scales, space = ScaleGrid(1 / 4, 1.0, 4), Lebesgue(2.0)
        psi = kernels.Kernel(grid, kernels.KernelKind.ANNULAR, functools.partial(kernels.annular_profile))
        monkeypatch.setattr(harness, "calderon_companion", lambda kernel, _: types.SimpleNamespace(psi=psi))
    expected = _per_trial_equivalence(space, "annular", trials, grid, scales, 0).to_json()
    sizes = _block_sizes(monkeypatch, per_block, grid, scales)
    assert equivalence_experiment(space, "annular", trials, grid, scales).to_json() == expected
    assert sizes == blocks


def test_default_block_budget_batches_1d_and_not_2d_n64(monkeypatch):
    scales = ScaleGrid(1 / 16, 16.0, 8)
    sizes = {}
    for dim, n in ((1, 64), (1, 512), (2, 64)):
        grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
        sizes[dim, n] = [len(fs) for fs in harness._trial_blocks(0, 10, grid, scales)]
    assert sizes == {(1, 64): [10], (1, 512): [2] * 5, (2, 64): [1] * 10}


@pytest.mark.parametrize("experiment", ["equivalence", "change_of_angle"])
def test_a_trial_block_takes_its_powers_and_each_batch_spectrum_once(monkeypatch, experiment):
    # every cone and g*_lambda stack of a block comes from one scale_sums
    # call: one |F|^2 and one forward FFT per batch of (trial, scale) rows
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(1 / 16, 16.0 if experiment == "equivalence" else 0.25, 8)
    blocks = _block_sizes(monkeypatch, 4, grid, scales)
    callers = {"_unit_powers": [], "spectrum": []}
    batches = []
    for name in callers:
        def spy(*args, _name=name, _fn=getattr(squarefuncs, name)):
            callers[_name].append(sys._getframe(1).f_code.co_name)
            return _fn(*args)
        monkeypatch.setattr(squarefuncs, name, spy)
    make_batches = squarefuncs.whole_batches

    def counted(costs):
        batches.append(0)
        for batch in make_batches(costs):
            batches[-1] += 1
            yield batch

    monkeypatch.setattr(squarefuncs, "whole_batches", counted)
    if experiment == "equivalence":
        equivalence_experiment(Lebesgue(2.0), "annular", 10, grid, scales, seed=5)
    else:
        change_of_angle_experiment(Lebesgue(2.0), (1.0, 2.0, 4.0, 8.0), 10, grid, scales, seed=5)
    assert blocks == [4, 4, 2]
    # g comes from the same powers, so a block is squared once
    assert callers["_unit_powers"] == ["scale_sums"] * 3
    assert len(batches) == 3 and min(batches) >= 1
    assert callers["spectrum"].count("scale_sums") == sum(batches)  # the rest build the cached tables


# -- one equivalence pass for many spaces -----------------------------------------

EQ_GRID = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
EQ_SCALES = ScaleGrid(1 / 16, 16.0, 8)


def _five_space_pass(seed, **params):
    return equivalence_experiments(list(five_spaces(EQ_GRID).values()), "annular", 10, EQ_GRID, EQ_SCALES,
                                   seed=seed, **params)


@pytest.mark.parametrize("seed", [5, 0, 42])
def test_many_space_pass_reports_are_the_one_space_reports(seed):
    expected = [equivalence_experiment(space, "annular", 10, EQ_GRID, EQ_SCALES, seed=seed).to_json()
                for space in five_spaces(EQ_GRID).values()]
    assert [rep.to_json() for rep in _five_space_pass(seed)] == expected


def test_many_space_pass_with_a_partial_last_block(monkeypatch):
    expected = [equivalence_experiment(space, "annular", 10, EQ_GRID, EQ_SCALES, seed=5).to_json()
                for space in five_spaces(EQ_GRID).values()]
    sizes = _block_sizes(monkeypatch, 3, EQ_GRID, EQ_SCALES)
    assert [rep.to_json() for rep in _five_space_pass(5)] == expected
    assert sizes == [3, 3, 3, 1]


def test_many_space_pass_builds_each_blocks_operators_once(monkeypatch):
    # per block: one phi-field stack, squared once, one scale_sums for S,
    # g and every distinct lambda, one psi-field stack, one Peetre sup on it
    # per distinct b, and one norm call per space
    spaces = list(five_spaces(EQ_GRID).values())
    distinct_b = list(dict.fromkeys(harness.default_peetre_exponent(1, space.floor()) for space in spaces))
    assert len(distinct_b) == 4 and len({default_lambda(space) for space in spaces}) == 4
    blocks = _block_sizes(monkeypatch, 4, EQ_GRID, EQ_SCALES)
    calls = {"_field_values": [], "_unit_powers": [], "scale_sums": [], "peetre_maximals": [], "space_norms": []}
    # every field build, wherever it is called from, goes through _field_values
    for module, name in ((transforms, "_field_values"), (squarefuncs, "_unit_powers"), (harness, "scale_sums"),
                         (harness, "peetre_maximals"), (harness, "space_norms")):
        def spy(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    _five_space_pass(5)
    assert blocks == [4, 4, 2]
    phi = build_annular_kernel(EQ_GRID)
    psi = harness.calderon_companion(phi, EQ_SCALES).psi
    assert [(len(fs), plan.kernel) for fs, plan in calls["_field_values"]] == [
        (4, phi), (4, psi), (4, phi), (4, psi), (2, phi), (2, psi)]
    assert len(calls["_unit_powers"]) == 3
    # the cone table and one g*_lambda table per distinct lambda
    assert [len(tables) for _, tables in calls["scale_sums"]] == [1 + 4] * 3
    sups = calls["peetre_maximals"]
    assert [b for _, b in sups] == distinct_b * 3
    assert [len(F.values) for F, _ in sups] == [4] * 8 + [2] * 4
    assert all(F is sups[i - i % 4][0] for i, (F, _) in enumerate(sups))  # a block's sups read one stack
    assert len(calls["space_norms"]) == 5 * 3


def test_an_explicit_lambda_and_b_apply_to_every_space():
    import warnings as _w

    spaces = list(five_spaces(EQ_GRID).values())
    with _w.catch_warnings(record=True) as caught:
        _w.simplefilter("default")  # one warning shown per distinct message
        reports = _five_space_pass(0, lam=1.5, b=3.0)
    below = sum(1.5 <= max(1.0, 2.0 / space.floor()) for space in spaces)  # morrey, weighted, orlicz_slice
    assert 0 < below < len(spaces)
    assert sum("below the equivalence range" in str(c.message) for c in caught) == below
    with _w.catch_warnings():
        _w.simplefilter("ignore")
        expected = [equivalence_experiment(space, "annular", 10, EQ_GRID, EQ_SCALES, seed=0, lam=1.5, b=3.0).to_json()
                    for space in spaces]
    assert [rep.to_json() for rep in reports] == expected
    assert all(rep.summary["lambda"] == 1.5 for rep in reports)


def _transformed_pass(monkeypatch, seed, transform):
    """The five-space pass with every trial function replaced by ``transform`` of it."""
    trial = harness.trial_function
    with monkeypatch.context() as patched:
        patched.setattr(harness, "trial_function", lambda *key: transform(trial(*key)))
        return _five_space_pass(seed)


NORMS = ("hardy", "area", "g", "gstar")


@pytest.mark.parametrize("seed", [5, 0, 42])
def test_many_space_pass_is_exactly_homogeneous(seed, monkeypatch):
    # scaling every trial by 2^k scales every norm by exactly 2^k, so every
    # ratio, summary and verdict is bitwise the unscaled run's; at k = 1000
    # the fields keep over 8 binades of headroom to the FFT's overflow
    reference = _five_space_pass(seed)
    for k in (-900, -600, 900, 1000):
        scaled = _transformed_pass(monkeypatch, seed, lambda f: SampledFunction(f.grid, np.ldexp(f.values, k)))
        for rep, ref in zip(scaled, reference):
            assert rep.summary == ref.summary and rep.passed == ref.passed, (k, rep.space)
            for key, values in ref.series.items():
                expected = np.ldexp(values, k).tolist() if key in NORMS else values
                assert rep.series[key] == expected, (k, rep.space, key)


@pytest.mark.parametrize("seed", [5, 0, 42])
def test_many_space_pass_is_translation_invariant_in_the_invariant_spaces(seed, monkeypatch):
    # rolling every trial by whole cells moves the norms in morrey, mixed and
    # orlicz_slice only by round-off: at most 4.4e-16 relative on a norm and
    # 6.7e-16 on a ratio or spread (seeds 5, 0, 42, shifts 7 and 13); the
    # tolerances are about twice that.  variable and weighted are not
    # translation invariant.
    reference = dict(zip(harness.FIVE_SPACES, _five_space_pass(seed)))
    for shift in (7, 13):
        rolled = dict(zip(harness.FIVE_SPACES, _transformed_pass(
            monkeypatch, seed, lambda f: SampledFunction(f.grid, np.roll(f.values, shift)))))
        for name in ("morrey", "mixed", "orlicz_slice"):
            rep, ref = rolled[name], reference[name]
            assert rep.passed == ref.passed, (shift, name)
            assert rep.summary == pytest.approx(ref.summary, rel=1.5e-15, abs=0), (shift, name)
            for key, values in ref.series.items():
                tol = 1e-15 if key in NORMS else 1.5e-15
                assert rep.series[key] == pytest.approx(values, rel=tol, abs=0), (shift, name, key)


def test_trial_blocked_change_of_angle_matches_the_per_trial_loop(monkeypatch):
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(1 / 16, 0.25, 8)
    alphas = (1.0, 2.0, 4.0, 8.0)
    plan = build_plan(build_annular_kernel(grid), scales)
    sizes = _block_sizes(monkeypatch, 3, grid, scales)
    for space in five_spaces(grid).values():
        rep = change_of_angle_experiment(space, alphas, 10, grid, scales, seed=5)
        for i in range(10):
            F = build_field(trial_function(5, i, grid), plan)
            norms = [space_norm(tent_functional(F, a), space) for a in alphas]
            assert [rep.series[f"norm_alpha_{a:g}"][i] for a in alphas] == norms
            assert rep.series["slope"][i] == float(np.polyfit(np.log(alphas), np.log(norms), 1)[0])
    assert sizes == [3, 3, 3, 1] * 5


SLOPE_CASES = [(1, 64, 0), (1, 64, 3), (1, 64, 42), (1, 256, 42), (2, 64, 0), (2, 64, 42)]


@pytest.mark.parametrize("dim,n,seed", SLOPE_CASES, ids=[f"{d}d-{n}-seed{s}" for d, n, s in SLOPE_CASES])
def test_batched_change_of_angle_slopes_are_each_trials_own_fit_bitwise(dim, n, seed):
    # the block's one fit of every trial's norms, against np.polyfit of each
    # trial's norms alone, in 1-D and 2-D and in Lebesgue and Morrey spaces
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    alphas = (1.0, 2.0, 4.0, 8.0)
    for space in (Lebesgue(2.0), Morrey(2.0, 1.0)):
        rep = change_of_angle_experiment(space, alphas, 10 if dim == 1 else 3, grid, ScaleGrid(1 / 16, 0.25, 8),
                                         seed=seed)
        for i, slope in enumerate(rep.series["slope"]):
            norms = [rep.series[f"norm_alpha_{a:g}"][i] for a in alphas]
            assert slope == float(np.polyfit(np.log(alphas), np.log(norms), 1)[0])


# -- fixed inputs built once per process ----------------------------------------


def _five_space_reports(cold=False):
    """Criterion 5's equivalence reports (seed 5, 1-D N=64, 10 trials); with
    ``cold``, every space starts from empty fixed-input caches."""
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    reports = []
    for space in five_spaces(grid).values():
        if cold:
            clear_fixed_input_caches()
        reports.append(equivalence_experiment(space, "annular", 10, grid, ScaleGrid(1 / 16, 16.0, 8),
                                              seed=5).to_json())
    return reports


def test_a_cold_five_space_run_builds_each_fixed_input_once(monkeypatch):
    clear_fixed_input_caches()
    builds = count_fixed_input_builds(monkeypatch)
    _five_space_reports()
    # 50 trials, 5 kernels, 5 companions and 10 plans when each space built its own
    assert builds == {"trials": 10, "kernels": 1, "companions": 1, "plans": 2}


def test_shared_fixed_inputs_leave_the_five_space_reports_unchanged():
    each_cold = _five_space_reports(cold=True)
    clear_fixed_input_caches()
    assert _five_space_reports() == each_cold  # one cold run, its spaces sharing the inputs
    assert _five_space_reports() == each_cold  # and a warm one


def test_a_cached_trial_is_one_read_only_object():
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    harness.trial_function.cache_clear()
    f = trial_function(7, 2, grid)
    assert trial_function(7, 2, grid) is f
    assert harness.trial_function.cache_info().hits == 1
    with pytest.raises(ValueError):
        f.values[0] = 0.0
    # a trial that cannot be built leaves nothing in the cache
    with pytest.raises(ValueError):
        trial_function(7, 2, GridSpec(dim=1, half_width=2.0, points_per_axis=32))
    assert harness.trial_function.cache_info().currsize == 1


def test_the_embedding_weight_is_one_read_only_object_per_grid_and_epsilon(monkeypatch):
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    harness.embedding_weight.cache_clear()
    hl, calls = harness.hl_maximal, []
    monkeypatch.setattr(harness, "hl_maximal", lambda f: calls.append(1) or hl(f))
    weight = harness.embedding_weight(grid, 0.9)
    assert harness.embedding_weight(grid, 0.9) is weight
    with pytest.raises(ValueError):
        weight.array[0] = 1.0
    assert harness.embedding_weight(grid, 0.5) is not weight
    reports = [embedding_experiment(Lebesgue(2.0), 2.0, 4, grid, seed=3).to_json() for _ in range(2)]
    assert len(calls) == 2 and reports[0] == reports[1]
    harness.embedding_weight.cache_clear()
    assert embedding_experiment(Lebesgue(2.0), 2.0, 4, grid, seed=3).to_json() == reports[0]
    assert len(calls) == 3


def test_each_fixed_input_cache_holds_one_run_and_is_bounded():
    # a run takes up to the experiments' default trial count, one kernel, one
    # companion, three plans (phi, psi and change of angle's capped scales)
    # and one embedding weight
    trials = max(table["trials"].default for table in cli._TABLE["experiments"].values() if "trials" in table)
    assert trials == 20
    needs = {harness.trial_function: (trials, harness.TRIAL_CACHE_SIZE),
             kernels.build_kernel: (1, CACHE_SIZE),
             kernels.calderon_companion: (1, CACHE_SIZE),
             transforms.build_plan: (3, CACHE_SIZE),
             harness.embedding_weight: (1, CACHE_SIZE)}
    for cache, (need, size) in needs.items():
        assert cache.cache_info().maxsize == size >= need
