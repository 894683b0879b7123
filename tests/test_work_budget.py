"""The one working-memory budget, ``grid.WORK_BYTES``: its two batch helpers,
every batcher's peak under ``tracemalloc`` at 1-D and at 2-D, and every
batcher's output, the same bytes at any budget."""

import pickle
import tracemalloc
import types

import numpy as np
import pytest

from lpx import atoms, grid as grid_mod, harness, maximal, spaces, squarefuncs
from lpx.grid import GridSpec, SampledFunction, ScaleGrid, batch_items, whole_batches
from lpx.harness import FIVE_SPACES, trial_function
from lpx.kernels import build_annular_kernel
from lpx.maximal import BallFamily, peetre_maximals
from lpx.spaces import Lebesgue, descriptor_from_json, space_norms
from lpx.squarefuncs import cone_spectra, gstar_spectra, scale_sums
from lpx.transforms import build_field, build_fields, build_plan

# a batcher's peak above its entry stays within this many budgets plus its
# largest single item, which a batch takes whole even past the budget; the
# budgets hold one batch and the call's output (at most 2.5 measured, the
# ball max at 2-D N=64 with its 1.25 MiB output)
PEAK_BUDGETS = 3


def test_batch_items_fit_the_budget_read_at_call_time(monkeypatch):
    assert grid_mod.WORK_BYTES == 1 << 20
    assert batch_items(1 << 10) == 1 << 10 and batch_items(3 << 18) == 1
    assert batch_items(1 << 30) == 1  # at least one item
    monkeypatch.setattr(grid_mod, "WORK_BYTES", 100)
    assert batch_items(7) == 14 and batch_items(101) == 1


def test_whole_batches_are_greedy_runs_of_whole_items(monkeypatch):
    monkeypatch.setattr(grid_mod, "WORK_BYTES", 10)
    costs = np.array([3, 3, 3, 3, 25, 1, 10, 0, 4])
    # each batch takes the items that end within the budget of its start; an
    # item past the budget is a batch alone
    assert list(whole_batches(costs)) == [(0, 3), (3, 4), (4, 5), (5, 6), (6, 8), (8, 9)]
    assert list(whole_batches(np.zeros(0))) == []
    monkeypatch.setattr(grid_mod, "WORK_BYTES", 1 << 62)
    assert list(whole_batches(costs)) == [(0, len(costs))]


def _noise(grid, count):
    return [SampledFunction(grid, np.random.default_rng(i).normal(size=grid.shape)) for i in range(count)]


def _pieces(grid, scales, seed):
    """``_piece_sizes`` on the pieces of trial 0's decomposition."""
    F = build_field(trial_function(seed, 0, grid), build_plan(build_annular_kernel(grid), scales))
    seen = []
    piece_sizes = atoms._piece_sizes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(atoms, "_piece_sizes", lambda F, cells, starts: seen.append((cells, starts)) or
                      piece_sizes(F, cells, starts))
        atoms.tent_decompose(F, Lebesgue(2.0), BallFamily.build(grid, 2))
    (cells, starts), = seen
    return lambda: piece_sizes(F, cells, starts)


def _ball_norms(grid, scales, seed):
    """``_ball_norms`` in ``Lebesgue(2)`` over the balls of trial 0's decomposition."""
    F = build_field(trial_function(seed, 0, grid), build_plan(build_annular_kernel(grid), scales))
    dec = atoms.tent_decompose(F, Lebesgue(2.0), BallFamily.build(grid, 2))
    return lambda: atoms._ball_norms(grid, dec.centers, dec.radii, Lebesgue(2.0))


def _coefficient_functional(grid, scales, seed):
    """``coefficient_functional`` of trial 0's decomposition in ``Lebesgue(2)``,
    the space it was sized in, so only the weights are added over the balls."""
    F = build_field(trial_function(seed, 0, grid), build_plan(build_annular_kernel(grid), scales))
    dec = atoms.tent_decompose(F, Lebesgue(2.0), BallFamily.build(grid, 2))
    return lambda: atoms.coefficient_functional(dec, dec.space)


def _peetre(dim, n, half_width, count):
    grid = GridSpec(dim=dim, half_width=half_width, points_per_axis=n)
    plan = build_plan(build_annular_kernel(grid), ScaleGrid(1 / 16, 4.0, 4))
    fs = [trial_function(5, i, grid) for i in range(count)] if n >= 64 else _noise(grid, count)
    F = build_fields(fs, plan)
    return lambda: peetre_maximals(F, 3.0)


def _ball_filters(dim, n, per_octave):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    family = BallFamily.build(grid, per_octave)
    stack = np.random.default_rng(0).normal(size=(len(family),) + grid.shape)
    return lambda: family.ball_filters(stack)


def _scale_sums(dim, n, half_width, count):
    grid = GridSpec(dim=dim, half_width=half_width, points_per_axis=n)
    scales = ScaleGrid(1 / 16, 16.0 if dim == 1 else 1.0, 8)
    fs = [trial_function(5, i, grid) for i in range(count)] if n >= 64 else _noise(grid, count)
    F = build_fields(fs, build_plan(build_annular_kernel(grid), scales))
    tables = [cone_spectra(grid, scales, 1.0), gstar_spectra(grid, scales, 1.5)]
    return lambda: scale_sums(F, tables)


def _norms(dim, n, name, count):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=n)
    if n >= 64:
        rows = np.stack([trial_function(5, i % 10, grid).values.real for i in range(count)])
    else:
        rows = np.stack([f.values for f in _noise(grid, count)]) ** 2
    space = descriptor_from_json(FIVE_SPACES[name], grid)
    return lambda: space_norms(grid, rows, space)


def _trial_blocks(dim, n, half_width, scales, monkeypatch):
    grid = GridSpec(dim=dim, half_width=half_width, points_per_axis=n)
    if dim == 2:
        # on 8 scales the smoothed maximal function takes the annular kernel
        # itself as its psi (its companion needs 48 scales at 2-D N=64)
        monkeypatch.setattr(harness, "calderon_companion", lambda kernel, _: types.SimpleNamespace(psi=kernel))
    return lambda: harness.equivalence_experiments([Lebesgue(2.0)], "annular", 10, grid, scales, 5)


# (batcher, dim): its module, whose batch helpers are spied on, and its call.
# The 2-D decomposition is the memory guard's field (2-D N=64, L=2, 16
# scales, trial 0 of seed 0), whose largest piece holds 264k (cell, ball row)
# runs, some eighteen budgets in one chunk of its own.  Its 1546 balls' norms
# peak at 2.2 MiB above entry in chunks (12.8 MiB unchunked), and the 287
# balls of the 1-D N=8192 case at 1.0 MiB (6.2 MiB unchunked)
BATCHERS = {
    "pieces-1d": (atoms, lambda mp: _pieces(GridSpec(1, 16.0, 2048), ScaleGrid(1 / 16, 4.0, 4), 5)),
    "pieces-2d": (atoms, lambda mp: _pieces(GridSpec(2, 2.0, 64), ScaleGrid(1 / 16, 1.0, 4), 0)),
    "ball-norms-1d": (atoms, lambda mp: _ball_norms(GridSpec(1, 16.0, 8192), ScaleGrid(1 / 16, 4.0, 4), 5)),
    "ball-norms-2d": (atoms, lambda mp: _ball_norms(GridSpec(2, 2.0, 64), ScaleGrid(1 / 16, 1.0, 4), 0)),
    "coefficient-functional-2d": (atoms, lambda mp: _coefficient_functional(GridSpec(2, 2.0, 64),
                                                                            ScaleGrid(1 / 16, 1.0, 4), 0)),
    "peetre-1d": (maximal, lambda mp: _peetre(1, 512, 8.0, 2)),
    "peetre-2d": (maximal, lambda mp: _peetre(2, 32, 1.0, 2)),
    "ball-filters-1d": (maximal, lambda mp: _ball_filters(1, 512, 32)),
    "ball-filters-2d": (maximal, lambda mp: _ball_filters(2, 64, 8)),
    "scale-sums-1d": (squarefuncs, lambda mp: _scale_sums(1, 512, 8.0, 8)),
    "scale-sums-2d": (squarefuncs, lambda mp: _scale_sums(2, 32, 1.0, 8)),
    "space-norms-1d": (spaces, lambda mp: _norms(1, 512, "variable", 512)),
    "space-norms-2d": (spaces, lambda mp: _norms(2, 64, "variable", 48)),
    "morrey-1d": (spaces, lambda mp: _norms(1, 512, "morrey", 40)),
    "morrey-2d": (spaces, lambda mp: _norms(2, 64, "morrey", 8)),
    "orlicz-slice-1d": (spaces, lambda mp: _norms(1, 512, "orlicz_slice", 128)),
    "orlicz-slice-2d": (spaces, lambda mp: _norms(2, 32, "orlicz_slice", 48)),
    "trial-blocks-1d": (harness, lambda mp: _trial_blocks(1, 512, 8.0, ScaleGrid(1 / 16, 16.0, 8), mp)),
    "trial-blocks-2d": (harness, lambda mp: _trial_blocks(2, 64, 2.0, ScaleGrid(1 / 4, 1.0, 4), mp)),
}
# the cases whose largest item is past the budget: the largest piece of the
# 2-D decomposition and a 2-D N=64 Morrey row's ball sums over 22 radii
PAST_THE_BUDGET = {"pieces-2d", "morrey-2d"}


def _peak(call) -> int:
    """Bytes ``call`` holds at its peak above its entry, after one call that
    builds the cached tables."""
    call()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", list(BATCHERS))
def test_batcher_peak_stays_within_the_work_budget(monkeypatch, case):
    module, make = BATCHERS[case]
    call = make(monkeypatch)
    costs = []  # the cost of every item that a batch helper of the module was asked to fit

    def items(cost):
        costs.append(int(cost))
        return batch_items(cost)

    def batches(item_costs):
        costs.extend(np.asarray(item_costs, dtype=np.int64).tolist())
        return whole_batches(item_costs)

    with monkeypatch.context() as patch:
        for name, spy in (("batch_items", items), ("whole_batches", batches)):
            if hasattr(module, name):
                patch.setattr(module, name, spy)
        peak = _peak(call)
    assert costs, "the module's batch helpers were not called"
    assert (max(costs) > grid_mod.WORK_BYTES) == (case in PAST_THE_BUDGET)
    bound = PEAK_BUDGETS * grid_mod.WORK_BYTES + max(costs)
    assert peak <= bound, (peak, bound)
    # with the module's own batches unbounded, one batch of everything, the
    # same call peaks past the bound
    with monkeypatch.context() as patch:
        patch.setattr(module, "batch_items", lambda cost: 1 << 62, raising=False)
        patch.setattr(module, "whole_batches", lambda item_costs: iter([(0, len(item_costs))]), raising=False)
        assert _peak(call) > bound


@pytest.mark.parametrize("case", list(BATCHERS))
def test_batcher_output_is_the_same_bytes_at_any_work_budget(monkeypatch, case):
    # the budget sets the batches alone: the call's output, pickled, is the
    # same bytes at 4 KiB and at 64 MiB as at the default 1 MiB
    call = BATCHERS[case][1](monkeypatch)
    outputs = []
    for budget in (1 << 20, 4 << 10, 64 << 20):
        monkeypatch.setattr(grid_mod, "WORK_BYTES", budget)
        outputs.append(pickle.dumps(call()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
