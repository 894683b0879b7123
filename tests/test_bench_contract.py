"""Contracts between lpx and the benchmark in ``perfbench/``.

``perfbench/layers.py`` wraps lpx functions by name and reads their arguments:
a traced equivalence experiment must raise in no layer, find the smoothed
maximal function's plan, and build one phi-field and one psi-field per trial;
a traced tent decomposition evaluates the cone functional once for the field
and once, batched, for all of its pieces.
``perfbench/workloads.py`` keeps its own copy of the five test spaces."""

import importlib.util
from pathlib import Path

from lpx import atoms, harness, kernels, maximal, squarefuncs, transforms
from lpx.grid import GridSpec, ScaleGrid
from lpx.spaces import Lebesgue, space_norm

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_equivalence_experiment_builds_two_fields_per_trial():
    layers = _load_layers()
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(1 / 16, 16.0, 8)
    trials = 10
    tracer = layers.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        harness.equivalence_experiment(Lebesgue(2.0), "annular", trials, grid, scales, seed=0)
        metrics, _ = tracer.summarize(since)
    finally:
        tracer.uninstall()
    assert {k: v for k, v in metrics.items() if k.endswith(".errors") and v} == {}
    assert metrics["maximal.peetre_maximal.triples"] > 0
    assert metrics["transforms.build_field.calls"] == 2 * trials


def test_traced_decomposition_evaluates_each_piece_once(monkeypatch):
    layers = _load_layers()
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    plan = transforms.build_plan(kernels.build_annular_kernel(grid), ScaleGrid(1 / 16, 2.0, 4))
    F = transforms.build_field(harness.trial_function(0, 3, grid), plan)
    batched = []

    def counted(F, alpha, masks=None):
        batched.append(len(masks))
        return squarefuncs.tent_functionals(F, alpha, masks)

    monkeypatch.setattr(atoms, "tent_functionals", counted)
    tracer = layers.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        atoms.tent_decompose(F, Lebesgue(2.0), maximal.BallFamily.build(grid, 4))
        metrics, _ = tracer.summarize(since)
    finally:
        tracer.uninstall()
    assert metrics["atoms.tent_decompose.atoms"] > 0
    # the field's cone functional once, then every piece's in one batched call
    assert metrics["squarefuncs.tent_functional.calls"] == 1
    assert len(batched) == 1 and batched[0] >= metrics["atoms.tent_decompose.atoms"]


def test_five_spaces_match_the_benchmark_copy(tmp_path):
    """perfbench builds criterion 5's spaces by hand; they must stay the
    library's ``FIVE_SPACES`` recipes, bit for bit."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", LAYERS_PY.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bench = workloads.Equivalence5Space1D()
    state = bench.setup(0, tmp_path)
    grid = state["grid"]
    ours = harness.five_spaces(grid)
    assert list(ours) == list(state["spaces"])
    for name, space in ours.items():
        theirs = state["spaces"][name]
        assert space.to_json() == theirs.to_json(), name
        for i in range(4):
            f = harness.trial_function(0, i, grid)
            assert space_norm(f, space) == space_norm(f, theirs), (name, i)
