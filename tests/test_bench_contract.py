"""Contracts between lpx and the benchmark in ``perfbench/``.

``perfbench/layers.py`` wraps lpx functions by name and reads their arguments:
a traced ``peetre_maximal`` call must hand its hook the plan, and a traced
equivalence experiment must raise in no layer and build each trial's
phi-field and psi-field exactly once (in trial blocks, through
``build_fields``);
a traced tent decomposition evaluates the cone functional once for the field
and once, in one chunked pass, for each of its pieces.
``perfbench/workloads.py`` keeps its own copy of the five test spaces."""

from pathlib import Path

from helpers import load_module
from lpx import atoms, harness, kernels, maximal, transforms
from lpx.grid import GridSpec, ScaleGrid
from lpx.spaces import Lebesgue, space_norm

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_traced_equivalence_experiment_builds_two_fields_per_trial(monkeypatch):
    layers = load_module(LAYERS_PY)
    grid = GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    scales = ScaleGrid(1 / 16, 16.0, 8)
    trials = 10
    built = {}  # plan id -> the inputs of its field builds, in call order

    def counted(fs, plan):
        built.setdefault(id(plan), []).extend(fs)
        return transforms.build_fields(fs, plan)

    tracer = layers.Tracer()
    tracer.install()
    try:
        # a direct call keeps the smoothed maximal function's trace hook covered
        since = tracer.mark()
        psi_plan = transforms.build_plan(kernels.build_annular_kernel(grid), scales)
        maximal.peetre_maximal(harness.trial_function(0, 0, grid), 3.0, plan=psi_plan)
        direct, _ = tracer.summarize(since)
        # the experiment builds its fields in trial blocks, through build_fields only
        monkeypatch.setattr(harness, "build_fields", counted)
        since = tracer.mark()
        harness.equivalence_experiment(Lebesgue(2.0), "annular", trials, grid, scales, seed=0)
        metrics, _ = tracer.summarize(since)
    finally:
        tracer.uninstall()
    assert {k: v for k, v in metrics.items() if k.endswith(".errors") and v} == {}
    assert metrics.get("transforms.build_field.calls", 0) == 0
    assert direct["maximal.peetre_maximal.triples"] > 0
    # one phi-field and one psi-field per trial: each plan saw every trial exactly once, in order
    assert len(built) == 2
    for inputs in built.values():
        assert [f.values.tobytes() for f in inputs] == \
            [harness.trial_function(0, i, grid).values.tobytes() for i in range(trials)]


def test_traced_decomposition_evaluates_each_piece_once(monkeypatch):
    layers = load_module(LAYERS_PY)
    grid = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    plan = transforms.build_plan(kernels.build_annular_kernel(grid), ScaleGrid(1 / 16, 2.0, 4))
    F = transforms.build_field(harness.trial_function(0, 3, grid), plan)
    batched = []  # per call of the pieces' cone functionals, its pieces and the rows it gave

    def counted(F, cells, starts):
        rows = 0
        for chunk, exps in piece_functionals(F, cells, starts):
            rows += len(chunk)
            yield chunk, exps
        batched.append((len(starts), rows))

    piece_functionals = atoms._piece_functionals
    monkeypatch.setattr(atoms, "_piece_functionals", counted)
    tracer = layers.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        atoms.tent_decompose(F, Lebesgue(2.0), maximal.BallFamily.build(grid, 4))
        metrics, _ = tracer.summarize(since)
    finally:
        tracer.uninstall()
    assert metrics["atoms.tent_decompose.atoms"] > 0
    # the field's cone functional once, then every piece's in one chunked
    # pass, one row per piece
    assert metrics["squarefuncs.tent_functional.calls"] == 1
    assert len(batched) == 1 and batched[0][0] == batched[0][1] >= metrics["atoms.tent_decompose.atoms"]


def test_five_spaces_match_the_benchmark_copy(tmp_path):
    """perfbench builds criterion 5's spaces by hand; they must stay the
    library's ``FIVE_SPACES`` recipes, bit for bit."""
    workloads = load_module(LAYERS_PY.with_name("workloads.py"))
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
