"""Per-layer tracing of lpx, done entirely from outside the library.

``Tracer`` replaces the public functions of each ``lpx`` module with wrappers
that record spans (name, start, end, parent span) in memory, and wraps the
``numpy.fft`` entry points with plain counters.  Every module-level name that
refers to a wrapped function is patched, so calls through the names that
``lpx.harness``, ``lpx.cli`` and the other modules import are seen as well as
calls on the defining module.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

LAYERS = ("grid", "kernels", "transforms", "squarefuncs", "maximal", "spaces", "atoms",
          "harness", "cli", "fft")

# (module, attribute path, quantities reported); "calls" and "self_s" come
# from spans, extra quantities are filled in by the hooks below
TRACED = [
    ("grid", "concentration_defect", ("calls", "self_s")),
    ("kernels", "build_annular_kernel", ("self_s",)),
    ("kernels", "calderon_companion", ("calls", "self_s")),
    ("transforms", "build_plan", ("calls", "self_s")),
    ("transforms", "build_field", ("calls", "self_s")),
    ("transforms", "convolve_at_scale", ("calls", "self_s")),
    ("squarefuncs", "tent_functional", ("calls", "self_s")),
    ("squarefuncs", "lusin_area", ("calls", "self_s")),
    ("squarefuncs", "g_function", ("calls", "self_s")),
    ("squarefuncs", "g_lambda_star", ("calls", "self_s")),
    ("maximal", "peetre_maximal", ("calls", "self_s", "triples")),
    ("maximal", "hardy_norm", ("calls", "self_s")),
    ("maximal", "hl_maximal", ("calls", "self_s")),
    ("maximal", "BallFamily.ball_filter", ("calls", "self_s")),
    ("maximal", "BallFamily.ball_sums", ("calls", "self_s")),
    ("spaces", "space_norm", ("calls", "self_s")),
    ("spaces", "ExponentFunction.build", ("self_s",)),
    ("atoms", "tent_decompose", ("calls", "self_s", "atoms")),
    ("atoms", "TentDecomposition.reconstruct", ("calls", "self_s")),
    ("atoms", "coefficient_functional", ("calls", "self_s")),
    ("harness", "trial_function", ("calls", "self_s")),
    ("harness", "equivalence_experiment", ("self_s",)),
    ("harness", "change_of_angle_experiment", ("self_s",)),
    ("harness", "embedding_experiment", ("self_s",)),
    ("harness", "vanish_at_infinity_check", ("self_s",)),
    ("cli", "main", ("self_s",)),
]

SPACE_TAGS = {
    "Lebesgue": "lebesgue",
    "WeightedLebesgue": "weighted",
    "Morrey": "morrey",
    "MixedNorm": "mixed",
    "VariableLebesgue": "variable",
    "OrliczSlice": "orlicz_slice",
}

FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2")
# the transform length is the input for forward real transforms, the output otherwise
FFT_POINTS_FROM_INPUT = {"rfft", "rfft2"}

TRACE_METRICS = {"trace.overhead_s": "s", "trace.uncovered_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, path, quantities in TRACED:
        for q in quantities:
            units[f"{layer}.{path}.{q}"] = "s" if q == "self_s" else "count"
        if path == "space_norm":
            for tag in SPACE_TAGS.values():
                units[f"spaces.space_norm.{tag}.self_s"] = "s"
    units.update({"fft.calls": "count", "fft.points": "count", "fft.bytes_computed": "bytes"})
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update(TRACE_METRICS)
    units["error_rate"] = "ratio"
    return units


@functools.lru_cache(maxsize=8)
def _offset_count(grid) -> int:
    """Offsets the brute-force smoothed maximal sup visits: |y| <= L."""
    return int(np.count_nonzero(grid.offset_distances() <= grid.half_width))


def _peetre_triples(args, kwargs, _result) -> dict:
    grid = args[0].grid
    plan = args[3] if len(args) > 3 else kwargs["plan"]
    return {"triples": grid.size * _offset_count(grid) * len(plan.scales.scales)}


def _atom_count(_args, _kwargs, result) -> dict:
    return {"atoms": len(result.atoms)}


def _space_tag(args, kwargs, _result) -> dict:
    space = args[1] if len(args) > 1 else kwargs["space"]
    return {"tag": SPACE_TAGS.get(type(space).__name__, "other")}


HOOKS = {
    "maximal.peetre_maximal": _peetre_triples,
    "atoms.tent_decompose": _atom_count,
    "spaces.space_norm": _space_tag,
}


class Tracer:
    """Span recorder plus numpy.fft counters; install around traced passes only."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, extra]
        self.errors: dict[str, int] = defaultdict(int)
        self.fft = {"calls": 0, "points": 0, "bytes_computed": 0}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, clock(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return traced

    def _wrap_fft(self, name: str, fn):
        counts, errors = self.fft, self.errors
        from_input = name in FFT_POINTS_FROM_INPUT

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            try:
                out = fn(a, *args, **kwargs)
            except BaseException:
                errors["fft"] += 1
                raise
            arr = np.asarray(a)
            counts["calls"] += 1
            counts["points"] += arr.size if from_input else out.size
            counts["bytes_computed"] += arr.nbytes + out.nbytes
            return out

        return counted

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"lpx.{m}") for m in LAYERS if m != "fft"]
        modules.append(importlib.import_module("lpx"))
        for layer, path, _ in TRACED:
            name = f"{layer}.{path}"
            module = importlib.import_module(f"lpx.{layer}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, meth, self._wrap(name, raw))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        for fname in FFT_FUNCS:
            self._set(np.fft, fname, self._wrap_fft(fname, getattr(np.fft, fname)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def mark(self) -> tuple[int, dict, dict]:
        """Snapshot to pass to ``summarize`` for the work done after it."""
        return len(self.spans), dict(self.errors), dict(self.fft)

    def summarize(self, since: tuple[int, dict, dict]) -> tuple[dict, float]:
        """Per-layer metrics of the spans recorded since ``since``, and the
        total duration of the root spans among them (the covered wall time)."""
        start, errors0, fft0 = since
        spans = self.spans[start:]
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, t0, t1, _ in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        covered = 0.0
        for sid, parent, name, t0, t1, extra in spans:
            dur = t1 - t0
            own = dur - child_time.get(sid, 0.0)
            if parent is None:
                covered += dur
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            if extra:
                for key, value in extra.items():
                    if key == "tag":
                        out[f"{name}.{value}.self_s"] += own
                    else:
                        out[f"{name}.{key}"] += value
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors.get(layer, 0) - errors0.get(layer, 0)
        for key, value in self.fft.items():
            out[f"fft.{key}"] = value - fft0[key]
        return dict(out), covered
