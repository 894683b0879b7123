import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import lpx
from helpers import halfspace_integrate, indicator_box, one_field
from lpx import harness
from lpx.grid import (
    CACHE_SIZE,
    FieldStack,
    GridSpec,
    SampledFunction,
    ScaleGrid,
    checked_samples,
    concentration_defect,
    gaussian_bump,
    pure_frequency,
    read_function_binary,
    read_function_csv,
    stable_order,
    write_function_binary,
    write_function_csv,
)


def test_gridspec_basic():
    g = GridSpec(dim=1, half_width=1.0, points_per_axis=8)
    assert g.cell_volume == pytest.approx((2.0 / 8) ** 1)
    assert g.axis_coordinates()[0] == pytest.approx(-1.0 + 0.5 * 0.25)
    # cell centers never hit the origin
    assert np.all(np.abs(g.axis_coordinates()) > 0)


def test_gridspec_holds_its_half_width_as_a_float():
    # an int and a float half width give equal grids, hence one cache entry,
    # so the grid of a cached object must not depend on which came first
    g = GridSpec(dim=1, half_width=2, points_per_axis=64)
    assert g == GridSpec(dim=1, half_width=2.0, points_per_axis=64)
    assert type(g.half_width) is float and repr(g) == "GridSpec(dim=1, half_width=2.0, points_per_axis=64)"


def test_gridspec_rejects_bad_sizes():
    with pytest.raises(ValueError):
        GridSpec(dim=1, half_width=1.0, points_per_axis=12)
    with pytest.raises(ValueError):
        GridSpec(dim=1, half_width=1.0, points_per_axis=4)
    with pytest.raises(ValueError):
        GridSpec(dim=3, half_width=1.0, points_per_axis=8)


def test_cell_volume_2d_exact():
    g = GridSpec(dim=2, half_width=3.0, points_per_axis=16)
    assert g.cell_volume == (2 * 3.0 / 16) ** 2


def test_scalegrid_weights_sum_to_log_ratio():
    sg = ScaleGrid(t_min=0.25, t_max=4.0, steps_per_octave=5)
    total = len(sg) * sg.log_weight
    assert total == pytest.approx(np.log(sg.t_max / sg.t_min), rel=1.0 / len(sg))
    assert np.all(np.diff(sg.scales) > 0)
    assert sg.scales[0] > sg.t_min and sg.scales[-1] < sg.t_max


def test_scalegrid_nodes_are_computed_once_and_read_only():
    sg = ScaleGrid(t_min=0.1, t_max=10.0, steps_per_octave=8)
    ts = sg.scales
    assert sg.scales is ts and len(sg) == len(ts) == round(8 * math.log2(100.0))
    assert np.array_equal(ts, 0.1 * 2.0 ** ((np.arange(len(ts)) + 0.5) / 8))
    assert not ts.flags.writeable
    with pytest.raises(ValueError):
        ts[0] = 1.0
    # the cached nodes take no part in equality or hashing
    fresh = ScaleGrid(t_min=0.1, t_max=10.0, steps_per_octave=8)
    assert fresh == sg and hash(fresh) == hash(sg)


def test_scalegrid_rejects_narrow_range():
    with pytest.raises(ValueError):
        ScaleGrid(t_min=1.0, t_max=2.0, steps_per_octave=4)
    with pytest.raises(ValueError):
        ScaleGrid(t_min=1.0, t_max=8.0, steps_per_octave=2)


def test_checked_samples_convert_then_check_the_shape_then_finiteness():
    # complex samples without an imaginary part come back float64, read-only
    out = checked_samples(np.array([1.0, 2.0]) + 0j, (2,), "two")
    assert out.dtype == np.float64 and not out.flags.writeable
    assert checked_samples([1j, 0.0], (2,), "two").dtype == np.complex128
    # the shape is checked before the entries: a wrong shape with a NaN
    # names the shape, and the message names the expected shape
    with pytest.raises(ValueError, match=r"values shape \(3,\) != two"):
        checked_samples([1.0, np.nan, 2.0], (2,), "two")
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="values must be finite"):
            checked_samples([1.0, bad], (2,), "two")


def test_sampled_function_rejects_nan():
    g = GridSpec(dim=1, half_width=1.0, points_per_axis=8)
    vals = np.ones(8, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        SampledFunction(g, vals)


def _constant_field(grid, scales, value=1.0):
    K = len(scales)
    return one_field(grid, scales, np.full(grid.shape + (K,), value, dtype=complex))


def test_field_and_stack_shapes_are_checked():
    g = GridSpec(dim=1, half_width=1.0, points_per_axis=16)
    sg = ScaleGrid(t_min=0.5, t_max=8.0, steps_per_octave=4)
    one = np.ones(g.shape + (len(sg),))
    with pytest.raises(ValueError, match=r"\(fields,\)"):
        FieldStack(g, sg, one)
    with pytest.raises(ValueError, match="finite"):
        FieldStack(g, sg, np.stack([one, np.inf * one]))
    stack = FieldStack(g, sg, np.stack([one, 2 * one]))
    assert stack.values.shape == (2,) + one.shape and not stack.values.flags.writeable
    assert _constant_field(g, sg).values.shape == (1,) + one.shape


def test_halfspace_integrate_constant_full_mask():
    g = GridSpec(dim=1, half_width=1.0, points_per_axis=16)
    sg = ScaleGrid(t_min=0.5, t_max=8.0, steps_per_octave=4)
    F = _constant_field(g, sg)
    expected = sum((2 * g.half_width) * sg.log_weight / t for t in sg.scales)
    assert halfspace_integrate(F) == pytest.approx(expected, rel=1e-12)


def test_halfspace_integrate_zero():
    g = GridSpec(dim=1, half_width=1.0, points_per_axis=16)
    sg = ScaleGrid(t_min=0.5, t_max=8.0, steps_per_octave=4)
    assert halfspace_integrate(_constant_field(g, sg, 0.0)) == 0.0


def test_halfspace_integrate_mask_monotone():
    g = GridSpec(dim=1, half_width=4.0, points_per_axis=64)
    sg = ScaleGrid(t_min=0.5, t_max=8.0, steps_per_octave=4)
    rng = np.random.default_rng(7)
    F = one_field(g, sg, rng.normal(size=(64, len(sg))))

    def small(mesh, t):
        return np.abs(mesh[0]) < 1.0

    def big(mesh, t):
        return np.abs(mesh[0]) < 3.0

    assert halfspace_integrate(F, small) <= halfspace_integrate(F, big) + 1e-15


def test_halfspace_cone_integral_matches_refined_riemann():
    # indicator of {|y| < 1} x {1 <= t < 2}, cone |y| < t at x = 0, in 1-D:
    # the oracle refines the quadrature 4x in both directions
    def build(n, j):
        g = GridSpec(dim=1, half_width=4.0, points_per_axis=n)
        sg = ScaleGrid(t_min=0.25, t_max=4.0, steps_per_octave=j)
        y = g.axis_coordinates()
        vals = np.zeros((n, len(sg)))
        for k, t in enumerate(sg.scales):
            if 1.0 <= t < 2.0:
                vals[:, k] = (np.abs(y) < 1.0).astype(float)
        F = one_field(g, sg, vals)

        def cone(mesh, t):
            return np.abs(mesh[0]) < t

        return halfspace_integrate(F, cone)

    coarse = build(256, 8)
    fine = build(1024, 32)
    exact = fine
    assert coarse == pytest.approx(exact, rel=0.02)


@pytest.mark.parametrize("top", [0, 1, 7, (1 << 16) - 1, 1 << 16, (1 << 32) - 1, 1 << 32, (1 << 47) + 3])
def test_stable_order_is_the_stable_argsort_of_non_negative_keys(top):
    # keys of one, two and three 16-bit digits, with ties: the radix passes
    # give numpy's stable order, ties in input order
    rng = np.random.default_rng(top % 1000)
    for size in (0, 1, 2, 100, 5000):
        few = rng.integers(0, min(top, 5) + 1, size)  # many ties
        spread = rng.integers(0, top + 1, size)
        for keys in (few, spread, spread // 3 * 3, np.full(size, top)):
            order = stable_order(keys)
            assert order.dtype == np.intp and np.array_equal(order, np.argsort(keys, kind="stable"))
    # a tie on the low digit only, decided by the high digits
    keys = np.array([3 << 32, 3, (1 << 16) + 3, 3 << 16, 3], dtype=np.int64)
    assert stable_order(keys).tolist() == [1, 4, 2, 3, 0]
    with pytest.raises(ValueError, match="non-negative"):
        stable_order(np.array([2, -1, 0]))


def test_concentration_defect():
    g = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    assert concentration_defect(gaussian_bump(g, [0.0], 0.5)) < 1e-6
    wide = gaussian_bump(g, [0.0], 4.0)
    assert concentration_defect(wide) > 1e-3


def test_pure_frequency_is_periodic_character():
    g = GridSpec(dim=1, half_width=2.0, points_per_axis=32)
    f = pure_frequency(g, [3])
    assert np.allclose(np.abs(f.values), 1.0)
    spectrum = np.fft.fft(f.values)
    hot = np.argmax(np.abs(spectrum))
    assert hot == 3


def test_csv_roundtrip(tmp_path):
    g = GridSpec(dim=1, half_width=2.0, points_per_axis=16)
    rng = np.random.default_rng(3)
    f = SampledFunction(g, rng.normal(size=16) + 1j * rng.normal(size=16))
    p = tmp_path / "f.csv"
    write_function_csv(f, p)
    back = read_function_csv(p)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_binary_roundtrip_bit_identical(tmp_path):
    g = GridSpec(dim=2, half_width=1.0, points_per_axis=8)
    rng = np.random.default_rng(4)
    f = SampledFunction(g, rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    p = tmp_path / "f.bin"
    write_function_binary(f, p)
    back, meta = read_function_binary(p)
    assert np.array_equal(back.values, f.values)
    assert meta["N"] == 8


def test_indicator_box_mass():
    g = GridSpec(dim=1, half_width=8.0, points_per_axis=1024)
    f = indicator_box(g, [0.0], [1.0])
    assert np.sum(f.values) * g.cell_volume == pytest.approx(1.0, abs=2 * g.cell_volume)


@pytest.mark.parametrize("dim", [1, 2])
def test_offset_distances_is_one_read_only_table_per_grid(dim):
    grid = GridSpec(dim=dim, half_width=2.0, points_per_axis=16)
    table = grid.offset_distances()
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1.0
    # an equal grid shares the table
    assert GridSpec(dim=dim, half_width=2.0, points_per_axis=16).offset_distances() is table
    j = np.arange(16)
    d = grid.spacing * np.minimum(j, 16 - j)
    expected = d if dim == 1 else np.sqrt(d[:, None] ** 2 + d[None, :] ** 2)
    assert np.array_equal(table, expected)
    # the ball masks handed out are fresh, writable arrays
    mask = grid.ball_mask(3 * grid.spacing)
    assert mask.flags.writeable and not np.shares_memory(mask, table)


def _lru_caches():
    """Every ``functools.lru_cache`` of the package by qualified name: module
    functions, and the methods and class methods of its classes."""
    found = {}
    for info in pkgutil.iter_modules(lpx.__path__):
        module = importlib.import_module(f"lpx.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                member = getattr(member, "__func__", member)  # a classmethod's function
                if hasattr(member, "cache_info"):
                    found[f"{info.name}.{name}" + (f".{attr}" if attr else "")] = member
    return found


def test_every_cache_uses_the_one_size():
    caches = _lru_caches()
    assert set(caches) == {
        "grid.GridSpec.ball_row_widths", "grid._offset_distances",
        "kernels.build_kernel", "kernels.calderon_companion", "transforms.build_plan",
        "squarefuncs.ball_spectra", "squarefuncs.cone_spectra", "squarefuncs.gstar_spectra",
        "maximal.BallFamily.build", "maximal._ball_runs", "maximal._peetre_tables",
        "spaces._slice_denominator",
        "harness.trial_function", "harness.embedding_weight", "cli._parser",
    }
    # the trials' and the parser's sizes are their callers': a default
    # experiment's 20 trials, and one parser per process
    sizes = {"harness.trial_function": harness.TRIAL_CACHE_SIZE, "cli._parser": 1}
    for name, cache in caches.items():
        assert cache.cache_info().maxsize == sizes.get(name, CACHE_SIZE), name
    assert CACHE_SIZE == 8


def test_the_readme_lists_exactly_the_caches():
    # the README's "Fixed inputs" paragraph names each cache in a list item
    # of its own, by its qualified name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"^- \*\*Fixed inputs\.\*\*.*?(?=^- \*\*|^#)", readme, re.S | re.M).group()
    assert sorted(re.findall(r"^ +- `([\w.]+)`:", section, re.M)) == sorted(_lru_caches())
