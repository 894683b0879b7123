"""Smoke test of ``scripts/layer_bench.py``, the in-process timer: one repeat
of a case of each kind, with its keys and counts; and the norm cases' rows,
from one pass over the five spaces, against the rows of one equivalence run
per space."""

import json
from pathlib import Path

import numpy as np

from helpers import load_module
from lpx import harness, spaces

LAYER_BENCH = Path(__file__).resolve().parents[1] / "scripts" / "layer_bench.py"
KEYS = {"case", "call", "rows", "repeats", "median_s", "q1_s", "q3_s", "min_s", "max_s", "faults_per_call"}


def test_layer_bench_prints_one_json_line_per_case(capsys):
    bench = load_module(LAYER_BENCH)
    cases = ["1d-64", "orlicz_slice", "decompose", "decompose-2d", "scale-sums-1d-64", "scale-sums-1d-512",
             "scale-sums-2d-64", "hl-maximal-1d-512", "orlicz-slice-2d-64", "five-space-pass"]
    assert bench.main([arg for case in cases for arg in ("--case", case)] + ["--repeats", "1"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    peetre, norms, decompose, decompose_2d, *plain = lines
    assert set(peetre) == KEYS | {"b", "candidates_mean", "candidates_max", "steps"}
    assert (peetre["case"], peetre["call"], peetre["rows"]) == ("1d-64", "peetre_maximals", 10)
    # the 10 inputs' 640 cells keep a few of their 64 scales, and the 33
    # distances fit one step
    assert 1 <= peetre["candidates_mean"] <= peetre["candidates_max"] <= 64
    assert peetre["steps"] == 1
    assert set(norms) == KEYS
    assert (norms["case"], norms["call"], norms["rows"]) == ("orlicz_slice", "space_norms", 40)
    assert set(decompose) == KEYS | {"atoms"}
    assert (decompose["case"], decompose["call"], decompose["rows"]) == ("decompose", "tent_decompose", 4)
    assert decompose["atoms"] > 0
    assert set(decompose_2d) == KEYS | {"atoms"}
    assert (decompose_2d["case"], decompose_2d["call"], decompose_2d["rows"]) == ("decompose-2d", "tent_decompose", 1)
    assert decompose_2d["atoms"] > 0
    assert all(set(line) == KEYS for line in plain)
    assert [(line["case"], line["call"], line["rows"]) for line in plain] == [
        ("scale-sums-1d-64", "scale_sums", 10), ("scale-sums-1d-512", "scale_sums", 2),
        ("scale-sums-2d-64", "scale_sums", 1),
        ("hl-maximal-1d-512", "hl_maximal", 1), ("orlicz-slice-2d-64", "space_norms", 4),
        ("five-space-pass", "equivalence_experiments", 10)]
    for line in lines:
        assert line["repeats"] == 1
        assert 0 < line["min_s"] == line["q1_s"] == line["median_s"] == line["q3_s"] == line["max_s"]
        assert line["faults_per_call"] >= 0


def test_norm_case_rows_are_the_one_space_runs_rows_bitwise(monkeypatch):
    # one pass over the five spaces hands space_norms, per space, the rows
    # that an equivalence run in that space alone hands it
    bench = load_module(LAYER_BENCH)
    rows = bench.harness_rows(5)
    assert list(rows) == list(harness.FIVE_SPACES)
    for name, (space, pass_rows) in rows.items():
        calls = []

        def record(grid, stack, norm_space):
            calls.append(stack)
            return spaces.space_norms(grid, stack, norm_space)

        monkeypatch.setattr(harness, "space_norms", record)
        harness.equivalence_experiment(space, "annular", bench.NORM_TRIALS, bench.NORM_GRID, bench.SCALES, 5)
        (one,) = calls
        assert pass_rows.shape == one.shape == (40, 64) and np.array_equal(pass_rows, one), name
