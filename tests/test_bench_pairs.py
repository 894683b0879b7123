"""``scripts/bench_pairs.py``'s summary of paired runs, on hand-made runs:
the wins, ties and the two rules, ``claim_met`` and ``within_bound``."""

import json
from pathlib import Path

import pytest
from helpers import load_module

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    return load_module(BENCH_PAIRS)


def _runs(values, name="wall_s"):
    return [{"metrics": {name: {"value": v, "unit": "s"}}} for v in values]


# ten base runs with median 10.0 and quartiles 9.5 and 10.5: an IQR of 1.0
BASE = [9.0, 9.5, 9.5, 9.5, 10.0, 10.0, 10.5, 10.5, 10.5, 11.0]


def _summary(bench_pairs, change, base=BASE, name="wall_s", bounds=None):
    bounds = {"wall_s": 0.2} if bounds is None else bounds
    return bench_pairs.summarize(_runs(base, name), _runs(change, name), bounds)[name]


def test_the_base_spread_has_the_stated_median_and_quartiles(bench_pairs):
    assert bench_pairs.spread(BASE) == {"median": 10.0, "q1": 9.5, "q3": 10.5, "values": BASE}


def test_a_claim_needs_nine_wins_in_ten_and_a_median_gap_past_the_base_iqr(bench_pairs):
    # 10/10 wins, medians 10.0 -> 8.4: a gap of 1.6 > IQR 1.0
    change = [v - 1.6 for v in BASE]
    met = _summary(bench_pairs, change)
    assert (met["wins"], met["ties"], met["claim_met"]) == (10, 0, True)
    assert met["ratio"] == pytest.approx(0.84)
    # one pair lost: 9/10 still meets the claim
    summary = _summary(bench_pairs, change[:9] + [BASE[9] + 1.0])
    assert summary["wins"] == 9 and summary["claim_met"]
    # two pairs lost: 8/10 does not, though the median gap is the same
    two_lost = change[:8] + [BASE[8] + 1.0, BASE[9] + 1.0]
    summary = _summary(bench_pairs, two_lost)
    assert summary["wins"] == 8 and not summary["claim_met"]


def test_a_tie_counts_for_neither_side(bench_pairs):
    change = [v - 1.6 for v in BASE]
    one_tie = change[:9] + [BASE[9]]
    summary = _summary(bench_pairs, one_tie)
    assert (summary["wins"], summary["ties"], summary["claim_met"]) == (9, 1, True)
    two_ties = change[:8] + BASE[8:]
    summary = _summary(bench_pairs, two_ties)
    assert (summary["wins"], summary["ties"], summary["claim_met"]) == (8, 2, False)


def test_a_claim_needs_a_median_gap_larger_than_the_base_iqr(bench_pairs):
    # every pair won, but the medians differ by exactly the IQR, then by less
    for gap in (1.0, 0.5):
        summary = _summary(bench_pairs, [v - gap for v in BASE])
        assert summary["wins"] == 10 and not summary["claim_met"]
    # a slower change meets no claim
    assert not _summary(bench_pairs, [v + 2.0 for v in BASE])["claim_met"]


def test_within_bound_compares_the_medians_against_the_metric_bound(bench_pairs):
    assert _summary(bench_pairs, [v * 1.19 for v in BASE])["within_bound"] is True
    assert _summary(bench_pairs, [v * 1.21 for v in BASE])["within_bound"] is False
    assert _summary(bench_pairs, [v * 0.5 for v in BASE])["within_bound"] is True
    # a metric without a bound has no verdict
    assert _summary(bench_pairs, BASE, name="calibration_s")["within_bound"] is None


def test_a_workload_prefixed_name_takes_its_metric_bound(bench_pairs):
    name = "decompose-1d.wall_s"
    assert _summary(bench_pairs, [v * 1.19 for v in BASE], name=name)["within_bound"] is True
    assert _summary(bench_pairs, [v * 1.21 for v in BASE], name=name)["within_bound"] is False


def test_the_bounds_are_read_from_the_benchmark_declaration(bench_pairs):
    declared = json.loads((BENCH_PAIRS.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]
    bounds = bench_pairs.end_to_end_bounds()
    assert bounds == {metric["name"]: metric["bound"] for metric in declared}
    assert set(bounds) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
