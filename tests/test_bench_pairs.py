"""``scripts/bench_pairs.py``'s summary of paired runs, on hand-made runs:
the wins, ties, the two rules, ``claim_met`` and ``within_bound``, the
ratio's bootstrap interval and the rules' readings of it, ``ci_claim`` and
``ci_within_bound``."""

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


# per-pair change/base factors: a median ratio of 1.13, within a bound of
# 0.2, from pairs that range from 0.9 to 1.4; and a steady 2-7 % slowdown
NOISY = [0.9, 1.3, 1.0, 1.35, 1.05, 0.95, 1.4, 1.0, 1.3, 1.1]
STEADY = [1.02, 1.07, 1.03, 1.06, 1.04, 1.05, 1.02, 1.06, 1.03, 1.05]


def _scaled(factors):
    return [v * f for v, f in zip(BASE, factors)]


def test_the_ratio_interval_is_a_fixed_seed_bootstrap_of_the_pairs(bench_pairs):
    # an exact scaling moves every resample's ratio alike
    assert bench_pairs.ratio_interval(BASE, BASE) == [1.0, 1.0]
    assert bench_pairs.ratio_interval(BASE, [1.5 * v for v in BASE]) == pytest.approx([1.5, 1.5])
    lo, hi = bench_pairs.ratio_interval(BASE, _scaled(NOISY))
    assert lo < 1.0 < 1.2 < hi
    assert bench_pairs.ratio_interval(BASE, _scaled(NOISY)) == [lo, hi]  # the seed is fixed
    assert 1.0 < bench_pairs.ratio_interval(BASE, _scaled(STEADY))[0]
    # a resample whose base median is 0 has no ratio
    assert bench_pairs.ratio_interval([0.0] * 9 + [1.0], BASE) is None


def test_ci_within_bound_holds_the_top_of_the_interval_to_the_bound(bench_pairs):
    noisy = _summary(bench_pairs, _scaled(NOISY))
    assert noisy["ratio_ci"] == bench_pairs.ratio_interval(BASE, _scaled(NOISY))
    # the medians keep the bound, the pairs cannot tell: unresolved
    assert noisy["within_bound"] is True and noisy["ci_within_bound"] is False
    assert _summary(bench_pairs, _scaled(STEADY))["ci_within_bound"] is True
    assert _summary(bench_pairs, [1.5 * v for v in BASE])["ci_within_bound"] is False
    assert _summary(bench_pairs, BASE, name="calibration_s")["ci_within_bound"] is None


def test_ci_claim_needs_the_top_of_the_interval_below_one(bench_pairs):
    # every pair won by 1 %: the medians differ by 0.1, inside the base IQR
    # of 1.0, so no claim is met, though every resample's ratio is 0.99.  A
    # resample takes the same pairs on both sides, and a side that wins
    # every pair has every order statistic, its median among them, below the
    # base's: an interval over pairs that all won never reaches 1
    by_one_percent = _summary(bench_pairs, [0.99 * v for v in BASE])
    assert by_one_percent["wins"] == 10 and not by_one_percent["claim_met"]
    assert by_one_percent["ratio_ci"] == pytest.approx([0.99, 0.99]) and by_one_percent["ci_claim"] is True
    noisy_wins = _summary(bench_pairs, _scaled([0.999, 0.9, 0.95, 0.999, 0.8, 0.99, 0.999, 0.7, 0.999, 0.9]))
    assert noisy_wins["wins"] == 10 and noisy_wins["ratio_ci"][1] < 1.0 and noisy_wins["ci_claim"] is True
    # 10 of 10 won past the IQR: both rules hold
    met = _summary(bench_pairs, [v - 1.6 for v in BASE])
    assert met["claim_met"] and met["ci_claim"] is True
    # seven pairs won by 1 %, three lost by as much: the interval covers 1
    mixed = _summary(bench_pairs, _scaled([0.99] * 7 + [1.01] * 3))
    assert mixed["wins"] == 7 and mixed["ratio_ci"][0] < 1.0 <= mixed["ratio_ci"][1]
    assert not mixed["claim_met"] and mixed["ci_claim"] is False
    # a slower change and unchanged runs claim nothing; no interval, no verdict
    assert _summary(bench_pairs, _scaled(STEADY))["ci_claim"] is False
    assert _summary(bench_pairs, BASE)["ci_claim"] is False
    zero_base = bench_pairs.summarize(_runs([0.0] * 9 + [1.0]), _runs(BASE), {"wall_s": 0.2})["wall_s"]
    assert zero_base["ratio_ci"] is None and zero_base["ci_claim"] is None
