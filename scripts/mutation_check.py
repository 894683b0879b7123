#!/usr/bin/env python3
"""Mutation check of the batch boundaries and kernels: each mutant must fail its tests.

``MUTANTS`` is a fixed table.  A mutant names a source file, one exact
snippet of it, the snippet's replacement and the test node ids that must
fail on it.  The script copies the working tree's tracked and untracked, not
ignored, files into a temporary directory (``bench_pairs.copy_work``).  Per
mutant it replaces the snippet in that copy, runs only the mutant's tests
there (``pytest -x``) within ``TIMEOUT_S`` seconds, and restores the file.

It prints one JSON line per mutant: ``mutant``, ``file``, ``status`` and
``seconds``.  The status is ``killed`` (a test failed), ``survived`` (every
test passed), ``timeout`` or ``no-match`` (the snippet does not occur exactly
once in the file).  Only ``killed`` passes, so a refactor that rewrites a
snippet must update the table.  Exits 1 unless every mutant is killed.  The
copy is removed at the end, also when a run fails.

Usage (from the repository root):

    python scripts/mutation_check.py
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import copy_work

TIMEOUT_S = 120  # seconds for one mutant's test run

class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("peetre-step-end", "src/lpx/maximal.py",
           "hi = min(lo + step, n_dist)", "hi = min(lo + step, n_dist - 1)",
           ("tests/test_maximal.py::test_peetre_maximals_rows_match_one_input_calls_bitwise",)),
    Mutant("peetre-far-margin", "src/lpx/maximal.py",
           "block *= 1 + PEETRE_MARGIN", "pass",
           ("tests/test_maximal.py::test_the_far_test_margin_covers_an_ordered_tables_rounding",)),
    Mutant("peetre-far-witness-larger", "src/lpx/maximal.py",
           "np.maximum(run[k - 1], run[k], out=run[k])",
           "np.maximum(run[k - 1], run[min(k + 1, len(run) - 1)], out=run[k])",
           ("tests/test_maximal.py::test_candidate_scales_are_the_scales_that_no_single_scale_dominates",)),
    Mutant("peetre-far-subnormal", "src/lpx/maximal.py",
           "np.maximum(run[lo:hi], np.finfo(float).tiny, out=", "np.maximum(run[lo:hi], 0.0, out=",
           ("tests/test_maximal.py::test_a_subnormal_far_product_is_raised_before_the_far_test",)),
    Mutant("peetre-magnitude-ties", "src/lpx/maximal.py",
           "np.greater(mags[:-1], run[1:], out=keep[:-1])", "np.greater_equal(mags[:-1], run[1:], out=keep[:-1])",
           ("tests/test_maximal.py::test_candidate_scales_are_the_scales_that_no_single_scale_dominates",)),
    Mutant("peetre-low-scale", "src/lpx/maximal.py",
           "low = int(np.argmax(by_cell, axis=1).min())", "low = int(np.argmax(by_cell, axis=1).max())",
           ("tests/test_maximal.py::test_candidate_scales_are_the_scales_that_no_single_scale_dominates",)),
    Mutant("peetre-candidate-chunk", "src/lpx/maximal.py",
           "found.append((cell + start, ", "found.append((cell, ",
           ("tests/test_maximal.py::test_candidate_scales_are_the_scales_that_no_single_scale_dominates",)),
    Mutant("peetre-ordered-far-normal", "src/lpx/maximal.py",
           "np.all(far[:, -1] >= np.finfo(float).tiny)", "np.all(far[:, -1] >= 0)",
           ("tests/test_maximal.py::test_peetre_maximals_of_drawn_stacks_are_the_brute_force_sup_bytewise",)),
    Mutant("peetre-1d-diagonal-start", "src/lpx/maximal.py",
           "for start, along in ((lo, rows + cells), (n - lo, rows - cells)):",
           "for start, along in ((0, rows + cells), (n, rows - cells)):",
           ("tests/test_maximal.py::test_peetre_maximals_rows_match_one_input_calls_bitwise",)),
    Mutant("doubling-table-wrap", "src/lpx/maximal.py",
           "table[j, ..., 2 * n - half:] = table[j, ..., n - half:n]", "pass",
           ("tests/test_maximal.py::test_ball_filters_match_the_roll_oracle_bitwise",)),
    Mutant("snap-radii-2d", "src/lpx/maximal.py",
           "if ball_volume(r, 2) >= covered:", "if True:",
           ("tests/test_maximal.py::test_family_radii_keep_the_snap_invariant",)),
    Mutant("ball-filters-block-top", "src/lpx/maximal.py",
           "max(tops[lo:hi])", "tops[lo]",
           ("tests/test_maximal.py::test_ball_filters_in_blocks_of_rows_match_one_block",)),
    Mutant("ball-filters-fold-batch", "src/lpx/maximal.py",
           "np.maximum(out[i, ..., :n - dx, :], run[..., dx:, :], out=out[i, ..., :n - dx, :])",
           "np.maximum(out[i, :n - dx], run[dx:], out=out[i, :n - dx])",
           ("tests/test_maximal.py::test_ball_filters_of_a_stack_with_batch_axes_match_the_one_row_calls",)),
    Mutant("piece-chunk-rebase", "src/lpx/atoms.py",
           "owner = np.repeat(np.arange(hi - lo), ", "owner = np.repeat(np.arange(lo, hi), ",
           ("tests/test_atoms.py::test_piece_functionals_span_chunks_bitwise",)),
    Mutant("ball-norm-chunk-end", "src/lpx/atoms.py",
           "_ball_rows(grid, centers[lo:hi], widths[lo:hi])", "_ball_rows(grid, centers[lo:hi - 1], widths[lo:hi - 1])",
           ("tests/test_atoms.py::test_decomposition_sizes_do_not_depend_on_the_chunk_budget",
            "tests/test_work_budget.py::test_batcher_output_is_the_same_bytes_at_any_work_budget")),
    Mutant("ball-cells-wrap", "src/lpx/atoms.py",
           "cells &= n - 1", "pass",
           ("tests/test_atoms.py::test_every_ball_reader_leaves_out_the_cells_on_the_boundary",)),
    Mutant("piece-functionals-wraps", "src/lpx/atoms.py",
           "c[wraps]", "0 * c[wraps]",
           ("tests/test_atoms.py::test_piece_functionals_match_the_brute_force_and_fft_references",)),
    Mutant("piece-functionals-closed", "src/lpx/atoms.py",
           "closed = end < n", "closed = end <= n",
           ("tests/test_atoms.py::test_piece_functionals_match_the_brute_force_and_fft_references",)),
    Mutant("whitney-walk-key-offset", "src/lpx/atoms.py",
           "+ (len(radii) - 1 - top))", "- top)",
           ("tests/test_atoms.py::test_whitney_regions_match_reference_on_benchmark_inputs",)),
    Mutant("piece-workspace-zeroing", "src/lpx/atoms.py",
           "rows.fill(0.0)", "pass",
           ("tests/test_atoms.py::test_piece_functionals_span_chunks_bitwise",)),
    Mutant("whitney-wrapped-slice", "src/lpx/atoms.py",
           "covered[row:row + hi - n] = fill[n - lo:]", "pass",
           ("tests/test_atoms.py::test_whitney_runs_that_wrap_or_fill_a_row_match_the_roll_reference",)),
    Mutant("one-field-length-check", "src/lpx/squarefuncs.py",
           "if len(F.values) != 1:", "if False:",
           ("tests/test_squarefuncs.py::test_the_one_field_forms_refuse_every_stack_but_a_stack_of_one",)),
    Mutant("scale-sums-g-weight", "src/lpx/squarefuncs.py",
           "F.scales.log_weight, out=acc[-1]", "1.0, out=acc[-1]",
           ("tests/test_squarefuncs.py::test_g_function_pure_frequency_oracle",)),
    Mutant("scale-sums-contiguous-gather", "src/lpx/squarefuncs.py",
           "np.ascontiguousarray(np.moveaxis(power[first:first + step], -1, 1))",
           "np.moveaxis(power[first:first + step], -1, 1)",
           ("tests/test_squarefuncs.py::test_batched_operators_match_per_scale_reference_bitwise",)),
    Mutant("newton-start", "src/lpx/spaces.py",
           "x = np.max(logs / exps, axis=1)", "x = np.min(logs / exps, axis=1)",
           ("tests/test_spaces.py::test_luxemburg_norms_match_the_oracle",)),
    Mutant("newton-retirement", "src/lpx/spaces.py",
           "done = ~(step > 4 * np.spacing(np.abs(x)))", "done = ~(step > 2**30 * np.spacing(np.abs(x)))",
           ("tests/test_spaces.py::test_luxemburg_norms_match_the_oracle",)),
    Mutant("slice-band-edge", "src/lpx/spaces.py",
           "int(SLICE_BAND_BITS // max(exps))", "int(SLICE_BAND_BITS // min(exps))",
           ("tests/test_spaces.py::test_orlicz_slice_matches_the_oracle_on_far_tails_and_wide_types",)),
    Mutant("slice-window-order", "src/lpx/spaces.py",
           "for dy in (*range(w - w // 2), *range(n - w // 2, n)):",
           "for dy in (*range(n - w // 2, n), *range(w - w // 2)):",
           ("tests/test_spaces.py::test_slice_window_sums_add_the_mask_offsets_in_order_bitwise",)),
    Mutant("space-norms-step", "src/lpx/spaces.py",
           "values[start:start + step]", "values[start:start + step - 1]",
           ("tests/test_spaces.py::test_space_norms_match_one_input_norms_bitwise",)),
    Mutant("equivalence-grade-spread", "src/lpx/harness.py",
           "passed = worst <= EQUIVALENCE_SPREAD_MAX and domination_ok", "passed = domination_ok",
           ("tests/test_harness.py::test_the_equivalence_grader_fails_past_the_spread_bound_or_on_a_domination_flag",)),
    Mutant("equivalence-grade-domination", "src/lpx/harness.py",
           "passed = worst <= EQUIVALENCE_SPREAD_MAX and domination_ok", "passed = worst <= EQUIVALENCE_SPREAD_MAX",
           ("tests/test_harness.py::test_the_equivalence_grader_fails_past_the_spread_bound_or_on_a_domination_flag",)),
    Mutant("domination-constant", "src/lpx/harness.py",
           "2.0 ** (lam * dim / 2.0)", "2.0 ** (lam * dim)",
           ("tests/test_harness.py::test_the_domination_flag_holds_up_to_two_to_the_lambda_n_over_two",)),
    Mutant("angle-grade-slope", "src/lpx/harness.py",
           "passed = fitted <= bound + ANGLE_SLOPE_SLACK and monotone_ok", "passed = monotone_ok",
           ("tests/test_harness.py::test_the_angle_grader_fails_one_ulp_past_its_bound",)),
    Mutant("angle-grade-monotone", "src/lpx/harness.py",
           "passed = fitted <= bound + ANGLE_SLOPE_SLACK and monotone_ok",
           "passed = fitted <= bound + ANGLE_SLOPE_SLACK",
           ("tests/test_harness.py::test_the_angle_grader_fails_on_one_non_monotone_trial",)),
    Mutant("angle-bound-half-n", "src/lpx/harness.py",
           "bound = max(dim / 2.0, dim / space.floor())", "bound = dim / space.floor()",
           ("tests/test_harness.py::test_the_angle_grader_fails_one_ulp_past_its_bound",)),
    Mutant("embedding-grade-spread", "src/lpx/harness.py",
           "passed = bool(finite and spread <= EMBEDDING_SPREAD_MAX)", "passed = bool(finite)",
           ("tests/test_harness.py::test_the_embedding_grader_fails_past_its_spread_bound",)),
    Mutant("vanish-grade-tail", "src/lpx/harness.py",
           '"passed": bool(tail_monotone and rate_ok)', '"passed": bool(rate_ok)',
           ("tests/test_harness.py::test_the_vanish_grader_fails_on_a_tail_that_rises_while_the_rate_holds",)),
    Mutant("verify-exit-code", "src/lpx/cli.py",
           "return 0 if all(passed.values()) else 1", "return 0",
           ("tests/test_cli.py::test_verify_exits_1_and_writes_every_report_when_one_experiment_fails",)),
    Mutant("trial-block-end", "src/lpx/harness.py",
           "min(lo + size, trials)", "min(lo + size, trials - 1)",
           ("tests/test_harness.py::test_trial_blocked_equivalence_with_a_partial_last_block",)),
    Mutant("atom-view-float-values", "src/lpx/grid.py",
           "complex_ = np.iscomplexobj(vals) and vals.imag.any()", "complex_ = np.iscomplexobj(vals)",
           ("tests/test_atoms.py::test_atoms_read_by_index_slice_and_iteration_match_the_per_piece_reference",)),
    Mutant("stable-order-high-digits", "src/lpx/grid.py",
           "for shift in range(16, ", "for shift in range(16, 0 * ",
           ("tests/test_grid.py::test_stable_order_is_the_stable_argsort_of_non_negative_keys",)),
    Mutant("batch-items-at-least-one", "src/lpx/grid.py",
           "max(1, WORK_BYTES // cost)", "WORK_BYTES // cost",
           ("tests/test_work_budget.py::test_batch_items_fit_the_budget_read_at_call_time",)),
    Mutant("whole-batches-end-within", "src/lpx/grid.py",
           'start + WORK_BYTES, side="right"', 'start + WORK_BYTES, side="left"',
           ("tests/test_work_budget.py::test_whole_batches_are_greedy_runs_of_whole_items",)),
]


def run_mutant(tree: Path, mutant: Mutant) -> str:
    """The mutant's status, its tests run in ``tree`` with the snippet replaced."""
    path = tree / mutant.file
    source = path.read_text()
    if source.count(mutant.snippet) != 1:
        return "no-match"
    path.write_text(source.replace(mutant.snippet, mutant.replacement))
    try:
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        path.write_text(source)
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:  # pytest: some test failed
        return "killed"
    raise RuntimeError(f"pytest exited {proc.returncode} on mutant {mutant.name}:\n{proc.stdout}\n{proc.stderr}")


def check(mutants: list[Mutant]) -> bool:
    """Run every mutant in one copy of the working tree and print its line;
    whether every mutant was killed."""
    killed = True
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        tree = Path(tmp)
        copy_work(tree)
        for mutant in mutants:
            start = time.perf_counter()
            status = run_mutant(tree, mutant)
            killed &= status == "killed"
            print(json.dumps({"mutant": mutant.name, "file": mutant.file, "status": status,
                              "seconds": round(time.perf_counter() - start, 1)}), flush=True)
    return killed


def main(argv: list[str] | None = None) -> int:
    mutants = "\n".join(f"  {mutant.name:<28} {mutant.file}" for mutant in MUTANTS)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
                                     epilog=f"mutants, each with its file:\n{mutants}")
    parser.parse_args(argv)
    return 0 if check(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
