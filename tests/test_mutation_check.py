"""``scripts/mutation_check.py``: its table matches the sources, and a run
tells a killed mutant from a survivor and from a snippet that no longer
matches."""

import json
import shutil
from pathlib import Path

import pytest
from helpers import load_module

ROOT = Path(__file__).resolve().parents[1]
MUTATION_CHECK = ROOT / "scripts" / "mutation_check.py"


@pytest.fixture(scope="module")
def mutation_check():
    return load_module(MUTATION_CHECK)


def test_every_snippet_occurs_once_in_its_file_and_every_test_file_exists(mutation_check):
    names = [mutant.name for mutant in mutation_check.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutation_check.MUTANTS:
        assert (ROOT / mutant.file).read_text().count(mutant.snippet) == 1, mutant.name
        assert mutant.tests and all((ROOT / test.partition("::")[0]).is_file() for test in mutant.tests), mutant.name


def _copy_sources(tree: Path) -> None:
    """What a run of the tests needs, copied without git."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")


def test_a_run_reports_killed_survived_and_unmatched_mutants(mutation_check, capsys, monkeypatch):
    monkeypatch.setattr(mutation_check, "copy_work", _copy_sources)
    Mutant, test = mutation_check.Mutant, ("tests/test_work_budget.py::test_batch_items_fit_the_budget_read_at_call_time",)
    killed = next(mutant for mutant in mutation_check.MUTANTS if mutant.name == "batch-items-at-least-one")
    survivor = Mutant("comment", "src/lpx/grid.py", "# bytes one batch", "# bytes of one batch", test)
    unmatched = Mutant("gone", "src/lpx/grid.py", "no such source line", "", test)
    assert not mutation_check.check([killed, survivor, unmatched])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(line["mutant"], line["status"]) for line in lines] == [
        ("batch-items-at-least-one", "killed"), ("comment", "survived"), ("gone", "no-match")]
    assert mutation_check.check([killed])
    # the working tree itself is never touched
    assert "max(1, WORK_BYTES // cost)" in (ROOT / "src/lpx/grid.py").read_text()
