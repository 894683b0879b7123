"""Every script in ``scripts/`` parses its arguments before it runs anything:
``--help`` prints its docstring and exits 0 at once, the memory guard's help
lists its cases with their limits, and a bad argument exits 2 before any
child process starts."""

import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import load_module

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
NAMES = sorted(path.name for path in SCRIPTS.glob("*.py"))


def _help(name: str) -> str:
    """What ``python scripts/<name> --help`` prints; it must exit 0 within 5 s."""
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), "--help"], capture_output=True, text=True,
                          timeout=5)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_help_prints_the_docstring_and_exits_0_at_once(name):
    assert load_module(SCRIPTS / name).__doc__.strip() in _help(name)


def test_the_memory_guards_help_lists_every_case_with_its_limit():
    cases, shown = load_module(SCRIPTS / "memory_guard.py").CASES, _help("memory_guard.py")
    assert len(cases) == 6
    for name, case in cases.items():
        assert re.search(rf"^  {re.escape(name)} +{case.limit_mib} MiB  ", shown, re.M), name


@pytest.mark.parametrize("name, argv", [
    ("memory_guard.py", ["no-such-case"]), ("memory_guard.py", ["decompose", "no-such-case"]),
    ("mutation_check.py", ["--fast"]), ("layer_bench.py", ["--case", "no-such-case"]),
    ("bench_pairs.py", ["HEAD"])])
def test_a_bad_argument_exits_2_before_any_child_starts(name, argv, monkeypatch):
    module = load_module(SCRIPTS / name)

    def no_child(*args, **kwargs):
        raise AssertionError(f"{name} started a child process")

    monkeypatch.setattr(subprocess, "Popen", no_child)
    with pytest.raises(SystemExit) as exit_:
        module.main(argv)
    assert exit_.value.code == 2
