"""The README's references stay true: every test it names exists, every lpx
attribute it names resolves, every Design bullet names a test, and every
command in its code blocks parses.

Each check is a function of a README text, so each is also run on a doctored
string that it must reject."""

import argparse
import ast
import dataclasses
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import lpx
from helpers import load_module
from lpx import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
TICKED = re.compile(r"`([^`\n]+)`")


def _defined_tests() -> set[str]:
    """Every test module and test function name under ``tests/``."""
    names = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        names.add(path.stem)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("test_"):
                names.add(node.name)
    return names


TESTS = _defined_tests()


def _named_tests(text: str) -> list[str]:
    """The backticked test names of ``text``, a path or node prefix dropped."""
    return [m.rpartition("::")[2].rpartition("/")[2].removesuffix(".py")
            for m in TICKED.findall(text) if re.search(r"(^|[/:])test_\w+(\.py)?$", m)]


def unknown_tests(text: str) -> list[str]:
    return [name for name in _named_tests(text) if name not in TESTS]


def _namespace() -> dict:
    """The lpx modules by name, and every class they define by name."""
    modules = {info.name: importlib.import_module(f"lpx.{info.name}") for info in pkgutil.iter_modules(lpx.__path__)}
    space = {"lpx": lpx, **modules}
    for module in modules.values():
        space.update({name: obj for name, obj in vars(module).items()
                      if isinstance(obj, type) and obj.__module__ == module.__name__})
    return space


NAMESPACE = _namespace()


def _resolves(obj, attrs: list[str]) -> bool:
    for attr in attrs:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:  # a dataclass field without a default is no class attribute
            return dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}
    return True


def unresolved(text: str) -> list[str]:
    """The backticked dotted names of ``text`` that start at an lpx module or
    class and do not resolve by ``getattr``; a call's arguments are dropped."""
    missing = []
    for ref in TICKED.findall(text):
        dotted = ref.split("(")[0]
        if not re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", dotted):
            continue
        head, *attrs = dotted.split(".")
        if head in NAMESPACE and not _resolves(NAMESPACE[head], attrs):
            missing.append(dotted)
    return missing


def _design_bullets(text: str) -> list[str]:
    section = re.search(r"^## Design\n(.*?)(?=^## )", text, re.S | re.M).group(1)
    return re.findall(r"^- \*\*.*?(?=^- \*\*|\Z)", section, re.S | re.M)


def bullets_without_tests(text: str) -> list[str]:
    """The title of each Design bullet that names no existing test."""
    return [bullet.split("**")[1] for bullet in _design_bullets(text)
            if not any(name in TESTS for name in _named_tests(bullet))]


def _commands(text: str) -> list[list[str]]:
    """The ``lpx``, ``scripts/`` and ``perfbench/run.py`` commands of the code
    blocks of ``text``, each split into words, its comment dropped."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words and (words[0] == "lpx" or words[0] in ("python", "python3") and len(words) > 1
                          and (words[1].startswith("scripts/") or words[1] == "perfbench/run.py")):
                commands.append(words)
    return commands


class Parsed(Exception):
    """Raised in place of running a command once its arguments parse."""


def _parses(words: list[str], monkeypatch) -> bool:
    """Whether the command's arguments parse with its program's own parser;
    the program is stopped before it runs."""
    if words[0] == "lpx":
        try:
            cli._parser().parse_args(words[1:])
        except SystemExit:
            return False
        return True
    script, args = ROOT / words[1], words[2:]
    if not script.is_file():
        return False
    monkeypatch.syspath_prepend(str(script.parent))
    module = load_module(script)
    parse_args = argparse.ArgumentParser.parse_args

    def parse_then_stop(parser, argv=None, namespace=None):
        parse_args(parser, argv, namespace)
        raise Parsed

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_args", parse_then_stop)
        try:
            module.main(args)
        except Parsed:
            return True
        except SystemExit:
            return False
    raise AssertionError(f"{words} ran past its parser")


def unparsed(text: str, monkeypatch) -> list[str]:
    return [shlex.join(words) for words in _commands(text) if not _parses(words, monkeypatch)]


def test_every_test_the_readme_names_exists():
    assert _named_tests(README) and unknown_tests(README) == []
    doctored = "checked by `test_no_such_behaviour` and `tests/test_maximal.py`"
    assert unknown_tests(doctored) == ["test_no_such_behaviour"]


def test_every_lpx_attribute_the_readme_names_resolves():
    assert unresolved(README) == []
    doctored = ("`maximal._candidate_scales`, `GridSpec.ball_row_widths(radii)`, `TentDecomposition.cells`, "
                "`lpx.grid`, `np.maximum`, `maximal._no_such_table`, `GridSpec.no_such_field`")
    assert unresolved(doctored) == ["maximal._no_such_table", "GridSpec.no_such_field"]


def test_every_design_bullet_names_an_existing_test():
    assert len(_design_bullets(README)) >= 10 and bullets_without_tests(README) == []
    doctored = ("## Design\n\n- **Tested.** Holds (`test_stable_order_is_the_stable_argsort_of_non_negative_keys`).\n"
                "- **Untested.** Holds (`grid.stable_order`).\n- **Gone.** Holds (`test_no_such_behaviour`).\n\n"
                "## Cost\n")
    assert bullets_without_tests(doctored) == ["Untested.", "Gone."]


def test_every_command_in_the_readme_parses(monkeypatch):
    programs = {words[0] if words[0] == "lpx" else words[1] for words in _commands(README)}
    assert {"lpx", "scripts/memory_guard.py", "scripts/bench_pairs.py", "scripts/layer_bench.py",
            "scripts/mutation_check.py", "perfbench/run.py"} <= programs
    assert unparsed(README, monkeypatch) == []
    doctored = "\n".join([
        "```", "lpx --out out verify", "lpx --out out verify --no-such-option  # one bad option",
        "python scripts/layer_bench.py --case 1d-64", "python scripts/layer_bench.py --case no-such-case",
        "python scripts/bench_pairs.py HEAD --seed 5", "python scripts/memory_guard.py no-such-case",
        "python scripts/mutation_check.py --fast", "python3 perfbench/run.py --workload all",
        "python scripts/no_such_script.py", "```"])
    assert unparsed(doctored, monkeypatch) == [
        "lpx --out out verify --no-such-option", "python scripts/layer_bench.py --case no-such-case",
        "python scripts/bench_pairs.py HEAD --seed 5", "python scripts/memory_guard.py no-such-case",
        "python scripts/mutation_check.py --fast", "python3 perfbench/run.py --workload all",
        "python scripts/no_such_script.py"]
