"""Every top-level function and class in `spreadplan` is named somewhere
other than its own definition: in the program (what `__init__` exports
counts), the benchmark or `pyproject.toml`.  Tests do not count: code that
only tests name belongs in the tests, and code that nothing names is
deleted, not kept."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spreadplan"


def _corpus() -> dict[Path, str]:
    files = [f for part in ("src", "perfbench")
             for f in ROOT.joinpath(part).rglob("*.py")]
    files.append(ROOT / "pyproject.toml")
    return {f: f.read_text(encoding="utf-8") for f in files}


def unnamed_definitions() -> list[str]:
    corpus = _corpus()
    unnamed = []
    for module in sorted(PACKAGE.glob("*.py")):
        text = corpus[module]
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            # the module with this definition, decorators and body blanked
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(rest if f == module else other)
                       for f, other in corpus.items()):
                unnamed.append(f"{module.stem}.{node.name}")
    return unnamed


def test_every_definition_is_named_elsewhere():
    assert unnamed_definitions() == []
