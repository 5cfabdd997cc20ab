"""Every top-level function and class in `spreadplan` is named somewhere
other than its own definition: in the program (what `__init__` exports
counts), the benchmark or `pyproject.toml`.  Every method and property of
its classes, dunders aside, is read as an attribute somewhere in the
program or the benchmark outside its own definition.  Every defaulted
parameter of a top-level function is passed by some call in the program or
the benchmark.  Tests do not count: code that only tests name belongs in
the tests, and code that nothing names is deleted, not kept."""

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


# members read other than as an attribute, each with its reason
UNREAD_MEMBERS_ALLOWED = {
    # the bytes of the fields a cache holds, for the benchmark to report
    "FieldCache.nbytes",
    # perfbench reads it by the string "total_expansions"
    "LifelongStats.total_expansions",
}


def unread_members() -> list[str]:
    """Methods and properties of the program's classes, dunders aside, that
    no attribute read outside their own definition names."""
    reads = []  # (file, line, attribute name) of every attribute read
    for f, text in _corpus().items():
        if f.suffix == ".py":
            reads += [(f, node.lineno, node.attr)
                      for node in ast.walk(ast.parse(text))
                      if isinstance(node, ast.Attribute)]
    unread = []
    for module in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(module.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or node.name.startswith("__"):
                    continue
                if not any(attr == node.name and not (
                        f == module and node.lineno <= line <= node.end_lineno)
                        for f, line, attr in reads):
                    unread.append(f"{cls.name}.{node.name}")
    return unread


def test_every_method_is_read_elsewhere():
    assert sorted(set(unread_members()) - UNREAD_MEMBERS_ALLOWED) == []


# the console entry point, whose argv only tests pass
ENTRY_POINTS = {"cli.main"}


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the program and the benchmark, by the name called."""
    calls: dict[str, list[ast.Call]] = {}
    for f, text in _corpus().items():
        if f.suffix == ".py":
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    return calls


def _passed(call: ast.Call, positional: list[str], keyword: list[str]) -> set[str]:
    """The parameters a call passes; a *args or **kwargs passes them all."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return set(positional + keyword)
    return set(positional[:len(call.args)]) | {k.arg for k in call.keywords}


def unpassed_parameters() -> list[str]:
    """Defaulted parameters of top-level functions that no call passes."""
    calls = _calls()
    unpassed = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or f"{module.stem}.{node.name}" in ENTRY_POINTS:
                continue
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            keyword = [p.arg for p in a.kwonlyargs]
            defaulted = positional[len(positional) - len(a.defaults):] + [
                p for p, d in zip(keyword, a.kw_defaults) if d is not None]
            passed = set().union(*(_passed(c, positional, keyword)
                                   for c in calls.get(node.name, ())))
            unpassed += [f"{module.stem}.{node.name}({p})"
                         for p in defaulted if p not in passed]
    return unpassed


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters() == []
