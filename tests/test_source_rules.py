"""Static checks on the source tree, read with ast; nothing under bench/ is imported.

bench/run.py imports every module of its MODULES tuple as cotorsion.<name>,
so a module renamed or deleted in src/ would make every benchmark run fail
at import.  The library's correctness checks must survive python -O, so
src/ holds no assert statement, and long-running processes must keep
bounded memory, so every lru_cache names a finite maxsize.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cotorsion").glob("*.py"))


def bench_modules() -> tuple[str, ...]:
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("bench/run.py assigns no MODULES")


def _decorator_name(dec: ast.expr) -> str:
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else ""


def unbounded_caches(tree: ast.AST) -> list[int]:
    """Lines of cache or lru_cache decorators without a finite explicit maxsize."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            name = _decorator_name(dec)
            if name == "cache":
                lines.append(dec.lineno)
            elif name == "lru_cache":
                size = None
                if isinstance(dec, ast.Call):
                    size = dec.args[0] if dec.args else next(
                        (k.value for k in dec.keywords if k.arg == "maxsize"), None
                    )
                if size is None or (isinstance(size, ast.Constant) and size.value is None):
                    lines.append(dec.lineno)
    return lines


def test_bench_modules_import():
    names = bench_modules()
    assert "okmodules" in names
    for name in names:
        importlib.import_module(f"cotorsion.{name}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    lines = unbounded_caches(ast.parse(path.read_text()))
    assert lines == [], f"{path.name}: unbounded cache at lines {lines}"


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("@lru_cache(maxsize=8)\ndef f(): pass", False),
        ("@functools.lru_cache(maxsize=SIZE)\ndef f(): pass", False),
        ("@lru_cache(16)\ndef f(): pass", False),
        ("@lru_cache\ndef f(): pass", True),
        ("@lru_cache()\ndef f(): pass", True),
        ("@functools.lru_cache(maxsize=None)\ndef f(): pass", True),
        ("@lru_cache(None)\ndef f(): pass", True),
        ("@functools.cache\ndef f(): pass", True),
        ("class C:\n    @cache\n    def f(self): pass", True),
    ],
)
def test_cache_rule_examples(source, flagged):
    assert bool(unbounded_caches(ast.parse(source))) == flagged
