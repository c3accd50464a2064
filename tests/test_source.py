"""Static checks over the source of randlab."""

import ast
import collections
from pathlib import Path

import randlab

SOURCE = Path(randlab.__file__).parent


def _referenced_names(tree) -> collections.Counter:
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_private_definition_is_read():
    # a private function, method or class that nothing references is dead code
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SOURCE.glob("*.py"))}
    everywhere = sum((_referenced_names(tree) for tree in trees.values()), collections.Counter())
    unread = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if everywhere[name] - _referenced_names(node)[name] <= 0:
                unread.append(f"{module}:{node.lineno} {name}")
    assert unread == []


def test_only_rationals_builds_a_fraction():
    # every other module builds its rationals through the RAT seam, so gmpy2's
    # mpq, when installed, is the one rational type the library makes
    calls = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "rationals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
