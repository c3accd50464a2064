"""Statements of randlab that no tier-1 test runs.

Runs the tier-1 suite in this process under a sys.settrace hook confined to
the frames of src/randlab, then prints each executable statement that never
ran, as module:line and its source.  def and class lines, imports and
docstrings are not listed: importing the module runs them.  The hook is
installed before anything imports randlab, so module and class bodies are
traced too; code that tests run in a subprocess is not seen.

    python tools/untested_lines.py

Uses the stdlib only (coverage is not needed).  Tracing slows the suite
several-fold, so its timing bounds can fail; the tool prints pytest's exit
status without gating on it, and always exits 0.
"""

import ast
import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "randlab"
# statements that importing a module runs
UNLISTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _trace_suite() -> tuple:
    """(pytest's exit status, the set of (file, line) pairs run in src/randlab)."""
    prefix, hits = str(SOURCE) + os.sep, set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(REPO / "src"))
    os.chdir(REPO)
    threading.settrace(call)
    sys.settrace(call)
    try:
        import pytest

        # a fixed hypothesis seed makes the listing reproducible
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def _own_lines(stmt: ast.stmt) -> set:
    """The lines of a statement that none of the statements it holds cover."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for child in ast.walk(stmt):
        if child is not stmt and isinstance(child, ast.stmt):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def untested(hits: set) -> list:
    """module:line and source of each listed statement of src/randlab that never ran."""
    rows = []
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text()
        source, ran = text.splitlines(), {line for file, line in hits if file == str(path)}
        for stmt in ast.walk(ast.parse(text)):
            if not isinstance(stmt, ast.stmt) or isinstance(stmt, UNLISTED) or _is_docstring(stmt):
                continue
            if not _own_lines(stmt) & ran:
                rows.append((path.name, stmt.lineno, source[stmt.lineno - 1].strip()))
    return [f"{name}:{line}  {text}" for name, line, text in sorted(rows)]


def main() -> int:
    status, hits = _trace_suite()
    rows = untested(hits)
    print(f"\npytest exit status under tracing: {int(status)}")
    print(f"{len(rows)} statements of src/randlab that no test runs:")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
