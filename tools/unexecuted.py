"""Every statement of ``src/quartics`` that no tier-1 test executes.

Starts a line tracer before the package is imported, runs the tier-1 suite
(``python -m pytest -q --continue-on-collection-errors`` from the root of the
checkout, ``src`` on the path) in this process, and prints ``file:line: source``
for each statement of ``src/quartics/*.py`` that no test reached.  Docstrings,
``def``/``class``/``import`` lines, ``global``/``nonlocal`` and the body of
``if __name__ == "__main__":`` are not counted, nor a statement the compiler
leaves no instruction of its own for; each ``except`` clause counts as one.
The trace is per line: a statement or clause counts as run when any line of
it, other than the lines of the statements nested in it, ran.  The CLI tests'
child processes are not traced.

Exits 1 when the list is not empty or a test fails, so dead code cannot come
back unnoticed.  Run from anywhere (it takes two to three times as long as the
suite itself):

    python tools/unexecuted.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Statements that run whenever their module or class body does, or compile to no code.
NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
               ast.ImportFrom, ast.Global, ast.Nonlocal)


def _nested(node: ast.AST):
    """The statements and ``except`` clauses directly inside *node*."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.stmt, ast.excepthandler)):
            yield child
        else:
            yield from _nested(child)


def _statements(body):
    """Each statement and ``except`` clause of *body*, nested ones too, but not
    the ``__main__`` block's."""
    for node in body:
        yield node
        main_guard = isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        if not main_guard:
            yield from _statements(_nested(node))


def _code_lines(code) -> set[int]:
    """The lines that *code* and the code objects nested in it have instructions on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def unexecuted(path: Path, ran: set[int]):
    """``(line, source)`` of each counted statement or clause of *path* with no line in *ran*."""
    source = path.read_text()
    tree = ast.parse(source)
    code = _code_lines(compile(source, str(path), "exec"))
    for node in _statements(tree.body):
        docstring = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))
        if isinstance(node, NOT_COUNTED) or docstring:
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in _nested(node):
            own -= set(range(child.lineno, child.end_lineno + 1))
        own &= code
        if own and not own & ran:
            yield node.lineno, source.splitlines()[node.lineno - 1].strip()


def main() -> int:
    files = {str(path): path for path in sorted((SRC / "quartics").glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in ran else None

    # the tier-1 command's path, for this process and the CLI tests' children
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import pytest

    sys.settrace(trace_calls)
    threading.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = [f"{path.relative_to(ROOT)}:{line}: {text}"
              for name, path in files.items() for line, text in unexecuted(path, ran[name])]
    print("\n".join(missed) if missed else "every counted statement ran")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
