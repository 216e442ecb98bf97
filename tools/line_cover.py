"""List the statements of src/quadlie that Tier-1 never runs.

The coverage package is not a dependency, so this script runs the tests
in process under a sys.settrace (and threading.settrace) line tracer that
follows only frames whose code lies in src/quadlie.  Then, per module, it
prints the lines of the AST statements that never ran, leaving out
docstrings and definitions (def and class lines run at import).  Commands
that the tests start in a fresh interpreter are not traced.  Extra
arguments go to pytest; it is not part of Tier-1 and takes a few times as
long:

    PYTHONPATH=src python3 tools/line_cover.py
"""

import ast
import pathlib
import sys
import threading

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "quadlie"
ran = {}


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(str(SRC)):
        return None
    if event == "line":
        ran.setdefault(path, set()).add(frame.f_lineno)
    return _trace


def _statements(path):
    """The first line of each statement of the module, less docstrings and
    definitions."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if isinstance(node, ast.stmt) and not (docstring and isinstance(node.value.value, str)):
            lines.add(node.lineno)
    return lines


def main(args):
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        lines = _statements(path)
        missed = sorted(lines - ran.get(str(path), set()))
        print(f"{path.name}: {len(missed)} of {len(lines)} statements never ran: "
              + ", ".join(map(str, missed)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
