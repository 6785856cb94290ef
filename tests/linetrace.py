"""List the statements of src/pencilred that the test suite never runs.

Runs pytest in this process under `sys.settrace`, recording every line
executed in src/pencilred, then counts each module's executable statements
from its AST and prints, per module, the ones no test reached.  A compound
statement counts as run when its header ran, a simple one when any of its
lines did.  Only this process is traced: code that only the tests' subprocesses reach (the CLI
tests that start `python -m pencilred`) is listed as never run.

Run it from the root of a checkout:

    PYTHONPATH=src python tests/linetrace.py            # pytest tests -q
    PYTHONPATH=src python tests/linetrace.py tests/test_orbits.py -q

Arguments, if any, replace pytest's default `tests -q`.  Tracing slows
the suite about threefold.  The file name keeps pytest from collecting it.
"""

import ast
import os
import sys
import threading
from collections import defaultdict

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "pencilred")
_NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(path):
    """(start, end) line ranges of the executable statements of a module:
    a compound statement's range is its header, the lines before its body.
    Not counted: docstrings; definitions and imports, which run when the
    module is imported; `global` and `nonlocal`, which compile to no
    code."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    skip = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            skip.add(id(body[0]))
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in skip
                or isinstance(node, _NOT_COUNTED)):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, max(node.lineno, end)))
    return sorted(out)


def trace(args):
    """Run pytest with args under the line tracer: (exit code,
    {path: set of executed lines})."""
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main(argv):
    code, hits = trace(argv or ["tests", "-q"])
    total = missed = 0
    report = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        ran = hits[path]
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        stmts = statements(path)
        never = [(a, b) for a, b in stmts
                 if not any(x in ran for x in range(a, b + 1))]
        total += len(stmts)
        missed += len(never)
        if never:
            report.append("%s: %d never run" % (name, len(never)))
            report += ["  %5d  %s" % (a, lines[a - 1].strip())
                       for a, _ in never]
    print("\n".join(report))
    print("%d of %d executable statements in src/pencilred never run "
          "(pytest exit code %d)" % (missed, total, code))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
