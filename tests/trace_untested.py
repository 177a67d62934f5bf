"""List the statements in src/finprog functions that no tier-1 test executes.

Usage, from the repository root:

    python tests/trace_untested.py [pytest arguments]

It runs the test suite in this process under ``sys.settrace``, records each
line executed in a frame whose code lives in ``src/finprog``, and prints
``file:line: source`` for every statement inside a function (a lambda or
comprehension included) that never ran. Module and class bodies are left
out: they run on import. Code run in a child process, such as the tests that
start ``python -m finprog.cli``, is not traced.

Tracing makes the suite about three times slower, so tests bound by wall
time may fail here; the trace is reported all the same, after pytest's own
summary.
pytest does not collect this file: it is a tool, not a test.
"""

from __future__ import annotations

import inspect
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "finprog"


def _function_lines(code) -> set[int]:
    """The line numbers of the statements in every function compiled from ``code``."""
    lines = set()
    if code.co_flags & inspect.CO_OPTIMIZED:
        body = {line for _, _, line in code.co_lines() if line is not None}
        if code.co_name != "<lambda>":
            body.discard(code.co_firstlineno)  # the def line runs once, when the function is made
        lines |= body
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _function_lines(const)
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))  # so that each traced frame names its file by this absolute path
    prefix = str(PACKAGE) + "/"
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    untested = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        filename = str(path)
        lines = _function_lines(compile(source, filename, "exec"))
        missed = sorted(line for line in lines if (filename, line) not in executed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        untested += len(missed)
    print(f"{untested} statements in functions never executed; pytest exit status {int(status)}")
    if status != 0:
        print("tracing slows every test: a failure bound by wall time may be the trace's own cost")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
