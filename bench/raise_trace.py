"""Each ``raise`` statement in ``src/marketstates`` that no test executes.

Usage:
    python3 bench/raise_trace.py [PYTEST_ARGS...]

Runs the Tier-1 suite in this process (by default ``-q
--continue-on-collection-errors tests``, from the repository root) under
a line tracer that ``sys.settrace`` and ``threading.settrace`` install,
so the k-means restarts and distance tiles on worker threads count too.
``src`` goes first on ``sys.path``, so the tests run this checkout's
package, and only its files are traced line by line. Then it prints each
raise statement (found by ``ast``) whose first line never ran, as
``path:line: source``, and exits 1 if there is any or if the suite did
not pass; else 0. It needs the standard library and pytest only.

A raise counts as run when its first line runs, so a raise that shares
that line with other code (``if bad: raise ...``) counts whenever the
line does. Code run in a child process, as by the tests that start
``python -c``, is not traced. Expect the suite to take a few times longer
than without the tracer.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "marketstates"


def raise_lines(path: Path) -> list[int]:
    """The first line of each raise statement in a source file, in order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise))


def line_tracer(hits: set, prefix: str):
    """A trace function that adds ``(file, line)`` to ``hits`` for each
    line run in a file whose path starts with ``prefix``."""
    traced: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code not in traced:
            traced[code] = code.co_filename.startswith(prefix)
        return local if traced[code] else None

    return call


def report(paths: list[Path], hits: set, out) -> int:
    """Print each raise in ``paths`` whose first line is not in ``hits``,
    relative to the repository root where it can be; return their count."""
    missed = 0
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        for n in raise_lines(path):
            if (str(path), n) not in hits:
                missed += 1
                name = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
                print(f"{name}:{n}: {lines[n - 1].strip()}", file=out)
    print(f"{missed} raise statement(s) not executed", file=out)
    return missed


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    args = args or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]
    sys.path.insert(0, str(SRC.parent))
    hits: set = set()
    tracer = line_tracer(hits, str(SRC) + "/")
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = report(sorted(SRC.glob("*.py")), hits, sys.stdout)
    if status != 0:
        print(f"the suite did not pass (pytest exit {int(status)})", file=sys.stderr)
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
