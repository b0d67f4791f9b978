"""List the statements of ``src/comret`` that a pytest run never executes.

    python3 tools/uncovered.py [PYTEST_ARG ...]

runs pytest in this process (default arguments ``-q tests``) with a
stdlib line tracer, ``sys.settrace`` and ``threading.settrace``, that
records only frames of files under ``src/comret``. It then prints one
``module:line  source`` line per statement that never ran, sorted by
module and line, and last the sha256 of that listing, as
``tools/cli_fixture.py`` does. Run it from the repository root; it needs
no package beyond pytest and the test suite's own.

A statement counts as run when a line event fires on its first line (or
a decorator's), on any line of a simple statement, or on any line of a
compound statement's header. Docstrings, ``global`` and ``nonlocal``
statements produce no code and are not listed.

The tracer follows threads but not other processes: code that runs only
in a subprocess counts as not run. That covers ``ingest``'s forked worker
process and every test that runs the CLI in a fresh interpreter
(``run_process`` in ``tests/test_cli.py``). Tracing slows the suite
(58 s against 35 s untraced on a 2-vCPU host), so a timing gate may fail
under it; pytest reports such a failure, and its exit code goes to
stderr. This tool is not part of tier-1.
"""

from __future__ import annotations

import ast
import hashlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "comret"


def statement_lines(source: str) -> dict[int, range]:
    """Each statement's first line, mapped to the lines on which a line
    event means the statement ran."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add(id(first))
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno  # a compound statement's header only
        spans[node.lineno] = range(first, max(node.lineno, last) + 1)
    return spans


def trace_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each file of the package."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}
    wanted: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        keep = wanted.get(filename)
        if keep is None:
            keep = wanted[filename] = str(Path(filename).resolve()).startswith(prefix)
            if keep:
                hits.setdefault(filename, set())
        return local if keep else None

    sys.path.insert(0, str(SRC))
    import pytest  # imported before tracing starts; comret is imported by the tests, traced

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[str, set[int]] = {}
    for filename, lines in hits.items():
        by_path.setdefault(str(Path(filename).resolve()), set()).update(lines)
    return int(code), by_path


def main() -> int:
    code, hits = trace_pytest(sys.argv[1:] or ["-q", "tests"])
    listing = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        for line, span in sorted(statement_lines(source).items()):
            if ran.isdisjoint(span):
                listing.append(f"{path.relative_to(PACKAGE).as_posix()}:{line}  {lines[line - 1].strip()}\n")
    text = "".join(listing)
    sys.stdout.write(text)
    print(f"listing sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"pytest exit code {code}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
