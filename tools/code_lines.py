"""Count the code lines of each module of a package tree.

    python3 tools/code_lines.py [src/comret]

prints one ``lines  module`` line per ``.py`` file under the directory
(default ``src/comret``), sorted by path, then the total. A code line
holds at least one token of code: blank lines, comment lines and the
lines of docstrings (a string that is the first statement of a module,
class or function) are not counted, unlike ``wc -l``. A line holding code
and a trailing comment counts once.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that are not code: layout, comments and the end of the file.
NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code outside a docstring."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/comret")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root).as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
