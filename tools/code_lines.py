"""Count the code lines of Python files.

A code line holds a token other than a comment, a line break or an
indentation change, so blank and comment-only lines do not count; nor do
the lines of module, class and function docstrings, found with ``ast``.
A token that spans lines, such as a multi-line string, counts every line
it covers.

    python tools/code_lines.py src/entcert

prints the count for each file (a directory stands for its ``*.py`` files,
recursively) and then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
        fh.seek(0)
        tree = ast.parse(fh.read(), filename=str(path))
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        files += sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
