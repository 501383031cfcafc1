"""Print the lines and code lines of each module of src/epicsim, and their totals.

A code line is a line that is not blank, not only a comment and not part of
a docstring (the string that opens a module, class or function body).  Run
from the repository root:

    python tests/line_account.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "epicsim"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The lines of `source` and its code lines."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main() -> int:
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<16}{lines:>7,}{code:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
