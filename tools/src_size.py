"""Size of each module of the qglab package, in lines.

    python3 tools/src_size.py [DIR]

For each `*.py` file in DIR (default: this checkout's `src/qglab`) and in
total, prints the line count `wc -l` gives and the number of code lines:
lines that hold a token other than a comment or a line break, not counting
the lines of module, class and function docstrings (found with `ast`).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    folder = Path(argv[0]) if argv else ROOT / "src" / "qglab"
    total_wc = total_code = 0
    print(f"{'module':<16} {'wc -l':>6} {'code':>6}")
    for path in sorted(folder.glob("*.py")):
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<16} {wc:>6} {code:>6}")
    print(f"{'total':<16} {total_wc:>6} {total_code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
