"""Line counts of the package sources, per file and in total.

Usage: ``python tools/src_lines.py [ROOT]`` (ROOT defaults to ``src``).

For every ``.py`` file under ROOT it prints two counts: lines as
``wc -l`` counts them, and code lines, which leave out blank lines,
comment lines and the lines of docstrings. A line is a code line when a
token other than a comment or a line break starts on it or runs across
it; the docstrings are the string statements that open a module, a class
or a function, as ``ast`` finds them. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``(wc -l lines, code lines)`` of one source file's text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    paths = sorted(root.rglob("*.py"))
    if not paths:
        print(f"no .py files under {root}", file=sys.stderr)
        return 1
    total_lines = total_code = 0
    print(f"{'wc -l':>7} {'code':>7}  file")
    for path in paths:
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{lines:>7,} {code:>7,}  {path.relative_to(root).as_posix()}")
    print(f"{total_lines:>7,} {total_code:>7,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
