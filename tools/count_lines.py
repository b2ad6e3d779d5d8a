"""Count code lines of Python modules: non-blank lines outside docstrings
and comments, per module and in total.

A docstring is the string-literal first statement of a module, class or
function, all of its lines; a comment line holds nothing but a comment.
A line with code and a trailing comment counts as code.

    python tools/count_lines.py src/latentrec
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(source):
    """Number of code lines in the Python source text."""
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skipped.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - skipped)


def main(argv):
    roots = [Path(a) for a in argv] or [Path("src/latentrec")]
    files = sorted(p for root in roots
                   for p in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
