"""Count code lines of Python modules: non-blank lines outside docstrings
and comments, per module and in total.

A docstring is the string-literal first statement of a module, class or
function, all of its lines; a comment line holds nothing but a comment.
A line with code and a trailing comment counts as code.

    python tools/count_lines.py src/latentrec

With --base DIR, one table compares the tree DIR (say, an unpacked base
commit's src/latentrec) with the one given, module by module (matched by
path below each tree; a module missing from one counts 0 there) and in
total: the base count, the head count and the difference.

    python tools/count_lines.py --base /tmp/base/src/latentrec src/latentrec
"""

import argparse
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


def python_files(root):
    """root when it is a file, else the .py files under it, sorted."""
    return [root] if root.is_file() else sorted(root.rglob("*.py"))


def modules(root):
    """{path below root: code lines} of python_files(root)."""
    top = root if root.is_dir() else root.parent
    return {p.relative_to(top).as_posix(): code_lines(p.read_text(encoding="utf-8"))
            for p in python_files(root)}


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", type=Path, help="tree to compare with, one root only")
    parser.add_argument("roots", nargs="*", type=Path, default=[Path("src/latentrec")])
    args = parser.parse_args(argv)
    if args.base is not None:
        if len(args.roots) != 1:
            parser.error("--base compares one tree with one other")
        base, head = modules(args.base), modules(args.roots[0])
        rows = [(base.get(name, 0), head.get(name, 0), name)
                for name in sorted(base.keys() | head.keys())]
        rows.append((sum(base.values()), sum(head.values()), "total"))
        print(f"{'base':>6}  {'head':>6}  {'diff':>6}  module")
        for b, h, name in rows:
            print(f"{b:6d}  {h:6d}  {h - b:+6d}  {name}")
        return 0
    files = sorted(p for root in args.roots for p in python_files(root))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
