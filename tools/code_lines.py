"""Count the code lines of Python files: lines that are not blank, comments or docstrings.

Usage: ``python3 tools/code_lines.py [--against REV] FILE...``.  Prints one
``count path`` line per file and a total, like ``wc -l``.  A line counts
when a token other than a comment, a newline or an indent starts or
continues on it; docstrings (the first string statement of a module, class
or function) do not count.  With ``--against REV`` each file is also
counted as it is at the git revision ``REV`` (``git show REV:path``), a
file missing at ``REV`` or in the working tree counts 0 there, and each line
reads ``count-at-REV count change path``.  Only the standard library is
used.
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: bytes) -> int:
    """The code lines of the Python ``source``."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def source_at(rev: str, path: str) -> bytes:
    """``path`` as it is at the git revision ``rev``; empty if it is missing there."""
    shown = subprocess.run(["git", "show", f"{rev}:./{os.path.relpath(path)}"],
                           capture_output=True)
    return shown.stdout if shown.returncode == 0 else b""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also count each file at this git revision")
    parser.add_argument("paths", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    if args.against is not None:
        check = subprocess.run(["git", "rev-parse", "--verify", "--quiet",
                                f"{args.against}^{{commit}}"], capture_output=True)
        if check.returncode:
            parser.error(f"--against: {args.against!r} is not a git revision")
        print(f"{args.against:>7} {'now':>7} {'change':>7}")
    total = total_before = 0
    for path in args.paths:
        if args.against is not None and not os.path.exists(path):
            count = 0  # deleted since REV
        else:
            with open(path, "rb") as f:
                count = code_lines(f.read())
        total += count
        if args.against is None:
            print(f"{count:7d} {path}")
            continue
        before = code_lines(source_at(args.against, path))
        total_before += before
        print(f"{before:7d} {count:7d} {count - before:+7d} {path}")
    print(f"{total:7d} total" if args.against is None
          else f"{total_before:7d} {total:7d} {total - total_before:+7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
