"""Count the code lines of Python files: lines that are not blank, comments or docstrings.

Usage: ``python3 tools/code_lines.py FILE...``.  Prints one ``count path``
line per file and a total, like ``wc -l``.  A line counts when a token
other than a comment, a newline or an indent starts or continues on it;
docstrings (the first string statement of a module, class or function)
do not count.  Only the standard library is used.
"""

import ast
import io
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


def code_lines(path: str) -> int:
    with open(path, "rb") as f:
        source = f.read()
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:7d} {path}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
