"""Count the lines of Python source that carry code.

    python .github/code_lines.py src/statecomp/*.py

A line carries code when a token other than a comment, a line break or
an indent lies on it; a token spread over several lines (a string, say)
counts each line it spans.  Blank lines, comment lines and the lines of
docstrings (a string that is the first statement of a module, class or
function) do not count.  Prints each file's count, then the total.
"""

import ast
import io
import sys
import tokenize

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that carry code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
