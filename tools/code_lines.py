"""Count the code lines of the Python modules in a directory.

A code line carries at least one token other than a comment; blank lines,
comment-only lines and the lines of module, class and function docstrings
are left out.  A statement that spans several lines counts each of them.

Usage: ``python tools/code_lines.py [DIRECTORY]`` (default ``src/paraunit``)
prints one ``lines path`` row per module, sorted by path, then the total.
"""

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


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in the Python file at ``path``."""
    source = path.read_bytes()
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    root = Path(argv[0] if argv else "src/paraunit")
    modules = sorted(root.rglob("*.py"))
    if not modules:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 2
    total = 0
    for module in modules:
        count = code_lines(module)
        total += count
        print(f"{count:6d} {module.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
