"""Count the lines of each `src/cubevar` module and of the package.

Code lines are those holding a token that is neither a comment nor part of
a docstring (the string that opens a module, class or function body), so
blank lines do not count; all lines are every line of the file.

    python tools/code_lines.py [PACKAGE_DIR]
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubevar"

#: Tokens that carry no code: layout, comments and the file's framing.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set:
    """The (line, column) where each docstring of `tree` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(path: Path) -> tuple:
    """(code lines, all lines) of the Python file at `path`."""
    text = path.read_text()
    docs, code = docstring_starts(ast.parse(text)), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT and tok.start not in docs:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), len(text.splitlines())


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else PACKAGE
    total = [0, 0]
    print(f"{'module':<16} {'code':>6} {'all':>6}")
    for path in sorted(package.glob("*.py")):
        code, lines = count(path)
        total = [total[0] + code, total[1] + lines]
        print(f"{path.name:<16} {code:>6} {lines:>6}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6}")


if __name__ == "__main__":
    main()
