#!/usr/bin/env python3
"""Line counts of the package's source, per file and in total.

lines counts every line of a file; code counts the lines left once
docstrings (a string literal that opens a module, class or function body),
comment-only lines and blank lines are taken out, as found by `ast` and
`tokenize`.  A report: it prints the counts and exits 0.

    python3 scripts/src_lines.py [directory]

The directory defaults to the package, src/pground.
"""

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "pground"


def counts(source: str) -> tuple:
    """(lines, code lines) of the Python source text."""
    lines = source.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    # lines holding a token other than a comment or a line break
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), len(code - skip)


def main(argv: list) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else PACKAGE
    total = [0, 0]
    print(f"{'file':<24} {'lines':>7} {'code':>7}")
    for path in sorted(root.glob("*.py")):
        lines, code = counts(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{path.name:<24} {lines:>7,} {code:>7,}")
    print(f"{'total':<24} {total[0]:>7,} {total[1]:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
