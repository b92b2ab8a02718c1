"""Count the code lines of Python sources.

A code line is a physical line that holds a token other than a comment,
a line break (NL, NEWLINE), an INDENT or DEDENT, or part of a docstring
statement: a string literal standing alone as the first statement of a
module, class or function.  A token that spans several lines, such as a
multi-line string, puts each of them on the count.

    python3 tools/count_code_lines.py src/gstsim

prints each file's count and then the total; arguments may be files or
directories, which are searched for ``*.py``.  Any other argument, such as
``--help``, prints the usage line to stderr and exits with status 2.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

USAGE = "usage: python3 tools/count_code_lines.py [FILE_OR_DIR ...]"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The lines of every docstring statement in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(path: Path) -> int:
    with tokenize.open(path) as fh:
        source = fh.read()
    docs = docstring_lines(ast.parse(source, str(path)))
    lines = set()
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/gstsim"]:
        p = Path(arg)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append(p)
        else:
            print(f"{USAGE}\ncount_code_lines.py: error: no file or directory {arg!r}",
                  file=sys.stderr)
            return 2
    total = 0
    for f in files:
        n = count_code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
