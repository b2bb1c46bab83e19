"""
Count the code lines of a Python source tree.

    python3 tools/code_lines.py [PARENT_SRC] SRC

A code line is a line that holds a token of code: blank lines, comment lines
and the lines of docstrings (the string that opens a module, class or
function body) do not count, and a string of code spanning several lines
counts each of them. For each module under SRC (every *.py file, by its path
relative to SRC) the script prints its count, then the total. Given two trees
it prints parent -> change for each module found in either tree (a module
missing from one tree counts 0 there), then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of each docstring's string token."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of lines of source that hold a token of code, docstrings left out."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_tree(src: Path) -> dict[str, int]:
    """Code lines of each *.py file under src, keyed by its path relative to src."""
    return {p.relative_to(src).as_posix(): code_lines(p.read_text(encoding="utf-8"))
            for p in sorted(src.rglob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2) or not all(Path(a).is_dir() for a in argv):
        print("usage: python3 tools/code_lines.py [PARENT_SRC] SRC, each a directory", file=sys.stderr)
        return 2
    trees = [count_tree(Path(a)) for a in argv]
    names = sorted(set().union(*trees))
    width = max((len(n) for n in names), default=5)
    for name in names + ["total"]:
        counts = [sum(t.values()) if name == "total" else t.get(name, 0) for t in trees]
        print(f"{name:<{width}}  " + " -> ".join(str(c) for c in counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
