import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Seven code lines: the import, the class line, the two lines of x's string,
# the def line and the two lines of the return.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line


class A:
    """Class docstring."""

    x = """a string of code
over two lines"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)
'''


def test_counts_code_without_docstrings_comments_or_blanks():
    assert code_lines.code_lines(FIXTURE) == 7


def test_two_trees_print_parent_to_change(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "pkg").mkdir(parents=True)
        (tree / "pkg" / "a.py").write_text(FIXTURE)
    (parent / "pkg" / "gone.py").write_text("x = 1\ny = 2\n")
    (change / "pkg" / "a.py").write_text(FIXTURE.replace("import os  # a comment after code\n", ""))
    assert code_lines.main([str(parent), str(change)]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["pkg/a.py", "7", "->", "6"], ["pkg/gone.py", "2", "->", "0"], ["total", "9", "->", "6"]]


def test_one_tree_prints_its_counts(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    assert code_lines.main([str(tmp_path)]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [["a.py", "7"], ["total", "7"]]


def test_rejects_a_missing_tree(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err.startswith("usage:")
