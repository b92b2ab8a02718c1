"""The code-line counter in tools/count_code_lines.py."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
# a comment

import os  # code with a comment


class A:
    """Class docstring."""

    x = """a multi-line
    string that is not a docstring"""

    def f(self):
        """Function docstring."""
        "a second string statement is code"
        return (1 +
                2)
'''


def test_counts_code_lines_and_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, x's two lines, def, the second string, return's two lines
    assert count_code_lines.count_code_lines(path) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# comment\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    assert count_code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "2", "3"]
    assert lines[-1].split()[1] == "total"


@pytest.mark.parametrize("arg", ["--help", "no-such-path"])
def test_an_argument_that_is_no_file_or_directory_is_a_usage_error(tmp_path, capsys, arg):
    (tmp_path / "a.py").write_text("x = 1\n")
    assert count_code_lines.main([str(tmp_path), arg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == count_code_lines.USAGE
    assert repr(arg) in err
