import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a multi-line string
        that is not a docstring"""
        return (text,
                os.sep)


async def run():
    "one-line docstring"
    x = 1
    "a later string is a statement"
    return x
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of text, the two of return,
    # async def, x = 1, the later string and return x
    assert code_lines.code_lines(SOURCE) == 11


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["11", str(tmp_path / "a.py")],
        ["2", str(tmp_path / "pkg" / "b.py")],
        ["13", "total"],
    ]


def test_help_prints_usage(capsys):
    with pytest.raises(SystemExit) as info:
        code_lines.main(["code_lines.py", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: code_lines.py [-h] [path ...]")


def test_missing_path_exits_2_with_one_line(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    missing = tmp_path / "nope.py"
    assert code_lines.main(["code_lines.py", str(tmp_path / "a.py"), str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"code_lines.py: error: no such file or directory: {missing}\n"
