import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py"
)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

FIXTURE = '''"""Module docstring,
two lines."""

# a comment line
import os  # a trailing comment keeps the line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring
        over two lines."""
        return os.sep


async def job():
    \'\'\'Async docstring.\'\'\'
    text = """a string that is
    not a docstring"""
    return (text,
            1)


def one_liner(): "docstring beside code"
'''


def test_counts_code_and_skips_blank_comment_and_docstring_lines(tmp_path, capsys):
    # import, class, def method, return, async def, text = (2 lines),
    # return (2 lines), def one_liner
    assert loc.code_lines(FIXTURE) == 10
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert loc.main(["loc.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["    10  a.py", "     1  b.py", "    11  total"]
